"""Benchmark-owned entry point for the ``serve_mixed`` server process.

Runs the public :func:`repro.serve.app.serve_forever` with the serial
backend on an ephemeral port (it prints the bound port on stdout).  With
``--trace`` the layer wrappers are installed first.  On SIGINT the
server drains and returns; this script then writes its peak memory and
any recorded spans to ``--report``.
"""

from __future__ import annotations

import argparse
import json

from child import peak_rss_kb


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from repro.serve.app import serve_forever

    tracer = None
    if args.trace:
        from spans import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
    serve_forever(args.store, host="127.0.0.1", port=0, workers=1,
                  backend="serial")
    report = {"peak_rss_kb": peak_rss_kb(),
              "trace": tracer.dump() if tracer else None}
    with open(args.report, "w") as handle:
        json.dump(report, handle)


if __name__ == "__main__":
    main()
