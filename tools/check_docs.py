#!/usr/bin/env python3
"""Execute every documented CLI command and fail on drift.

The executable docs pages (``docs/cli.md`` and ``docs/chaos.md``)
promise that every fenced ``console`` command on them runs; this
script keeps the promise enforceable:

1. **Smoke-run**: each ````console```` fence is executed as one
   ``bash -e`` script (lines starting with ``$ `` are commands, with
   backslash and open-quote continuations; everything else is
   display-only output).  All fences of one page share one scratch
   directory, in document order, so multi-step flows (export a file,
   then sweep it) work; pages are isolated from each other.  A
   ``repro`` shim on ``PATH`` maps to ``python -m repro`` with
   ``PYTHONPATH=src``, so the pages work installed or not.
2. **Coverage**: every subcommand registered in
   :func:`repro.cli.build_parser` (including nested ``fleet``/
   ``chaos``/``store`` actions) must be mentioned on at least one of
   the pages as ``repro <name>`` — adding a subcommand without
   documenting it fails CI.

Exit status is non-zero on the first failing fence or any
undocumented subcommand.  Run it from the repo root::

    python tools/check_docs.py [--quick]

``--quick`` skips fences marked ``<!-- docs-check: slow -->`` (none
at the moment); fences marked ``<!-- docs-check: skip -->`` are never
executed.
"""

from __future__ import annotations

import argparse
import os
import re
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = [
    REPO_ROOT / "docs" / "cli.md",
    REPO_ROOT / "docs" / "chaos.md",
    REPO_ROOT / "docs" / "learned-policies.md",
]
FENCE_TIMEOUT_S = 600

SKIP_MARK = "<!-- docs-check: skip -->"
SLOW_MARK = "<!-- docs-check: slow -->"


def extract_fences(text: str, language: str = "console",
                   ) -> list[tuple[int, str, list[str]]]:
    """(start_line, marker, lines) for every ``language`` fence."""
    fences = []
    lines = text.splitlines()
    index = 0
    marker = ""
    while index < len(lines):
        stripped = lines[index].strip()
        if stripped in (SKIP_MARK, SLOW_MARK):
            marker = stripped
        elif stripped == "```" + language:
            start = index + 1
            body = []
            index += 1
            while index < len(lines) and lines[index].strip() != "```":
                body.append(lines[index])
                index += 1
            fences.append((start, marker, body))
            marker = ""
        elif stripped:
            marker = ""
        index += 1
    return fences


def _open_quote(command: str) -> str | None:
    """The unterminated shell quote at the end of ``command``, if any.

    A real scanner rather than parity counting: an apostrophe inside a
    double-quoted string (``echo "it's ready"``) must not count as an
    open single quote, or the command would swallow its own display
    output as a continuation.
    """
    quote = None
    index = 0
    while index < len(command):
        char = command[index]
        if quote is None:
            if char == "\\":
                index += 2
                continue
            if char in "\"'":
                quote = char
        elif quote == '"':
            if char == "\\":        # \" and \\ inside double quotes
                index += 2
                continue
            if char == '"':
                quote = None
        elif char == "'":           # single quotes: all literal inside
            quote = None
        index += 1
    return quote


def _continues(command: str) -> bool:
    """Whether a ``$``-command is incomplete (continuation follows)."""
    if _open_quote(command) is not None:
        return True
    return command.rstrip().endswith("\\")


def fence_commands(body: list[str]) -> list[str]:
    """The executable commands of one fence, continuations joined."""
    commands = []
    current: list[str] | None = None
    for line in body:
        if line.startswith("$ "):
            if current is not None:
                commands.append("\n".join(current))
            current = [line[2:]]
        elif current is not None and _continues("\n".join(current)):
            current.append(line)
        else:
            if current is not None:
                commands.append("\n".join(current))
                current = None
            # else: display-only output line
    if current is not None:
        commands.append("\n".join(current))
    return commands


def make_repro_shim(bin_dir: Path) -> None:
    """A ``repro`` executable mapping to ``python -m repro``."""
    shim = bin_dir / "repro"
    shim.write_text("#!/bin/sh\n"
                    f'exec "{sys.executable}" -m repro "$@"\n')
    shim.chmod(shim.stat().st_mode | stat.S_IXUSR | stat.S_IXGRP)


def run_fences(doc: Path, quick: bool) -> int:
    text = doc.read_text()
    fences = extract_fences(text)
    if not fences:
        print(f"error: no console fences found in {doc}",
              file=sys.stderr)
        return 1
    failures = 0
    executed = 0
    with tempfile.TemporaryDirectory(prefix="docs-check-") as tmp:
        scratch = Path(tmp) / "scratch"
        scratch.mkdir()
        bin_dir = Path(tmp) / "bin"
        bin_dir.mkdir()
        make_repro_shim(bin_dir)
        env = {
            **os.environ,
            "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
            "PYTHONPATH": os.pathsep.join(
                [str(REPO_ROOT / "src")]
                + ([os.environ["PYTHONPATH"]]
                   if os.environ.get("PYTHONPATH") else [])),
        }
        for start, marker, body in fences:
            if marker == SKIP_MARK or (quick and marker == SLOW_MARK):
                print(f"  skip  {doc.name}:{start} ({marker})")
                continue
            commands = fence_commands(body)
            if not commands:
                continue
            script = "set -e\n" + "\n".join(commands) + "\n"
            label = commands[0].splitlines()[0]
            try:
                proc = subprocess.run(
                    ["bash", "-c", script], cwd=scratch, env=env,
                    capture_output=True, text=True, timeout=FENCE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                print(f"  FAIL  {doc.name}:{start}  {label}  "
                      f"(timeout after {FENCE_TIMEOUT_S}s)")
                failures += 1
                continue
            executed += 1
            if proc.returncode != 0:
                failures += 1
                print(f"  FAIL  {doc.name}:{start}  {label}")
                tail = (proc.stderr or proc.stdout).strip().splitlines()[-12:]
                for line in tail:
                    print(f"        {line}")
            else:
                print(f"  ok    {doc.name}:{start}  {label}")
    print(f"{doc.name}: {executed} fence(s) executed, "
          f"{failures} failure(s)")
    return 1 if failures else 0


def documented_subcommands(text: str) -> int:
    """Every parser subcommand must appear as ``repro <name>``."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.cli import build_parser

    missing = []
    parser = build_parser()
    for action in parser._subparsers._group_actions:  # noqa: SLF001
        for name, sub in action.choices.items():
            if not re.search(rf"repro {re.escape(name)}\b", text):
                missing.append(name)
            nested = sub._subparsers  # noqa: SLF001
            if nested is None:
                continue
            for nested_action in nested._group_actions:  # noqa: SLF001
                for nested_name in nested_action.choices:
                    if not re.search(
                            rf"repro {re.escape(name)} {nested_name}\b",
                            text):
                        missing.append(f"{name} {nested_name}")
    if missing:
        pages = ", ".join(doc.name for doc in DOC_FILES)
        print(f"error: subcommand(s) missing from the docs pages "
              f"({pages}): {missing}", file=sys.stderr)
        return 1
    print("all subcommands documented")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="skip fences marked docs-check: slow")
    args = parser.parse_args()
    print("docs-check: "
          + ", ".join(str(doc.relative_to(REPO_ROOT))
                      for doc in DOC_FILES))
    status = documented_subcommands(
        "\n".join(doc.read_text() for doc in DOC_FILES))
    for doc in DOC_FILES:
        status |= run_fences(doc, args.quick)
    return status


if __name__ == "__main__":
    sys.exit(main())
