"""``docs/policy-cookbook.md`` is executable: its ``python`` fences run.

Every ``python`` fence on the page runs in document order in one
namespace, so a fence may use what an earlier one defined.  Fences
marked ``<!-- docs-check: slow -->`` (the process-pool grid searches
over a whole scenario library entry or fleet) are only compiled here.
The cookbook's third-party policy is then run on a small fleet on the
``serial`` and ``vector`` backends, which must print the same
canonical JSON.
"""

import sys

import pytest

from repro.fleet import FleetRunner, FleetSpec
from repro.policies import PolicyGrid
from repro.scenarios import POLICIES
from repro.scenarios.spec import canonical_json

from tests.helpers import REPO_ROOT

sys.path.insert(0, str(REPO_ROOT / "tools"))
import check_docs  # noqa: E402

COOKBOOK = REPO_ROOT / "docs" / "policy-cookbook.md"
SMALL_FLEET = FleetSpec(name="cookbook", base_scenario="sunny_office_worker",
                        n_wearers=3, horizon_days=2, seed=5)


@pytest.fixture
def cookbook():
    """The namespace left by running the page's fences; the policies
    the page registers are removed again afterwards."""
    namespace = {"__name__": "policy_cookbook"}
    fences = check_docs.extract_fences(COOKBOOK.read_text(), "python")
    try:
        for start, marker, body in fences:
            code = compile("\n".join(body), f"{COOKBOOK.name}:{start}",
                           "exec")
            if marker != check_docs.SLOW_MARK:
                exec(code, namespace)
        yield namespace
    finally:
        for name in ("siesta_saver", "siesta_saver_batch"):
            if name in POLICIES:
                POLICIES.remove(name)


def test_fences_run_and_register_the_example_policy(cookbook):
    assert "siesta_saver" in POLICIES
    assert "siesta_saver_batch" in POLICIES
    saver = cookbook["SiestaSaver"](570e-6)
    assert saver.decide(3600.0, 60.0, 1e-3, 0.5) == saver.floor_per_min
    assert saver.decide(16 * 3600.0, 60.0, 1e-3, 0.5) == pytest.approx(
        1e-3 * 60.0 / 570e-6)


def test_example_policy_agrees_on_serial_and_vector(cookbook):
    grids = [PolicyGrid("siesta_saver",
                        axes={"floor_per_min": (2.0, 4.0)}),
             PolicyGrid("energy_aware")]
    payloads = {
        backend: canonical_json(FleetRunner(workers=1, backend=backend)
                                .run_grid(SMALL_FLEET, grids).to_dict())
        for backend in ("serial", "vector")}
    assert payloads["serial"] == payloads["vector"]
    assert "siesta_saver" in payloads["serial"]
