"""Pinned store addresses and response bytes of the policy-study routes.

A store is only useful across releases if the same request keeps the
same address: a change to how a route normalizes or digests its
request would silently cold-start every existing store, and a change
to how it renders its ranking would serve different bytes for the
same question.  These literals were recorded from the serial backend
and must not move unless the canonical payloads are meant to change.
"""

import hashlib

import pytest

from repro.fleet import get_fleet
from repro.serve import ResultStore, ServeService

SEARCH_BODY = {"scenario": "cloudy_week_multi_day",
               "policies": ["energy_aware"],
               "grid": {"static_duty_cycle": {"rate_per_min": [2, 24]}}}
FLEET_BODY = {"spec": get_fleet("office_cohort_week").replace(
                  n_wearers=2, horizon_days=1).to_dict(),
              "policies": ["energy_aware", "ewma_forecast"]}

FLEET_SEARCH_DIGEST = (
    "ec9a327eac4b16d2754387fb0e2a60cea0ccdee63a04d4d392f4a96bde955a84")

#: path -> (request body, store digest, SHA-256 of the response body).
PINS = {
    "/search": (
        SEARCH_BODY,
        "74d224f5f048f92cb4991f8e3f6cbe0d0aa232fbb614a00255ef77d271bd12c8",
        "7fd0b8bfcbdfaaeee3317cd8d7e6946f15a56cc1fc85e6ab3d3d15d4f194c36e"),
    "/fleet/search": (
        FLEET_BODY, FLEET_SEARCH_DIGEST,
        "fb13ab832bd45526b3c6852ed98a323f06067d3b4acbecc4a713c237b5ad0be3"),
    # /recommend reads the /fleet/search entry: same address.
    "/recommend": (
        FLEET_BODY, FLEET_SEARCH_DIGEST,
        "d47d42610e2a3f188eece23851f00fab33bdee137f4d1ab7fb5ed84ea1abcffa"),
}


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return ResultStore(tmp_path_factory.mktemp("pinned"))


@pytest.fixture(scope="module")
def service(store):
    return ServeService(store, backend="serial")


@pytest.mark.parametrize("path", list(PINS))
def test_digest_and_body_are_pinned(store, service, path):
    body, digest, body_sha256 = PINS[path]
    response = service.handle("POST", path, body)
    assert response.status == 200
    assert hashlib.sha256(response.body).hexdigest() == body_sha256
    assert store.get(digest) is not None

