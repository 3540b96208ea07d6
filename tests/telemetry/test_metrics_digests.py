"""Per-series pins of the metered golden scenarios.

Each of the golden scenarios (``tests/core/golden_scenarios.py``) runs
under :func:`metering`; every series of the finalized ``dump()`` is
hashed on its own (SHA-256 of its canonical JSON), and the digests are
frozen in ``metrics_digests.json``.  A change to how the registry
windows, buckets or labels its instruments, or to what a probe
records, fails here with the scenario and the series named.

The series carry only floats built by ``+``/``-`` and ``repr``-stable
JSON, so the digests are the same on every supported Python.
Regenerate deliberately (only when a probe is meant to record
something else)::

    PYTHONPATH=src:. python tests/telemetry/test_metrics_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from repro.telemetry import metering
from tests.core.golden_scenarios import SCENARIOS, run_scenario

DIGESTS = os.path.join(os.path.dirname(__file__), "metrics_digests.json")


def series_digests(name: str) -> dict:
    """Series key (``name{k=v,...}``) -> SHA-256 of its JSON, for one
    metered run of scenario ``name``."""
    with metering() as registry:
        run_scenario(name)
    registry.finalize()
    digests = {}
    for series in registry.dump()["series"]:
        labels = ",".join(f"{k}={v}" for k, v in series["labels"].items())
        text = json.dumps(series, sort_keys=True, separators=(",", ":"))
        digests[f"{series['name']}{{{labels}}}"] = hashlib.sha256(
            text.encode("utf-8")).hexdigest()
    return digests


def load_digests() -> dict:
    with open(DIGESTS, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_metrics_series_match_their_pins(name):
    pinned, got = load_digests()[name], series_digests(name)
    problems = [
        f"{name}: series {key} "
        + ("is new" if key not in pinned else
           "is gone" if key not in got else "changed")
        for key in sorted(set(pinned) | set(got))
        if pinned.get(key) != got.get(key)]
    assert not problems, "\n".join(problems)


if __name__ == "__main__":
    if "--write" not in sys.argv:
        print(__doc__)
        sys.exit(2)
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump({name: series_digests(name) for name in sorted(SCENARIOS)},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {DIGESTS}")
