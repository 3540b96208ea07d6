"""Golden-file pin of the monitor-summary key surface.

The summary row is the repo's *public* measurement API: the exec cache
fingerprints rows, the reporting layer names columns after these keys,
and the trace overlay documents which ``cc_*`` counter each event kind
feeds.  A key appearing or disappearing is an interface change — it
must show up in a diff of the golden files, not silently.

To extend the surface deliberately: update ``CCStats.KEYS`` (or the
monitor), re-run these tests with fresh output, and update the golden
JSON alongside the docs in README's Observability section.
"""

import json
import os

from repro.cc.base import CCStats
from repro.core import DistributedConfig, TimingConfig, WorkloadConfig
from repro.core.config import SingleSiteConfig
from repro.core.experiment import run_single_site
from repro.dist import DistributedSystem
from repro.txn import CostModel

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _golden(name):
    with open(os.path.join(GOLDEN, name), "r", encoding="utf-8") as f:
        return json.load(f)


def test_single_site_summary_keys_are_pinned():
    summary = run_single_site(
        SingleSiteConfig(protocol="C", db_size=100, seed=11))
    assert sorted(summary) == _golden(
        "summary_keys_single_site.json")


def test_distributed_summary_keys_are_pinned():
    config = DistributedConfig(
        mode="local", comm_delay=1.0, db_size=60, seed=3,
        workload=WorkloadConfig(n_transactions=40,
                                mean_interarrival=4.0,
                                transaction_size=4, size_jitter=1,
                                read_only_fraction=0.5),
        timing=TimingConfig(slack_factor=10.0),
        costs=CostModel(cpu_per_object=1.0, io_per_object=0.0))
    system = DistributedSystem(config)
    system.run()
    assert sorted(system.summary()) == _golden(
        "summary_keys_distributed.json")


def test_cc_counter_keys_match_documented_prefix_surface():
    # Every CCStats counter appears in both summaries as cc_<name>,
    # and nothing else claims the cc_ prefix.
    expected = sorted(f"cc_{name}" for name in CCStats.KEYS)
    for name in ("summary_keys_single_site.json",
                 "summary_keys_distributed.json"):
        pinned = [key for key in _golden(name)
                  if key.startswith("cc_")]
        assert pinned == expected
