"""Regression: deadlock victims must be able to break the cycle.

Found by the ablation harness: under detect-and-restart policies, a
restarting transaction that blocks on its *first* lock can appear on a
waits-for cycle purely through queue-fairness edges while holding no
locks.  Choosing it as the victim aborts it without releasing anything;
it restarts, re-blocks and is re-chosen in zero virtual time — the
simulation livelocks at a frozen timestamp.  ``_select_victim`` now
restricts candidates to lock-holding cycle members.
"""

import dataclasses
import threading

import pytest

from repro.bench.figures import single_site_config
from repro.core.builder import SingleSiteSystem
from repro.cc.twopl import TwoPhaseLocking
from tests.conftest import LockClient, make_txn


@pytest.mark.parametrize("policy", ("requester", "lowest_priority",
                                    "youngest"))
@pytest.mark.parametrize("seed", (1001, 2001))
def test_detect_and_restart_never_freezes_virtual_time(policy, seed):
    # These seed/policy combinations livelocked before the fix.  Run
    # in a watchdog thread: a hang is reported as a failure, not a
    # stuck test session.
    config = dataclasses.replace(single_site_config("P", 17,
                                                    n_transactions=120),
                                 seed=seed)
    system = SingleSiteSystem(config)
    system.cc.victim_policy = policy
    finished = []

    def run():
        system.run()
        finished.append(True)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert finished, (f"simulation froze at t={system.kernel.now:.2f} "
                      f"under policy {policy!r}")
    assert system.monitor.processed == 120


def test_victim_selection_prefers_lock_holders(kernel):
    cc = TwoPhaseLocking(kernel, victim_policy="youngest")
    holder_a = make_txn([(1, "w"), (2, "w")], priority=1)
    holder_b = make_txn([(2, "w"), (1, "w")], priority=1)
    LockClient(kernel, cc, holder_a, hold_each=2.0)
    LockClient(kernel, cc, holder_b, hold_each=2.0)
    # A bystander with the largest tid that never holds anything: it
    # must NOT be chosen even though "youngest" would rank it first.
    bystander = make_txn([(1, "w")], priority=1)
    client = LockClient(kernel, cc, bystander, start_delay=1.5)
    kernel.run()
    assert not client.aborted          # never victimised
    assert client.finished
    assert cc.stats.deadlocks >= 1     # the holder cycle was resolved
    assert len(cc.locks) == 0
