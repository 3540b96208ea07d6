"""Property test: the tid-keyed inheritance bookkeeping restores in the
order the set of transactions it replaced did.

``ConcurrencyControl._inheriting`` used to be a ``set`` of
:class:`Transaction` objects; it is a ``set`` of their tids now, so
that membership costs no Python-level ``__hash__``.  The restore loop
of ``_apply_inheritance`` *iterates* it, and that order reaches
``kernel.set_inherited_priority`` (the CPU poke, the trace).  A set of
ints iterates as the set of transactions did because
``hash(txn) == txn.tid == hash(tid)`` and both see the same add/discard
history — which is what this test replays: the reference below is the
historical code over a real set of transactions.  A dict keyed by tid
(insertion order) fails it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc import PriorityInheritance
from repro.kernel import Delay, Kernel
from tests.conftest import make_txn

_POOL = 12

#: tids chosen to collide in small hash tables (equal modulo 8, 16,
#: 32) and not to: the iteration order of a set depends on both.
_tids = st.lists(st.integers(min_value=1, max_value=4096),
                 min_size=_POOL, max_size=_POOL, unique=True)

#: Each round is the set of pool members that receive a contribution.
_rounds = st.lists(st.sets(st.integers(min_value=0, max_value=_POOL - 1)),
                   min_size=1, max_size=12)


def _parked():
    yield Delay(1e6)


@given(tids=_tids, rounds=_rounds)
@settings(max_examples=200, deadline=None)
def test_restore_order_is_that_of_a_set_of_transactions(tids, rounds):
    kernel = Kernel(seed=1)
    cc = PriorityInheritance(kernel)
    pool = []
    for index, tid in enumerate(tids):
        txn = make_txn([(index, "w")], priority=1.0)
        txn.tid = tid  # hash(txn) follows: Transaction.__hash__ is tid
        txn.process = kernel.spawn(_parked(), f"tm-{tid}", priority=1.0)
        pool.append(txn)
    restored = []
    real = kernel.set_inherited_priority

    def recording(process, priority):
        if priority is None:
            restored.append(process.name)
        real(process, priority)

    kernel.set_inherited_priority = recording
    reference = set()  # the historical _inheriting
    for members in rounds:
        chosen = [pool[index] for index in sorted(members)]
        expected = []
        for txn in list(reference):
            if txn not in chosen:
                reference.discard(txn)
                expected.append(txn.process.name)
        for txn in chosen:
            reference.add(txn)
        del restored[:]
        cc._apply_inheritance({txn.tid: 5.0 for txn in chosen},
                              {txn.tid: txn for txn in chosen})
        assert restored == expected
        assert cc._inheriting == {txn.tid for txn in reference}
        assert list(cc._inheriting) == [txn.tid for txn in reference]
        assert cc._inheriting_txn == {txn.tid: txn for txn in reference}
