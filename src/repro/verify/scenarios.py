"""Small verification configurations with hand-built schedules.

Every scenario wires a *real* system (the same builders the
experiments use) around an explicit transaction schedule chosen to be
small enough for exhaustive exploration and adversarial enough to
exercise the protocol: opposite-order accesses, simultaneous arrivals
(a simultaneous arrival is an event tie — the explorer's raw
material), and equal deadlines (a CPU-queue tie).

A scenario's :meth:`Scenario.build` returns a fresh
:class:`ScenarioInstance` with a private tracer and a private
non-strict sanitizer installed, so checkers and counterexample export
work without touching process-global state.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..analyze.sanitizer import Sanitizer
from ..core.builder import SingleSiteSystem
from ..core.config import (DistributedConfig, SingleSiteConfig,
                           TimingConfig, WorkloadConfig)
from ..db.locks import LockMode
from ..dist.system import DistributedSystem
from ..kernel.controlled import pending_signature
from ..kernel.hooks import observing
from ..trace.tracer import Tracer
from ..txn.generator import TransactionSpec
from ..txn.manager import CostModel

#: Trace kinds that witness semantic progress; their per-transaction
#: counts are part of the state digest (they distinguish states the
#: structural snapshot alone cannot, e.g. how far a transaction is
#: through its operation list).
_PROGRESS_KINDS = frozenset((
    "lock_grant", "lock_release", "txn_start", "txn_commit",
    "txn_abort", "txn_restart", "txn_miss", "msg_deliver",
    "2pc_prepare", "2pc_decide", "2pc_done",
))

_R = LockMode.READ
_W = LockMode.WRITE


class ScenarioInstance:
    """One freshly built, runnable system plus its observers."""

    def __init__(self, system: Any, ccs: List[Any], label: str,
                 tracer: Tracer, sanitizer: Sanitizer,
                 expect_deadlocks: bool = False,
                 expect_misses: bool = False):
        self.system = system
        self.kernel = system.kernel
        self.monitor = system.monitor
        self.schedule = system.schedule
        self.ccs = ccs
        self.label = label
        self.tracer = tracer
        self.sanitizer = sanitizer
        #: The paper's 2PL ("L") ships *without* deadlock resolution —
        #: a wait-for cycle parks its members until their deadline
        #: timers fire, by design.  Scenarios over such protocols set
        #: this so a cycle is not reported as a violation (progress is
        #: still checked: the deadline misses must terminate everyone).
        self.expect_deadlocks = expect_deadlocks
        #: These configurations carry generous slack: under the
        #: *correct* protocol no interleaving misses a deadline (the
        #: matrix above was explored exhaustively to confirm it).  A
        #: miss therefore witnesses a protocol bug — typically a lost
        #: wakeup, which is otherwise invisible because the deadline
        #: timer cleans up after it.  Deadlock-prone 2PL scenarios
        #: expect misses: the deadline is the paper's cycle breaker.
        self.expect_misses = expect_misses
        self._cpus, self._disks = self._find_resources(system)

    @staticmethod
    def _find_resources(system: Any) -> Tuple[List[Any], List[Any]]:
        """CPUs and disk arrays reachable from the system, duck-typed.

        Their queue *order* is semantic state (equal-priority CPU ties
        and FIFO disk service both break on enqueue sequence), so the
        snapshot must include it or the explorer would treat two
        enqueue orders as the same state.
        """
        cpus: List[Any] = []
        disks: List[Any] = []
        holders = [system] + list(getattr(system, "sites", ()) or ())
        for holder in holders:
            for attr in ("cpu", "io"):
                resource = getattr(holder, attr, None)
                if resource is None:
                    continue
                if hasattr(resource, "_jobs"):
                    cpus.append(resource)
                elif hasattr(resource, "_in_service"):
                    disks.append(resource)
        return cpus, disks

    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        self.system.run(until=until)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[tuple, Any]:
        """Fine-grained keyed snapshot of protocol-relevant state.

        Keys are tuples whose first element names the component, so
        per-dispatch *diffs* of this map act as effect footprints for
        the explorer's independence test, and the full map (plus the
        pending-event signature) is the state digest for convergence
        pruning.
        """
        state: Dict[tuple, Any] = {}
        for index, cc in enumerate(self.ccs):
            locks = cc.locks
            for oid in locks.locked_oids():
                holders = tuple(sorted(
                    (getattr(owner, "tid", -1), mode.value)
                    for owner, mode in locks.holders(oid).items()))
                if holders:
                    state[("lock", index, oid)] = holders
            state[("wait", index)] = tuple(sorted(
                (getattr(request.txn, "tid", -1), request.oid,
                 str(request.mode))
                for request in cc.waiting))
            accessors = getattr(cc, "_accessors", None)
            if accessors is not None:
                state[("reg", index)] = tuple(sorted(
                    (oid, tuple(sorted(tids)))
                    for oid, tids in accessors.items() if tids))
        for process in self.kernel.processes:
            state[("proc", process.name)] = (
                process.state.name, process.effective_priority)
        for cpu in self._cpus:
            running = cpu.running_process
            state[("cpu", cpu.name)] = (
                running.name if running is not None else None,
                tuple(name for __, name in sorted(
                    (job.seq, job.process.name)
                    for job in cpu._jobs.values())))
        for disks in self._disks:
            state[("disk", disks.name)] = (
                tuple(sorted(process.name
                             for process in disks._in_service)),
                tuple(process.name
                      for __, process, ___ in disks._queue._entries))
        state[("pending",)] = pending_signature(self.kernel.events)
        progress: Dict[tuple, int] = {}
        for event in self.tracer.events:
            if event.kind in _PROGRESS_KINDS:
                oid = (event.data or {}).get("oid")
                key = (event.kind, event.tid, event.site, oid)
                progress[key] = progress.get(key, 0) + 1
        state[("progress",)] = tuple(sorted(progress.items(),
                                            key=repr))
        return state

    #: Snapshot keys excluded from effect footprints: they change on
    #: (almost) every dispatch, so including them would make every
    #: pair of events look dependent.
    FOOTPRINT_EXCLUDED = frozenset((("pending",), ("progress",)))

    # ------------------------------------------------------------------
    def unfinished_transactions(self) -> List[str]:
        """Names of transaction-manager processes that never finished."""
        return [process.name for process in self.kernel.processes
                if process.name.startswith("tm-")
                and not process.terminated]


class Scenario:
    """A named, reproducible verification configuration."""

    def __init__(self, name: str, title: str,
                 factory: Callable[[], Tuple[Any, List[Any]]],
                 expect_deadlocks: bool = False,
                 expect_misses: bool = False):
        self.name = name
        self.title = title
        self._factory = factory
        self.expect_deadlocks = expect_deadlocks
        # A protocol that parks deadlock cycles until deadlines fire
        # necessarily misses those deadlines.
        self.expect_misses = expect_misses or expect_deadlocks

    def build(self) -> ScenarioInstance:
        """Construct a fresh instance with private observers.

        The tracer and the (non-strict) sanitizer observe only the
        system built here — its kernel samples the activation once, at
        construction — and stand in for any already active (e.g. a CI
        job running under ``REPRO_SANITIZE=1``), so building scenarios
        never leaks into, or inherits from, the surrounding process
        state.  Every build names its transactions and processes
        identically (ids are per system, from 1): replayed trails match
        explored trails verbatim, and state digests are comparable
        *across* schedules (convergence pruning depends on it).
        """
        tracer = Tracer(capacity=1 << 16)
        sanitizer = Sanitizer(strict=False)
        with observing(tracer, sanitizer):
            system, ccs = self._factory()
        return ScenarioInstance(system, ccs, self.name, tracer,
                                sanitizer,
                                expect_deadlocks=self.expect_deadlocks,
                                expect_misses=self.expect_misses)


# ----------------------------------------------------------------------
# factories
# ----------------------------------------------------------------------
def _spec(arrival: float, ops: List[Tuple[int, LockMode]],
          site: int = 0) -> TransactionSpec:
    return TransactionSpec(arrival=arrival, operations=tuple(ops),
                           site=site)


def _single_site(protocol: str,
                 specs: List[TransactionSpec],
                 db_size: int) -> Tuple[Any, List[Any]]:
    config = SingleSiteConfig(
        protocol=protocol, db_size=db_size,
        workload=WorkloadConfig(n_transactions=len(specs),
                                transaction_size=1),
        timing=TimingConfig(slack_factor=8.0),
        costs=CostModel(cpu_per_object=1.0, io_per_object=0.0,
                        restart_delay=0.5),
        seed=1)
    system = SingleSiteSystem(config, schedule=specs)
    return system, [system.cc]


def _distributed(mode: str,
                 specs: List[TransactionSpec],
                 n_sites: int = 2,
                 db_size: int = 2,
                 slack_factor: float = 12.0) -> Tuple[Any, List[Any]]:
    config = DistributedConfig(
        mode=mode, n_sites=n_sites, db_size=db_size, comm_delay=1.0,
        workload=WorkloadConfig(n_transactions=len(specs),
                                transaction_size=1,
                                read_only_fraction=0.0),
        timing=TimingConfig(slack_factor=slack_factor),
        costs=CostModel(cpu_per_object=1.0, io_per_object=0.0,
                        restart_delay=0.5),
        seed=1)
    system = DistributedSystem(config, schedule=specs)
    return system, list(system.ccs.values())


def _pcp_2x2() -> Tuple[Any, List[Any]]:
    # Two simultaneous update transactions with opposite-order
    # accesses over two objects: the classic shape that deadlocks 2PL
    # and that PCP must serialise through ceiling admission.
    specs = [_spec(0.0, [(0, _W), (1, _R)]),
             _spec(0.0, [(1, _W), (0, _R)])]
    return _single_site("C", specs, db_size=2)


def _twopl_2x2() -> Tuple[Any, List[Any]]:
    specs = [_spec(0.0, [(0, _W), (1, _R)]),
             _spec(0.0, [(1, _W), (0, _R)])]
    return _single_site("L", specs, db_size=2)


def _pcp_3x2() -> Tuple[Any, List[Any]]:
    # A third, read-only transaction joins at the same instant: three
    # equal-priority arrivals contending for two objects.
    specs = [_spec(0.0, [(0, _W), (1, _R)]),
             _spec(0.0, [(1, _W), (0, _R)]),
             _spec(0.0, [(0, _R)])]
    return _single_site("C", specs, db_size=2)


def _twopl_3x3() -> Tuple[Any, List[Any]]:
    # Three-way circular conflict over three objects.
    specs = [_spec(0.0, [(0, _W), (1, _W)]),
             _spec(0.0, [(1, _W), (2, _W)]),
             _spec(0.0, [(2, _W), (0, _W)])]
    return _single_site("L", specs, db_size=3)


def _twopl_3x1() -> Tuple[Any, List[Any]]:
    # Two writers and a reader convoy on one object: no cycle can form,
    # so — unlike the deadlock-prone 2PL scenarios, where every
    # interleaving ends in deadline misses anyway — a miss here can
    # only be a waiter nobody woke.
    specs = [_spec(0.0, [(0, _W)]),
             _spec(0.0, [(0, _W)]),
             _spec(0.0, [(0, _R)])]
    return _single_site("L", specs, db_size=1)


def _dist_global_2x2() -> Tuple[Any, List[Any]]:
    # Two sites, one writer each, overlapping on object 0; 2PC runs
    # under every explored message-delivery order.  The remote writer
    # pays five round trips (register, lock, data, prepare, decide)
    # behind the local one's critical section: twice the slack of the
    # local-mode scenario, or it misses its deadline in every order.
    specs = [_spec(0.0, [(0, _W), (1, _R)], site=0),
             _spec(0.0, [(0, _W)], site=1)]
    return _distributed("global", specs, slack_factor=24.0)


def _dist_local_2x2() -> Tuple[Any, List[Any]]:
    # Local mode enforces R2 (a site updates only its primary
    # copies): each writer stays home, and the conflict runs through
    # T1's read of object 1 racing T2's replicated update of it.
    specs = [_spec(0.0, [(0, _W), (1, _R)], site=0),
             _spec(0.0, [(1, _W)], site=1)]
    return _distributed("local", specs)


#: The registry, in documentation order.  CI's verify job runs the
#: whole matrix; ``repro verify --scenario NAME`` selects from here.
SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario for scenario in (
        Scenario("pcp-2x2",
                 "PCP, 2 txns / 2 objects, opposite-order accesses",
                 _pcp_2x2),
        Scenario("twopl-2x2",
                 "2PL, 2 txns / 2 objects, deadlock-prone pattern",
                 _twopl_2x2, expect_deadlocks=True),
        Scenario("pcp-3x2",
                 "PCP, 3 txns / 2 objects, reader joins the conflict",
                 _pcp_3x2),
        Scenario("twopl-3x3",
                 "2PL, 3 txns / 3 objects, three-way circular conflict",
                 _twopl_3x3, expect_deadlocks=True),
        Scenario("twopl-3x1",
                 "2PL, 3 txns / 1 object, deadlock-free convoy",
                 _twopl_3x1),
        Scenario("dist-global-2x2",
                 "global ceiling, 2 sites / 2 txns, shared hot object",
                 _dist_global_2x2),
        Scenario("dist-local-2x2",
                 "local ceilings, 2 sites / 2 txns, shared hot object",
                 _dist_local_2x2),
    )
}
