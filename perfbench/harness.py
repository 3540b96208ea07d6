"""The measuring harness: rounds, reference slices, spans, children.

One *round* walks a workload's unit list, timing each unit on the
process CPU clock and executing one reference slice (see
:mod:`perfbench.refload`) before the first unit and after every unit.
``rel_cost`` is the median over rounds of ``sum(unit) / mean(slice)``.
Rounds repeat until the ``--seconds`` budget is used; since every round
is the same work and the estimator is a median of per-round ratios, the
number of rounds changes the estimate's precision, not its value.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exec import ResultCache

from . import ROOT
from .env import child_env
from .refload import NOMINAL_SLICE_S, timed_slice
from .stats import round_ratio, speed_corrected
from .workloads import WORKLOADS, Workload, digest

#: Fewest timed rounds a run reports from, whatever the budget.
MIN_ROUNDS = 5

#: Child interpreters per ``setup_s`` reading.
SETUP_CHILDREN = 15

#: Where the ``exec_cache`` result caches live (each removed when its
#: round ends).  Memory-backed when the host has ``/dev/shm``: the CPU
#: cost of the same file operations on the checkout's disk drifted
#: 6.5-fold against the reference slice within minutes (journal and
#: writeback work lands in the caller's system time), against +-8 % on
#: tmpfs.  Otherwise a directory inside the checkout.
SHM = "/dev/shm"
SCRATCH = os.path.join(ROOT, ".perfbench_scratch")


def scratch_dir() -> str:
    """A fresh directory for one round's result cache."""
    if os.path.isdir(SHM) and os.access(SHM, os.W_OK | os.X_OK):
        return tempfile.mkdtemp(prefix="perfbench-cache-", dir=SHM)
    os.makedirs(SCRATCH, exist_ok=True)
    return tempfile.mkdtemp(prefix="cache-", dir=SCRATCH)

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "digests.json")


def load_digests(path: str = DIGESTS_PATH) -> Dict[str, Dict[str, str]]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Round:
    """What one pass over the unit list measured."""

    unit_s: List[float]
    slice_s: List[float]
    ops: int
    #: ``{uid: digest}`` of every unit that returned; a unit that
    #: raised is absent.
    digests: Dict[str, str]
    results: List[object]
    queue_stats: List[Tuple[int, int]]
    #: Cache counters of the round (``exec_cache`` only).
    cache_hits: int = 0
    cache_writes: int = 0

    @property
    def ratio(self) -> float:
        return round_ratio(self.unit_s, self.slice_s)


class Spans:
    """In-memory span log of the traced run (written out at exit)."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: List[dict] = []

    def open(self, name: str, parent: Optional[int],
             unit: Optional[str] = None) -> int:
        self.spans.append({"id": len(self.spans), "name": name,
                           "parent": parent, "unit": unit,
                           "start": time.perf_counter() - self.origin,
                           "end": None})
        return len(self.spans) - 1

    def close(self, span_id: int) -> None:
        self.spans[span_id]["end"] = time.perf_counter() - self.origin


def run_round(workload: Workload, units: Sequence, *,
              observe: bool = False, profiler=None,
              spans: Optional[Spans] = None,
              label: str = "round") -> Round:
    """One pass over ``units`` with interleaved reference slices.

    ``profiler`` (a ``cProfile.Profile``) is enabled around the unit
    calls only, never around a slice.  ``observe`` takes the path that
    exposes event-queue totals; ``spans`` records a round span and one
    child span per unit call.
    """
    cache = None
    if workload.uses_cache:
        cache = ResultCache(scratch_dir())
    clock = time.process_time
    result = Round([], [timed_slice()], 0, {}, [], [])
    round_span = spans.open(label, None) if spans is not None else None
    try:
        for unit in units:
            call = unit.observe if observe else unit.run
            if spans is not None:
                unit_span = spans.open(unit.entry, round_span, unit.uid)
            if profiler is not None:
                profiler.enable()
            start = clock()
            try:
                outcome = call(cache)
            except Exception as exc:  # a failed unit is a counted failure
                outcome = None
                print(f"perfbench: unit {unit.uid} raised {exc!r}",
                      file=sys.stderr)
            elapsed = clock() - start
            if profiler is not None:
                profiler.disable()
            if spans is not None:
                spans.close(unit_span)
            result.unit_s.append(elapsed)
            result.slice_s.append(timed_slice())
            if outcome is None:
                continue
            result.ops += outcome[0]
            result.results.append(outcome[1])
            result.digests[unit.uid] = digest(outcome[1])
            if observe:
                result.queue_stats.append(outcome[2])
    finally:
        if round_span is not None:
            spans.close(round_span)
        if cache is not None:
            result.cache_hits = cache.hits
            result.cache_writes = cache.writes
            shutil.rmtree(cache.directory, ignore_errors=True)
    return result


class Checker:
    """Counts units attempted and units whose output is wrong: that
    raised, or whose summary-row digest differs from the one pinned in
    ``digests.json``.  The pin holds for every seed, since the seed
    only orders the units."""

    def __init__(self, workload: str,
                 pinned: Optional[Dict[str, Dict[str, str]]] = None):
        if pinned is None:
            pinned = load_digests()
        self.expected = pinned[workload]
        self.attempted = 0
        self.failed = 0

    def check(self, units: Sequence, finished: Round) -> None:
        self.attempted += len(units)
        self.failed += sum(
            1 for unit in units
            if finished.digests.get(unit.uid) != self.expected[unit.uid])

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def settle() -> None:
    """After warming up: collect, then move every survivor out
    of the collector's sight so timed rounds scan only their own
    garbage."""
    gc.collect()
    gc.freeze()


def timed_rounds(workload: Workload, units: Sequence, seconds: float,
                 checker: Checker) -> Tuple[List[Round], float]:
    """Rounds until ``seconds`` of wall time are used (to the nearest
    round), at least :data:`MIN_ROUNDS`.

    Also returns the process's peak RSS in MB as it stood after exactly
    :data:`MIN_ROUNDS` rounds: read at a fixed amount of work, because
    how many further rounds fit the budget depends on the host's speed
    and the high-water mark creeps up with them.
    """
    rounds: List[Round] = []
    started = time.perf_counter()
    while True:
        finished = run_round(workload, units)
        checker.check(units, finished)
        rounds.append(finished)
        if len(rounds) == MIN_ROUNDS:
            rss_mb = peak_rss_mb()
        elapsed = time.perf_counter() - started
        if (len(rounds) >= MIN_ROUNDS
                and elapsed + 0.5 * elapsed / len(rounds) >= seconds):
            return rounds, rss_mb


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# set-up time
# ----------------------------------------------------------------------
def setup_child_main(argv: Sequence[str]) -> int:
    """Body of one set-up child (``python -m perfbench setup-child``).

    ``argv`` carries the workload, the seed and the parent's
    ``perf_counter`` reading taken just before the spawn; that clock is
    system-wide, so the difference includes interpreter start-up.
    """
    name, seed, spawned = argv[0], int(argv[1]), float(argv[2])
    for unit in WORKLOADS[name].build(seed):
        unit.construct()
    wall = time.perf_counter() - spawned
    slices = [timed_slice(time.perf_counter) for _ in range(3)]
    print(json.dumps({"wall_s": wall,
                      "slice_s": statistics.median(slices)}))
    return 0


def measure_setup(workload: str, seed: int) -> Dict[str, float]:
    """Median speed-corrected wall seconds for a fresh interpreter to
    import ``repro``, build the unit list and construct every system,
    over :data:`SETUP_CHILDREN` children run one after another."""
    corrected, raw = [], []
    env = child_env()
    for _ in range(SETUP_CHILDREN):
        command = [sys.executable, "-m", "perfbench", "setup-child",
                   workload, str(seed), repr(time.perf_counter())]
        done = subprocess.run(command, cwd=ROOT, env=env, check=True,
                              capture_output=True, text=True)
        reading = json.loads(done.stdout.strip().splitlines()[-1])
        raw.append(reading["wall_s"])
        corrected.append(speed_corrected(
            reading["wall_s"], reading["slice_s"], NOMINAL_SLICE_S))
    return {"setup_s": statistics.median(corrected),
            "setup_raw_s": statistics.median(raw)}
