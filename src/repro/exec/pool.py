"""The process-pool executor and its crash quarantine.

``jobs>1`` fans units out to a ``concurrent.futures`` process pool in
tasks of one or more units and merges rows by unit position, whatever
the completion order.  A unit that raises comes back as text from
:func:`~repro.exec.worker.invoke_unit` and settles as its own failure;
the other units of its task settle normally.

A worker death (``BrokenProcessPool``) is the one failure that is not
a property of a unit, and it fails *every* in-flight future, so blame
cannot be assigned inside the shared pool.  After a breakage the
executor keeps the rows that finished, requeues the rest unblamed, and
drains them in **quarantine**: one unit at a time, each in its own
single-worker pool, where a death blames exactly that unit and its
peers complete untouched.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Sequence, Tuple

from .executor import _Run
from .worker import invoke_batch, warm_worker


def _batch_size(n_units: int, jobs: int) -> int:
    """Units per pool task.

    Batching amortizes the submit/pickle/result round-trip — dominant
    for small units; the heuristic keeps ~4 tasks per worker queued for
    load balancing.
    """
    return max(1, min(8, n_units // (jobs * 4)))


def _new_pool(jobs: int) -> ProcessPoolExecutor:
    # Fork where the platform has it: workers inherit the parent's hash
    # seed, keeping any hash-order-sensitive iteration identical to
    # serial runs; elsewhere the default start method.
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        context = None
    return ProcessPoolExecutor(max_workers=jobs, mp_context=context,
                               initializer=warm_worker)


def run_pool(run: _Run, to_run: Sequence[int], jobs: int) -> None:
    """Run every position in ``to_run`` on a pool of ``jobs`` workers."""
    pool = _new_pool(jobs)
    batch = _batch_size(len(to_run), jobs)
    #: future -> (positions, submitted)
    futures: Dict[object, Tuple[Tuple[int, ...], float]] = {}
    for start in range(0, len(to_run), batch):
        positions = tuple(to_run[start:start + batch])
        items = [(run.units[pos].index, run.units[pos].config)
                 for pos in positions]
        futures[pool.submit(invoke_batch, items)] = (positions,
                                                     time.monotonic())
    run.stats.in_flight = min(len(futures), jobs)
    try:
        for future in as_completed(list(futures)):
            results = future.result()
            positions, submitted = futures.pop(future)
            run.stats.in_flight = min(len(futures), jobs)
            _settle_task(run, positions, submitted, results)
    except BrokenProcessPool:
        run.stats.pool_restarts += 1
        pool.shutdown(wait=False, cancel_futures=True)
        _run_quarantine(run, _salvage(run, futures))
    else:
        pool.shutdown()
    run.stats.in_flight = 0


def _settle_task(run: _Run, positions: Tuple[int, ...], submitted: float,
                 results: list) -> None:
    # The task's wall time, split evenly across its units (individual
    # shares are not observable from outside the worker).
    wall = time.monotonic() - submitted
    run.stats.busy_time += wall
    for pos, (__, row, error) in zip(positions, results):
        run.settle(pos, row, error, wall / len(positions),
                   len(positions))


def _salvage(run: _Run, futures) -> List[int]:
    """After a worker death: settle the tasks that finished, return the
    positions of the rest, requeued unblamed."""
    pending: List[int] = []
    for future, (positions, submitted) in futures.items():
        if (future.done() and not future.cancelled()
                and future.exception() is None):
            _settle_task(run, positions, submitted, future.result())
        else:
            pending.extend(positions)
    return pending


def _run_quarantine(run: _Run, pending: Sequence[int]) -> None:
    """Post-breakage drain: one unit per single-worker pool.

    Isolation makes blame exact — a death here indicts precisely the
    unit that was running — at the cost of one small pool spin-up per
    unit.  Entered only after a breakage, so the common path never pays
    for it.
    """
    run.stats.in_flight = 1
    for pos in pending:
        unit = run.units[pos]
        pool = _new_pool(1)
        submitted = time.monotonic()
        future = pool.submit(invoke_batch, [(unit.index, unit.config)])
        try:
            results = future.result()
        except BrokenProcessPool as broken:
            run.stats.pool_restarts += 1
            run.stats.busy_time += time.monotonic() - submitted
            pool.shutdown(wait=False)
            run.settle(pos, None, (repr(broken), traceback.format_exc()))
        else:
            pool.shutdown()
            _settle_task(run, (pos,), submitted, results)
