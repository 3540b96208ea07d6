"""The process-pool executor: retry, crash and timeout recovery.

``jobs>1`` fans units out to a ``concurrent.futures`` process pool and
merges rows by unit position, whatever the completion order.

Fault tolerance: a unit whose attempt raises, crashes its worker
(``BrokenProcessPool``), or exceeds the per-unit timeout is retried up
to ``retries`` times with exponential backoff; on exhaustion it is
recorded as a structured :class:`~repro.exec.executor.UnitFailure` and
the rest of the sweep continues.  Because a crashed pool fails *every*
in-flight future, blaming cannot be done inside the shared pool — so
after a breakage the executor salvages finished rows, requeues the
survivors unblamed, and drains the remainder in **quarantine**: one
unit at a time, each in its own single-worker pool, where a crash or
hang indicts exactly one unit.  The crasher burns its own retry budget
and its peers complete untouched.
"""

from __future__ import annotations

import heapq
import multiprocessing
import time
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, ProcessPoolExecutor,
                                TimeoutError as FutureTimeoutError,
                                wait)
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Sequence, Tuple

from .executor import _Run
from .worker import invoke_batch, invoke_unit, warm_worker


class _PoolInterrupted(Exception):
    """Internal: tear the pool down and resubmit survivors."""

    def __init__(self, overdue: Sequence[int] = ()):
        super().__init__()
        self.overdue = set(overdue)   # positions whose attempt failed


def _batch_size(run: _Run, n_units: int, jobs: int) -> int:
    """Units per pool task.

    Batching amortizes the submit/pickle/result round-trip — dominant
    for small units — but is only safe when nothing needs per-unit
    attribution inside a task: it is disabled under failure injection
    and per-unit timeouts.  The heuristic keeps ~4 tasks per worker
    queued for load balancing.
    """
    if run.inject is not None or run.timeout is not None:
        return 1
    return max(1, min(8, n_units // (jobs * 4)))


def run_pool(run: _Run, to_run: Sequence[Tuple[int, int]],
             jobs: int) -> None:
    """Process-pool executor with retry, crash and timeout recovery."""
    pending: deque = deque(to_run)
    retry_heap: List[Tuple[float, int, int]] = []  # (ready, pos, att)
    pool = ProcessPoolExecutor(max_workers=jobs,
                               mp_context=_pool_context(),
                               initializer=warm_worker)
    #: future -> (((pos, attempt), ...), started)
    futures: Dict[object, Tuple[tuple, float]] = {}
    batch = _batch_size(run, len(to_run), jobs)
    try:
        _pool_loop(run, pool, pending, retry_heap, futures, jobs, batch)
    except (BrokenProcessPool, _PoolInterrupted) as exc:
        run.stats.pool_restarts += 1
        pool.shutdown(wait=False, cancel_futures=True)
        _salvage(run, futures, pending, exc)
        while retry_heap:
            _, pos, attempt = heapq.heappop(retry_heap)
            pending.append((pos, attempt))
        _run_quarantine(run, pending)
    else:
        pool.shutdown()
    run.stats.in_flight = 0


def _pool_context():
    """Prefer fork (workers inherit the parent's hash seed, keeping
    any hash-order-sensitive iteration identical to serial runs);
    platforms without fork use their default start method."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


def _pool_loop(run: _Run, pool, pending, retry_heap, futures,
               jobs: int, batch: int) -> None:
    """Drive one pool until all units settle (or it breaks)."""
    #: Positions recycled from a failed batch run singly so the raise
    #: is attributed to exactly one unit (and never re-batched).
    solo: set = set()
    while pending or retry_heap or futures:
        now = time.monotonic()
        while retry_heap and retry_heap[0][0] <= now:
            _, pos, attempt = heapq.heappop(retry_heap)
            pending.append((pos, attempt))
        while pending:
            entries = [pending.popleft()]
            if batch > 1 and entries[0][0] not in solo:
                while (pending and len(entries) < batch
                       and pending[0][0] not in solo):
                    entries.append(pending.popleft())
            if len(entries) == 1:
                pos, attempt = entries[0]
                unit = run.units[pos]
                future = pool.submit(invoke_unit, unit.index,
                                     unit.config, attempt, run.inject)
            else:
                items = [(run.units[pos].index, run.units[pos].config,
                          attempt) for pos, attempt in entries]
                future = pool.submit(invoke_batch, items, run.inject)
            futures[future] = (tuple(entries), time.monotonic())
        run.stats.in_flight = min(len(futures), jobs)
        if not futures:   # only backoff sleeps remain
            time.sleep(max(0.0, min(0.05, retry_heap[0][0] - now)))
            continue
        done, _ = wait(list(futures), timeout=0.1,
                       return_when=FIRST_COMPLETED)
        now = time.monotonic()
        for future in done:
            entries, started = futures.pop(future)
            run.stats.busy_time += now - started
            try:
                result = future.result()
            except BrokenProcessPool:
                # Re-file under the broken pool's salvage path so the
                # triggering unit(s) are handled like their peers.
                futures[future] = (entries, started)
                raise
            except Exception as exc:
                if len(entries) == 1:
                    pos, attempt = entries[0]
                    _retry_or_fail(run, pending, retry_heap, pos,
                                   attempt, exc)
                else:
                    # One member poisoned the whole task; re-file each
                    # singly (same attempt — innocents are not blamed)
                    # so the next raise indicts exactly one unit.
                    for pos, attempt in entries:
                        solo.add(pos)
                        pending.append((pos, attempt))
            else:
                # The task's wall time, split evenly across its units
                # (individual shares are not observable from outside
                # the worker).
                share = (now - started) / len(entries)
                if len(entries) == 1:
                    run.settle_success(entries[0][0], result[1],
                                       wall=share)
                else:
                    for (pos, _), (_, row) in zip(entries, result):
                        run.settle_success(pos, row, wall=share,
                                           batch=len(entries))
        if run.timeout is not None:
            # Batching is disabled whenever a timeout is set, so every
            # overdue future maps to exactly one unit.
            overdue = [entries[0][0] for entries, started
                       in futures.values()
                       if now - started > run.timeout]
            if overdue:
                raise _PoolInterrupted(overdue)


def _retry_or_fail(run: _Run, pending, retry_heap, pos: int,
                   attempt: int, exc: BaseException,
                   immediate: bool = False) -> None:
    if attempt >= run.retries:
        run.settle_failure(pos, attempt + 1, exc)
        return
    run.stats.retries += 1
    next_attempt = attempt + 1
    if immediate:
        pending.append((pos, next_attempt))
    else:
        heapq.heappush(retry_heap,
                       (time.monotonic()
                        + run.backoff_delay(next_attempt), pos,
                        next_attempt))


def _salvage(run: _Run, futures, pending, exc: BaseException) -> None:
    """After a pool teardown: harvest finished rows, recycle the rest.

    Timeout-overdue units are charged a failed attempt; every other
    unfinished unit requeues **unblamed** at its current attempt —
    inside a shared pool there is no way to tell the crasher from its
    victims, and the quarantine drain that follows attributes exactly.
    """
    overdue = getattr(exc, "overdue", set())
    for future, (entries, _) in futures.items():
        finished = (future.done() and not future.cancelled()
                    and future.exception() is None)
        if finished:
            result = future.result()
            if len(entries) == 1:
                run.settle_success(entries[0][0], result[1])
            else:
                for (pos, __), (__, row) in zip(entries, result):
                    run.settle_success(pos, row, batch=len(entries))
            continue
        for pos, attempt in entries:
            if pos in overdue:
                _retry_or_fail(run, pending, None, pos, attempt,
                               TimeoutError(f"unit exceeded "
                                            f"{run.timeout}s"),
                               immediate=True)
            else:
                pending.append((pos, attempt))  # unblamed survivor
    futures.clear()


def _run_quarantine(run: _Run, pending) -> None:
    """Post-breakage drain: one unit per single-worker pool.

    Isolation makes fault attribution exact — a crash or hang here
    indicts precisely the unit that was running — at the cost of one
    small pool spin-up per unit.  Entered only after a pool breakage,
    so the common fast path never pays for it.
    """
    while pending:
        pos, attempt = pending.popleft()
        unit = run.units[pos]
        while True:
            pool = ProcessPoolExecutor(max_workers=1,
                                       mp_context=_pool_context(),
                                       initializer=warm_worker)
            started = time.monotonic()
            run.stats.in_flight = 1
            future = pool.submit(invoke_unit, unit.index, unit.config,
                                 attempt, run.inject)
            try:
                _, row = future.result(timeout=run.timeout)
            except FutureTimeoutError:
                run.stats.pool_restarts += 1
                pool.shutdown(wait=False, cancel_futures=True)
                exc: BaseException = TimeoutError(
                    f"unit exceeded {run.timeout}s")
            except BrokenProcessPool as broken:
                run.stats.pool_restarts += 1
                pool.shutdown(wait=False)
                exc = broken
            except Exception as error:
                pool.shutdown()
                exc = error
            else:
                wall = time.monotonic() - started
                run.stats.busy_time += wall
                pool.shutdown()
                run.settle_success(pos, row, wall=wall)
                break
            run.stats.busy_time += time.monotonic() - started
            if attempt >= run.retries:
                run.settle_failure(pos, attempt + 1, exc)
                break
            attempt += 1
            run.stats.retries += 1
            time.sleep(run.backoff_delay(attempt))
        run.stats.in_flight = 0
