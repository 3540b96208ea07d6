"""Calendar (bucketed-timestamp) event queue for the turbo engine.

The reference :class:`~repro.kernel.events.EventQueue` keeps one global
heap: every push and pop pays an O(log n) sift through the *whole*
pending set.  A calendar queue exploits what simulation schedules
actually look like — timestamps cluster around "now" and advance
monotonically — by hashing each entry into a **bucket** of width
``w``::

    bucket_id = floor(time / w)

Inserts are O(1) list appends.  Only when a bucket becomes the
*current* one (its id is the minimum pending id) is it sorted — once,
descending — into a drain list consumed with O(1) tail pops.  Entries
scheduled into the current bucket *while it drains* (wake-ups at
"now") go to a small spill heap that is min-merged against the drain
tail with one C tuple comparison per pop.

**Ordering proof (exact-tie contract).**  The reference queue defines
the total dispatch order as ascending ``(time, key, seq)`` with ``seq``
unique.  The calendar reproduces it exactly:

1. *Across buckets*: ``floor(time / w)`` is monotone in ``time`` for
   any fixed ``w > 0``, so every entry in bucket *i* precedes every
   entry in bucket *j > i* — no entry can sort below a bucket that
   drained earlier.  Inserts during a drain cannot land below the
   current bucket either, because the kernel never schedules in the
   past (``time >= now`` and ``now`` lies inside the current bucket);
   ids ``<= current`` route to the spill heap, which participates in
   the current merge.
2. *Within a bucket*: entries are the same ``(time, key, seq, Event)``
   tuples the reference heap stores, sorted by the same C tuple
   comparison; the spill merge picks ``min(spill[0], drain[-1])`` per
   pop.  ``seq`` is unique, so there are never ambiguous ties.
3. *Width changes* rebucket every pending entry atomically under the
   new ``w`` before the next pop, so clauses 1–2 hold for one
   consistent ``w`` at every dispatch.

Hence the pop sequence is the identical total order — which is what
lets the turbo engine promise bitwise-identical results
(``tests/core/test_engine_golden.py`` holds it to that).

The bucket width adapts: when the pending population crosses a
geometric threshold the queue re-hashes everything under
``w = span * TARGET / n`` (aiming at ~:data:`_TARGET_OCCUPANCY`
entries per bucket).  Rebucketing is O(n) but the threshold doubles
each time, so the amortized cost per insert is O(1).  Non-finite
timestamps (``floor(inf / w)`` has no int) live in a far-overflow
store drained only after every finite entry.

Allocation discipline: resume events — the queue's dominant traffic —
are recycled through a freelist (:meth:`recycle`); their argument
slots are plain attributes on the reused :class:`Event`, so steady-
state dispatch allocates nothing but the entry tuples.  Bare-callback
events are never recycled: callers hold those handles for
cancellation (deadline watchdogs), and a recycled handle could cancel
an unrelated reincarnation.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterator, Optional

from ..events import Event

#: Queues smaller than this are never compacted (same rationale as the
#: reference queue's ``_COMPACT_MIN``).
_COMPACT_MIN = 64

#: Aimed-for live entries per bucket after a rebucket.
_TARGET_OCCUPANCY = 16

#: First pending-population size that triggers adaptive rebucketing.
_RESIZE_MIN = 1024

#: ``_current_id`` while the far-overflow store drains.  ``float("inf")``
#: on purpose: every finite bucket id compares ``<=`` to it, so the
#: insert path routes late arrivals to the spill heap with the same
#: comparison it uses for ordinary buckets.
_FAR_ID = float("inf")


class CalendarEventQueue:
    """Bucketed-timestamp drop-in for the reference ``EventQueue``.

    Implements the full queue API the kernel, the controlled scheduler
    and the telemetry probe consume (``schedule``/``schedule_resume``/
    ``cancel``/``pop``/``pop_tied_entries``/
    ``push_entry``/``live_entries``/``queue_stats``/``compact``), plus
    the bucket internals the :class:`~repro.kernel.turbo.engine.
    TurboKernel` dispatch loop reaches directly (sanctioned: lint rule
    RPL015 exempts ``kernel/turbo/``).

    ``_drain`` and ``_spill`` keep one list identity for the queue's
    lifetime (mutated in place, never rebound) so the dispatch loop may
    alias them, mirroring the reference queue's contract for its heap.
    """

    __slots__ = ("_width", "_buckets", "_bucket_heap", "_drain",
                 "_spill", "_far", "_current_id", "_count", "_seq",
                 "_dead", "_cancelled_total", "_resize_at", "_freelist")

    def __init__(self, width: float = 1.0) -> None:
        #: Current bucket width; adapted by :meth:`_rebucket`.
        self._width = width
        #: bucket id -> unsorted list of (time, key, seq, Event).
        self._buckets: dict = {}
        #: Min-heap of pending bucket ids (an id may be stale if its
        #: bucket was already consumed; stale ids are skipped lazily).
        self._bucket_heap: list = []
        #: Descending-sorted entries of the current bucket.
        self._drain: list = []
        #: Min-heap of entries that arrived for the current bucket
        #: after it was opened.
        self._spill: list = []
        #: Entries whose timestamp has no finite bucket id.
        self._far: list = []
        #: Id of the bucket currently draining, or None.
        self._current_id: Optional[float] = None
        #: Raw entries across every store (dead included).
        self._count = 0
        self._seq = 0
        #: Cancelled entries still sitting in a store.
        self._dead = 0
        #: Lifetime cancellation count (never decremented).
        self._cancelled_total = 0
        #: Next raw count that triggers an adaptive rebucket.
        self._resize_at = _RESIZE_MIN
        #: Recycled resume events (see module docstring).
        self._freelist: list = []

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, time: float, callback: Callable[[], None],
                 key: float = 0.0) -> Event:
        """Schedule ``callback`` at ``time``; same contract as the
        reference queue (lower ``key`` fires first among ties)."""
        seq = self._seq
        self._seq = seq + 1
        event = Event()
        event.time = time
        event.key = key
        event.seq = seq
        event.callback = callback
        event.cancelled = False
        # process/value/exc stay unset, exactly like the reference
        # queue: dispatch only reads them behind `callback is None`.
        event.queue = self
        self._insert((time, key, seq, event))
        return event

    def schedule_resume(self, time: float, process: Any,
                        value: Any = None,
                        exc: Optional[BaseException] = None) -> Event:
        """Schedule a process resume, reusing a recycled event when one
        is available — the allocation-free path for the dominant
        spawn/ready/interrupt traffic."""
        seq = self._seq
        self._seq = seq + 1
        freelist = self._freelist
        if freelist:
            event = freelist.pop()
            event.cancelled = False
        else:
            event = Event()
            event.callback = None
            event.cancelled = False
            event.queue = self
        event.time = time
        event.key = 0.0
        event.seq = seq
        event.process = process
        event.value = value
        event.exc = exc
        self._insert((time, 0.0, seq, event))
        return event

    def recycle(self, event: Event) -> None:
        """Return a dispatched (or reaped-dead) *resume* event to the
        freelist.

        Safe because resume events have exactly one outstanding handle
        — ``process.pending_resume`` — and the kernel clears it both on
        dispatch and before cancelling (interrupt).  The argument slots
        are dropped so the recycled event pins no model state.
        """
        event.process = event.value = event.exc = None
        self._freelist.append(event)

    def _insert(self, entry: tuple) -> None:
        try:
            bucket_id = int(entry[0] // self._width)
        except (OverflowError, ValueError):
            # inf (and only inf, in practice) has no finite bucket.
            if self._current_id == _FAR_ID:
                heappush(self._spill, entry)
            else:
                self._far.append(entry)
            self._count += 1
            return
        current = self._current_id
        if current is not None and bucket_id <= current:
            heappush(self._spill, entry)
        else:
            bucket = self._buckets.get(bucket_id)
            if bucket is None:
                self._buckets[bucket_id] = [entry]
                heappush(self._bucket_heap, bucket_id)
            else:
                bucket.append(entry)
        count = self._count + 1
        self._count = count
        if count >= self._resize_at:
            self._rebucket()

    def _rebucket(self) -> None:
        """Re-hash every pending entry under an adapted width.

        Deterministic: the new width is a pure function of the pending
        population, which is itself a pure function of the schedule/pop
        history — so both engines of a replicated run resize at the
        same instants.  ``_drain``/``_spill`` identities survive (the
        dispatch loop may hold aliases).
        """
        drain = self._drain
        spill = self._spill
        entries = list(drain)
        entries.extend(spill)
        for bucket in self._buckets.values():
            entries.extend(bucket)
        del drain[:]
        del spill[:]
        self._buckets = {}
        self._bucket_heap = []
        self._current_id = None
        if entries:
            low = high = entries[0][0]
            for entry in entries:
                time = entry[0]
                if time < low:
                    low = time
                elif time > high:
                    high = time
            span = high - low
            if span > 0.0:
                width = span * _TARGET_OCCUPANCY / len(entries)
                self._width = width if width > 1e-12 else 1e-12
            buckets = self._buckets
            width = self._width
            for entry in entries:
                bucket_id = int(entry[0] // width)
                bucket = buckets.get(bucket_id)
                if bucket is None:
                    buckets[bucket_id] = [entry]
                else:
                    bucket.append(entry)
            # A sorted list satisfies the heap invariant as-is.
            self._bucket_heap = sorted(buckets)
        self._resize_at = max(_RESIZE_MIN, 2 * len(entries))

    # ------------------------------------------------------------------
    # cancellation
    # ------------------------------------------------------------------
    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (idempotent)."""
        event.cancel()

    def _note_cancel(self) -> None:
        """One live entry became dead; compact when mostly dead."""
        self._dead += 1
        self._cancelled_total += 1
        if self._count > _COMPACT_MIN and self._dead * 2 > self._count:
            self.compact()

    def compact(self) -> None:
        """Drop every cancelled entry from every store, in place."""
        drain = self._drain
        drain[:] = [entry for entry in drain if not entry[3].cancelled]
        spill = self._spill
        if spill:
            spill[:] = [entry for entry in spill
                        if not entry[3].cancelled]
            heapify(spill)
        far = self._far
        if far:
            far[:] = [entry for entry in far if not entry[3].cancelled]
        count = len(drain) + len(spill) + len(far)
        buckets = self._buckets
        for bucket_id in list(buckets):
            bucket = buckets[bucket_id]
            bucket[:] = [entry for entry in bucket
                         if not entry[3].cancelled]
            if bucket:
                count += len(bucket)
            else:
                del buckets[bucket_id]
        # Stale ids left in the bucket heap are skipped lazily.
        self._count = count
        self._dead = 0

    # ------------------------------------------------------------------
    # bucket machinery
    # ------------------------------------------------------------------
    def _advance(self) -> bool:
        """Open the minimum pending bucket (else the far store) into the
        drain list, setting ``_current_id``; False when empty.

        Callers must have exhausted ``_drain`` and ``_spill`` first.
        """
        bucket_heap = self._bucket_heap
        buckets = self._buckets
        while bucket_heap:
            bucket = buckets.pop(bucket_heap[0], None)
            bucket_id = heappop(bucket_heap)
            if bucket is not None:
                self._current_id = bucket_id
                break
        else:
            bucket = self._far
            if not bucket:
                self._current_id = None
                return False
            self._far = []
            self._current_id = _FAR_ID
        bucket.sort(reverse=True)
        self._drain[:] = bucket
        return True

    def _peek_live_entry(self) -> Optional[tuple]:
        """Next live entry without removing it (dead prefixes reaped)."""
        drain = self._drain
        spill = self._spill
        while True:
            while drain and drain[-1][3].cancelled:
                drain.pop()
                self._dead -= 1
                self._count -= 1
            while spill and spill[0][3].cancelled:
                heappop(spill)
                self._dead -= 1
                self._count -= 1
            if drain:
                if spill and spill[0] < drain[-1]:
                    return spill[0]
                return drain[-1]
            if spill:
                return spill[0]
            if not self._advance():
                return None

    def _pop_live_entry(self) -> Optional[tuple]:
        entry = self._peek_live_entry()
        if entry is None:
            return None
        self._count -= 1
        drain = self._drain
        if drain and entry is drain[-1]:
            return drain.pop()
        return heappop(self._spill)

    # ------------------------------------------------------------------
    # queue API (same surface as the reference EventQueue)
    # ------------------------------------------------------------------
    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or None if empty."""
        entry = self._pop_live_entry()
        return None if entry is None else entry[3]

    def pop_tied_entries(self) -> list:
        """Every live entry tied at the earliest ``(time, key)``, in
        ``(time, key, seq)`` order — the controlled scheduler's choice-
        point surface, identical to the reference queue's."""
        first = self._pop_live_entry()
        if first is None:
            return []
        batch = [first]
        time, key = first[0], first[1]
        while True:
            entry = self._peek_live_entry()
            if entry is None or entry[0] != time or entry[1] != key:
                break
            batch.append(self._pop_live_entry())
        return batch

    def push_entry(self, entry: tuple) -> None:
        """Reinsert an entry removed by :meth:`pop_tied_entries`."""
        self._insert(entry)

    def live_entries(self) -> Iterator[tuple]:
        """Every live queued entry, in store order (not sorted)."""
        for entry in self._drain:
            if not entry[3].cancelled:
                yield entry
        for entry in self._spill:
            if not entry[3].cancelled:
                yield entry
        for bucket in self._buckets.values():
            for entry in bucket:
                if not entry[3].cancelled:
                    yield entry
        for entry in self._far:
            if not entry[3].cancelled:
                yield entry

    def queue_stats(self) -> tuple:
        """``(live, dispatched_total, cancelled_total)`` — same
        derivation as the reference queue's."""
        raw = self._count
        dead = self._dead
        cancelled = self._cancelled_total
        dispatched = self._seq - raw - (cancelled - dead)
        return raw - dead, dispatched, cancelled

    def note_dead(self, count: int = 1) -> None:
        """A dispatch loop removed ``count`` dead entries itself."""
        self._dead -= count
        self._count -= count

    def __len__(self) -> int:
        return self._count - self._dead

    def __bool__(self) -> bool:
        return self._count > self._dead
