"""Event queue for the discrete-event kernel.

Events are ordered by ``(time, priority_key, sequence)``.  The sequence
number makes ordering *stable*: two events scheduled for the same instant
fire in scheduling order, which keeps every simulation run deterministic
for a given seed.

Hot-path design (this queue is the innermost loop of every run):

- **C-speed ordering** — the heap stores ``(time, key, seq, event)``
  tuples, so every ``heappush``/``heappop`` comparison is a C tuple
  comparison instead of a Python ``__lt__`` call.  At heap depth *d* a
  pop makes ~2·d comparisons; making them C-level is the single largest
  win in raw dispatch throughput.
- **resume slots, not closures** — process wake-ups store the process
  and its resume arguments directly on the :class:`Event`
  (``schedule_resume``), so the kernel never allocates a per-event
  lambda on the spawn/ready/interrupt path.
- **lazy deletion with compaction** — cancellation marks the event and
  is O(1); dead entries are skipped on pop.  When more than half the
  heap is dead (timer-heavy workloads: deadline watchdogs armed per
  transaction and cancelled at commit), the heap is compacted in place,
  bounding both memory and the ``log(heap)`` factor of every push.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterator, Optional

#: Heaps smaller than this are never compacted (rebuild overhead would
#: exceed the scan cost it saves).
_COMPACT_MIN = 64


class Event:
    """A scheduled callback or process resume.

    Create via :meth:`EventQueue.schedule` /
    :meth:`EventQueue.schedule_resume`.  Exactly one of ``callback``
    (bare callable) or ``process`` (resume target, with ``value`` /
    ``exc`` delivered at the yield point) is set.

    There is deliberately no ``__init__``: the queues fill the slots
    directly, and instantiating a class that defines neither
    ``__new__`` nor ``__init__`` runs no Python frame at all.
    """

    __slots__ = ("time", "key", "seq", "callback", "cancelled",
                 "process", "value", "exc", "queue")

    def cancel(self) -> None:
        """Mark the event so it will be skipped when its time comes.

        Goes through the owning queue so live-event accounting (and the
        compaction trigger) stays exact no matter which handle the
        caller held.
        """
        if not self.cancelled:
            self.cancelled = True
            if self.queue is not None:
                self.queue._note_cancel()

    def withdraw(self, process: Any) -> None:
        """Blocker protocol: a process parked on nothing but this
        wake-up (a delay, an I/O burst) leaves by cancelling it."""
        self.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time:.6g}, seq={self.seq}{flag})"


class EventQueue:
    """A stable priority queue of :class:`Event` objects.

    One heap, ``_heap``, of ``(time, key, seq, Event)`` tuples: ``seq``
    is unique, so tuple order is the total event order and a comparison
    never reaches the :class:`Event`.

    Live-count bookkeeping is *inverted*: the queue counts dead
    (cancelled, still-queued) entries, and ``len`` is derived as
    ``entries - dead``.  Scheduling and popping live events — the
    overwhelmingly common operations — therefore touch no counter at
    all; only cancellation and dead-entry reaping do.
    """

    __slots__ = ("_heap", "_seq", "_dead", "_cancelled_total")

    def __init__(self) -> None:
        #: Heap of (time, key, seq, Event) — tuple order == event order.
        self._heap: list = []
        self._seq = 0
        #: Cancelled entries still sitting in the heap.
        self._dead = 0
        #: Lifetime cancellation count (never decremented); the
        #: telemetry KernelProbe derives timer churn from it.
        self._cancelled_total = 0

    def schedule(self, time: float, callback: Callable[[], None],
                 key: float = 0.0) -> Event:
        """Schedule ``callback`` to fire at ``time``.

        ``key`` breaks ties among events at the same instant: lower keys
        fire first.  Returns the :class:`Event`, which may be cancelled.

        The event is built by direct slot stores — this is the
        allocation every simulated action pays, and skipping an
        ``__init__`` frame is measurably cheaper.
        """
        seq = self._seq
        self._seq = seq + 1
        event = Event()
        event.time = time
        event.key = key
        event.seq = seq
        event.callback = callback
        event.cancelled = False
        # process/value/exc stay unset: the dispatch loops only read
        # them behind a `callback is None` check, which is never true
        # for events built here.
        event.queue = self
        heappush(self._heap, (time, key, seq, event))
        return event

    def schedule_resume(self, time: float, process: Any,
                        value: Any = None,
                        exc: Optional[BaseException] = None) -> Event:
        """Schedule a process resume without allocating a closure.

        The kernel's dispatch loop reads the resume arguments straight
        off the event (``callback is None`` marks the resume kind).
        """
        seq = self._seq
        self._seq = seq + 1
        event = Event()
        event.time = time
        event.key = 0.0
        event.seq = seq
        event.callback = None
        event.cancelled = False
        event.process = process
        event.value = value
        event.exc = exc
        event.queue = self
        heappush(self._heap, (time, 0.0, seq, event))
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (idempotent)."""
        event.cancel()

    def _note_cancel(self) -> None:
        """One live event became dead; compact when mostly dead."""
        self._dead += 1
        self._cancelled_total += 1
        size = len(self._heap)
        if size > _COMPACT_MIN and self._dead * 2 > size:
            self.compact()

    def compact(self) -> None:
        """Drop every cancelled entry from the heap, in place.

        In place on purpose: the kernel's dispatch loop and
        :meth:`Kernel.wake`'s quiet-instant guard hold a direct
        reference to the heap, which must stay valid across a
        compaction triggered from inside an event callback (a timer
        cancelled by the event being dispatched).
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[3].cancelled]
        heapify(heap)
        self._dead = 0

    def pop_tied_entries(self) -> list:
        """Remove and return every live entry tied at the earliest
        ``(time, key)`` instant, in ``(time, key, seq)`` order.

        The kernel's controlled arm (``Kernel._dispatch_next``) uses
        this to surface simultaneous-event ties as choice points; entry
        0 is exactly what :meth:`pop` would have returned.  Unchosen
        entries go back via :meth:`push_entry` with their identity
        (and therefore their relative order) intact.  Cancelled
        entries behind entry 0 stay queued, as after :meth:`pop`: the
        heap :meth:`Kernel.wake` tests is the one the other arms leave.
        """
        first = self._pop_live_entry()
        if first is None:
            return []
        heap = self._heap
        time, key = first[0], first[1]
        batch, dead = [first], []
        while heap and heap[0][0] == time and heap[0][1] == key:
            entry = heappop(heap)
            (dead if entry[3].cancelled else batch).append(entry)
        for entry in dead:
            heappush(heap, entry)
        return batch

    def push_entry(self, entry: tuple) -> None:
        """Reinsert an entry removed by :meth:`pop_tied_entries`."""
        heappush(self._heap, entry)

    def _pop_live_entry(self) -> Optional[tuple]:
        heap = self._heap
        while heap:
            entry = heappop(heap)
            if not entry[3].cancelled:
                return entry
            self._dead -= 1
        return None

    # ------------------------------------------------------------------
    # dispatch API — the only sanctioned way for engines to reach the
    # queue's heap (lint rule RPL015 bans direct ``_heap`` access
    # outside this module and ``kernel/turbo/``)
    # ------------------------------------------------------------------
    def prepare_dispatch(self) -> list:
        """Hand the dispatch loop a direct alias of the heap.

        The list identity is stable across compaction (filtered in
        place, never rebound), so a run loop may hold it for its whole
        lifetime.
        """
        return self._heap

    def note_dead(self, count: int = 1) -> None:
        """A dispatch loop removed ``count`` dead (cancelled) entries."""
        self._dead -= count

    def live_entries(self) -> Iterator[tuple]:
        """Every live queued entry, in heap order (not sorted)."""
        for entry in self._heap:
            if not entry[3].cancelled:
                yield entry

    def queue_stats(self) -> tuple:
        """``(live, dispatched_total, cancelled_total)`` for telemetry.

        Entries leave the heap by dispatch, by dead-skip on pop, or by
        compaction; the latter two total ``cancelled - dead``, which is
        how the lifetime dispatch count is derived from the sequence
        counter.
        """
        raw = len(self._heap)
        dead = self._dead
        cancelled = self._cancelled_total
        dispatched = self._seq - raw - (cancelled - dead)
        return raw - dead, dispatched, cancelled

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or None if empty."""
        entry = self._pop_live_entry()
        return None if entry is None else entry[3]

    def __len__(self) -> int:
        return len(self._heap) - self._dead

    def __bool__(self) -> bool:
        return len(self._heap) > self._dead
