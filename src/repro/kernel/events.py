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
- **sorted backlog drain** — a large pre-built backlog (bulk-scheduled
  arrivals, event storms) is sorted *once* into a descending list and
  consumed with O(1) tail pops, instead of paying an O(log n) sift per
  pop through a deep heap.  New arrivals land in the (now near-empty)
  heap and are min-merged with the backlog by a single tuple
  comparison.  Order is the same total order either way, so dispatch
  order — and therefore every simulation result — is unchanged.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterator, Optional

#: Heaps smaller than this are never compacted (rebuild overhead would
#: exceed the scan cost it saves).
_COMPACT_MIN = 64

#: Backlogs smaller than this are drained straight off the heap; above
#: it, one sort plus O(1) tail pops beats per-pop sifting.
_SORT_MIN = 2048


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

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.key, self.seq) < (other.time, other.key,
                                                  other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time:.6g}, seq={self.seq}{flag})"


class EventQueue:
    """A stable priority queue of :class:`Event` objects.

    Live-count bookkeeping is *inverted*: the queue counts dead
    (cancelled, still-queued) entries, and ``len`` is derived as
    ``entries - dead``.  Scheduling and popping live events — the
    overwhelmingly common operations — therefore touch no counter at
    all; only cancellation and dead-entry reaping do.

    Entries live in two stores with one total order between them:

    - ``_heap`` — a heap of ``(time, key, seq, Event)`` tuples; every
      ``schedule`` lands here.
    - ``_sorted`` — a *descending*-sorted drain list, filled by
      :meth:`_sort_backlog` when the kernel is about to dispatch a deep
      backlog.  The next event overall is the smaller of ``_heap[0]``
      and ``_sorted[-1]`` (one C tuple comparison; ``seq`` is unique so
      there are never ties).
    """

    __slots__ = ("_heap", "_sorted", "_seq", "_dead",
                 "_cancelled_total")

    def __init__(self) -> None:
        #: Heap of (time, key, seq, Event) — tuple order == event order.
        self._heap: list = []
        #: Descending drain list; consumed from the tail.
        self._sorted: list = []
        self._seq = 0
        #: Cancelled entries still sitting in either store.
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

    def schedule_batch(self, time: float, callback: Callable[[], None],
                       count: int, key: float = 0.0) -> None:
        """Schedule ``count`` indistinguishable firings of ``callback``
        at ``time`` — the bulk-arrival API for homogeneous waves.

        Declaring the firings indistinguishable is what lets an engine
        choose its representation: this reference queue expands them
        into ``count`` ordinary entries with consecutive sequence
        numbers; the turbo calendar collapses them into one entry
        occupying the same sequence range, which is order-identical
        because no other event's ``seq`` can fall inside a range
        allocated atomically.  Fire-and-forget on purpose (no handle
        is returned): a cancellable bulk wave would pin ``count``
        handles and defeat the collapsed representation.
        """
        if count < 1:
            raise ValueError("schedule_batch needs count >= 1")
        for __ in range(count):
            self.schedule(time, callback, key)

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (idempotent)."""
        event.cancel()

    def _note_cancel(self) -> None:
        """One live event became dead; compact when mostly dead."""
        self._dead += 1
        self._cancelled_total += 1
        size = len(self._heap) + len(self._sorted)
        if size > _COMPACT_MIN and self._dead * 2 > size:
            self.compact()

    def _sort_backlog(self) -> None:
        """Move the heap's contents into the sorted drain list.

        Both list *identities* are preserved (extend/clear, never
        rebind): the kernel's dispatch loop and :meth:`compact` hold
        direct references to them.  Any leftover drain entries are
        merged before sorting, so the call is always safe.
        """
        heap = self._heap
        if heap:
            drain = self._sorted
            drain.extend(heap)
            heap.clear()
            drain.sort(reverse=True)

    def compact(self) -> None:
        """Drop every cancelled entry from both stores, in place.

        In place on purpose: the kernel's dispatch loop holds direct
        references to both lists, which must stay valid across a
        compaction triggered from inside an event callback.  Filtering
        preserves the drain list's descending order.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[3].cancelled]
        heapify(heap)
        drain = self._sorted
        if drain:
            drain[:] = [entry for entry in drain
                        if not entry[3].cancelled]
        self._dead = 0

    def _next_entry(self) -> Optional[tuple]:
        """Remove and return the overall-smallest entry (dead or live)."""
        heap = self._heap
        drain = self._sorted
        if drain:
            if heap and heap[0] < drain[-1]:
                return heappop(heap)
            return drain.pop()
        if heap:
            return heappop(heap)
        return None

    def pop_tied_entries(self) -> list:
        """Remove and return every live entry tied at the earliest
        ``(time, key)`` instant, in ``(time, key, seq)`` order.

        The controlled run loop (:mod:`repro.kernel.controlled`) uses
        this to surface simultaneous-event ties as choice points; entry
        0 is exactly what :meth:`pop` would have returned.  Unchosen
        entries go back via :meth:`push_entry` with their identity
        (and therefore their relative order) intact.
        """
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
        heappush(self._heap, entry)

    def _pop_live_entry(self) -> Optional[tuple]:
        while True:
            entry = self._next_entry()
            if entry is None:
                return None
            if not entry[3].cancelled:
                return entry
            self._dead -= 1

    def _peek_live_entry(self) -> Optional[tuple]:
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heappop(heap)
            self._dead -= 1
        drain = self._sorted
        while drain and drain[-1][3].cancelled:
            drain.pop()
            self._dead -= 1
        if drain:
            if heap and heap[0] < drain[-1]:
                return heap[0]
            return drain[-1]
        return heap[0] if heap else None

    # ------------------------------------------------------------------
    # dispatch API — the only sanctioned way for engines to reach the
    # queue's stores (lint rule RPL015 bans direct ``_heap``/``_sorted``
    # access outside this module and ``kernel/turbo/``)
    # ------------------------------------------------------------------
    def prepare_dispatch(self) -> tuple:
        """Hand the dispatch loop direct aliases of both stores.

        Sorts a deep pre-built backlog into the drain list first (one
        sort plus O(1) tail pops beats per-pop sifting), then returns
        ``(heap, drain)``.  Both list identities are stable across
        compaction and backlog sorting, so a run loop may hold them for
        its whole lifetime.
        """
        if len(self._heap) >= _SORT_MIN:
            self._sort_backlog()
        return self._heap, self._sorted

    def note_dead(self, count: int = 1) -> None:
        """A dispatch loop removed ``count`` dead (cancelled) entries."""
        self._dead -= count

    def live_entries(self) -> Iterator[tuple]:
        """Every live queued entry, in store order (not sorted)."""
        for entry in self._heap:
            if not entry[3].cancelled:
                yield entry
        for entry in self._sorted:
            if not entry[3].cancelled:
                yield entry

    def queue_stats(self) -> tuple:
        """``(live, dispatched_total, cancelled_total)`` for telemetry.

        Entries leave the stores by dispatch, by dead-skip on pop, or
        by compaction; the latter two total ``cancelled - dead``, which
        is how the lifetime dispatch count is derived from the sequence
        counter.
        """
        raw = len(self._heap) + len(self._sorted)
        dead = self._dead
        cancelled = self._cancelled_total
        dispatched = self._seq - raw - (cancelled - dead)
        return raw - dead, dispatched, cancelled

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or None if empty."""
        while True:
            entry = self._next_entry()
            if entry is None:
                return None
            event = entry[3]
            if not event.cancelled:
                return event
            self._dead -= 1

    def peek_time(self) -> Optional[float]:
        """Time of the next live event without removing it.

        Dead prefix entries are dropped as they are skipped, so a
        peek/pop pair never scans the same dead prefix twice.
        """
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heappop(heap)
            self._dead -= 1
        drain = self._sorted
        while drain and drain[-1][3].cancelled:
            drain.pop()
            self._dead -= 1
        if drain:
            if heap and heap[0] < drain[-1]:
                return heap[0][0]
            return drain[-1][0]
        return heap[0][0] if heap else None

    def __len__(self) -> int:
        return len(self._heap) + len(self._sorted) - self._dead

    def __bool__(self) -> bool:
        return len(self._heap) + len(self._sorted) > self._dead
