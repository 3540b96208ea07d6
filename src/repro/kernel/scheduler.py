"""Wait queues with pluggable service disciplines.

The parallel-I/O disk array parks its waiters in a
:class:`WaitQueue` (ports are FIFO-only and keep plain deques; the CPU
and the lock tables order their own waiters).  Two policies cover the
paper's protocols:

- ``fifo``    — first-come-first-served; the two-phase locking baseline
  ("protocol L") uses this everywhere.
- ``priority``— highest ``effective_priority`` first, FIFO among equals;
  the priority-mode protocols ("P", "C") use this.

Because priorities are *dynamic* (priority inheritance), the priority
policy selects the maximum at dequeue time rather than keeping a heap
keyed by a stale priority.  Queues in this model are short (a few tens of
waiters), so the O(n) scan is irrelevant and correctness under priority
mutation comes for free.
"""

from __future__ import annotations

import itertools
from typing import Generic, Iterator, List, Optional, Tuple, TypeVar

from .process import Process

T = TypeVar("T")

POLICIES = ("fifo", "priority")


class WaitQueue(Generic[T]):
    """Queue of ``(process, item)`` pairs with FIFO or priority service.

    ``kernel`` is the owner's (a :class:`~repro.resources.io.DiskArray`):
    its controller, if any, resolves the priority ties of :meth:`pop`.
    """

    def __init__(self, policy: str = "fifo", kernel=None):
        if policy not in POLICIES:
            raise ValueError(f"unknown wait-queue policy {policy!r}; "
                             f"expected one of {POLICIES}")
        self.policy = policy
        self.kernel = kernel
        self._entries: List[Tuple[int, Process, T]] = []
        self._seq = itertools.count()

    def push(self, process: Process, item: T = None) -> None:
        """Enqueue a process with an optional payload."""
        self._entries.append((next(self._seq), process, item))

    def pop(self) -> Tuple[Process, T]:
        """Dequeue the next process according to the policy.

        A *dequeue* (unlike a peek) is a committed scheduling action,
        so when the owner's kernel has a
        :class:`~repro.kernel.controlled.SchedulerController`, an
        equal-priority tie here is a choice point: the controller picks
        which of the tied waiters is served.  Uncontrolled runs — and
        the default chooser — keep the FIFO-among-equals order.
        """
        if not self._entries:
            raise IndexError("pop from empty WaitQueue")
        index = self._select_index(resolve_ties=True)
        __, process, item = self._entries.pop(index)
        return process, item

    def peek(self) -> Tuple[Process, T]:
        """Return (without removing) the next process.

        Peeks never consult the controller: they are advisory (e.g.
        preemption checks compare the top *priority*, which every tied
        waiter shares), and routing them through the chooser would
        record a choice that no scheduling action consumes.
        """
        if not self._entries:
            raise IndexError("peek on empty WaitQueue")
        __, process, item = self._entries[self._select_index()]
        return process, item

    def _select_index(self, resolve_ties: bool = False) -> int:
        if self.policy == "fifo":
            return 0
        # priority: max effective_priority; FIFO (lowest seq) among ties.
        entries = self._entries
        best = 0
        best_key = (entries[0][1].effective_priority, -entries[0][0])
        for i in range(1, len(entries)):
            seq, process, __ = entries[i]
            key = (process.effective_priority, -seq)
            if key > best_key:
                best, best_key = i, key
        kernel = self.kernel
        if (resolve_ties and kernel is not None
                and kernel.controller is not None):
            top = best_key[0]
            tied = [i for i, (__, process, ___) in enumerate(entries)
                    if process.effective_priority == top]
            if len(tied) > 1:
                labels = tuple(f"waiter:{entries[i][1].name}"
                               for i in tied)
                seqs = tuple(entries[i][0] for i in tied)
                return tied[kernel.controller._choose(
                    "queue", kernel.now, labels, seqs)]
        return best

    def remove(self, process: Process) -> bool:
        """Withdraw a specific process (e.g. on interrupt).

        Returns True if the process was queued.
        """
        for i, (__, queued, ___) in enumerate(self._entries):
            if queued is process:
                del self._entries[i]
                return True
        return False

    def __contains__(self, process: Process) -> bool:
        return any(queued is process for __, queued, ___ in self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def processes(self) -> Iterator[Process]:
        """Iterate queued processes in arrival order."""
        for __, process, ___ in self._entries:
            yield process

    def max_priority(self) -> Optional[float]:
        """Highest effective priority among waiters, or None if empty."""
        if not self._entries:
            return None
        return max(p.effective_priority for __, p, ___ in self._entries)
