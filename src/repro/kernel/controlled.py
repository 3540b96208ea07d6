"""Controlled scheduling: every nondeterministic tie becomes a choice.

The kernel is deterministic — for one seed there is exactly one run.
That determinism comes from *tie-breaking rules*: events scheduled for
the same instant fire in scheduling order (the ``seq`` component of the
event tuple), and equal-priority waiters are served FIFO.  Those rules
pick one interleaving out of many that the model semantics allow; a
bug that only bites under a different legal interleaving is invisible
to every seed.

This module makes the tie-breaks *pluggable*.  A
:class:`SchedulerController` installed on a kernel replaces the run
loop with one that, at every **choice point**, asks a
:class:`Chooser` which of the tied alternatives goes first:

- ``"event"`` — several live events are scheduled for the same
  ``(time, key)`` instant.  This covers simultaneous arrivals, timer
  coincidences and message deliveries (messages are events), so
  exploring event ties explores message orderings too.
- ``"queue"`` — a priority :class:`~repro.kernel.scheduler.WaitQueue`
  dequeues while several waiters share the maximum effective priority.
  (FIFO queues are *not* a choice point: FIFO order is the protocol's
  specified discipline, and arrival order itself is already explored
  through event ties.)

The :class:`DefaultChooser` always picks alternative 0, which is
exactly the tie-break the uncontrolled kernel applies — a controlled
run with the default chooser is bitwise identical to an uncontrolled
run (``tests/verify/test_controlled.py`` proves it against the golden
summaries).  The verification layer (:mod:`repro.verify`) supplies
replay choosers that drive the system through *every* interleaving.

When no controller is installed the kernel's hot loop is untouched:
the only cost is one ``is not None`` test per ``Kernel.run`` call and
one module-global read per priority-queue pop.
"""

from __future__ import annotations

import re
from typing import Callable, List, Optional, Tuple

from .errors import SimulationOver

#: Memory addresses in ``repr`` output (``<... at 0x7f...>``) differ
#: between replays; labels scrub them so state digests are stable.
_ADDRESS_RE = re.compile(r"0x[0-9a-fA-F]+")


class ChoiceRecord:
    """One resolved choice point: what was offered and what was taken."""

    __slots__ = ("kind", "time", "labels", "seqs", "chosen")

    def __init__(self, kind: str, time: float, labels: Tuple[str, ...],
                 seqs: Tuple[int, ...], chosen: int):
        self.kind = kind
        self.time = time
        self.labels = labels
        self.seqs = seqs
        self.chosen = chosen

    @property
    def arity(self) -> int:
        return len(self.labels)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "time": self.time,
                "labels": list(self.labels), "seqs": list(self.seqs),
                "chosen": self.chosen}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ChoiceRecord({self.kind} t={self.time:.6g} "
                f"{self.chosen}/{len(self.labels)})")


class Chooser:
    """Strategy interface: pick one of ``len(labels)`` alternatives."""

    def choose(self, kind: str, time: float,
               labels: Tuple[str, ...]) -> int:
        raise NotImplementedError


class DefaultChooser(Chooser):
    """Reproduce the uncontrolled kernel's tie-breaks exactly.

    Alternatives are presented in the kernel's native order
    (ascending ``(time, key, seq)`` for events, arrival order for
    equal-priority waiters), so alternative 0 *is* the uncontrolled
    behaviour.
    """

    def choose(self, kind: str, time: float,
               labels: Tuple[str, ...]) -> int:
        return 0


def entry_label(entry: tuple) -> str:
    """A replay-stable description of a queued event entry.

    Process resumes are labelled by process name; bare callbacks by
    qualified name plus the ``repr`` of their closure cells (which
    distinguish otherwise identical closures), or by their ``repr``
    when they have no name (a ``partial`` such as the builder's
    arrivals, ``partial(admit, spec)``, shows its arguments).  Memory
    addresses are scrubbed so the label is identical across replays.
    """
    event = entry[3]
    if event.callback is None:
        return f"resume:{event.process.name}"
    callback = event.callback
    name = getattr(callback, "__qualname__", None) or repr(callback)
    cells = getattr(callback, "__closure__", None)
    if cells:
        try:
            detail = ",".join(repr(cell.cell_contents)
                              for cell in cells)
        except ValueError:  # pragma: no cover - unfilled cell
            detail = "?"
        name = f"{name}[{detail}]"
    bound = getattr(callback, "__self__", None)
    if bound is not None:
        name = f"{name}@{type(bound).__name__}"
    return "call:" + _ADDRESS_RE.sub("0xADDR", name)


def pending_signature(events) -> Tuple[Tuple[float, float, str], ...]:
    """Canonical signature of every live queued event.

    Sorted by ``(time, key, label)`` and *excluding* sequence numbers:
    two states that differ only in the order events were scheduled —
    but agree on what is pending and when — hash equal, which is what
    lets the explorer merge convergent interleavings.
    """
    entries = [(entry[0], entry[1], entry_label(entry))
               for entry in events.live_entries()]
    entries.sort()
    return tuple(entries)


class SchedulerController:
    """Replacement run loop that routes every tie through a chooser.

    Install with :meth:`install`; ``Kernel.run`` then delegates here.
    The loop dispatches one event at a time: it collects every live
    event tied at the earliest ``(time, key)``, asks the chooser when
    there is more than one, dispatches the winner and reinserts the
    rest untouched (their original heap entries, so dispatch order
    among them is re-decided — not inherited — at the next step).

    Hooks (both optional):

    - ``on_choice(record)`` — called after each choice is resolved,
      before the chosen event is dispatched.
    - ``after_dispatch(kernel, event)`` — called after each event is
      dispatched; the verification layer runs its per-state checkers
      and prune tests here.  Exceptions propagate out of ``run``.
    """

    def __init__(self, chooser: Optional[Chooser] = None):
        self.chooser = chooser if chooser is not None else DefaultChooser()
        #: Every choice made during the run(s), in order.
        self.trail: List[ChoiceRecord] = []
        self.on_choice: Optional[Callable[[ChoiceRecord], None]] = None
        self.after_dispatch: Optional[Callable] = None
        #: Events dispatched (all of them, not just contested ones).
        self.dispatched = 0
        self._now = 0.0

    # ------------------------------------------------------------------
    def install(self, kernel) -> "SchedulerController":
        """Attach to ``kernel``; its ``run`` now delegates here."""
        kernel.controller = self
        return self

    # ------------------------------------------------------------------
    def _choose(self, kind: str, time: float,
                labels: Tuple[str, ...],
                seqs: Tuple[int, ...]) -> int:
        index = self.chooser.choose(kind, time, labels)
        if not 0 <= index < len(labels):
            raise SimulationOver(
                f"chooser returned {index} for {len(labels)} "
                f"alternatives at t={time}")
        record = ChoiceRecord(kind, time, labels, seqs, index)
        self.trail.append(record)
        hook = self.on_choice
        if hook is not None:
            hook(record)
        return index

    def choose_queue_tie(self, labels: Tuple[str, ...],
                         seqs: Tuple[int, ...]) -> int:
        """Resolve an equal-priority wait-queue tie (called by
        :class:`~repro.kernel.scheduler.WaitQueue`)."""
        return self._choose("queue", self._now, labels, seqs)

    # ------------------------------------------------------------------
    def run(self, kernel, until: Optional[float] = None) -> float:
        """Controlled counterpart of ``Kernel.run``.

        Same contract: dispatch until the queue drains or ``until``,
        return the final virtual time, refuse re-entrant calls.
        """
        if kernel._dispatching:
            raise SimulationOver("Kernel.run is not re-entrant")
        kernel._dispatching = True
        global _ACTIVE
        previous = _ACTIVE
        _ACTIVE = self
        events = kernel.events
        resume = kernel._resume
        after = None
        try:
            while True:
                batch = events.pop_tied_entries()
                if not batch:
                    break
                time = batch[0][0]
                if until is not None and time > until:
                    for entry in batch:
                        events.push_entry(entry)
                    break
                self._now = time
                index = 0
                if len(batch) > 1:
                    labels = tuple(entry_label(entry)
                                   for entry in batch)
                    seqs = tuple(entry[2] for entry in batch)
                    index = self._choose("event", time, labels, seqs)
                entry = batch[index]
                del batch[index]
                # Reinsert losers *before* dispatching: the dispatch
                # may schedule or cancel events and must see a
                # consistent queue.
                for other in batch:
                    events.push_entry(other)
                kernel.now = time
                event = entry[3]
                callback = event.callback
                if callback is not None:
                    callback()
                else:
                    resume(event.process, event.value, event.exc)
                self.dispatched += 1
                after = self.after_dispatch
                if after is not None:
                    after(kernel, event)
        finally:
            _ACTIVE = previous
            kernel._dispatching = False
        if until is not None and kernel.now < until:
            kernel.now = until
        return kernel.now


#: The controller currently inside :meth:`SchedulerController.run`,
#: consulted by :class:`~repro.kernel.scheduler.WaitQueue` for
#: priority-tie choice points.  Plain module global (the kernel is
#: single-threaded by construction).
_ACTIVE: Optional[SchedulerController] = None


def active_controller() -> Optional[SchedulerController]:
    """The controller currently running a controlled dispatch loop."""
    return _ACTIVE
