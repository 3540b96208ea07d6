"""Controlled scheduling: every nondeterministic tie becomes a choice.

The kernel is deterministic — for one seed there is exactly one run.
That determinism comes from *tie-breaking rules*: events scheduled for
the same instant fire in scheduling order (the ``seq`` component of the
event tuple), and equal-priority waiters are served FIFO.  Those rules
pick one interleaving out of many that the model semantics allow; a
bug that only bites under a different legal interleaving is invisible
to every seed.

This module makes the tie-breaks *pluggable*.  With a
:class:`SchedulerController` installed, the kernel asks its
:class:`Chooser`, at every **choice point**, which of the tied
alternatives goes first:

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

The controlled run is the shipped run: ``Kernel.run`` dispatches it in
its own arm, fused wakes and queue sampling included.  When no
controller is installed the cost is one ``is not None`` test per
``Kernel.run`` call and one attribute read per priority-queue pop.
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
    """The strategy and the records of a controlled run.

    Install with :meth:`install`: ``Kernel.run`` and ``Kernel.step``
    then dispatch one event at a time, asking :meth:`_choose` whenever
    several live events are tied at the earliest ``(time, key)``, and a
    priority :class:`~repro.kernel.scheduler.WaitQueue` of that kernel
    asks it whenever a pop finds tied waiters.

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
        #: Events dispatched (all of them, not just contested ones; a
        #: fused wake dispatches none).
        self.dispatched = 0

    def install(self, kernel) -> "SchedulerController":
        """Attach to ``kernel``: its ties are now this controller's."""
        kernel.controller = self
        return self

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
