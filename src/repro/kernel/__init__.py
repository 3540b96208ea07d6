"""StarLite-style concurrent kernel: the simulation substrate.

Public surface::

    from repro.kernel import (
        Kernel, Process, ProcessState, Port, DeadlineTimer,
        Delay, Spawn, Join, Call, Now, Immediate, BLOCKED,
        WaitQueue, RngStreams,
        KernelError, ProcessInterrupt, Timeout,
    )
"""

from .controlled import (ChoiceRecord, Chooser, DefaultChooser,
                         SchedulerController)
from .errors import (InvalidProcessState, KernelError, ProcessInterrupt,
                     SchedulingError, SimulationOver, Timeout)
from .events import Event, EventQueue
from .kernel import Kernel
from .ports import Port
from .process import Process, ProcessState
from .rng import RngStreams
from .scheduler import WaitQueue
from .syscalls import (BLOCKED, Call, Delay, Immediate, Join, Now, Spawn,
                       SysCall)
from .timers import DeadlineTimer

__all__ = [
    "BLOCKED",
    "Call",
    "ChoiceRecord",
    "Chooser",
    "DefaultChooser",
    "SchedulerController",
    "DeadlineTimer",
    "Delay",
    "Event",
    "EventQueue",
    "Immediate",
    "InvalidProcessState",
    "Join",
    "Kernel",
    "KernelError",
    "Now",
    "Port",
    "Process",
    "ProcessInterrupt",
    "ProcessState",
    "RngStreams",
    "SchedulingError",
    "SimulationOver",
    "Spawn",
    "SysCall",
    "Timeout",
    "WaitQueue",
]
