"""StarLite-style concurrent kernel: the simulation substrate.

Public surface::

    from repro.kernel import (
        Kernel, Process, ProcessState, Semaphore, Port, DeadlineTimer,
        Delay, Spawn, Join, Call, Now, Immediate, BLOCKED,
        WaitQueue, RngStreams,
        KernelError, ProcessInterrupt, Timeout,
    )
"""

from .controlled import (ChoiceRecord, Chooser, DefaultChooser,
                         SchedulerController)
from .errors import (InvalidProcessState, KernelError, PortClosed,
                     ProcessInterrupt, SchedulingError, SimulationOver,
                     Timeout)
from .events import Event, EventQueue
from .kernel import Kernel
from .ports import Port
from .process import Process, ProcessState
from .rng import RngStreams
from .scheduler import WaitQueue
from .semaphore import Semaphore
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
    "PortClosed",
    "Process",
    "ProcessInterrupt",
    "ProcessState",
    "RngStreams",
    "SchedulingError",
    "Semaphore",
    "SimulationOver",
    "Spawn",
    "SysCall",
    "Timeout",
    "WaitQueue",
]
