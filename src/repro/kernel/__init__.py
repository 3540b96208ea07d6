"""StarLite-style concurrent kernel: the simulation substrate.

Public surface::

    from repro.kernel import (
        Kernel, Process, ProcessState, Port,
        Delay, Immediate, BLOCKED,
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
from .syscalls import BLOCKED, Delay, Immediate, SysCall

__all__ = [
    "BLOCKED",
    "ChoiceRecord",
    "Chooser",
    "DefaultChooser",
    "SchedulerController",
    "Delay",
    "Event",
    "EventQueue",
    "Immediate",
    "InvalidProcessState",
    "Kernel",
    "KernelError",
    "Port",
    "Process",
    "ProcessInterrupt",
    "ProcessState",
    "RngStreams",
    "SchedulingError",
    "SimulationOver",
    "SysCall",
    "Timeout",
    "WaitQueue",
]
