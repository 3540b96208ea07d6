"""Concurrency-control protocol implementations.

The protocol *set* lives in :mod:`repro.protocols`, a table whose rows
name each class here with its aliases and family; build one with
``REGISTRY.resolve(name).build(kernel, options)``.
"""

from .base import CCStats, ConcurrencyControl, Request
from .deadlock import VICTIM_POLICIES, choose_victim
from .dpcp import DistributedPriorityCeiling
from .priority_ceiling import PriorityCeiling
from .priority_inheritance import PriorityInheritance
from .queue_locks import FMLPQueueLock, MPCP
from .twopl import TwoPhaseLocking, TwoPhaseLockingPriority

__all__ = [
    "CCStats",
    "ConcurrencyControl",
    "DistributedPriorityCeiling",
    "FMLPQueueLock",
    "MPCP",
    "PriorityCeiling",
    "PriorityInheritance",
    "Request",
    "TwoPhaseLocking",
    "TwoPhaseLockingPriority",
    "VICTIM_POLICIES",
    "choose_victim",
]
