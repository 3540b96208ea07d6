"""Lint fixture: one seeded violation per rule code.

This file is *supposed* to be wrong — the CLI acceptance test asserts
``repro lint`` exits non-zero on it and reports exactly these findings.
It is never imported.
"""

import dataclasses
import os
import random
import time
from typing import Set


def wall_clock_timestamp():
    return time.time()  # RPL001


def pick(items):
    return random.choice(items) + len(os.urandom(4))  # RPL001 twice


def process_body(port, cpu):
    port.receive()  # RPL003: constructed, never yielded
    yield cpu.use(1.0)


def plain_helper(cpu):
    cpu.use(1.0)  # RPL004: blocking syscall outside a process body


@dataclasses.dataclass(frozen=True)
class SeededConfig:
    tags: Set[str] = dataclasses.field(default_factory=set)  # RPL005


def aliased_timestamp():
    stamp = time.time; stamp()  # RPL001 through an alias
