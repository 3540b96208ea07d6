"""Workload generation.

Reproduces the paper's load model: "Transactions are generated with
exponentially distributed interarrival times, and the data objects
updated by a transaction are chosen uniformly from the database.  The
total processing time of a transaction is directly related to the number
of data objects accessed."  Transaction types cover read-only/update and
periodic/aperiodic, with user-set mix fractions — the knobs the paper's
User Interface exposes ("load characteristics: number of transactions to
be executed, size of their read-sets and write-sets, transaction types
(read-only/update and periodic/aperiodic) and their priorities, and the
mean interarrival time of aperiodic transactions").

The generator emits :class:`TransactionSpec` values — pure data, no
kernel state — so the *same* workload can be replayed against every
protocol (common random numbers), which is how the figure benchmarks
compare C, P and L fairly.

Draws are bit-exact transcriptions of ``random.Random``: :func:`_below`,
:func:`_sample` and :func:`_shuffle` are CPython's ``randrange``,
``sample`` and ``shuffle`` with ``_randbelow_with_getrandbits`` inlined,
so they ask ``getrandbits`` for the same widths in the same order and
the schedule is the one the stdlib methods would give — without a
``random.py`` frame per draw.  ``tests/txn/generator_oracle.py`` keeps
the stdlib version and the property tests hold the two equal.
"""

from __future__ import annotations

import dataclasses
from itertools import repeat
from math import ceil as _ceil, log as _log
from typing import List, Optional, Sequence, Tuple

from ..db.locks import LockMode
from ..db.replication import ReplicaCatalog
from ..kernel.rng import RngStreams
from .transaction import TransactionType

_READ = LockMode.READ
_WRITE = LockMode.WRITE
_READ_ONLY = TransactionType.READ_ONLY
_UPDATE = TransactionType.UPDATE

#: Widths below this read their bit length from ``_BITS`` instead of
#: calling ``int.bit_length`` per draw.
_TABLE = 1024
_BITS = tuple(n.bit_length() for n in range(_TABLE))


def _below(getrandbits, n: int) -> int:
    """``Random.randrange(n)`` for ``n >= 1``."""
    bits = _BITS[n] if n < _TABLE else n.bit_length()
    r = getrandbits(bits)
    while r >= n:
        r = getrandbits(bits)
    return r


def _sample(getrandbits, population: Sequence, k: int) -> list:
    """``Random.sample(population, k)``: the pool branch for a short
    population, the set branch (reject a repeat, draw again) for a
    long one, at CPython's threshold."""
    n = len(population)
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    result = [None] * k
    setsize = 21
    if k > 5:
        setsize += 4 ** _ceil(_log(k * 3, 4))
    if n <= setsize:
        pool = list(population)
        for i in range(k):
            m = n - i
            bits = _BITS[m] if m < _TABLE else m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            result[i] = pool[j]
            pool[j] = pool[m - 1]
    else:
        bits = _BITS[n] if n < _TABLE else n.bit_length()
        selected = {}  # a dict: marking an index costs no method call
        for i in range(k):
            j = getrandbits(bits)
            while j >= n or j in selected:
                j = getrandbits(bits)
            selected[j] = None
            result[i] = population[j]
    return result


def _shuffle(getrandbits, x: list) -> None:
    """``Random.shuffle(x)``, in place."""
    for i in reversed(range(1, len(x))):
        m = i + 1
        bits = _BITS[m] if m < _TABLE else m.bit_length()
        j = getrandbits(bits)
        while j >= m:
            j = getrandbits(bits)
        x[i], x[j] = x[j], x[i]


@dataclasses.dataclass(frozen=True)
class TransactionSpec:
    """A not-yet-instantiated transaction: everything known at arrival."""

    arrival: float
    operations: Tuple[Tuple[int, LockMode], ...]
    site: int = 0
    txn_type: TransactionType = TransactionType.UPDATE
    periodic: bool = False

    @property
    def size(self) -> int:
        return len(self.operations)


class WorkloadGenerator:
    """Aperiodic open-arrival workload over a uniform database."""

    def __init__(self, rng: RngStreams, db_size: int,
                 mean_interarrival: float, transaction_size: int,
                 n_transactions: int,
                 read_only_fraction: float = 0.0,
                 write_fraction: float = 1.0,
                 size_jitter: int = 0,
                 n_sites: int = 1,
                 catalog: Optional[ReplicaCatalog] = None,
                 stream_prefix: str = "workload"):
        """
        ``transaction_size`` is the mean number of objects accessed;
        with ``size_jitter`` > 0 actual sizes are uniform in
        [size - jitter, size + jitter] (clamped to >= 1).

        ``read_only_fraction`` is the transaction mix (Figures 4–6 sweep
        this).  ``write_fraction`` is the share of an *update*
        transaction's operations that are writes (1.0 reproduces the
        paper's "objects updated by a transaction"; lower values add
        read-write conflicts inside update transactions).

        With ``catalog`` set (distributed runs), update transactions are
        assigned to a home site and their write sets drawn from that
        site's primary partition (restriction R2); read-only
        transactions are distributed randomly across sites with reads
        drawn uniformly from the whole database.
        """
        if mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive, got "
                             f"{mean_interarrival}")
        if size_jitter < 0:
            raise ValueError(f"size_jitter must be >= 0, got {size_jitter}")
        if not 0.0 <= read_only_fraction <= 1.0:
            raise ValueError("read_only_fraction must be in [0, 1], got "
                             f"{read_only_fraction}")
        if not 0.0 < write_fraction <= 1.0:
            raise ValueError("write_fraction must be in (0, 1], got "
                             f"{write_fraction}")
        if transaction_size < 1:
            raise ValueError(f"transaction_size must be >= 1, got "
                             f"{transaction_size}")
        if transaction_size + size_jitter > db_size:
            raise ValueError(
                f"transaction_size + jitter ({transaction_size} + "
                f"{size_jitter}) exceeds database size {db_size}")
        self.rng = rng
        self.db_size = db_size
        self.mean_interarrival = mean_interarrival
        self.transaction_size = transaction_size
        self.size_jitter = size_jitter
        self.n_transactions = n_transactions
        self.read_only_fraction = read_only_fraction
        self.write_fraction = write_fraction
        self.n_sites = n_sites
        self.catalog = catalog
        self._prefix = stream_prefix
        #: The whole database, built once: every transaction samples
        #: from it.
        self._all_oids = list(range(db_size))
        if catalog is not None and catalog.n_sites != n_sites:
            raise ValueError(
                f"catalog has {catalog.n_sites} sites, generator expects "
                f"{n_sites}")

    # ------------------------------------------------------------------
    def generate(self) -> List[TransactionSpec]:
        """Produce the full arrival schedule, deterministically."""
        stream = self.rng.stream
        prefix = self._prefix
        arrival_draw = stream(f"{prefix}.arrivals").random
        mix_draw = stream(f"{prefix}.mix").random
        site_bits = stream(f"{prefix}.site").getrandbits
        size_bits = stream(f"{prefix}.size").getrandbits
        object_bits = stream(f"{prefix}.objects").getrandbits
        order_bits = stream(f"{prefix}.order").getrandbits
        rate = 1.0 / self.mean_interarrival
        read_only_fraction = self.read_only_fraction
        write_fraction = self.write_fraction
        n_sites = self.n_sites
        all_oids = self._all_oids
        # Update transactions write their home site's primaries
        # (restriction R2 in distributed runs).
        write_pools = ([self.catalog.primaries_at(site)
                        for site in range(n_sites)]
                       if self.catalog is not None else None)
        size = self.transaction_size
        jitter = self.size_jitter
        low = max(1, size - jitter)
        widths = size + jitter - low + 1
        specs: List[TransactionSpec] = []
        clock = 0.0
        for __ in range(self.n_transactions):
            # Random.expovariate(rate), inlined.
            clock += -_log(1.0 - arrival_draw()) / rate
            read_only = mix_draw() < read_only_fraction
            if jitter:
                size = low + _below(size_bits, widths)
            if read_only:
                site = _below(site_bits, n_sites) if n_sites > 1 else 0
                oids = _sample(object_bits, all_oids, size)
                specs.append(TransactionSpec(
                    clock, tuple(zip(oids, repeat(_READ))), site,
                    _READ_ONLY))
                continue
            if write_pools is not None:
                site = _below(site_bits, n_sites)
                write_pool = write_pools[site]
            else:
                site = 0
                write_pool = all_oids
            n_writes = max(1, round(write_fraction * size))
            n_writes = min(n_writes, size, len(write_pool))
            write_oids = _sample(object_bits, write_pool, n_writes)
            operations = list(zip(write_oids, repeat(_WRITE)))
            if n_writes < size:
                # Reads come from the whole database, so in the global
                # (partitioned) mode they may be remote.
                written = set(write_oids)
                read_pool = [oid for oid in all_oids
                             if oid not in written]
                operations += zip(_sample(object_bits, read_pool,
                                          size - n_writes),
                                  repeat(_READ))
            # Access order is random (sample order is already random for
            # the writes; shuffle the merged list): ordered access would
            # prevent 2PL deadlocks entirely and mask the paper's
            # Figure 3 effect.
            _shuffle(order_bits, operations)
            specs.append(TransactionSpec(clock, tuple(operations), site,
                                         _UPDATE))
        return specs


class PeriodicStream:
    """A periodic transaction stream: the same access set, released every
    ``period`` time units — the paper's tracking scenario, where "a local
    track would be updated periodically in conjunction with repetitive
    scanning"."""

    def __init__(self, operations: Sequence[Tuple[int, LockMode]],
                 period: float, site: int = 0,
                 first_release: float = 0.0,
                 txn_type: TransactionType = TransactionType.UPDATE):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if not operations:
            raise ValueError("a periodic stream needs operations")
        self.operations = tuple(operations)
        self.period = period
        self.site = site
        self.first_release = first_release
        self.txn_type = txn_type

    def releases(self, horizon: float) -> List[TransactionSpec]:
        """All instances released strictly before ``horizon``."""
        specs = []
        release = self.first_release
        while release < horizon:
            specs.append(TransactionSpec(
                release, self.operations, self.site, self.txn_type,
                periodic=True))
            release += self.period
        return specs


def merge_schedules(*schedules: Sequence[TransactionSpec]
                    ) -> List[TransactionSpec]:
    """Merge spec lists into one arrival-ordered schedule."""
    merged = [spec for schedule in schedules for spec in schedule]
    merged.sort(key=lambda spec: spec.arrival)
    return merged
