"""Reference oracle for :meth:`WorkloadGenerator.generate`.

This is the historical body: every draw goes through the stdlib's
``random.Random`` methods (``expovariate``, ``random``, ``randint``,
``sample``, ``shuffle``) on :meth:`RngStreams.stream`, one named-stream
lookup per draw.  ``src/`` transcribes those methods over
``getrandbits`` (``repro.txn.generator._below`` / ``_sample`` /
``_shuffle``) to skip a Python frame per draw; the transcription is
only correct while it consumes the same Mersenne Twister words, which
is what comparing :func:`generate` against the live generator checks.
It is O(db_size) per update transaction on a catalog, which is why it
lives here and not in ``src/``.
"""

from __future__ import annotations

from typing import List

from repro.db.locks import LockMode
from repro.txn.generator import TransactionSpec, WorkloadGenerator
from repro.txn.transaction import TransactionType


def generate(generator: WorkloadGenerator) -> List[TransactionSpec]:
    """The schedule ``generator`` describes, drawn from its ``rng``
    through the stdlib (so build it on a fresh :class:`RngStreams`)."""
    specs: List[TransactionSpec] = []
    clock = 0.0
    for index in range(generator.n_transactions):
        clock += generator.rng.stream(
            f"{generator._prefix}.arrivals").expovariate(
                1.0 / generator.mean_interarrival)
        specs.append(_one(generator, index, clock))
    return specs


def _one(generator: WorkloadGenerator, index: int,
         arrival: float) -> TransactionSpec:
    rng, prefix = generator.rng, generator._prefix
    all_oids = list(range(generator.db_size))
    read_only = (rng.stream(f"{prefix}.mix").random()
                 < generator.read_only_fraction)
    size = _draw_size(generator)
    if read_only:
        site = (rng.stream(f"{prefix}.site").randint(
                    0, generator.n_sites - 1)
                if generator.n_sites > 1 else 0)
        oids = rng.stream(f"{prefix}.objects").sample(all_oids, size)
        operations = tuple((oid, LockMode.READ) for oid in oids)
        return TransactionSpec(arrival, operations, site,
                               TransactionType.READ_ONLY)
    if generator.catalog is not None:
        site = rng.stream(f"{prefix}.site").randint(
            0, generator.n_sites - 1)
        write_pool = generator.catalog.primaries_at(site)
    else:
        site = 0
        write_pool = all_oids
    n_writes = max(1, round(generator.write_fraction * size))
    n_writes = min(n_writes, size, len(write_pool))
    n_reads = size - n_writes
    write_oids = rng.stream(f"{prefix}.objects").sample(write_pool,
                                                        n_writes)
    read_oids = []
    if n_reads > 0:
        written = set(write_oids)
        read_pool = [oid for oid in all_oids if oid not in written]
        read_oids = rng.stream(f"{prefix}.objects").sample(read_pool,
                                                           n_reads)
    operations = ([(oid, LockMode.WRITE) for oid in write_oids] +
                  [(oid, LockMode.READ) for oid in read_oids])
    rng.stream(f"{prefix}.order").shuffle(operations)
    return TransactionSpec(arrival, tuple(operations), site,
                           TransactionType.UPDATE)


def _draw_size(generator: WorkloadGenerator) -> int:
    if generator.size_jitter == 0:
        return generator.transaction_size
    low = max(1, generator.transaction_size - generator.size_jitter)
    high = generator.transaction_size + generator.size_jitter
    return generator.rng.stream(f"{generator._prefix}.size").randint(
        low, high)
