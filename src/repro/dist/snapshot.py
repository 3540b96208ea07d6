"""Temporally consistent snapshot reads (§4's multiversion mechanism).

"If the system provides multiple versions of data objects, ensuring a
temporally consistent view becomes a real-time scheduling problem in
which the time lags in the distributed versions need to be controlled.
Once the time lags can be controlled by the timestamps of data objects,
transactions can read the proper versions of distributed data objects,
and ensure that decisions are based on temporally consistent data."

With ``temporal_versions`` enabled, every committed write is installed
into each site's :class:`MultiVersionStore` (locally at commit, remotely
when the replica applier runs).  A *snapshot read* at time ``t`` then
returns, for every object, the latest version with timestamp <= t —
a cross-site consistent view, **without acquiring any locks**: versions
are immutable once installed, so readers cannot conflict with writers.

The catch is choosing ``t``: a site's store only surely contains all
versions older than (communication delay + apply latency).  The
:class:`SnapshotReader` tracks a conservative horizon from the observed
apply latencies.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..db.versions import MultiVersionStore
from ..txn.transaction import Transaction, TransactionAbort
from .site import Site


class SnapshotReader:
    """Consistent cross-site reads over the systems' version stores."""

    def __init__(self, sites: List[Site],
                 versions: List[MultiVersionStore],
                 comm_delay: float):
        if versions is None:
            raise ValueError("snapshot reads require temporal_versions "
                             "to be enabled on the system")
        if len(sites) != len(versions):
            raise ValueError("one version store per site required")
        self.sites = sites
        self.versions = versions
        self.comm_delay = comm_delay

    # ------------------------------------------------------------------
    def observed_apply_horizon(self) -> float:
        """A conservative bound on how long a committed write may take
        to become visible at every site: the communication delay plus
        the worst apply latency observed so far."""
        worst = 0.0
        for site in self.sites:
            if site.replica_apply_latencies:
                worst = max(worst, max(site.replica_apply_latencies))
        return max(worst, self.comm_delay)

    def safe_snapshot_time(self, now: float,
                           margin: float = 0.0) -> float:
        """A timestamp at which every site's store is expected to be
        complete (clamped at 0)."""
        return max(0.0, now - self.observed_apply_horizon() - margin)

    # ------------------------------------------------------------------
    def read(self, site: int, oids, as_of: float
             ) -> Dict[int, Tuple[float, float]]:
        """Read ``oids`` from ``site``'s store as of ``as_of``:
        {oid: (version_ts, value)}."""
        store = self.versions[site]
        return {oid: store.read_as_of(oid, as_of) for oid in oids}

    def consistent_across_sites(self, oids, as_of: float) -> bool:
        """True if every site returns the identical snapshot — holds
        whenever ``as_of`` is at or before the safe snapshot time."""
        reference = self.read(0, oids, as_of)
        return all(self.read(site, oids, as_of) == reference
                   for site in range(1, len(self.versions)))


def snapshot_read_transaction(site: Site, txn: Transaction,
                              cpu_per_object: float,
                              on_done: Callable[[Transaction], None]):
    """Generator body: a read-only transaction served from the local
    version store — no locks, no blocking, CPU only.

    Only its cost is simulated, one CPU burst per object: nothing
    consumes the values, so none are read.  The view it stands for is
    :meth:`SnapshotReader.read` as of the safe snapshot time at start.
    """
    kernel = site.kernel
    txn.start(kernel)
    try:
        cpu_burst = site.cpu.use(cpu_per_object)
        for __ in txn.operations:
            yield cpu_burst
        txn.commit(kernel)
    except TransactionAbort:
        # Deadline expiry — or the site crashing under the reader.
        txn.miss(kernel)
    # Not a ``finally``: a reader closed in flight (a cut run's
    # ``Kernel.close()`` or the collector) records nothing.
    on_done(txn)
