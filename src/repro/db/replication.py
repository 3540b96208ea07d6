"""Replica catalog for the local-ceiling architecture.

Section 4's replicated design imposes three restrictions, which this
catalog encodes and the distributed layer enforces:

1. every data object is fully replicated at each site (R1);
2. objects updated by a transaction must be primary copies at the same
   site as the transaction (R2, single-writer/multiple-reader);
3. transactions commit before remote secondary copies are updated (R3,
   asynchronous propagation — remote copies are historical).

The catalog knows, for every object, its primary site, and tracks the
version timestamp of each site's copy so experiments can measure
temporal inconsistency (staleness of the views).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional


class ReplicationViolation(Exception):
    """An operation broke one of restrictions R1–R3."""


class ReplicaCatalog:
    """Primary-site assignment plus per-site copy timestamps."""

    def __init__(self, db_size: int, n_sites: int):
        if n_sites < 1:
            raise ValueError(f"need at least one site, got {n_sites}")
        if db_size < 1:
            raise ValueError(f"database size must be >= 1, got {db_size}")
        self.db_size = db_size
        self.n_sites = n_sites
        #: Contiguous partition: object oid's primary lives at
        #: site oid * n_sites // db_size (balanced, deterministic).
        self._primary: Dict[int, int] = {
            oid: min(oid * n_sites // db_size, n_sites - 1)
            for oid in range(db_size)
        }
        #: site -> its primaries, ascending, and the same as a set.
        self._primaries: Dict[int, List[int]] = {
            site: [] for site in range(n_sites)}
        for oid, site in self._primary.items():
            self._primaries[site].append(oid)
        self._primary_sets: Dict[int, FrozenSet[int]] = {
            site: frozenset(oids)
            for site, oids in self._primaries.items()}
        #: [site][oid] -> version timestamp of that site's copy.
        self._copy_ts: List[List[float]] = [
            [0.0] * db_size for __ in range(n_sites)]
        #: Worst staleness seen just before a copy changed (see
        #: :meth:`record_write`); with :meth:`max_staleness` at the end
        #: of a run, the run's exact peak.
        self.peak_staleness = 0.0

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def primary_site(self, oid: int) -> int:
        try:
            return self._primary[oid]
        except KeyError:
            raise KeyError(f"oid {oid} outside database "
                           f"(0..{self.db_size - 1})") from None

    def primaries_at(self, site: int) -> List[int]:
        """Objects whose primary copy lives at ``site``, ascending (the
        catalog's own list: read it, do not change it)."""
        self._check_site(site)
        return self._primaries[site]

    def check_update_locality(self, site: int, write_set) -> None:
        """Enforce R2: all written objects must be primary at ``site``."""
        if self._primary_sets.get(site, frozenset()).issuperset(write_set):
            return
        bad = [oid for oid in write_set if self.primary_site(oid) != site]
        if bad:
            raise ReplicationViolation(
                f"R2 violated: site {site} cannot update objects {bad} "
                f"(primaries at {[self.primary_site(o) for o in bad]})")

    # ------------------------------------------------------------------
    # copy freshness
    # ------------------------------------------------------------------
    def record_write(self, site: int, oid: int, timestamp: float,
                     now: Optional[float] = None) -> None:
        """The copy of ``oid`` at ``site`` reflects ``timestamp`` from
        ``now`` on (default: ``timestamp``, a primary's own write).

        Between two changes to ``oid``'s copies its staleness only
        grows, so it peaks just before one of them: the peak is taken
        here, over the copies as they were, and is exact.
        """
        self._check_site(site)
        if now is None:
            now = timestamp
        primary_ts = self._copy_ts[self._primary[oid]][oid]
        for copy_ts in self._copy_ts:
            if copy_ts[oid] < primary_ts:
                if now - primary_ts > self.peak_staleness:
                    self.peak_staleness = now - primary_ts
                break
        self._copy_ts[site][oid] = timestamp

    def copy_timestamp(self, site: int, oid: int) -> float:
        self._check_site(site)
        return self._copy_ts[site][oid]

    def staleness(self, site: int, oid: int, now: float) -> float:
        """How long the copy at ``site`` has been out of date.

        Zero when the copy carries the primary's latest version (and
        always at the primary site itself); otherwise the time elapsed
        since the primary's newest write — the copy has been missing
        that update for at least this long.  (A lower bound when the
        primary wrote several times since the copy's version.)
        """
        primary = self.primary_site(oid)
        primary_ts = self._copy_ts[primary][oid]
        if self._copy_ts[site][oid] >= primary_ts:
            return 0.0
        return max(0.0, now - primary_ts)

    def stale_copies(self, involving: Optional[int] = None):
        """Copies lagging their primary: ``(site, oid, primary,
        primary_ts)`` tuples, deterministic order.

        ``involving`` restricts the sweep to pairs where that site is
        either the stale secondary or the primary — the anti-entropy
        set walked after the site recovers from a crash (pull: refresh
        its own stale secondaries; push: re-offer its primaries'
        updates that the crash window may have swallowed elsewhere).
        """
        out = []
        for oid in range(self.db_size):
            primary = self.primary_site(oid)
            primary_ts = self._copy_ts[primary][oid]
            if primary_ts <= 0.0:
                continue
            for site in range(self.n_sites):
                if site == primary:
                    continue
                if involving is not None and involving not in (site,
                                                               primary):
                    continue
                if self._copy_ts[site][oid] < primary_ts:
                    out.append((site, oid, primary, primary_ts))
        return out

    def max_staleness(self, now: float) -> float:
        """Worst staleness over all (site, object) pairs."""
        # staleness() inlined: a pair is stale by now - primary_ts when
        # its copy lags, so the worst pair is the oldest lagging write.
        worst = 0.0
        for oid, primary in self._primary.items():
            primary_ts = self._copy_ts[primary][oid]
            for copy_ts in self._copy_ts:
                if copy_ts[oid] < primary_ts:
                    if now - primary_ts > worst:
                        worst = now - primary_ts
                    break
        return worst

    def _check_site(self, site: int) -> None:
        if not 0 <= site < self.n_sites:
            raise KeyError(f"site {site} outside 0..{self.n_sites - 1}")
