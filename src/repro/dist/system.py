"""Distributed system assembly: sites + network + architecture wiring.

Builds the §4 test system from a :class:`DistributedConfig`: N fully
interconnected sites, each with its own CPU and a full database copy, a
Message Server, and either

- **global mode** — lock managers behind ceiling-manager server loops,
  placed by the protocol's registry spec: one manager at ``gcm_site``
  for single-manager protocols (the paper's global ceiling manager),
  or one resource-local agent per site under DPCP, with lock requests
  routed to each object's primary site; data and commit servers at
  every site; transactions run the global TM (lock round trips, remote
  data access, 2PC);
- **local mode** — one protocol instance per site (built from the
  registry spec); replica appliers at every site; transactions run the
  local TM (local locks, local commit, asynchronous replica fan-out).

With a :class:`~repro.faults.FaultPlan` on the config, the network
routes every message through a :class:`~repro.faults.FaultInjector`,
crash/recovery intervals are armed as kernel events, and the system —
not the TMs, and not the user — picks the transport the TMs talk
through: :class:`~repro.dist.comms.ReliableComms` when the plan can
lose or repeat a message (``plan.needs_recovery``),
:class:`~repro.dist.comms.DirectComms` otherwise.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Dict, List, Optional

from ..core.builder import schedule_arrivals
from ..core.config import DistributedConfig
from ..core.monitor import PerformanceMonitor
from ..db.replication import ReplicaCatalog
from ..db.versions import MultiVersionStore
from ..faults import FaultInjector
from ..kernel.turbo import make_kernel
from ..protocols import REGISTRY
from ..txn.generator import TransactionSpec, WorkloadGenerator
from ..txn.priority import PriorityAssigner, proportional_deadline
from ..txn.transaction import (SiteFailure, Transaction,
                               TransactionStatus)
from .comms import DirectComms, RecoveryPolicy, ReliableComms
from .global_ceiling import (ceiling_manager, commit_server, data_server,
                             global_transaction_manager)
from .local_ceiling import (REPLICA_SERVICE, local_transaction_manager,
                            replica_applier)
from .message import ReplicaUpdate
from .network import Network
from .site import Site
from .snapshot import SnapshotReader, snapshot_read_transaction


class DistributedSystem:
    """A wired N-site instance ready to run one experiment."""

    def __init__(self, config: DistributedConfig,
                 schedule: Optional[List[TransactionSpec]] = None):
        config.validate()
        self.config = config
        self.kernel = make_kernel(config.seed, engine=config.engine)
        #: Transaction ids of this run (TMs and replica appliers), from
        #: 1: ids are hashed, so a row must not depend on what the
        #: interpreter numbered before.
        self._tids = itertools.count(1)
        self.network = Network(self.kernel, config.n_sites,
                               config.comm_delay)
        self.catalog = ReplicaCatalog(config.db_size, config.n_sites)
        self.sites: List[Site] = [
            Site(self.kernel, site_id, config.db_size, self.network)
            for site_id in range(config.n_sites)
        ]
        self.monitor = PerformanceMonitor()
        self.degradation = self.monitor.degradation
        self.assigner = PriorityAssigner(config.timing.priority_policy)
        self._active = 0
        self._inflight: Dict[int, Transaction] = {}
        self.versions: Optional[List[MultiVersionStore]] = None
        self.snapshot_reader: Optional[SnapshotReader] = None
        if config.temporal_versions:
            self.versions = [MultiVersionStore()
                             for __ in range(config.n_sites)]
        if config.snapshot_reads:
            self.snapshot_reader = SnapshotReader(
                self.sites, self.versions, config.comm_delay)

        # -- fault plan wiring ------------------------------------------
        plan = config.faults
        self.injector: Optional[FaultInjector] = None
        self.policy: Optional[RecoveryPolicy] = None
        if plan is not None and plan.active:
            self.degradation.enabled = True
            self.injector = FaultInjector(self.kernel, plan,
                                          config.n_sites,
                                          self.degradation)
            self.network.attach_injector(self.injector)
            self.injector.schedule_crashes(self.crash_site,
                                           self.recover_site)
        #: ``connect(site, reply, tid=)`` builds a transport: the one
        #: place that knows whether the network can lose a message.
        self.connect = DirectComms
        if plan is not None and plan.needs_recovery:
            self.policy = RecoveryPolicy.from_plan(
                plan, config.comm_delay, self.degradation)
            self.connect = partial(ReliableComms, policy=self.policy)
        #: Each site's reply-less transport (``post`` only).
        self.site_comms = [self.connect(site, None)
                           for site in self.sites]

        spec = REGISTRY.resolve(config.protocol)
        self.spec = spec
        self.lock_router = None
        #: Lock managers by site.  Global mode: one entry at
        #: ``gcm_site`` for single-manager protocols, one per site under
        #: DPCP's resource-local placement.  Local mode: every site's
        #: own instance (also ``site.ceiling``).
        self.ccs: Dict[int, object] = {}
        if config.mode == "global":
            self.lock_router = spec.lock_router(self.catalog,
                                                config.gcm_site)
            for manager_id in spec.manager_sites(config.n_sites,
                                                 config.gcm_site):
                cc = spec.build(self.kernel, config.protocol_options)
                self.ccs[manager_id] = cc
                self.kernel.spawn(
                    ceiling_manager(self.sites[manager_id], cc,
                                    stats=self.degradation),
                    f"gcm-{manager_id}", priority=float("inf"))
            for site in self.sites:
                self.kernel.spawn(data_server(site, config.costs),
                                  f"data-server-{site.site_id}",
                                  priority=float("inf"))
                self.kernel.spawn(commit_server(site, config.costs),
                                  f"commit-server-{site.site_id}",
                                  priority=float("inf"))
        else:
            for site in self.sites:
                site.ceiling = self.ccs[site.site_id] = spec.build(
                    self.kernel, config.protocol_options)
                versions = (self.versions[site.site_id]
                            if self.versions is not None else None)
                self.kernel.spawn(
                    replica_applier(site, self.catalog, config.costs,
                                    self._tids, versions,
                                    stats=self.degradation),
                    f"replica-applier-{site.site_id}",
                    priority=float("inf"))

        if schedule is None:
            workload = config.workload
            generator = WorkloadGenerator(
                self.kernel.rng, config.db_size,
                workload.mean_interarrival, workload.transaction_size,
                workload.n_transactions,
                read_only_fraction=workload.read_only_fraction,
                write_fraction=workload.write_fraction,
                size_jitter=workload.size_jitter,
                n_sites=config.n_sites, catalog=self.catalog)
            schedule = generator.generate()
        self.schedule = schedule
        schedule_arrivals(self.kernel, schedule, self._admit)

    # ------------------------------------------------------------------
    def _admit(self, spec: TransactionSpec) -> None:
        now = self.kernel.now
        deadline = proportional_deadline(
            now, spec.size, self.config.costs.per_object_time,
            self.config.timing.slack_factor,
            load=self._active,
            load_factor=self.config.timing.load_factor)
        priority = self.assigner.priority(now, deadline)
        txn = Transaction(spec.operations, now, deadline, priority,
                          site=spec.site, txn_type=spec.txn_type,
                          periodic=spec.periodic, tid=next(self._tids))
        if not self.network.is_operational(spec.site):
            # A crashed site accepts no work: the arrival is refused and
            # scored as missed (the hard-deadline policy — it can never
            # finish in time on a dead site).
            txn.mark_missed(now)
            self.degradation.rejected_at_down_site += 1
            self.monitor.record(txn)
            hooks = self.kernel.hooks
            if hooks is not None:
                hooks.txn_miss(now, txn, "site-down")
            return
        self._active += 1
        if self.config.mode == "global":
            body = global_transaction_manager(
                self.sites, self.config.gcm_site, self.catalog, txn,
                self.config.costs, self._on_done, self.connect,
                router=self.lock_router)
        elif (self.snapshot_reader is not None
              and not txn.write_set):
            # §4 mechanism: read-only transactions served lock-free
            # from the local multiversion store.
            body = snapshot_read_transaction(
                self.sites[txn.site], self.snapshot_reader, txn,
                self.config.costs.cpu_per_object, self._on_done)
        else:
            body = local_transaction_manager(
                self.sites, self.catalog, txn, self.config.costs,
                self._on_done, self.site_comms[txn.site],
                versions=self.versions)
        txn.process = self.kernel.spawn(body, f"tm-{txn.tid}",
                                        priority=txn.priority)
        txn.process.payload = txn
        self._inflight[txn.tid] = txn
        self.sites[txn.site].adopt(txn.process)

    def _on_done(self, txn: Transaction) -> None:
        self._active -= 1
        self._inflight.pop(txn.tid, None)
        self.monitor.record(txn)

    # ------------------------------------------------------------------
    # crash / recovery (driven by the injector's scheduled intervals)
    # ------------------------------------------------------------------
    def crash_site(self, site_id: int) -> None:
        """Fail-stop crash: the site drops off the network, every
        resident process (in-flight TMs, appliers, helpers, couriers)
        is aborted with :class:`SiteFailure`, and the Message Server's
        queued inbox is purged.  Infrastructure server loops and the
        ceiling manager's protocol state are modelled as recoverable
        from stable storage — the crash silences them, it does not
        amnesia them."""
        now = self.kernel.now
        site = self.sites[site_id]
        victims = [txn for txn in self._inflight.values()
                   if txn.site == site_id]
        self.network.set_site_operational(site_id, False)
        self.degradation.mark_down(site_id, now)
        self.degradation.killed_by_crash += len(victims)
        killed, purged = site.crash(lambda: SiteFailure(site_id))
        del killed  # residents include non-txn helpers; victims counted
        self.degradation.purged_messages += purged
        hooks = self.kernel.hooks
        if hooks is not None:
            hooks.site_crash(now, site_id, len(victims))

    def recover_site(self, site_id: int) -> None:
        """Bring a crashed site back: rejoin the network, sweep any
        lock state orphaned by the crash, finalize transactions whose
        interrupt outran their manager body, and (local mode) run
        anti-entropy so secondary copies stranded by the outage catch
        up."""
        now = self.kernel.now
        self.network.set_site_operational(site_id, True)
        self.sites[site_id].recover()
        self.degradation.mark_up(site_id, now)
        hooks = self.kernel.hooks
        if hooks is not None:
            hooks.site_recover(now, site_id)
        self._finalize_orphans()
        if self.config.mode == "local":
            self._resync_replicas(site_id)

    def _finalize_orphans(self) -> None:
        """Score transactions killed before their manager ever ran.

        A process interrupted before its first step terminates without
        executing its body — no ``except``/``finally`` fires, so the
        usual ``_on_done`` path never runs.  Sweep those here."""
        for txn in list(self._inflight.values()):
            process = txn.process
            if (process is not None and process.terminated
                    and txn.status in (TransactionStatus.PENDING,
                                       TransactionStatus.RUNNING)):
                txn.mark_missed(self.kernel.now)
                self._on_done(txn)
                hooks = self.kernel.hooks
                if hooks is not None:
                    hooks.txn_miss(self.kernel.now, txn, "orphaned")

    def _resync_replicas(self, site_id: int) -> None:
        """Anti-entropy after recovery (local mode): re-propagate every
        update the crash window swallowed — pull (the recovered site's
        secondaries may be stale) and push (other sites may have missed
        updates from this site's primaries while its couriers were
        dead)."""
        for dst, oid, primary, primary_ts in (
                self.catalog.stale_copies(involving=site_id)):
            value = self.sites[primary].database.object(oid).value
            self.degradation.resync_updates += 1
            self.site_comms[primary].post(dst, ReplicaUpdate(
                target=REPLICA_SERVICE, sender_site=primary, oid=oid,
                value=value, timestamp=primary_ts,
                origin_priority=-float("inf")))

    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> PerformanceMonitor:
        self.kernel.run(until=until)
        self._finalize_orphans()
        return self.monitor

    def summary(self) -> dict:
        row = self.monitor.summary()
        row["messages_sent"] = self.network.messages_sent
        lost = self.network.messages_lost
        if self.degradation.enabled:
            lost += (self.degradation.messages_dropped
                     + self.degradation.partition_drops)
        row["messages_lost"] = lost
        row["undeliverable"] = sum(site.registry.undeliverable
                                   for site in self.sites)
        row["ms_dropped"] = sum(site.message_server.dropped
                                for site in self.sites)
        stats = {}
        for site_id in sorted(self.ccs):
            for key, value in self.ccs[site_id].stats.as_dict().items():
                stats[key] = stats.get(key, 0) + value
        row.update({f"cc_{key}": value for key, value in stats.items()})
        if self.degradation.enabled:
            now = self.kernel.now
            row["fault_downtime"] = self.degradation.total_downtime(now)
            row["fault_availability"] = self.degradation.availability(
                self.config.n_sites, now)
        return row

    def max_staleness(self) -> float:
        """Worst secondary-copy staleness (local mode's temporal
        inconsistency measure)."""
        return self.catalog.max_staleness(self.kernel.now)
