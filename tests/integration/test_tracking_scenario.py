"""The paper's motivating application as an integration test: periodic
radar-scan updates + aperiodic queries on a replicated 3-site system."""


from repro.core import DistributedConfig, TimingConfig, WorkloadConfig
from repro.db.locks import LockMode
from repro.dist import DistributedSystem
from repro.kernel.rng import RngStreams
from repro.txn import (CostModel, PeriodicStream, WorkloadGenerator,
                       merge_schedules)

N_SITES = 3
DB_SIZE = 60
HORIZON = 400.0


def build_system(comm_delay=2.0, scan_period=25.0, query_rate=4.0):
    config = DistributedConfig(
        mode="local", comm_delay=comm_delay, db_size=DB_SIZE,
        workload=WorkloadConfig(n_transactions=1),
        timing=TimingConfig(slack_factor=6.0),
        costs=CostModel(cpu_per_object=0.5, io_per_object=0.0,
                        apply_cpu=0.25),
        seed=11, temporal_versions=True)
    prototype = DistributedSystem(config, schedule=[])
    scans = []
    for site in range(N_SITES):
        tracks = prototype.catalog.primaries_at(site)[:5]
        stream = PeriodicStream([(oid, LockMode.WRITE)
                                 for oid in tracks],
                                period=scan_period, site=site,
                                first_release=site * 1.5)
        scans.append(stream.releases(HORIZON))
    queries = WorkloadGenerator(
        RngStreams(23), db_size=DB_SIZE,
        mean_interarrival=query_rate, transaction_size=4,
        n_transactions=int(HORIZON / query_rate),
        read_only_fraction=1.0, n_sites=N_SITES,
        catalog=prototype.catalog).generate()
    schedule = merge_schedules(*scans, queries)
    return DistributedSystem(config, schedule=schedule)


def test_all_released_instances_are_processed():
    system = build_system()
    monitor = system.run()
    assert monitor.processed == len(system.schedule)


def test_periodic_scans_marked_periodic():
    system = build_system()
    monitor = system.run()
    periodic = [record for record in monitor.records
                if not record.read_only]
    assert periodic
    # Scan count: 3 sites x ceil(HORIZON / period) instances.
    assert len(periodic) == 3 * 16


def test_scans_rarely_miss_under_nominal_load():
    system = build_system()
    monitor = system.run()
    scans = [record for record in monitor.records
             if not record.read_only]
    missed = sum(1 for record in scans if record.missed)
    assert missed / len(scans) < 0.1


def test_scan_cadence_observable_in_version_stores():
    system = build_system(scan_period=25.0)
    system.run()
    # A track owned by site 0 should have ~HORIZON/period committed
    # versions in site 0's store.
    oid = system.catalog.primaries_at(0)[0]
    versions = system.versions[0].version_count(oid)
    assert 12 <= versions <= 16


def test_queries_read_locally_without_network_traffic():
    system = build_system()
    before = system.network.messages_sent
    system.run()
    # All traffic is replica propagation: 2 remote copies per written
    # object per committed scan.
    scans = [record for record in system.monitor.records
             if not record.read_only and record.committed]
    expected = sum(record.size for record in scans) * (N_SITES - 1)
    assert system.network.messages_sent - before == expected


def test_cross_site_views_converge_between_scans():
    system = build_system(comm_delay=1.0)
    system.run()
    assert system.max_staleness() == 0.0
