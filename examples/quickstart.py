#!/usr/bin/env python3
"""Quickstart: run one single-site real-time database simulation.

Builds the paper's single-site system (priority ceiling protocol,
earliest-deadline-first priorities, hard deadlines), runs a workload of
200 update transactions, and prints the Performance Monitor's summary —
the statistics of §3.3.

    python examples/quickstart.py
"""

from repro import (CostModel, SingleSiteConfig, SingleSiteSystem,
                   TimingConfig, WorkloadConfig)


def main() -> None:
    config = SingleSiteConfig(
        protocol="C",                 # the priority ceiling protocol
        db_size=200,
        workload=WorkloadConfig(
            n_transactions=200,
            mean_interarrival=25.0,   # heavy load at this size
            transaction_size=14,      # objects accessed per transaction
            size_jitter=4),
        timing=TimingConfig(slack_factor=8.0),   # deadline ∝ size
        costs=CostModel(cpu_per_object=1.0, io_per_object=2.0),
        seed=42)

    system = SingleSiteSystem(config)
    monitor = system.run()

    print("Single-site run - priority ceiling protocol (C)")
    print(f"  transactions processed : {monitor.processed}")
    print(f"  committed              : {monitor.committed}")
    print(f"  deadline misses        : {monitor.missed} "
          f"({monitor.percent_missed:.1f}%)")
    print(f"  normalised throughput  : {monitor.throughput():.3f} "
          f"objects/second")
    print(f"  mean response time     : "
          f"{monitor.mean_response_time():.2f} time units")
    print(f"  mean blocked interval  : "
          f"{monitor.mean_blocked_time():.2f} time units")
    print(f"  CPU utilisation        : "
          f"{system.cpu.utilization(system.kernel.now):.2f}")
    stats = system.cc.stats
    print(f"  lock requests          : {stats.requests} "
          f"({stats.immediate_grants} immediate, {stats.blocks} blocked)")
    print(f"  ceiling blocks         : {stats.ceiling_blocks} "
          f"(blocked with no direct conflict - the 'insurance premium')")
    print(f"  2PL-detected deadlocks : {stats.deadlocks}")


if __name__ == "__main__":
    main()
