"""Every figure and ablation as data: one sweep spec per command.

Son & Chang's evaluation (ICDCS 1990) is one method applied again and
again — sweep one knob, average seeded runs, print one metric per
protocol or architecture — so a figure here is a :class:`Sweep` row in
:data:`SPECS`, not a function.  :func:`run` plans a spec's grid, hands
it to :mod:`repro.exec` as one flat batch (so ``jobs``/``cache`` or
``REPRO_JOBS``/``REPRO_CACHE_DIR`` parallelise and memoise the whole
figure, and the merged series is identical to a serial run) and pivots
the averaged summaries into one row dict per swept value;
:func:`render` prints the spec's tables and :func:`verdicts` checks its
claims — the paper's sentences it reproduces, each with the predicate
that decides it.  The CLI and tier-1 read the same rows and claims.

Besides the paper's Figures 2-6 the table holds the ablations the
paper motivates but does not plot, and two repo-grown companions:

- **A1** (§5, open question): read/write vs exclusive lock semantics
  under the ceiling protocol.
- **A2** (§3.1): basic priority inheritance (chained blocking) vs the
  ceiling protocol.
- **A3** (§3.3, the omitted experiment): database size — conflict
  probability — sweep.
- **A4** (§4, future work): temporal consistency of replicated views —
  staleness of secondary copies vs communication delay.
- **A5** (deadlock handling): the paper's implicit no-resolution model
  vs detect-and-restart victim policies for 2PL.
- **A6** (§4): lock-free multiversion snapshot reads vs read locks.
- **A7**: bounded disks vs the parallel-I/O assumption.
- **A8**: message loss and site crashes, both architectures.
- **model**: the analytic model of :mod:`repro.model` against the
  simulation on the Figure-2/3 sizes and both architectures, its error
  budget stated as claims (DESIGN.md §10).
- **protocols**: the registry's post-paper plugins next to the paper's
  ceiling baselines on the Figure-2/3 grid.

Calibration
-----------
The paper gives no parameter table, so the workloads are calibrated to
its stated regime (single CPU per site, parallel I/O, heavy load at the
large-size end, memory-resident 3-site network for the distributed
study).  The shapes — who wins, by roughly what factor, where the
crossovers fall — are the reproduction target, not absolute numbers;
see EXPERIMENTS.md.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..core.config import (DistributedConfig, SingleSiteConfig,
                           TimingConfig, WorkloadConfig)
from ..core.experiment import replicate_many
from ..core.metrics import aggregate_runs, missed_ratio, throughput_ratio
from ..core.reporting import format_table
from ..dist.system import DistributedSystem
from ..exec import plan_replications
from ..exec.cache import CacheSpec
from ..faults import FaultPlan, SiteCrash
from ..kernel.syscalls import Delay
from ..model.response import predict_summary
from ..protocols import REGISTRY
from ..txn.manager import CostModel

Series = List[Dict[str, object]]


# ----------------------------------------------------------------------
# The spec and the functions over it
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Claim:
    """One result the paper states (or an ablation expects), checked on
    a finished series.

    ``holds`` reads the rows by swept value (``at[20]["missed_L"]``); a
    grid that lacks a value it names raises, it does not pass.
    """

    name: str
    #: The paper's sentence, then what is asserted, in brackets.
    text: str
    holds: Callable[[Dict[object, Dict[str, object]]], bool]


@dataclasses.dataclass(frozen=True)
class Table:
    """One printed table: a title and its ``(header, row key)`` columns."""

    title: str
    columns: Tuple[Tuple[str, str], ...]

    def __call__(self, series: Series) -> str:
        return format_table(
            [header for header, _ in self.columns],
            [[row[key] for _, key in self.columns] for row in series],
            title=self.title)


@dataclasses.dataclass(frozen=True)
class Sweep:
    """One figure or ablation: a grid of configs and what to print.

    The grid is ``values`` x ``variants``; each series row belongs to
    one value and holds one cell per (variant, metric).
    """

    #: Row key(s) of the swept value; ``"kind,x"`` unpacks tuple values.
    axis: str
    values: Tuple[object, ...]
    #: What is compared at every value (protocols, architectures, ...);
    #: ``(None,)`` when the row is one run's summary.
    variants: Tuple[object, ...]
    #: ``(value, variant) -> config`` for one grid point.
    config: Callable[[object, object], object]
    #: ``(summary metric, row-key template)``; the template is
    #: ``str.format``-ed with the variant (``"{0[1]}"`` indexes a tuple).
    metrics: Tuple[Tuple[str, str], ...]
    #: ``series -> text``; a :class:`Table` unless the layout is custom.
    tables: Tuple[Callable[[Series], str], ...]
    #: Adds cells computed from a finished row (ratios, labels, sums).
    derive: Optional[Callable[[Dict[str, object]], None]] = None
    #: ``seeded config -> summary row`` replacing the engine's plain run
    #: when the measurement lives inside the simulation.  Such a sweep
    #: runs in this process: the engine knobs do not reach it.
    sample: Optional[Callable[[object], Dict[str, float]]] = None
    #: What the series must show; every figure command checks them.
    claims: Tuple[Claim, ...] = ()


def run(spec: Sweep, replications: int = 5, *,
        jobs: Optional[int] = None, cache: CacheSpec = None,
        progress=None) -> Series:
    """Run ``spec``'s whole grid in one engine call; one row per value."""
    points = [(value, variant) for value in spec.values
              for variant in spec.variants]
    configs = [spec.config(value, variant) for value, variant in points]
    if spec.sample is None:
        summaries = replicate_many(configs, replications=replications,
                                   jobs=jobs, cache=cache,
                                   progress=progress)
    else:
        summaries = [
            aggregate_runs(spec.sample(unit.config) for unit
                           in plan_replications(config, replications))
            for config in configs]
    by_point = dict(zip(points, summaries))
    axis = spec.axis.split(",")
    series: Series = []
    for value in spec.values:
        row = dict(zip(axis, value if len(axis) > 1 else (value,)))
        for variant in spec.variants:
            summary = by_point[value, variant]
            for metric, template in spec.metrics:
                row[template.format(variant)] = summary[metric]
        if spec.derive is not None:
            spec.derive(row)
        series.append(row)
    return series


def render(spec: Sweep, series: Series) -> str:
    """The text ``spec`` prints for ``series``: its tables, in order."""
    return "\n\n".join(table(series) for table in spec.tables)


def verdicts(spec: Sweep, series: Series) -> Tuple[List[str], bool]:
    """One ``[PASS]``/``[FAIL]`` line per claim of ``spec`` on
    ``series``, and whether every claim held."""
    at = dict(zip(spec.values, series))
    held = [bool(claim.holds(at)) for claim in spec.claims]
    lines = [f"[{'PASS' if ok else 'FAIL'}] {claim.name}: {claim.text}"
             for claim, ok in zip(spec.claims, held)]
    return lines, all(held)


def _per_variant(header: str, stem: str, variants) -> tuple:
    """One column per variant: ``header``/``stem`` formatted with it."""
    return tuple((header.format(variant), stem.format(variant))
                 for variant in variants)


# ----------------------------------------------------------------------
# Calibrated configurations
# ----------------------------------------------------------------------
#: Transaction sizes swept in Figures 2 and 3 (up to 10% of the DB).
FIG23_SIZES = (2, 5, 8, 11, 14, 17, 20)
#: Communication delays swept in Figure 5 (time units).
FIG5_DELAYS = (0.0, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0)
#: Transaction mixes (fraction read-only) swept in Figures 4 and 6.
FIG46_MIXES = (0.0, 0.25, 0.5, 0.75)
#: Delays at which Figure 4 plots its mix curves / Figure 6 its two
#: specific curves.
FIG4_DELAYS = (0.0, 2.0, 8.0)
FIG6_DELAYS = (2.0, 8.0)
#: Light-load, knee, heavy and thrash points of the Figure-2/3 sweep
#: (the ablations and the protocol suite).
KNEE_SIZES = (2, 8, 14, 20)
MODES = ("local", "global")


def single_site_config(protocol: str, size: int,
                       n_transactions: int = 200) -> SingleSiteConfig:
    """The calibrated Figure-2/3 configuration at one sweep point."""
    return SingleSiteConfig(
        protocol=protocol, db_size=200,
        workload=WorkloadConfig(n_transactions=n_transactions,
                                mean_interarrival=25.0,
                                transaction_size=size,
                                size_jitter=max(1, size // 3)),
        timing=TimingConfig(slack_factor=8.0),
        costs=CostModel(cpu_per_object=1.0, io_per_object=2.0))


def distributed_config(mode: str, comm_delay: float,
                       read_only_fraction: float,
                       n_transactions: int = 150) -> DistributedConfig:
    """The calibrated Figure-4/5/6 configuration at one sweep point."""
    return DistributedConfig(
        mode=mode, comm_delay=comm_delay, db_size=300,
        workload=WorkloadConfig(n_transactions=n_transactions,
                                mean_interarrival=2.5,
                                transaction_size=6, size_jitter=2,
                                read_only_fraction=read_only_fraction),
        timing=TimingConfig(slack_factor=8.0),
        costs=CostModel(cpu_per_object=1.0, io_per_object=0.0))


def _fig5_config(mode: str, delay: float, mix: float,
                 n_transactions: int) -> DistributedConfig:
    # Figure 5 runs slightly below the Figure-4 load so the local
    # approach's miss floor is low enough for the paper's ">16x" ratio
    # to be observable rather than clipped by the denominator.
    base = distributed_config(mode, delay, mix, n_transactions)
    return dataclasses.replace(
        base,
        workload=dataclasses.replace(base.workload,
                                     mean_interarrival=3.0),
        timing=TimingConfig(slack_factor=10.0))


def _a1_config(protocol: str, size: int,
               read_fraction: float = 0.6) -> SingleSiteConfig:
    """A1's read-heavy mixed workload."""
    base = single_site_config(protocol, size)
    return dataclasses.replace(
        base,
        workload=dataclasses.replace(
            base.workload, read_only_fraction=read_fraction,
            write_fraction=0.5))


def fault_crash_plan(n_sites: int, horizon: float,
                     down_for: float) -> FaultPlan:
    """One crash per site, staggered evenly across ``horizon``."""
    if down_for <= 0.0:
        return FaultPlan()
    crashes = tuple(
        SiteCrash(site=site,
                  at=(site + 1) * horizon / (n_sites + 1),
                  down_for=down_for)
        for site in range(n_sites))
    return FaultPlan(crashes=crashes)


def _a8_config(fault: Tuple[str, float], mode: str,
               n_transactions: int = 120) -> DistributedConfig:
    """A8 at one ``(kind, level)`` point: a message-loss rate, or one
    staggered crash per site of that length.  The zero-loss /
    zero-downtime points run the historical fault-free path, so each
    sweep's first row doubles as the regression baseline."""
    kind, level = fault
    base = distributed_config(mode, comm_delay=2.0,
                              read_only_fraction=0.5,
                              n_transactions=n_transactions)
    if kind == "loss":
        plan = FaultPlan(loss_rate=level)
    else:
        plan = fault_crash_plan(
            base.n_sites,
            base.workload.n_transactions
            * base.workload.mean_interarrival,
            level)
    return dataclasses.replace(
        base, faults=plan if plan.active or plan.needs_recovery
        else None)


# ----------------------------------------------------------------------
# What does not pivot out of a summary row
# ----------------------------------------------------------------------
def _fig4_ratios(row: Dict) -> None:
    for delay in FIG4_DELAYS:
        row[f"ratio_d{delay:g}"] = throughput_ratio(
            row[f"local_d{delay:g}"], row[f"global_d{delay:g}"])


def _fig5_ratio(row: Dict) -> None:
    row["ratio"] = missed_ratio(row["global_missed"],
                                row["local_missed"])


def _a8_cells(row: Dict) -> None:
    row["fault"] = {"loss": "loss rate", "crash": "downtime"}[
        row["kind"]]
    row["messages_lost"] = row["local_lost"] + row["global_lost"]


def _sample_staleness(config: DistributedConfig,
                      sample_interval: float = 1.0) -> Dict[str, float]:
    """A4's run: peak secondary-copy staleness observed *during* it.

    Staleness converges to zero once the system drains (replicas catch
    up), so a sampler process polls the catalog every
    ``sample_interval`` virtual time units and the peak is reported.
    """
    system = DistributedSystem(config)
    peak = 0.0

    def sampler():
        nonlocal peak
        while True:
            yield Delay(sample_interval)
            peak = max(peak, system.max_staleness())

    system.kernel.spawn(sampler(), "sampler")
    system.run(until=(config.workload.n_transactions
                      * config.workload.mean_interarrival * 3.0))
    latencies = sorted(latency for site in system.sites
                       for latency in site.replica_apply_latencies)
    return {
        "peak_staleness": peak,
        "mean_apply_latency": (sum(latencies) / len(latencies)
                               if latencies else 0.0),
        "p95_apply_latency": (latencies[int(0.95
                                            * (len(latencies) - 1))]
                              if latencies else 0.0),
        "percent_missed": system.summary()["percent_missed"],
    }


# ----------------------------------------------------------------------
# The analytic model against the simulation
# ----------------------------------------------------------------------
#: The summary metrics the model is compared on, each with the floor
#: of its relative error's denominator (percent points, virtual time
#: units, objects/time): a difference below it is noise.
METRIC_FLOORS = {"percent_missed": 5.0, "mean_blocked_time": 10.0,
                 "mean_response_time": 10.0, "throughput": 0.05}
#: The documented budget on the mean relative error (DESIGN.md §10).
ERROR_BUDGET = {"percent_missed": 0.30, "mean_blocked_time": 0.40}
#: The cross-validation grid: the overlay cast at every Figure-2/3
#: size, then ``(mode, delay, mix)`` points of both architectures.
MODEL_POINTS = tuple(
    (protocol, size) for protocol in REGISTRY.overlay_cast()
    for size in FIG23_SIZES) + (
    ("local", 1.0, 0.0), ("local", 1.0, 0.5),
    ("global", 1.0, 0.5), ("global", 4.0, 0.5))
#: Where the solvers are calibrated: the ceiling pipeline at every
#: size, the 2PL fixed point below its thrash knee (size 11).
CALIBRATED_POINTS = tuple(
    point for point in MODEL_POINTS if point[0] not in MODES
    and (point[0] in REGISTRY.model_family_names("ceiling")
         or point[1] <= 8))


def relative_error(metric: str, sim: float, model: float) -> float:
    """``|model - sim| / max(|sim|, floor)`` with ``metric``'s floor."""
    return abs(model - sim) / max(abs(sim), METRIC_FLOORS[metric])


def _model_config(point: tuple) -> Union[SingleSiteConfig,
                                         DistributedConfig]:
    if point[0] in MODES:
        return distributed_config(*point)
    return single_site_config(*point)


def _model_cells(row: Dict) -> None:
    point = row["point"]
    row["label"] = ("{}/delay={:g}/mix={:g}" if point[0] in MODES
                    else "{}/size={}").format(*point)
    model = predict_summary(_model_config(point))
    for metric in METRIC_FLOORS:
        row[f"model_{metric}"] = float(model[metric])
        row[f"err_{metric}"] = relative_error(
            metric, float(row[f"sim_{metric}"]), row[f"model_{metric}"])


def _mean_errors(rows) -> Dict[str, float]:
    return {metric: sum(row[f"err_{metric}"] for row in rows) / len(rows)
            for metric in METRIC_FLOORS}


def _within_budget(points) -> Callable[[Dict], bool]:
    """The claim that the mean error over ``points`` is in budget."""
    def holds(at) -> bool:
        means = _mean_errors([at[point] for point in points])
        return all(means[metric] <= limit
                   for metric, limit in ERROR_BUDGET.items())
    return holds


def _model_text(series: Series) -> str:
    lines = ["Analytic model vs simulation (Figure 2/3 sizes, both "
             "architectures)",
             f"{'point':<22} {'metric':<18} {'sim':>10} "
             f"{'model':>10} {'rel err':>8}"]
    for row in series:
        for metric in METRIC_FLOORS:
            lines.append(
                f"{row['label']:<22} {metric:<18} "
                f"{row[f'sim_{metric}']:>10.3f} "
                f"{row[f'model_{metric}']:>10.3f} "
                f"{row[f'err_{metric}']:>8.3f}")
    calibrated = _mean_errors([row for row in series
                               if row["point"] in CALIBRATED_POINTS])
    whole = _mean_errors(series)
    lines += ["", f"{'mean relative error':<22} {'calibrated':>12} "
              f"{'whole grid':>12} {'budget':>8}"]
    for metric in METRIC_FLOORS:
        budget = ERROR_BUDGET.get(metric)
        lines.append(f"  {metric:<20} {calibrated[metric]:>12.3f} "
                     f"{whole[metric]:>12.3f} "
                     f"{'-' if budget is None else f'{budget:.2f}':>8}")
    for metric in ERROR_BUDGET:
        worst = sorted(series, key=lambda row: -row[f"err_{metric}"])
        lines.append(f"worst {metric}: " + ", ".join(
            f"{row['label']} ({row[f'err_{metric}']:.2f})"
            for row in worst[:2]))
    return "\n".join(lines)


def suite_protocols() -> Tuple[str, ...]:
    """The protocol suite's cast: the paper's ceiling-family baselines
    followed by every registered post-paper protocol, in registration
    order — registering another plugin adds a column."""
    specs = REGISTRY.specs()
    baseline = [spec.name for spec in specs
                if spec.paper_protocol and spec.family == "ceiling"]
    modern = [spec.name for spec in specs if not spec.paper_protocol]
    return tuple(baseline + modern)


# ----------------------------------------------------------------------
# What the paper says the series show
# ----------------------------------------------------------------------
def _every(test) -> Callable[[Dict], bool]:
    """The claim that ``test`` holds on every row."""
    return lambda at: all(test(row) for row in at.values())


def _c_stable(at) -> bool:
    c = [row["throughput_C"] for size, row in at.items() if size >= 8]
    return max(c) < 4.0 * min(c)


_DEGRADES = ('"the performance of the two-phase locking protocol with '
             'or without priority degrades very rapidly"')
_FIG2_CLAIMS = (
    Claim("C is stable", '"there is little impact on the throughput of '
          'the priority ceiling protocol" [max < 4 x min, sizes >= 8]',
          _c_stable),
    Claim("L collapses", _DEGRADES + " [L at size 20 < 0.5 x size 5]",
          lambda at: at[20]["throughput_L"] < 0.5 * at[5]["throughput_L"]),
    Claim("C beats L at size 20", _DEGRADES + " [throughput C > L]",
          lambda at: at[20]["throughput_C"] > at[20]["throughput_L"]),
    Claim("C beats P at size 20", _DEGRADES + " [throughput C > P]",
          lambda at: at[20]["throughput_C"] > at[20]["throughput_P"]),
)

_SLOWER = ('"the percentage of deadline-missing transactions increases '
           'more slowly ... in the priority ceiling protocol"')
_FIG3_CLAIMS = (
    Claim("L misses past C", _SLOWER + " [%missed L > C at size 20]",
          lambda at: at[20]["missed_L"] > at[20]["missed_C"]),
    Claim("P misses past C", _SLOWER + " [%missed P > C at size 20]",
          lambda at: at[20]["missed_P"] > at[20]["missed_C"]),
    Claim("L misses rise sharply", '"increases sharply for the two-phase '
          'locking protocol" [L at size 20 > 2 x size 11, or > 80%]',
          lambda at: at[20]["missed_L"] > 2.0 * at[11]["missed_L"]
          or at[20]["missed_L"] > 80.0),
    Claim("L deadlocks grow superlinearly", '"with the fourth power of '
          'the transaction size" [size 20 > 4 x max(size 5, 1); size 5 >= 0]',
          lambda at: at[20]["deadlocks_L"]
          > 4.0 * max(at[5]["deadlocks_L"], 1.0)
          and at[5]["deadlocks_L"] >= 0),
    Claim("C never deadlocks", "the ceiling protocol is deadlock-free "
          "[C deadlocks = 0 at every size]",
          _every(lambda row: row["deadlocks_C"] == 0)),
)

_WITH_DELAY = ('"If we consider communication delays, this performance '
               'ratio will increase accordingly"')
_FIG4_CLAIMS = (
    Claim("local wins at zero delay", '"the local ceiling approach '
          "achieves the throughput between 1.5 and 3 times higher than "
          'that of the global ceiling approach" [ratio at delay 0 > 1.3 '
          "on the mixes <= 0.25; the 0.5 and 0.75 rows are unclaimed]",
          lambda at: all(row["ratio_d0"] > 1.3
                         for mix, row in at.items() if mix <= 0.25)),
    Claim("ratio grows by delay 2", _WITH_DELAY + " [d2 > d0, every mix]",
          _every(lambda row: row["ratio_d2"] > row["ratio_d0"])),
    Claim("ratio holds to delay 8",
          _WITH_DELAY + " [d8 >= 0.8 x d2, every mix]",
          _every(lambda row: row["ratio_d8"] >= row["ratio_d2"] * 0.8)),
    Claim("ratio grows by delay 8", _WITH_DELAY + " [d8 > d0, every mix]",
          _every(lambda row: row["ratio_d8"] > row["ratio_d0"])),
    Claim("ratio keeps growing at mix 0.5", _WITH_DELAY + " [d8 > d2]",
          lambda at: at[0.5]["ratio_d8"] > at[0.5]["ratio_d2"]),
)


def _growth(at, start: float, end: float) -> float:
    return at[end]["ratio"] - at[start]["ratio"]


_SLOWLY = '"and then rather slowly after that" [growth from delay 2 to '
_FIG5_CLAIMS = (
    Claim("rapid rise", '"In the range of small communication delays (up '
          'to 2 time units), this ratio increases rapidly" [delay 2 > '
          "2 x delay 0, or 10 above it]",
          lambda at: at[2.0]["ratio"] > 2.0 * at[0.0]["ratio"]
          or _growth(at, 0.0, 2.0) > 10.0),
    Claim("then slowly", _SLOWLY + "10 < growth from 0 to 2]",
          lambda at: _growth(at, 2.0, 10.0) < _growth(at, 0.0, 2.0)),
    Claim("slowly by delay 8", _SLOWLY + "8 < growth from 0 to 2]",
          lambda at: _growth(at, 2.0, 8.0) < _growth(at, 0.0, 2.0)),
    Claim("beyond 16", '"As the communication delay increases, the '
          'performance ratio increases beyond 16" [largest ratio > 16]',
          lambda at: max(row["ratio"] for row in at.values()) > 16.0),
    Claim("global misses rise", "the global approach pays every delay "
          "[global %missed at delay 10 > delay 0]",
          lambda at: at[10.0]["global_missed"] > at[0.0]["global_missed"]),
    Claim("local misses stay flat", "replication decouples the local "
          "approach [|local %missed at delay 10 - delay 0| < 20]",
          lambda at: abs(at[10.0]["local_missed"]
                         - at[0.0]["local_missed"]) < 20.0),
)


def _gap(row, delay: float) -> float:
    return row[f"global_d{delay:g}"] - row[f"local_d{delay:g}"]


_FEWER = ('"As the proportion of read-only transactions increases, the '
          'number of deadline-missing transactions decreases" [mix 0.75 ')
_WIDENS = ('"the performance difference ... between two approaches '
           'increases as the communication delay increases" [global - '
           "local at delay 8 ")
_FIG6_CLAIMS = (
    Claim("misses fall with the read-only share",
          _FEWER + "<= mix 0, both modes, delays 2 and 8]",
          lambda at: all(at[0.75][key] <= at[0.0][key] + 1e-9
                         for key in ("local_d2", "global_d2",
                                     "local_d8", "global_d8"))),
    Claim("misses fall at delay 2", _FEWER + "< mix 0, both modes]",
          lambda at: at[0.75]["local_d2"] < at[0.0]["local_d2"]
          and at[0.75]["global_d2"] < at[0.0]["global_d2"]),
    Claim("the gap widens", _WIDENS + ">= at delay 2 - 5, every mix]",
          _every(lambda row: _gap(row, 8.0) >= _gap(row, 2.0) - 5.0)),
    Claim("global misses more", _WIDENS + "> 0, every mix]",
          _every(lambda row: _gap(row, 8.0) > 0.0)),
)

_A1_CLAIMS = (
    Claim("rw keeps up", "read/write semantics do not lose to exclusive "
          "ones [throughput C >= 0.8 x Cx at every size]",
          _every(lambda row: row["throughput_C"]
                 >= 0.8 * row["throughput_Cx"])),
    Claim("rw misses no more", "nor at the largest size "
          "[%missed C <= Cx + 5 at size 20]",
          lambda at: at[20]["missed_C"] <= at[20]["missed_Cx"] + 5.0),
)

_CHAINED = ('"the blocking duration ... can still be substantial due to '
            'the potential chain of blocking" [%missed at size 20: ')
_A2_CLAIMS = (
    Claim("C misses fewer than PI", _CHAINED + "C < PI]",
          lambda at: at[20]["missed_C"] < at[20]["missed_PI"]),
    Claim("C misses fewer than P", _CHAINED + "C < P]",
          lambda at: at[20]["missed_C"] < at[20]["missed_P"]),
    Claim("PI is no worse than P", "inheritance only shortens inversion "
          "[%missed at size 20: PI <= P + 10]",
          lambda at: at[20]["missed_PI"] <= at[20]["missed_P"] + 10.0),
)

_CONFIRMS = 'the omitted experiment "only confirms" the size sweep [L '
_A3_CLAIMS = (
    Claim("L deadlocks fall", _CONFIRMS + "deadlocks, db size 800 < 100]",
          lambda at: at[800]["deadlocks_L"] < at[100]["deadlocks_L"]),
    Claim("L misses fall", _CONFIRMS + "%missed, db size 800 < 100]",
          lambda at: at[800]["missed_L"] < at[100]["missed_L"]),
    Claim("C beats L at high conflict", "as in the size sweep "
          "[%missed L > C at db size 100]",
          lambda at: at[100]["missed_L"] > at[100]["missed_C"]),
)

_A4_CLAIMS = (
    Claim("a copy takes a hop", "no copy is visible faster than one "
          "network hop [mean apply latency >= delay, every delay]",
          lambda at: all(row["mean_apply_latency"] >= delay - 1e-9
                         for delay, row in at.items())),
    Claim("latency grows with delay", "temporal inconsistency grows with "
          "the delay [mean apply latency, delay 10 > delay 2 + 5]",
          lambda at: at[10.0]["mean_apply_latency"]
          > at[2.0]["mean_apply_latency"] + 5.0),
    Claim("peak staleness is comparable", "lock contention at the "
          "applying site dominates it [delay 10 >= delay 0 - 15]",
          lambda at: at[10.0]["peak_staleness"]
          >= at[0.0]["peak_staleness"] - 15.0),
    Claim("misses stay flat", "staleness, not misses, is the price "
          "[|%missed at delay 10 - delay 0| < 20]",
          lambda at: abs(at[10.0]["percent_missed"]
                         - at[0.0]["percent_missed"]) < 20.0),
)

_RESTARTING = ("requester", "lowest_priority", "youngest")
_A5_CLAIMS = (
    Claim("restarting misses no more", "detect-and-restart beats "
          "wait-until-deadline [%missed <= none's, every policy]",
          lambda at: all(at[policy]["percent_missed"]
                         <= at["none"]["percent_missed"]
                         for policy in _RESTARTING)),
    Claim("restarting policies restart", "cycles are broken "
          "[restarts > 0, every restarting policy]",
          lambda at: all(at[policy]["restarts"] > 0
                         for policy in _RESTARTING)),
    Claim("waiting never restarts", '"transactions that miss the '
          'deadline are aborted" [restarts = 0 for none]',
          lambda at: at["none"]["restarts"] == 0),
)

_NEVER_BLOCK = "snapshot readers never block ["
_A6_CLAIMS = (
    Claim("snapshots miss no more",
          _NEVER_BLOCK + "%missed snapshot <= read locks + 1, every mix]",
          _every(lambda row: row["missed_snapshot"]
                 <= row["missed_locking"] + 1.0)),
    Claim("snapshots keep throughput",
          _NEVER_BLOCK + "throughput snapshot >= 0.9 x read locks, "
          "every mix]",
          _every(lambda row: row["throughput_snapshot"]
                 >= 0.9 * row["throughput_locking"])),
    Claim("snapshots help",
          _NEVER_BLOCK + "%missed snapshot < read locks - 0.5, some mix]",
          lambda at: any(row["missed_snapshot"]
                         < row["missed_locking"] - 0.5
                         for row in at.values())),
)


def _disk_loss(at, protocol: str) -> float:
    key = f"throughput_{protocol}"
    return 1.0 - at[1][key] / at["inf"][key]


_PARALLEL_IO = ('"the concurrency is fully achieved with an assumption '
                'of parallel I/O processing" [')
_A7_CLAIMS = (
    Claim("L keeps up with parallel I/O",
          _PARALLEL_IO + "unlimited I/O: throughput L >= 0.8 x C]",
          lambda at: at["inf"]["throughput_L"]
          >= 0.8 * at["inf"]["throughput_C"]),
    Claim("one disk hurts L more",
          _PARALLEL_IO + "throughput share lost to one disk: L > C]",
          lambda at: _disk_loss(at, "L") > _disk_loss(at, "C")),
    Claim("one disk raises L's misses",
          _PARALLEL_IO + "%missed L: one disk >= unlimited I/O]",
          lambda at: at[1]["missed_L"] >= at["inf"]["missed_L"]),
)


def _sane(row) -> bool:
    return (0.0 <= row["local_missed"] <= 100.0
            and 0.0 <= row["global_missed"] <= 100.0
            and row["local_throughput"] >= 0.0
            and row["global_throughput"] >= 0.0)


_A8_CLAIMS = (
    Claim("every point completes", "nothing hangs [0 <= %missed <= 100 "
          "and throughput >= 0, both modes, every row]",
          _every(_sane)),
    Claim("zero faults lose nothing", "the fault-free points run the "
          "historical path [msgs lost = 0 at loss 0 and downtime 0]",
          lambda at: at["loss", 0.0]["messages_lost"] == 0.0
          and at["crash", 0.0]["messages_lost"] == 0.0),
    Claim("injected loss is visible", "the accounting sees it "
          "[msgs lost > 0 at loss 0.05 and 0.1]",
          lambda at: at["loss", 0.05]["messages_lost"] > 0.0
          and at["loss", 0.1]["messages_lost"] > 0.0),
    Claim("faults only hurt", "no architecture gains from loss or "
          "downtime [%missed at loss 0.1, downtime 40 >= at 0 - 2]",
          lambda at: all(at[kind, worst][column]
                         >= at[kind, 0.0][column] - 2.0
                         for kind, worst in (("loss", 0.1),
                                             ("crash", 40.0))
                         for column in ("local_missed",
                                        "global_missed"))),
    Claim("crashes hurt the local architecture", "dead sites refuse "
          "arrivals [local %missed at downtime 40 > downtime 0]",
          lambda at: at["crash", 40.0]["local_missed"]
          > at["crash", 0.0]["local_missed"]),
)

_BUDGET = ", ".join(f"{metric} <= {limit:.2f}"
                    for metric, limit in ERROR_BUDGET.items())
_MODEL_CLAIMS = (
    Claim("calibrated regime", "the model tracks the simulation where "
          "its solvers are calibrated [mean relative error, ceiling "
          f"protocols at every size and 2PL at sizes <= 8: {_BUDGET}]",
          _within_budget(CALIBRATED_POINTS)),
    Claim("whole grid", "and in aggregate, the 2PL thrash knee and both "
          "architectures included [mean relative error over all "
          f"{len(MODEL_POINTS)} points: {_BUDGET}]",
          _within_budget(MODEL_POINTS)),
)


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
THROUGHPUT = ("throughput", "throughput_{}")
MISSED = ("percent_missed", "missed_{}")
DEADLOCKS = ("cc_deadlocks", "deadlocks_{}")
#: Figures 4 and 6 compare (architecture, delay) pairs: ``local_d2``.
MODE_AT_DELAY = "{0[0]}_d{0[1]:g}"

#: The cast the paper plots in Figures 2 and 3; it does not grow.
_CPL = ("C", "P", "L")  # noqa: RPL013
_SUITE = suite_protocols()

_FIG2 = Table("Figure 2 - Transaction Throughput "
              "(normalised, committed objects/sec)",
              (("size", "size"),)
              + _per_variant("{} (objects/sec)", "throughput_{}", _CPL))
_FIG3 = Table("Figure 3 - Percentage of Deadline-Missing Transactions",
              (("size", "size"),)
              + _per_variant("{} (%missed)", "missed_{}", _CPL)
              + _per_variant("{} (deadlocks)", "deadlocks_{}", _CPL))
_FIG23 = Sweep(
    axis="size", values=FIG23_SIZES, variants=_CPL,
    config=lambda size, protocol: single_site_config(protocol, size),
    metrics=(THROUGHPUT, MISSED, DEADLOCKS), tables=(_FIG2, _FIG3),
    claims=_FIG2_CLAIMS + _FIG3_CLAIMS)

#: Command name -> spec, in the order of ``repro all`` and ``repro -h``.
SPECS: Dict[str, Sweep] = {
    # One sweep, two tables: fig2 and fig3 each print and claim their
    # own.
    "fig2": dataclasses.replace(_FIG23, tables=(_FIG2,),
                                claims=_FIG2_CLAIMS),
    "fig3": dataclasses.replace(_FIG23, tables=(_FIG3,),
                                claims=_FIG3_CLAIMS),
    "fig23": _FIG23,
    "fig4": Sweep(
        axis="mix", values=FIG46_MIXES,
        variants=tuple((mode, delay) for delay in FIG4_DELAYS
                       for mode in MODES),
        config=lambda mix, at: distributed_config(at[0], at[1], mix),
        metrics=(("throughput", MODE_AT_DELAY),),
        derive=_fig4_ratios,
        tables=(Table(
            "Figure 4 - Transaction Throughput Ratio "
            "(local ceiling / global ceiling)",
            (("read-only fraction", "mix"),)
            + _per_variant("ratio @ delay {:g}", "ratio_d{:g}",
                           FIG4_DELAYS)),),
        claims=_FIG4_CLAIMS),
    "fig5": Sweep(
        axis="delay", values=FIG5_DELAYS, variants=MODES,
        config=lambda delay, mode: _fig5_config(mode, delay, 0.5, 150),
        metrics=(("percent_missed", "{}_missed"),),
        derive=_fig5_ratio,
        tables=(Table(
            "Figure 5 - Deadline Missing Ratio "
            "(50% read-only / 50% update)",
            (("comm delay", "delay"),
             ("global %missed", "global_missed"),
             ("local %missed", "local_missed"),
             ("ratio (global/local)", "ratio"))),),
        claims=_FIG5_CLAIMS),
    "fig6": Sweep(
        axis="mix", values=FIG46_MIXES,
        variants=tuple((mode, delay) for delay in FIG6_DELAYS
                       for mode in MODES),
        config=lambda mix, at: distributed_config(at[0], at[1], mix),
        metrics=(("percent_missed", MODE_AT_DELAY),),
        tables=(Table(
            "Figure 6 - Deadline Missing Transaction "
            "Percentage vs Transaction Mix",
            (("read-only fraction", "mix"),)
            + tuple((f"{mode} %missed @ d={delay:g}",
                     f"{mode}_d{delay:g}")
                    for delay in FIG6_DELAYS for mode in MODES)),),
        claims=_FIG6_CLAIMS),
    "a1": Sweep(
        axis="size", values=KNEE_SIZES, variants=("C", "Cx"),
        config=lambda size, protocol: _a1_config(protocol, size),
        metrics=(THROUGHPUT, MISSED),
        tables=(Table(
            "Ablation A1 - read/write vs exclusive lock semantics "
            "under the ceiling protocol (read-heavy mix)",
            (("size", "size"),
             ("C thr", "throughput_C"), ("Cx thr", "throughput_Cx"),
             ("C %missed", "missed_C"), ("Cx %missed", "missed_Cx"))),),
        claims=_A1_CLAIMS),
    "a2": Sweep(
        axis="size", values=KNEE_SIZES, variants=("P", "PI", "C"),
        config=lambda size, protocol: single_site_config(protocol, size),
        metrics=(MISSED, THROUGHPUT),
        tables=(Table(
            "Ablation A2 - priority inheritance alone vs priority "
            "ceiling",
            (("size", "size"),)
            + _per_variant("{} %missed", "missed_{}", ("P", "PI", "C"))
            + _per_variant("{} thr", "throughput_{}",
                           ("P", "PI", "C"))),),
        claims=_A2_CLAIMS),
    # The experiment the paper omitted because it "only confirms" the
    # others: conflict probability via database size.
    "a3": Sweep(
        axis="db_size", values=(100, 200, 400, 800), variants=("C", "L"),
        config=lambda db_size, protocol: dataclasses.replace(
            single_site_config(protocol, 14), db_size=db_size),
        metrics=(MISSED, DEADLOCKS),
        tables=(Table(
            "Ablation A3 - database size (conflict probability) sweep "
            "at size 14",
            (("db size", "db_size"), ("C %missed", "missed_C"),
             ("L %missed", "missed_L"),
             ("L deadlocks", "deadlocks_L"))),),
        claims=_A3_CLAIMS),
    "a4": Sweep(
        axis="delay", values=(0.0, 2.0, 5.0, 10.0), variants=(None,),
        config=lambda delay, _: dataclasses.replace(
            distributed_config("local", delay, 0.0),
            temporal_versions=True),
        sample=_sample_staleness,
        metrics=tuple((key, key) for key in (
            "mean_apply_latency", "p95_apply_latency", "peak_staleness",
            "percent_missed")),
        tables=(Table(
            "Ablation A4 - temporal consistency: replica update "
            "latency and view staleness vs communication delay "
            "(local ceiling, all-update workload)",
            (("comm delay", "delay"),
             ("mean apply latency", "mean_apply_latency"),
             ("p95 apply latency", "p95_apply_latency"),
             ("peak staleness", "peak_staleness"),
             ("%missed", "percent_missed"))),),
        claims=_A4_CLAIMS),
    # The paper's implicit wait-until-deadline model ("none") vs
    # detect-and-restart under three victim-selection rules.
    "a5": Sweep(
        axis="policy",
        values=("none", "requester", "lowest_priority", "youngest"),
        variants=(None,),
        config=lambda policy, _: dataclasses.replace(
            single_site_config("P", 17),
            protocol_options=(("victim_policy", policy),)),
        metrics=tuple((key, key) for key in (
            "percent_missed", "throughput", "cc_deadlocks", "restarts")),
        tables=(Table(
            "Ablation A5 - 2PL deadlock resolution policies at size 17",
            (("victim policy", "policy"), ("%missed", "percent_missed"),
             ("throughput", "throughput"), ("deadlocks", "cc_deadlocks"),
             ("restarts", "restarts"))),),
        claims=_A5_CLAIMS),
    # Read-only transactions served lock-free from the version store vs
    # classic read locks, under the local ceiling.
    "a6": Sweep(
        axis="mix", values=(0.25, 0.5, 0.75),
        variants=("locking", "snapshot"),
        config=lambda mix, reads: dataclasses.replace(
            distributed_config("local", 3.0, mix),
            temporal_versions=True,
            snapshot_reads=reads == "snapshot"),
        metrics=(MISSED, THROUGHPUT),
        tables=(Table(
            "Ablation A6 - lock-free snapshot reads vs read locks "
            "(local ceiling, comm delay 3)",
            (("read-only fraction", "mix"),
             ("%missed (read locks)", "missed_locking"),
             ("%missed (snapshots)", "missed_snapshot"),
             ("thr (read locks)", "throughput_locking"),
             ("thr (snapshots)", "throughput_snapshot"))),),
        claims=_A6_CLAIMS),
    # 2PL's small-transaction advantage relies on "concurrency ...
    # fully achieved with an assumption of parallel I/O processing";
    # bounding the I/O subsystem to k disks removes that concurrency.
    "a7": Sweep(
        axis="io_servers", values=("inf", 8, 2, 1), variants=("C", "L"),
        config=lambda servers, protocol: dataclasses.replace(
            single_site_config(protocol, 11),
            io_servers=None if servers == "inf" else servers),
        metrics=(MISSED, THROUGHPUT),
        tables=(Table(
            "Ablation A7 - bounded disks vs the parallel-I/O "
            "assumption (size 11)",
            (("I/O servers", "io_servers"),
             ("C thr", "throughput_C"), ("L thr", "throughput_L"),
             ("C %missed", "missed_C"), ("L %missed", "missed_L"))),),
        claims=_A7_CLAIMS),
    "a8": Sweep(
        axis="kind,x",
        values=(("loss", 0.0), ("loss", 0.05), ("loss", 0.1),
                ("crash", 0.0), ("crash", 40.0)),
        variants=MODES, config=_a8_config,
        metrics=(("percent_missed", "{}_missed"),
                 ("throughput", "{}_throughput"),
                 ("messages_lost", "{}_lost")),
        derive=_a8_cells,
        tables=(Table(
            "Ablation A8 - fault injection: message loss and site "
            "crashes, both architectures",
            (("fault", "fault"), ("level", "x"),
             ("local %missed", "local_missed"),
             ("global %missed", "global_missed"),
             ("local tput", "local_throughput"),
             ("global tput", "global_throughput"),
             ("msgs lost", "messages_lost"))),),
        claims=_A8_CLAIMS),
    # The single-site points reuse the Figure 2/3 configurations, so
    # with those rows in the result cache this costs the four
    # distributed points and the model evaluations.
    "model": Sweep(
        axis="point", values=MODEL_POINTS, variants=(None,),
        config=lambda point, _: _model_config(point),
        metrics=tuple((metric, f"sim_{metric}")
                      for metric in METRIC_FLOORS),
        derive=_model_cells, tables=(_model_text,),
        claims=_MODEL_CLAIMS),
    "protocols": Sweep(
        axis="size", values=KNEE_SIZES, variants=_SUITE,
        config=lambda size, protocol: single_site_config(protocol, size),
        metrics=(THROUGHPUT, MISSED, DEADLOCKS),
        tables=(
            Table("Protocol suite - % deadline-missing "
                  "(paper ceilings vs mpcp/dpcp/fmlp)",
                  (("size", "size"),)
                  + _per_variant("{} (%missed)", "missed_{}", _SUITE)),
            Table("Protocol suite - throughput "
                  "(normalised, committed objects/sec)",
                  (("size", "size"),)
                  + _per_variant("{} (objects/sec)", "throughput_{}",
                                 _SUITE)),
            Table("Protocol suite - deadlock cycles detected "
                  "(ceiling-family protocols are deadlock-free)",
                  (("size", "size"),)
                  + _per_variant("{} (deadlocks)", "deadlocks_{}",
                                 _SUITE)))),
}
