"""Sim-vs-model cross-validation: the divergence report.

``repro validate-model`` sweeps a calibration grid twice — once
through the simulator (via the :mod:`repro.exec` engine: fingerprint
cache, optional process pool) and once through the analytic model —
and reports the per-metric relative error, the worst-diverging
configurations, and a pass/fail verdict against a configurable error
budget.  The quick grid is the CI smoke; the full grid adds the 2PL
thrash regime and the distributed modes, where the model is documented
to be coarser (DESIGN.md §10).

Relative error uses an absolute floor per metric,
``err = |model - sim| / max(|sim|, floor)``, so near-zero baselines
(0.1% missed, 0.4 time units blocked) do not turn rounding noise into
a huge relative error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Dict, List, Optional, Sequence

from ..core.experiment import replicate_many
from .response import predict_summary
from .workload import AnyConfig

#: Metrics reported per configuration (the error budget gates on the
#: keys of DEFAULT_ERROR_BUDGET, a subset of these).
REPORTED_METRICS = ("percent_missed", "mean_blocked_time",
                    "mean_response_time", "throughput")
#: Absolute denominators floors per metric (percent points, virtual
#: time units, objects/time): differences below the floor are noise.
METRIC_FLOORS = {
    "percent_missed": 5.0,
    "mean_blocked_time": 10.0,
    "mean_response_time": 10.0,
    "throughput": 0.05,
}
#: The documented budget: mean relative error the model must stay
#: within on the quick grid (see DESIGN.md §10 for the calibration).
DEFAULT_ERROR_BUDGET = {
    "percent_missed": 0.30,
    "mean_blocked_time": 0.40,
}


@dataclasses.dataclass(frozen=True)
class ValidationCase:
    """One grid point: a label and the runnable config."""

    label: str
    config: AnyConfig


def quick_grid() -> List[ValidationCase]:
    """The CI calibration grid: 13 single-site points.

    The full Figure-2/3 size sweep for the ceiling protocol, plus the
    2PL family (P and L) below its thrash knee — the regime the 2PL
    fixed point is calibrated for.
    """
    from ..bench.figures import single_site_config
    cases = [ValidationCase(f"C/size={size}",
                            single_site_config("C", size))
             for size in (2, 5, 8, 11, 14, 17, 20)]
    for protocol in ("P", "L"):
        cases.extend(
            ValidationCase(f"{protocol}/size={size}",
                           single_site_config(protocol, size))
            for size in (2, 5, 8))
    return cases


def full_grid() -> List[ValidationCase]:
    """Quick grid + 2PL thrash regime + the distributed modes."""
    from ..bench.figures import distributed_config, single_site_config
    cases = quick_grid()
    for protocol in ("P", "L"):
        cases.extend(
            ValidationCase(f"{protocol}/size={size}",
                           single_site_config(protocol, size))
            for size in (11, 14, 17, 20))
    for mode, delay, mix in (("local", 1.0, 0.0), ("local", 1.0, 0.5),
                             ("global", 1.0, 0.5),
                             ("global", 4.0, 0.5)):
        cases.append(ValidationCase(
            f"{mode}/delay={delay:g}/mix={mix:g}",
            distributed_config(mode, delay, mix)))
    return cases


def relative_error(metric: str, sim: float, model: float) -> float:
    floor = METRIC_FLOORS.get(metric, 1e-9)
    return abs(model - sim) / max(abs(sim), floor)


@dataclasses.dataclass(frozen=True)
class ValidationReport:
    """Everything ``repro validate-model`` prints or writes."""

    #: Per-case {"label", "metrics": {name: {sim, model, error}}}.
    rows: List[dict]
    #: metric -> mean relative error across the grid.
    mean_errors: Dict[str, float]
    #: metric -> budget (gated metrics only).
    budget: Dict[str, float]
    replications: int

    @property
    def within_budget(self) -> bool:
        return all(self.mean_errors[metric] <= limit
                   for metric, limit in self.budget.items())

    def worst(self, metric: str, top: int = 3) -> List[dict]:
        """The ``top`` most-diverging cases for one metric."""
        ranked = sorted(
            self.rows,
            key=lambda row: -row["metrics"][metric]["error"])
        return ranked[:top]

    def as_dict(self) -> dict:
        return {
            "schema": "repro-model-validation/1",
            "replications": self.replications,
            "budget": dict(self.budget),
            "mean_errors": dict(self.mean_errors),
            "within_budget": self.within_budget,
            "cases": self.rows,
        }


def run_validation(cases: Sequence[ValidationCase],
                   replications: int = 3,
                   budget: Optional[Dict[str, float]] = None, *,
                   jobs: Optional[int] = None, cache=None,
                   progress=None) -> ValidationReport:
    """Run the grid through simulator and model; build the report."""
    cases = list(cases)
    if not cases:
        raise ValueError("validation needs at least one case")
    sims = replicate_many([case.config for case in cases],
                          replications=replications, jobs=jobs,
                          cache=cache, progress=progress)
    rows = []
    for case, sim in zip(cases, sims):
        model = predict_summary(case.config)
        metrics = {}
        for metric in REPORTED_METRICS:
            sim_value = float(sim[metric])
            model_value = float(model[metric])
            metrics[metric] = {
                "sim": sim_value,
                "model": model_value,
                "error": relative_error(metric, sim_value, model_value),
            }
        rows.append({"label": case.label, "metrics": metrics})
    mean_errors = {
        metric: sum(row["metrics"][metric]["error"]
                    for row in rows) / len(rows)
        for metric in REPORTED_METRICS}
    return ValidationReport(
        rows=rows, mean_errors=mean_errors,
        budget=dict(DEFAULT_ERROR_BUDGET if budget is None else budget),
        replications=replications)


def format_report(report: ValidationReport) -> str:
    """The human-readable divergence table."""
    lines = [f"model vs simulation — {len(report.rows)} configs, "
             f"{report.replications} replications each",
             f"{'config':<22} {'metric':<18} {'sim':>10} "
             f"{'model':>10} {'rel err':>8}"]
    for row in report.rows:
        for metric in REPORTED_METRICS:
            cell = row["metrics"][metric]
            lines.append(
                f"{row['label']:<22} {metric:<18} "
                f"{cell['sim']:>10.3f} {cell['model']:>10.3f} "
                f"{cell['error']:>8.3f}")
    lines.append("")
    lines.append(f"{'mean relative error':<40} {'budget':>8}")
    for metric in REPORTED_METRICS:
        limit = report.budget.get(metric)
        verdict = ""
        if limit is not None:
            verdict = (" over budget!"
                       if report.mean_errors[metric] > limit else " ok")
        lines.append(
            f"  {metric:<24} {report.mean_errors[metric]:>10.3f} "
            f"{'' if limit is None else format(limit, '.2f'):>8}"
            f"{verdict}")
    for metric in report.budget:
        worst = report.worst(metric, top=2)
        if worst:
            labels = ", ".join(
                f"{row['label']} ({row['metrics'][metric]['error']:.2f})"
                for row in worst)
            lines.append(f"  worst {metric}: {labels}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI: repro validate-model
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    from ..cli import exec_options, option_block
    parser = argparse.ArgumentParser(
        prog="repro validate-model",
        parents=[option_block(None, "2 quick, 3 full")],
        description="Sweep simulator vs analytic model across the "
                    "calibration grid and report the divergence "
                    "against the documented error budget.")
    parser.add_argument("--quick", action="store_true",
                        help="the 13-config single-site grid with 2 "
                             "replications (CI smoke); default is the "
                             "full grid incl. 2PL thrash and "
                             "distributed modes")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the report as a JSON artifact")
    parser.add_argument("--budget-missed", type=float,
                        default=DEFAULT_ERROR_BUDGET["percent_missed"],
                        help="mean relative-error budget on "
                             "percent_missed (default %(default)s)")
    parser.add_argument(
        "--budget-blocking", type=float,
        default=DEFAULT_ERROR_BUDGET["mean_blocked_time"],
        help="mean relative-error budget on mean_blocked_time "
             "(default %(default)s)")
    args = parser.parse_args(argv)
    if args.budget_missed <= 0 or args.budget_blocking <= 0:
        print("error: budgets must be positive", file=sys.stderr)
        return 2
    opts = exec_options(args)
    if opts is None:
        return 2
    replications = args.replications
    if replications is None:
        replications = 2 if args.quick else 3
    cases = quick_grid() if args.quick else full_grid()
    budget = {"percent_missed": args.budget_missed,
              "mean_blocked_time": args.budget_blocking}
    report = run_validation(cases, replications=replications,
                            budget=budget, **opts.kwargs())
    print(format_report(report))
    if args.json:
        directory = os.path.dirname(args.json)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {args.json}", file=sys.stderr)
    if not report.within_budget:
        over = [metric for metric, limit in report.budget.items()
                if report.mean_errors[metric] > limit]
        print(f"\nBUDGET EXCEEDED: {', '.join(over)}", file=sys.stderr)
        return 1
    return 0
