"""Metrics artifacts: one JSONL file per run unit, summarized and
diffed.

An artifact is one meta header line plus one series object per line;
:func:`load_metrics_jsonl` reads back exactly what
:func:`write_metrics_jsonl` wrote.  ``repro metrics summarize`` prints
:func:`summary_text` of one artifact and ``repro metrics diff`` the
:func:`diff_documents` of two (the determinism check).
"""

from __future__ import annotations

import json
import math
from typing import List

METRICS_VERSION = 1


# ----------------------------------------------------------------------
# JSONL artifacts
# ----------------------------------------------------------------------
def write_metrics_jsonl(document: dict, destination: str) -> dict:
    """Write a registry :meth:`dump` document as JSONL; returns meta."""
    meta = dict(document.get("meta", {}))
    meta["metrics_version"] = METRICS_VERSION
    meta["series"] = len(document.get("series", []))
    with open(destination, "w", encoding="utf-8") as sink:
        sink.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
        for series in document.get("series", []):
            sink.write(json.dumps(series, sort_keys=True) + "\n")
    return meta


def load_metrics_jsonl(source: str) -> dict:
    """Read a JSONL artifact back into a registry-dump document."""
    meta: dict = {}
    series: List[dict] = []
    with open(source, "r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if "meta" in record and "name" not in record:
                meta = record["meta"]
            else:
                series.append(record)
    return {"meta": meta, "series": series}


# ----------------------------------------------------------------------
# summarize / diff
# ----------------------------------------------------------------------
def _fmt_value(value) -> str:
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def summarize_rows(document: dict) -> List[dict]:
    """One summary row per series (the ``summarize`` CLI table)."""
    rows = []
    for series in document.get("series", []):
        labels = ",".join(f"{k}={v}" for k, v
                          in sorted(series["labels"].items()))
        row = {"name": series["name"], "kind": series["kind"],
               "labels": labels, "points": len(series["points"])}
        if series["kind"] == "histogram":
            final = series["final"]
            count = final["count"]
            row["final"] = count
            row["detail"] = (
                f"count={count} sum={final['sum']:.6g} "
                + (f"mean={final['sum'] / count:.6g}" if count
                   else "mean=-"))
        else:
            row["final"] = series["final"]
            row["detail"] = f"final={_fmt_value(series['final'])}"
        rows.append(row)
    return rows


def summary_text(document: dict) -> str:
    """Human-readable per-series summary table."""
    meta = document.get("meta", {})
    rows = summarize_rows(document)
    points = sum(row["points"] for row in rows)
    lines = [f"metrics: {len(rows)} series, {points} sample points, "
             f"window={meta.get('window', '?')}"]
    for key in sorted(meta):
        if key in ("window", "series", "metrics_version"):
            continue
        lines.append(f"  {key:<16} {meta[key]}")
    if rows:
        width = max(len(f"{r['name']}{{{r['labels']}}}") for r in rows)
        lines.append(f"{'series':<{width}} {'kind':<9} "
                     f"{'points':>6}  final")
        for row in rows:
            shown = f"{row['name']}{{{row['labels']}}}"
            lines.append(f"{shown:<{width}} {row['kind']:<9} "
                         f"{row['points']:>6}  {row['detail']}")
    return "\n".join(lines)


def diff_documents(left: dict, right: dict) -> List[str]:
    """Series-level differences between two artifacts; [] == identical
    (meta is ignored — it carries per-run identity on purpose)."""
    def index(document):
        return {(s["name"], tuple(sorted(s["labels"].items()))): s
                for s in document.get("series", [])}

    a, b = index(left), index(right)
    problems: List[str] = []

    def shown(key):
        name, labels = key
        return name + ("{" + ",".join(f"{k}={v}" for k, v in labels)
                       + "}" if labels else "")

    for key in sorted(a.keys() - b.keys()):
        problems.append(f"only in left: {shown(key)}")
    for key in sorted(b.keys() - a.keys()):
        problems.append(f"only in right: {shown(key)}")
    for key in sorted(a.keys() & b.keys()):
        one, two = a[key], b[key]
        if one["kind"] != two["kind"]:
            problems.append(f"{shown(key)}: kind {one['kind']} != "
                            f"{two['kind']}")
            continue
        if one["final"] != two["final"]:
            problems.append(f"{shown(key)}: final {one['final']} != "
                            f"{two['final']}")
        if one["points"] != two["points"]:
            count = (f"{len(one['points'])} vs {len(two['points'])} "
                     f"points")
            problems.append(f"{shown(key)}: sample streams differ "
                            f"({count})")
    return problems
