"""Per-trial metrics tables, and their per-(level, mode) summary tables.

Owns the ``metrics.csv`` schema: one column table both writes the file (and
its ``min_distances.csv`` excerpt) for an experiment run and reads it back.
Summarizing produces a machine-readable ``summary.csv`` plus an aligned
``summary.txt``. For each (difficulty level, mode) group it reports the
safety rate, the mean gate success percentage, and boxplot statistics of
the per-trial minimum obstacle distance: median, quartiles, Tukey whiskers
at 1.5 IQR, and outliers beyond the whiskers.

Missing and ill-formed inputs raise distinct exception types so callers can
tell "wrong directory" apart from "corrupted file".
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .sim import MODES, TrialRecord


class ReportError(RuntimeError):
    """Base class for report-generation failures."""


class MissingInputError(ReportError):
    """The run directory or its metrics.csv does not exist."""


class MalformedInputError(ReportError):
    """metrics.csv exists but its header or rows cannot be interpreted."""


@dataclass(frozen=True)
class BoxStats:
    """Five-number boxplot summary with Tukey outliers.

    Whiskers extend to the most extreme data points within 1.5 IQR of the
    quartiles; points beyond them are listed as outliers.
    """

    median: float
    q25: float
    q75: float
    whisker_lo: float
    whisker_hi: float
    outliers: tuple[float, ...]


@dataclass(frozen=True)
class GroupSummary:
    """Aggregates for one (difficulty level, mode) cell of the experiment."""

    level: float
    mode: str
    trials: int
    safety_rate: float
    mean_success_pct: float
    min_distance: BoxStats


def box_stats(values) -> BoxStats:
    """Compute boxplot statistics (linear-interpolation quartiles)."""
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        raise ValueError("box_stats needs at least one value")
    q25, med, q75 = np.percentile(data, [25.0, 50.0, 75.0])
    iqr = q75 - q25
    lo_fence = q25 - 1.5 * iqr
    hi_fence = q75 + 1.5 * iqr
    inside = data[(data >= lo_fence) & (data <= hi_fence)]
    outliers = np.sort(data[(data < lo_fence) | (data > hi_fence)])
    return BoxStats(
        median=float(med),
        q25=float(q25),
        q75=float(q75),
        whisker_lo=float(inside.min()),
        whisker_hi=float(inside.max()),
        outliers=tuple(float(v) for v in outliers),
    )


def _parse_bool(raw: str, column: str, line: int) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise MalformedInputError(f"metrics.csv line {line}: column {column!r} must be true/false, got {raw!r}")


def _parse_float(raw: str, column: str, line: int) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise MalformedInputError(f"metrics.csv line {line}: column {column!r} is not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise MalformedInputError(f"metrics.csv line {line}: column {column!r} is not finite: {raw!r}")
    return value


def _parse_text(raw: str, column: str, line: int) -> str:
    return raw


def _bool(v: bool) -> str:
    return "true" if v else "false"


def _g(x: float) -> str:
    return format(float(x), ".10g")


#: The metrics.csv schema, one row per trial: column name, the cell text for a
#: TrialRecord, and the parser load_metrics applies (None: not read back).
METRICS_COLUMNS = (
    ("level", lambda rec: _g(rec.level), _parse_float),
    ("track", lambda rec: str(rec.track_index), _parse_text),
    ("mode", lambda rec: rec.mode, _parse_text),
    ("seed", lambda rec: str(rec.seed), None),
    ("safe", lambda rec: _bool(rec.result.safe), _parse_bool),
    ("success_pct", lambda rec: _g(100.0 * rec.result.success_rate), _parse_float),
    ("min_distance", lambda rec: _g(rec.result.min_distance), _parse_float),
    ("gates_passed", lambda rec: str(rec.result.gates_passed), None),
    ("total_gates", lambda rec: str(rec.result.total_gates), None),
    ("steps", lambda rec: str(rec.result.steps), None),
    ("timed_out", lambda rec: _bool(rec.result.timed_out), None),
    ("clean", lambda rec: _bool(rec.result.clean), None),
    ("fallback_steps", lambda rec: str(rec.result.fallback_steps), None),
    ("off_map_steps", lambda rec: str(rec.result.off_map_steps), None),
    ("in_obstacle_steps", lambda rec: str(rec.result.in_obstacle_steps), None),
)
#: Columns a metrics.csv must provide (extra columns are tolerated).
REQUIRED_COLUMNS = tuple(name for name, _, parse in METRICS_COLUMNS if parse is not None)
#: The min_distances.csv excerpt of metrics.csv.
MIN_DISTANCE_COLUMNS = ("level", "mode", "track", "min_distance")


def write_trial_tables(out_dir: str, records: list[TrialRecord]) -> None:
    """Write <out_dir>/metrics.csv and its min_distances.csv excerpt."""
    formats = {name: fmt for name, fmt, _ in METRICS_COLUMNS}
    for name, columns in (("metrics.csv", tuple(formats)), ("min_distances.csv", MIN_DISTANCE_COLUMNS)):
        rows = [",".join(columns)] + [",".join(formats[c](rec) for c in columns) for rec in records]
        with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(rows) + "\n")


def load_metrics(path: str) -> list[dict]:
    """Read and type-check a metrics.csv into a list of row dicts."""
    if not os.path.exists(path):
        raise MissingInputError(f"metrics file not found: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise MalformedInputError(f"metrics file {path} is empty (no header row)")
        missing = [c for c in REQUIRED_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise MalformedInputError(f"metrics file {path} is missing columns: {', '.join(missing)}")
        parsers = [(name, parse) for name, _, parse in METRICS_COLUMNS if parse is not None]
        rows = []
        for i, raw in enumerate(reader, start=2):
            if any(raw.get(c) is None for c in REQUIRED_COLUMNS):
                raise MalformedInputError(f"metrics.csv line {i}: short row")
            rows.append({name: parse(raw[name], name, i) for name, parse in parsers})
    if not rows:
        raise MalformedInputError(f"metrics file {path} has a header but no data rows")
    return rows


def summarize(rows: list[dict]) -> list[GroupSummary]:
    """Group rows by (level, mode) and aggregate each group."""
    groups: dict[tuple[float, str], list[dict]] = {}
    for row in rows:
        groups.setdefault((row["level"], row["mode"]), []).append(row)

    def mode_rank(mode: str):
        return (MODES.index(mode), "") if mode in MODES else (len(MODES), mode)

    summaries = []
    for (level, mode) in sorted(groups, key=lambda k: (k[0], mode_rank(k[1]))):
        members = groups[(level, mode)]
        safety = sum(1 for m in members if m["safe"]) / len(members)
        mean_success = float(np.mean([m["success_pct"] for m in members]))
        stats = box_stats([m["min_distance"] for m in members])
        summaries.append(
            GroupSummary(
                level=level,
                mode=mode,
                trials=len(members),
                safety_rate=safety,
                mean_success_pct=mean_success,
                min_distance=stats,
            )
        )
    return summaries


_CSV_HEADER = (
    "level,mode,trials,safety_rate,mean_success_pct,"
    "md_median,md_q25,md_q75,md_whisker_lo,md_whisker_hi,md_outlier_count,md_outliers"
)


def format_summary_csv(summaries: list[GroupSummary]) -> str:
    """Render summaries as CSV text (outliers |-joined in the last column)."""
    lines = [_CSV_HEADER]
    for s in summaries:
        md = s.min_distance
        outliers = "|".join(_g(v) for v in md.outliers)
        lines.append(
            ",".join(
                [
                    _g(s.level),
                    s.mode,
                    str(s.trials),
                    _g(s.safety_rate),
                    _g(s.mean_success_pct),
                    _g(md.median),
                    _g(md.q25),
                    _g(md.q75),
                    _g(md.whisker_lo),
                    _g(md.whisker_hi),
                    str(len(md.outliers)),
                    outliers,
                ]
            )
        )
    return "\n".join(lines) + "\n"


def format_summary_text(summaries: list[GroupSummary]) -> str:
    """Render summaries as an aligned fixed-width table."""
    header = (
        f"{'level':>5}  {'mode':<20} {'trials':>6}  {'safety':>6}  {'succ%':>6}  "
        f"{'median':>7}  {'q25':>7}  {'q75':>7}  {'w_lo':>7}  {'w_hi':>7}  outliers"
    )
    rows = [header, "-" * len(header)]
    for s in summaries:
        md = s.min_distance
        outliers = ", ".join(f"{v:.3f}" for v in md.outliers) if md.outliers else "-"
        rows.append(
            f"{s.level:>5.2f}  {s.mode:<20} {s.trials:>6d}  {s.safety_rate:>6.2f}  "
            f"{s.mean_success_pct:>6.1f}  {md.median:>7.3f}  {md.q25:>7.3f}  {md.q75:>7.3f}  "
            f"{md.whisker_lo:>7.3f}  {md.whisker_hi:>7.3f}  {outliers}"
        )
    return "\n".join(rows) + "\n"


def write_report(run_dir: str, out_dir: str | None = None) -> tuple[str, str]:
    """Summarize <run_dir>/metrics.csv into summary.csv and summary.txt.

    Returns the two output paths. Raises MissingInputError if the run
    directory or metrics file is absent, MalformedInputError if the file
    cannot be interpreted.
    """
    if not os.path.isdir(run_dir):
        raise MissingInputError(f"run directory not found: {run_dir}")
    rows = load_metrics(os.path.join(run_dir, "metrics.csv"))
    summaries = summarize(rows)
    target = out_dir if out_dir is not None else run_dir
    os.makedirs(target, exist_ok=True)
    csv_path = os.path.join(target, "summary.csv")
    txt_path = os.path.join(target, "summary.txt")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_summary_csv(summaries))
    with open(txt_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_summary_text(summaries))
    return csv_path, txt_path
