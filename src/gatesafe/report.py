"""Every table of an experiment run: per-trial tables and per-(level, mode) summaries.

Owns the schema of every table a run writes. One column table both writes
``metrics.csv`` (and its ``min_distances.csv`` excerpt) and reads it back,
and the run's per-trial trajectories are written beside it. Summarizing
produces a machine-readable ``summary.csv`` plus an aligned ``summary.txt``,
both rendered from one column table. For each (difficulty level, mode) group
it reports the safety rate, the mean gate success percentage, and boxplot
statistics of the per-trial minimum obstacle distance: median, quartiles,
Tukey whiskers at 1.5 IQR, and outliers beyond the whiskers.

Missing and ill-formed inputs raise one exception type, :class:`ReportError`,
whose message tells "wrong directory" apart from "corrupted file".
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .sim import MODES, STEP_LABELS, TrialRecord


class ReportError(RuntimeError):
    """The run directory or its metrics.csv is absent or cannot be interpreted."""


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
    raise ReportError(f"metrics.csv line {line}: column {column!r} must be true/false, got {raw!r}")


def _parse_float(raw: str, column: str, line: int) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ReportError(f"metrics.csv line {line}: column {column!r} is not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ReportError(f"metrics.csv line {line}: column {column!r} is not finite: {raw!r}")
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


#: One trajectory row per executed step, a file per trial under trajectories/:
#: _g (format ".10g") on every float field.
_TRAJECTORY_ROW = "{:.10g},{:.10g},{:.10g},{:.10g},{:.10g},{:.10g},{},{:.10g}"


def _trajectory_rows(rec: TrialRecord) -> list[str]:
    log = rec.result.log
    columns = [c.tolist() for c in (log.t, *log.x.T, log.d_true, log.h)]
    labels = [STEP_LABELS[s] for s in log.status.tolist()]
    rows = map(_TRAJECTORY_ROW.format, *columns, labels, log.deviation.tolist())
    return ["t,x,y,z,d,h,status,deviation", *rows]


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_trial_tables(out_dir: str, records: list[TrialRecord]) -> None:
    """Write a run's per-trial tables into <out_dir>.

    metrics.csv, its min_distances.csv excerpt, and one
    trajectories/L<level>_T<track>_<mode>.csv per trial.
    """
    formats = {name: fmt for name, fmt, _ in METRICS_COLUMNS}
    for name, columns in (("metrics.csv", tuple(formats)), ("min_distances.csv", MIN_DISTANCE_COLUMNS)):
        rows = [",".join(columns)] + [",".join(formats[c](rec) for c in columns) for rec in records]
        _write_text(os.path.join(out_dir, name), "\n".join(rows) + "\n")
    traj_dir = os.path.join(out_dir, "trajectories")
    os.makedirs(traj_dir, exist_ok=True)
    for rec in records:
        name = f"L{_g(rec.level)}_T{rec.track_index:02d}_{rec.mode}.csv"
        _write_text(os.path.join(traj_dir, name), "\n".join(_trajectory_rows(rec)) + "\n")


def load_metrics(path: str) -> list[dict]:
    """Read and type-check a metrics.csv into a list of row dicts."""
    if not os.path.exists(path):
        raise ReportError(f"metrics file not found: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ReportError(f"metrics file {path} is empty (no header row)")
        missing = [c for c in REQUIRED_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise ReportError(f"metrics file {path} is missing columns: {', '.join(missing)}")
        parsers = [(name, parse) for name, _, parse in METRICS_COLUMNS if parse is not None]
        rows = []
        for i, raw in enumerate(reader, start=2):
            if any(raw.get(c) is None for c in REQUIRED_COLUMNS):
                raise ReportError(f"metrics.csv line {i}: short row")
            rows.append({name: parse(raw[name], name, i) for name, parse in parsers})
    if not rows:
        raise ReportError(f"metrics file {path} has a header but no data rows")
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


#: The summary schema, one row per (level, mode) group: the summary.csv column
#: and its cell, then the summary.txt column (None: not in summary.txt) as its
#: heading, its alignment and least width, its cell and the separator after it.
#: A summary.txt column widens to its widest cell; one without a width is not padded.
SUMMARY_COLUMNS = (
    ("level", lambda s: _g(s.level), ("level", ">5", lambda s: f"{s.level:.2f}", "  ")),
    ("mode", lambda s: s.mode, ("mode", "<20", lambda s: s.mode, " ")),
    ("trials", lambda s: str(s.trials), ("trials", ">6", lambda s: f"{s.trials:d}", "  ")),
    ("safety_rate", lambda s: _g(s.safety_rate), ("safety", ">6", lambda s: f"{s.safety_rate:.2f}", "  ")),
    ("mean_success_pct", lambda s: _g(s.mean_success_pct),
     ("succ%", ">6", lambda s: f"{s.mean_success_pct:.1f}", "  ")),
    ("md_median", lambda s: _g(s.min_distance.median),
     ("median", ">7", lambda s: f"{s.min_distance.median:.3f}", "  ")),
    ("md_q25", lambda s: _g(s.min_distance.q25), ("q25", ">7", lambda s: f"{s.min_distance.q25:.3f}", "  ")),
    ("md_q75", lambda s: _g(s.min_distance.q75), ("q75", ">7", lambda s: f"{s.min_distance.q75:.3f}", "  ")),
    ("md_whisker_lo", lambda s: _g(s.min_distance.whisker_lo),
     ("w_lo", ">7", lambda s: f"{s.min_distance.whisker_lo:.3f}", "  ")),
    ("md_whisker_hi", lambda s: _g(s.min_distance.whisker_hi),
     ("w_hi", ">7", lambda s: f"{s.min_distance.whisker_hi:.3f}", "  ")),
    ("md_outlier_count", lambda s: str(len(s.min_distance.outliers)), None),
    ("md_outliers", lambda s: "|".join(_g(v) for v in s.min_distance.outliers),
     ("outliers", "", lambda s: ", ".join(f"{v:.3f}" for v in s.min_distance.outliers) or "-", "")),
)


def format_summary_csv(summaries: list[GroupSummary]) -> str:
    """Render summaries as CSV text (outliers |-joined in the last column)."""
    rows = [[name for name, _, _ in SUMMARY_COLUMNS]]
    rows += [[cell(s) for _, cell, _ in SUMMARY_COLUMNS] for s in summaries]
    return "\n".join(",".join(row) for row in rows) + "\n"


def format_summary_text(summaries: list[GroupSummary]) -> str:
    """Render summaries as an aligned fixed-width table."""
    lines = [""] * (len(summaries) + 1)
    for _, _, text in SUMMARY_COLUMNS:
        if text is None:
            continue
        heading, spec, cell, sep = text
        cells = [heading] + [cell(s) for s in summaries]
        if spec:
            width = max(int(spec[1:]), *map(len, cells))
            cells = [f"{c:{spec[0]}{width}}" for c in cells]
        lines = [line + c + sep for line, c in zip(lines, cells)]
    header, *rows = lines
    return "\n".join([header, "-" * len(header), *rows]) + "\n"


def write_report(run_dir: str, out_dir: str | None = None) -> tuple[str, str]:
    """Summarize <run_dir>/metrics.csv into summary.csv and summary.txt.

    Returns the two output paths. Raises ReportError if the run directory or
    metrics file is absent or the file cannot be interpreted.
    """
    if not os.path.isdir(run_dir):
        raise ReportError(f"run directory not found: {run_dir}")
    rows = load_metrics(os.path.join(run_dir, "metrics.csv"))
    summaries = summarize(rows)
    target = out_dir if out_dir is not None else run_dir
    os.makedirs(target, exist_ok=True)
    csv_path = os.path.join(target, "summary.csv")
    txt_path = os.path.join(target, "summary.txt")
    _write_text(csv_path, format_summary_csv(summaries))
    _write_text(txt_path, format_summary_text(summaries))
    return csv_path, txt_path
