"""Command-line interface: build maps, export action fields, run and summarize experiments.

Subcommands
-----------
build-map   Precompute a clearance map (optionally inflated) and save it.
field       Export the safest-action field on a plane slice as CSV.
run         Run the seeded trial grid and write metrics + trajectories.
report      Aggregate a run directory's metrics.csv into summary tables.

Exit codes: 0 on success, 1 for usage or configuration errors, 2 for
runtime failures (missing or corrupt inputs, failed trials setup).

All outputs are plain CSV/YAML text with fixed float formatting, so a rerun
with the same manifest produces byte-identical files.
"""
from __future__ import annotations

import argparse
import os
import re
import sys

import numpy as np

from .config import Config, dump_manifest, load_config, parse_config
from .field import (
    MapFormatError,
    build_field,
    inflate_field,
    load_field,
    quantize_inflation,
    save_field,
)
from .qp import safest_action_field
from .report import ReportError, _g, write_report
from .sim import MODES, STEP_LABELS, TrialRecord, run_experiment


class _ArgumentParser(argparse.ArgumentParser):
    """argparse parser that exits with status 1 on usage errors.

    The stock parser exits with 2, which this tool reserves for runtime
    failures; 1 means "the invocation or configuration was wrong".
    An argument that starts like a negative number (``-1,2``) is a value:
    no option of this tool starts with a digit.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _csv_items(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip() != ""]


def _csv_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in _csv_items(text)]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def _inflate_arg(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected ex,ey,ez (three values), got {text!r}")
    try:
        eps = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected three numbers, got {text!r}") from exc
    if np.any(eps < 0):
        raise argparse.ArgumentTypeError(f"inflation must be >= 0 per axis, got {text!r}")
    return eps


def _load_cfg(path: str | None) -> Config:
    return load_config(path) if path is not None else Config()


def _fmt_vec(v) -> str:
    return "(" + ", ".join(f"{float(x):g}" for x in v) + ")"


def _cmd_build_map(args) -> int:
    cfg = _load_cfg(args.config)
    spec = cfg.grid_spec()
    gate = cfg.gate()
    quantized = None
    if args.inflate is not None:
        quantized = quantize_inflation(args.inflate, spec.resolution)
    f = build_field(gate, spec, safety_radius=cfg.safety.R, inflation=quantized)
    if quantized is not None:
        f = inflate_field(f, quantized)
        if not np.allclose(quantized, args.inflate):
            print(f"note: inflation rounded up to whole cells: {_fmt_vec(quantized)}")
    save_field(f, args.out)
    print(
        f"wrote {args.out}: dims {f.spec.dims}, resolution {spec.resolution:g} m, "
        f"inflation {_fmt_vec(f.inflated_by)}"
    )
    return 0


def _cmd_field(args) -> int:
    cfg = _load_cfg(args.config)
    f = load_field(args.map)
    fld = safest_action_field(
        f,
        cfg.safety_params(),
        speed=args.speed,
        plane=args.plane,
        offset=args.offset,
        angular_samples=args.samples,
    )
    positions = fld.positions.reshape(-1, 3)
    directions = fld.directions.reshape(-1, 3)
    unsafe_flags = fld.unsafe.reshape(-1)
    lines = ["x,y,z,ux,uy,uz,unsafe_flag"]
    # Positions use repr (exact float64 round-trip) so consumers re-sampling
    # the map at a row's coordinates land in the same grid cell.
    for pos, direction, unsafe in zip(positions, directions, unsafe_flags):
        lines.append(
            ",".join(
                [repr(float(pos[0])), repr(float(pos[1])), repr(float(pos[2])),
                 _g(direction[0]), _g(direction[1]), _g(direction[2]),
                 "1" if unsafe else "0"]
            )
        )
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {args.out}: {positions.shape[0]} samples, {int(np.sum(unsafe_flags))} unsafe")
    return 0


_METRICS_HEADER = (
    "level,track,mode,seed,safe,success_pct,min_distance,gates_passed,total_gates,"
    "steps,timed_out,clean,fallback_steps,off_map_steps,in_obstacle_steps"
)


def _bool(v: bool) -> str:
    return "true" if v else "false"


def _metrics_rows(records: list[TrialRecord]) -> list[str]:
    rows = [_METRICS_HEADER]
    for rec in records:
        r = rec.result
        rows.append(
            ",".join(
                [
                    _g(rec.level),
                    str(rec.track_index),
                    rec.mode,
                    str(rec.seed),
                    _bool(r.safe),
                    _g(100.0 * r.success_rate),
                    _g(r.min_distance),
                    str(r.gates_passed),
                    str(r.total_gates),
                    str(r.steps),
                    _bool(r.timed_out),
                    _bool(r.clean),
                    str(r.fallback_steps),
                    str(r.off_map_steps),
                    str(r.in_obstacle_steps),
                ]
            )
        )
    return rows


# One trajectory row: report._g (format ".10g") on every float field.
_TRAJECTORY_ROW = "{:.10g},{:.10g},{:.10g},{:.10g},{:.10g},{:.10g},{},{:.10g}"


def _trajectory_rows(rec: TrialRecord) -> list[str]:
    log = rec.result.log
    columns = [c.tolist() for c in (log.t, *log.x.T, log.d_true, log.h)]
    labels = [STEP_LABELS[s] for s in log.status.tolist()]
    rows = map(_TRAJECTORY_ROW.format, *columns, labels, log.deviation.tolist())
    return ["t,x,y,z,d,h,status,deviation", *rows]


def _write_run_outputs(out_dir: str, cfg: Config, records: list[TrialRecord]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    dump_manifest(cfg, os.path.join(out_dir, "manifest.yaml"))

    with open(os.path.join(out_dir, "metrics.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(_metrics_rows(records)) + "\n")

    md_rows = ["level,mode,track,min_distance"]
    for rec in records:
        md_rows.append(
            ",".join([_g(rec.level), rec.mode, str(rec.track_index), _g(rec.result.min_distance)])
        )
    with open(os.path.join(out_dir, "min_distances.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(md_rows) + "\n")

    traj_dir = os.path.join(out_dir, "trajectories")
    os.makedirs(traj_dir, exist_ok=True)
    for rec in records:
        name = f"L{_g(rec.level)}_T{rec.track_index:02d}_{rec.mode}.csv"
        with open(os.path.join(traj_dir, name), "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(_trajectory_rows(rec)) + "\n")


def _cmd_run(args) -> int:
    data = _load_cfg(args.config).to_dict()
    for key in ("levels", "tracks", "modes"):
        if getattr(args, key) is not None:
            data["run"][key] = getattr(args, key)
    cfg = parse_config(data)
    run = cfg.run

    spec = cfg.grid_spec()
    params = cfg.safety_params()
    needs_inflated = "filtered_uncertainty" in run.modes
    inflation = quantize_inflation(params.dv, spec.resolution) if needs_inflated else None
    nominal = build_field(cfg.gate(), spec, safety_radius=params.R, inflation=inflation)
    inflated = inflate_field(nominal, inflation) if needs_inflated else None

    records = run_experiment(
        cfg.sim_env(nominal, inflated),
        levels=run.levels,
        tracks_per_level=run.tracks,
        modes=run.modes,
        num_gates=cfg.track.num_gates,
        spacing=cfg.track.spacing,
        laps=cfg.sim.laps,
        seed_base=run.seed_base,
    )
    _write_run_outputs(args.out, cfg, records)
    unsafe = sum(1 for rec in records if not rec.result.safe)
    print(f"wrote {len(records)} trials to {args.out} ({unsafe} unsafe)")
    return 0


def _cmd_report(args) -> int:
    csv_path, txt_path = write_report(args.run, args.out)
    with open(txt_path, "r", encoding="utf-8") as fh:
        sys.stdout.write(fh.read())
    print(f"wrote {csv_path} and {txt_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="gatesafe", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command", required=True, parser_class=_ArgumentParser)

    p = sub.add_parser("build-map", help="precompute and save a clearance map")
    p.add_argument("--config", help="YAML config (defaults used when omitted)")
    p.add_argument("--out", required=True, help="output map path")
    p.add_argument("--inflate", type=_inflate_arg, metavar="ex,ey,ez",
                   help="per-axis inflation [m], rounded up to whole cells")
    p.set_defaults(func=_cmd_build_map)

    p = sub.add_parser("field", help="export the safest-action field on a plane slice")
    p.add_argument("--map", required=True, help="map file from build-map")
    p.add_argument("--plane", required=True, choices=("xy", "yz"), help="slice orientation")
    p.add_argument("--offset", required=True, type=float, help="slice offset on the fixed axis [m]")
    p.add_argument("--speed", required=True, type=float, help="commanded speed [m/s]")
    p.add_argument("--samples", type=int, default=72, help="candidate directions per node")
    p.add_argument("--config", help="YAML config for safety parameters (defaults when omitted)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_field)

    p = sub.add_parser("run", help="run the seeded trial grid")
    p.add_argument("--config", help="YAML config or a previous run's manifest.yaml")
    p.add_argument("--levels", type=_csv_floats, metavar="L0,L1,...",
                   help="difficulty levels, overrides run.levels")
    p.add_argument("--tracks", type=int, metavar="N", help="tracks per level, overrides run.tracks")
    p.add_argument("--modes", type=_csv_items, metavar="m0,m1,...",
                   help=f"modes to fly ({', '.join(MODES)}), overrides run.modes")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="summarize a run directory")
    p.add_argument("--run", required=True, help="run directory containing metrics.csv")
    p.add_argument("--out", help="directory for summary files (default: the run directory)")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MapFormatError, ReportError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
