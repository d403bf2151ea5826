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
with the same manifest produces byte-identical files. The run tables
(metrics, trajectories, summaries) and their schemas belong to
:mod:`gatesafe.report`; this module writes only the manifest and the field
export.
"""
from __future__ import annotations

import argparse
import os
import re
import sys

import numpy as np

from .config import Config, _default, dump_manifest, load_config, parse_config
from .field import (
    DistanceField,
    MapFormatError,
    _check_extent,
    build_field,
    inflate_field,
    load_field,
    quantize_inflation,
    save_field,
)
from .geometry import _axis_bounds
from .qp import _PLANE_AXES, PlaneActionField, _check_offset, _check_samples, _check_speed, safest_action_field
from .report import ReportError, _g, write_report, write_trial_tables
from .sim import MODES, run_experiment


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


def _load_cfg(path: str | None) -> Config:
    return load_config(path) if path is not None else Config()


def _fmt_vec(v) -> str:
    return "(" + ", ".join(f"{float(x):g}" for x in v) + ")"


def _build_maps(cfg: Config, inflation, name: str) -> tuple[DistanceField, DistanceField | None]:
    """The nominal map and, given an inflation (``name`` in errors), the map inflated by it in whole cells.

    A grid too small for the margins is refused naming the ``map`` axis and the
    margins' sources (``safety.R``, and ``name``), before anything is built.
    """
    spec = cfg.grid_spec()
    try:
        quantized = None if inflation is None else quantize_inflation(inflation, spec.resolution)
    except ValueError as exc:  # the rounded inflation overflows
        raise ValueError(f"{name}: {exc}") from None
    gate = cfg.gate()
    margins = "safety.R" if quantized is None else f"safety.R and {name}"
    _check_extent(gate, spec, cfg.safety.R, quantized, "map.{}", margins)
    nominal = build_field(gate, spec, safety_radius=cfg.safety.R, inflation=quantized)
    return nominal, None if quantized is None else inflate_field(nominal, quantized)


def _cmd_build_map(args) -> int:
    inflation = None if args.inflate is None else _axis_bounds(args.inflate, "--inflate")
    nominal, inflated = _build_maps(_load_cfg(args.config), inflation, "--inflate")
    f = nominal if inflated is None else inflated
    del nominal  # freed before save_field allocates its map-sized buffers
    if inflated is not None and not np.allclose(f.inflated_by, inflation):
        print(f"note: inflation rounded up to whole cells: {_fmt_vec(f.inflated_by)}")
    save_field(f, args.out)
    print(
        f"wrote {args.out}: dims {f.spec.dims}, resolution {f.spec.resolution:g} m, "
        f"inflation {_fmt_vec(f.inflated_by)}"
    )
    return 0


# The field export schema, one row per plane node: column name and cell
# formatter. Positions as repr (exact float64 round-trip, so consumers
# re-sampling the map at a row's coordinates land in the same grid cell),
# directions as report._g (format ".10g"), then the 0/1 unsafe flag. A slice
# holds few distinct values per column (about 200 coordinates, at most
# --samples + 1 directions), so each distinct value is formatted once, keyed
# by its bit pattern: a key by float value would merge -0.0 into 0.0, and
# --offset -0 writes -0.0.
_FIELD_COLUMNS = (
    ("x", repr), ("y", repr), ("z", repr), ("ux", _g), ("uy", _g), ("uz", _g), ("unsafe_flag", str),
)


def _format_once(col: np.ndarray, fmt) -> np.ndarray:
    """``fmt`` of each entry of a 1-D float64 or int64 array, as an object array, calling it once per bit pattern."""
    keys, inverse = np.unique(col.view(np.int64), return_inverse=True)
    texts = np.array([fmt(v) for v in keys.view(col.dtype).tolist()], dtype=object)
    return texts[inverse]


def _field_rows(fld: PlaneActionField) -> list[str]:
    """The field export's lines: the header, then one row per plane node."""
    flags = fld.unsafe.reshape(-1).astype(np.int64)
    values = (*fld.positions.reshape(-1, 3).T, *fld.directions.reshape(-1, 3).T, flags)
    cells = [_format_once(col, fmt) for col, (_, fmt) in zip(values, _FIELD_COLUMNS)]
    return [",".join(name for name, _ in _FIELD_COLUMNS), *map(",".join, zip(*cells))]


def _cmd_field(args) -> int:
    _check_samples(args.samples, "--samples")
    params = _load_cfg(args.config).safety_params()
    _check_speed(args.speed, params.alpha, "--speed")
    f = load_field(args.map)
    _check_offset(args.offset, f, args.plane, "--offset")
    fld = safest_action_field(
        f,
        params,
        speed=args.speed,
        plane=args.plane,
        offset=args.offset,
        angular_samples=args.samples,
    )
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(_field_rows(fld)) + "\n")
    print(f"wrote {args.out}: {fld.unsafe.size} samples, {np.count_nonzero(fld.unsafe)} unsafe")
    return 0


def _cmd_run(args) -> int:
    data = _load_cfg(args.config).to_dict()
    for key in ("levels", "tracks", "modes"):
        if getattr(args, key) is not None:
            data["run"][key] = getattr(args, key)
    cfg = parse_config(data)
    run = cfg.run

    nominal, inflated = _build_maps(cfg, cfg.noise.dv if "filtered_uncertainty" in run.modes else None, "noise.dv")
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
    os.makedirs(args.out, exist_ok=True)
    dump_manifest(cfg, os.path.join(args.out, "manifest.yaml"))
    write_trial_tables(args.out, records)
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
    p.add_argument("--inflate", type=_csv_floats, metavar="ex,ey,ez",
                   help="per-axis inflation [m], rounded up to whole cells")
    p.set_defaults(func=_cmd_build_map)

    p = sub.add_parser("field", help="export the safest-action field on a plane slice")
    p.add_argument("--map", required=True, help="map file from build-map")
    p.add_argument("--plane", required=True, choices=tuple(_PLANE_AXES), help="slice orientation")
    p.add_argument("--offset", required=True, type=float, help="slice offset on the fixed axis [m]")
    p.add_argument("--speed", required=True, type=float, help="commanded speed [m/s]")
    p.add_argument("--samples", type=int, default=_default(safest_action_field, "angular_samples"),
                   help="candidate directions per node")
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
