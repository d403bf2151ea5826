"""End-to-end CLI behavior: subcommands, exit codes, file schemas, reruns."""
import csv
import dataclasses
import math
import os
import subprocess
import sys
import zlib

import numpy as np
import pytest

from gatesafe.cli import _field_rows, main as cli_main
from gatesafe.config import load_config
from gatesafe.field import _HEADER, _node_gradients, build_field, inflate_field, load_field
from gatesafe.qp import PlaneActionField
from gatesafe.report import (
    GroupSummary,
    ReportError,
    _g,
    _trajectory_rows,
    box_stats,
    format_summary_csv,
    format_summary_text,
    load_metrics,
    summarize,
    write_report,
)
from gatesafe.sim import MAX_LEVEL, MODES, STEP_LABELS, StepLog, TrialRecord, generate_track, run_trial


def run_cli(argv):
    """Invoke the CLI in-process, folding argparse SystemExit into a code."""
    try:
        return cli_main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


@pytest.fixture(scope="module")
def map_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("maps") / "nominal.esdf"
    assert run_cli(["build-map", "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp") / "results"
    rc = run_cli(
        ["run", "--levels", "0,1.5", "--tracks", "2",
         "--modes", "baseline,filtered_uncertainty", "--out", out]
    )
    assert rc == 0
    return out


# ---------------------------------------------------------------- build-map


def test_build_map_output_loads_back(map_path):
    f = load_field(map_path)
    assert f.spec.dims == (121, 121, 81)
    np.testing.assert_allclose(f.inflated_by, 0.0)
    want = _node_gradients(f.values, f.spec.resolution)
    assert np.array_equal(f.gradients.view(np.uint32), want.view(np.uint32))


def test_build_map_inflation_rounds_up_to_whole_cells(tmp_path):
    out = tmp_path / "inflated.esdf"
    assert run_cli(["build-map", "--out", out, "--inflate", "0.25,0.25,0.25"]) == 0
    f = load_field(out)
    np.testing.assert_allclose(f.inflated_by, [0.3, 0.3, 0.3])


def test_inflated_map_with_bars_thinner_than_a_cell_is_built(tmp_path):
    # 0.25 m bars on a 0.5 m grid are half a cell: the grown boxes are exact at any thickness.
    cfg = tmp_path / "thin.yaml"
    cfg.write_text("geometry: {inner_size: 1.4}\nmap: {resolution: 0.5}\n")
    out = tmp_path / "m.esdf"
    assert run_cli(["build-map", "--config", cfg, "--out", out, "--inflate", "0.5,0.5,0.5"]) == 0
    conf = load_config(str(cfg))
    nominal = build_field(conf.gate(), conf.grid_spec(), safety_radius=conf.safety.R, inflation=np.full(3, 0.5))
    want = inflate_field(nominal, np.full(3, 0.5))
    assert np.array_equal(load_field(out).values.view(np.uint32), want.values.view(np.uint32))
    argv = ["run", "--config", cfg, "--tracks", "1", "--levels", "0", "--modes", "filtered_uncertainty"]
    assert run_cli([*argv, "--out", tmp_path / "r"]) == 0
    assert (tmp_path / "r" / "metrics.csv").exists()


def test_inflation_that_overflows_in_whole_cells_is_config_error_and_writes_nothing(tmp_path, capsys):
    # 1e308 m over 0.1 m cells overflows, and so does noise.dv's bound 1e150 m over
    # 1e-200 m cells; with RuntimeWarnings as errors neither may end in a traceback.
    cfg = tmp_path / "dv.yaml"
    cfg.write_text("map: {resolution: 1.0e-200}\nnoise: {dv: [1.0e+150, 0, 0]}\n")
    for argv, want in (
        (["build-map", "--out", tmp_path / "m.esdf", "--inflate", "1e308,0,0"],
         "error: --inflate: eps [1e+308, 0.0, 0.0] overflows when rounded up to whole 0.1 m cells"),
        (["run", "--config", cfg, "--tracks", "1", "--levels", "0", "--modes", "filtered_uncertainty",
          "--out", tmp_path / "r"],
         "error: noise.dv: eps [1e+150, 0.0, 0.0] overflows when rounded up to whole 1e-200 m cells"),
    ):
        assert run_cli(argv) == 1, argv
        assert capsys.readouterr().err.strip() == want, argv
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dv.yaml"]


@pytest.mark.parametrize(
    "text, extra, want",
    [
        ("noise: {dv: [6.0, 0, 0]}", ["run", "--tracks", "1", "--levels", "0"],
         "error: map.x [-6, 6] does not cover the gate plus safety.R and noise.dv (need at least [-6.425, 6.425])"),
        ("safety: {R: 6.0}", ["build-map"],
         "error: map.x [-6, 6] does not cover the gate plus safety.R (need at least [-6.125, 6.125])"),
        ("safety: {R: 0.3}", ["build-map", "--inflate", "0,6,0"],
         "error: map.y [-6, 6] does not cover the gate plus safety.R and --inflate (need at least [-7.3, 7.3])"),
    ],
    ids=["run-noise.dv", "build-map-safety.R", "build-map-inflate"],
)
def test_map_too_small_for_the_margins_names_the_config_keys_and_writes_nothing(tmp_path, capsys, text, extra, want):
    cfg = tmp_path / "wide.yaml"
    cfg.write_text(text + "\n")
    assert run_cli([*extra, "--config", cfg, "--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().err.strip() == want
    assert sorted(p.name for p in tmp_path.iterdir()) == ["wide.yaml"]


@pytest.mark.parametrize(
    "text, key",
    [("noise: {dw: [1.0e+200, 0, 0]}", "noise.dw"), ("noise: {dv: [1.0e+200, 0, 0]}", "noise.dv"),
     ("policy: {pass_offset: 1.0e+200}", "policy.pass_offset")],
    ids=["dw", "dv", "pass_offset"],
)
def test_length_past_the_level_bound_is_config_error_naming_the_key(tmp_path, capsys, text, key):
    # At 1e200 the robot's distance to its target squares to inf: refused before any trial.
    cfg = tmp_path / "far.yaml"
    cfg.write_text(text + "\n")
    argv = ["run", "--config", cfg, "--tracks", "1", "--levels", "0", "--modes", "baseline"]
    assert run_cli([*argv, "--out", tmp_path / "r"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} must lie in [0, 1e+150] m")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["far.yaml"]
    # The bound itself flies.
    cfg.write_text(text.replace("1.0e+200", "1.0e+150") + "\nsim: {max_steps: 200}\n")
    assert run_cli([*argv, "--out", tmp_path / "ok"]) == 0
    assert (tmp_path / "ok" / "metrics.csv").exists()


def test_build_map_rejects_malformed_inflate(tmp_path):
    rc = run_cli(["build-map", "--out", tmp_path / "x.esdf", "--inflate", "0.1,0.2"])
    assert rc == 1, "two-component inflation must be a usage error"
    for i, inflate in enumerate(("0.1,0.2,0.3,0.4", "0.1,-0.2,0.3", "nan,0,0", "0,inf,0", "0,0,-inf", "a,b,c")):
        out = tmp_path / f"bad_{i}.esdf"
        assert run_cli(["build-map", "--out", out, "--inflate", inflate]) == 1, inflate
        assert not out.exists(), inflate


def test_flag_error_names_the_flag(map_path, tmp_path, capsys):
    for argv, flag in (
        (["build-map", "--inflate", "0.25"], "--inflate"),
        (["build-map", "--inflate", "0.25,0.25,nan"], "--inflate"),
        (["field", "--map", map_path, "--plane", "yz", "--offset", "0", "--speed", "2", "--samples", "1"], "--samples"),
    ):
        assert run_cli([*argv, "--out", tmp_path / "out"]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be ") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []


def test_field_plane_choices_are_the_library_planes(map_path, tmp_path, capsys):
    for plane in ("xy", "yz"):
        assert run_cli(["field", "--map", map_path, "--plane", plane, "--offset", "0", "--speed", "2",
                        "--samples", "2", "--out", tmp_path / f"{plane}.csv"]) == 0
    capsys.readouterr()
    assert run_cli(["field", "--map", map_path, "--plane", "xz", "--offset", "0", "--speed", "2",
                    "--out", tmp_path / "xz.csv"]) == 1
    err = capsys.readouterr().err
    assert "--plane" in err and "'xz'" in err and "xy" in err and "yz" in err, err
    assert not (tmp_path / "xz.csv").exists()


def test_field_speed_and_offset_errors_name_the_flag(map_path, tmp_path, capsys):
    # The library's own rules, run under the flag's name.
    for speed, offset, message in (
        ("5", "0", "--speed must lie in (0, alpha=3.0], got 5.0"),
        ("0", "0", "--speed must lie in (0, alpha=3.0], got 0.0"),
        ("2", "nan", "--offset must be finite, got nan"),
        ("2", "9", "--offset 9.0 outside grid extent [-6, 6] on axis x"),
    ):
        argv = ["field", "--map", map_path, "--plane", "yz", "--offset", offset, "--speed", speed]
        assert run_cli([*argv, "--out", tmp_path / "out.csv"]) == 1, argv
        assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


# -------------------------------------------------------------------- field


def test_field_csv_schema_and_arrow_norms(map_path, tmp_path):
    out = tmp_path / "field.csv"
    assert run_cli(["field", "--map", map_path, "--plane", "yz", "--offset", "0",
                    "--speed", "2.0", "--samples", "24", "--out", out]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "z", "ux", "uy", "uz", "unsafe_flag"]
    data = np.array(rows[1:], dtype=float)
    assert data.shape == (121 * 81, 7), "one row per grid node of the yz slice"
    assert np.all(data[:, 0] == 0.0), "fixed axis must sit at the requested offset"
    flags = data[:, 6]
    assert set(np.unique(flags)) <= {0.0, 1.0}
    norms = np.linalg.norm(data[:, 3:6], axis=1)
    assert np.allclose(norms[flags == 0.0], 2.0, atol=1e-8), "safe arrows carry the commanded speed"
    assert np.all(norms[flags == 1.0] == 0.0), "unsafe nodes must carry a zero arrow"
    assert 0 < flags.sum() < len(flags), "slice must contain both safe and unsafe nodes"


def test_field_rows_match_per_field_formatting():
    # Each distinct bit pattern is formatted once: -0.0 and 0.0 share a column
    # but not a cell text, and repeated values reuse one string.
    special = [0.0, -0.0, 5e-324, 1e300, 0.1 + 0.2, 1.0 / 3.0, -0.0, 0.0, 1e300, 0.1 + 0.2, -2.5e-7, 7.0]
    rng = np.random.default_rng(41)
    shape = (3, 4)
    columns = np.array([np.roll(special, k) for k in range(6)]).T
    columns[:, 5] = rng.choice(special, size=len(special))
    fld = PlaneActionField(
        positions=columns[:, :3].reshape(shape + (3,)),
        directions=columns[:, 3:].reshape(shape + (3,)),
        unsafe=(np.arange(len(special)) % 3 == 0).reshape(shape),
    )
    want = ["x,y,z,ux,uy,uz,unsafe_flag"]
    for (x, y, z), (ux, uy, uz), flag in zip(
        fld.positions.reshape(-1, 3).tolist(), fld.directions.reshape(-1, 3).tolist(), fld.unsafe.reshape(-1).tolist()
    ):
        want.append(",".join([repr(x), repr(y), repr(z), format(ux, ".10g"), format(uy, ".10g"), format(uz, ".10g"),
                              str(int(flag))]))
    assert _field_rows(fld) == want
    assert {"0.0", "-0.0"} <= {row.split(",")[0] for row in want[1:]}
    assert {"0", "-0"} <= {row.split(",")[3] for row in want[1:]}


def test_field_offset_outside_grid_is_usage_error(map_path, tmp_path):
    # The z axis ends at +/-4 m, and sampling admits 1e-9 cells past it: 1e-10 m at 0.1 m.
    out = tmp_path / "f.csv"
    for plane, offset in (("yz", "99"), ("xy", "4.0000000005"), ("xy", "4.0000000002"), ("xy", "-4.0000000002")):
        rc = run_cli(["field", "--map", map_path, "--plane", plane, "--offset", offset,
                      "--speed", "2.0", "--out", out])
        assert rc == 1, offset
        assert not out.exists(), offset


def test_config_integer_too_large_for_a_float_is_a_config_error(map_path, tmp_path, capsys):
    cfg = tmp_path / "huge.yaml"
    cfg.write_text(f"safety: {{R: {10**400}}}\n")
    for argv in (
        ["run", "--tracks", "1", "--out", tmp_path / "r"],
        ["build-map", "--out", tmp_path / "m.esdf"],
        ["field", "--map", map_path, "--plane", "yz", "--offset", "0", "--speed", "2", "--out", tmp_path / "f.csv"],
    ):
        assert run_cli([*argv, "--config", cfg]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: safety.R ") and err.count("\n") == 1, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.yaml"]


def test_config_integer_past_the_int_string_limit_is_a_config_error_naming_the_file(tmp_path, capsys):
    cfg = tmp_path / "big.yaml"
    cfg.write_text("safety: {R: 1" + "0" * 5000 + "}\n")
    assert run_cli(["run", "--config", cfg, "--out", tmp_path / "r"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {cfg} ") and err.count("\n") == 1, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.yaml"]


def test_field_missing_map_is_runtime_error(tmp_path):
    rc = run_cli(["field", "--map", tmp_path / "nope.esdf", "--plane", "yz",
                  "--offset", "0", "--speed", "2.0", "--out", tmp_path / "f.csv"])
    assert rc == 2


def test_field_map_with_bad_header_geometry_is_runtime_error(map_path, tmp_path, capsys):
    # Resolution 0 in an otherwise valid map (CRC recomputed): corrupt input.
    raw = bytearray(map_path.read_bytes()[:-4])
    header = list(_HEADER.unpack_from(raw))
    header[-4] = 0.0  # res, followed by the three inflation values
    _HEADER.pack_into(raw, 0, *header)
    bad = tmp_path / "zero_res.esdf"
    bad.write_bytes(bytes(raw) + (zlib.crc32(raw) & 0xFFFFFFFF).to_bytes(4, "little"))
    rc = run_cli(["field", "--map", bad, "--plane", "yz", "--offset", "0",
                  "--speed", "2.0", "--out", tmp_path / "f.csv"])
    assert rc == 2
    assert str(bad) in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()


# ---------------------------------------------------------------------- run


def test_run_writes_expected_files(run_dir):
    assert (run_dir / "manifest.yaml").exists()
    assert (run_dir / "metrics.csv").exists()
    assert (run_dir / "min_distances.csv").exists()
    names = sorted(os.listdir(run_dir / "trajectories"))
    assert len(names) == 8, "2 levels x 2 tracks x 2 modes"
    assert "L0_T00_baseline.csv" in names
    assert "L1.5_T01_filtered_uncertainty.csv" in names


def test_metrics_rows_parse_and_cover_grid(run_dir):
    rows = load_metrics(str(run_dir / "metrics.csv"))
    assert len(rows) == 8
    assert {r["level"] for r in rows} == {0.0, 1.5}
    assert {r["mode"] for r in rows} == {"baseline", "filtered_uncertainty"}
    for r in rows:
        assert 0.0 <= r["success_pct"] <= 100.0
        assert r["min_distance"] >= 0.0
    level0 = [r for r in rows if r["level"] == 0.0]
    assert all(r["success_pct"] == 100.0 for r in level0), "straight tracks must be fully passable"


def test_min_distances_file_matches_metrics(run_dir):
    rows = load_metrics(str(run_dir / "metrics.csv"))
    with open(run_dir / "min_distances.csv", newline="") as fh:
        md = list(csv.DictReader(fh))
    assert len(md) == len(rows)
    by_key = {(r["level"], r["mode"], r["track"]): r["min_distance"] for r in rows}
    for row in md:
        key = (float(row["level"]), row["mode"], row["track"])
        assert math.isclose(float(row["min_distance"]), by_key[key], rel_tol=1e-9)


def test_trajectory_schema(run_dir):
    with open(run_dir / "trajectories" / "L0_T00_baseline.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x", "y", "z", "d", "h", "status", "deviation"]
    body = rows[1:]
    assert len(body) > 100
    t = np.array([float(r[0]) for r in body])
    np.testing.assert_allclose(np.diff(t), 0.02, atol=1e-9)
    assert all(r[5] == "nan" for r in body), "baseline logs no barrier value"
    # The status vocabulary the README documents, in code order.
    assert STEP_LABELS == (
        "unchanged", "projected", "infeasible_fallback", "degenerate_safe", "off_map", "in_obstacle",
    )
    assert all(r[6] in STEP_LABELS for r in body)
    assert all(float(r[7]) == 0.0 for r in body), "baseline never deviates from the nominal command"

    with open(run_dir / "trajectories" / "L0_T00_filtered_uncertainty.csv", newline="") as fh:
        frows = list(csv.reader(fh))
    h_vals = [r[5] for r in frows[1:]]
    assert any(v != "nan" for v in h_vals), "filtered runs log barrier values once on the map"


def test_rerun_from_manifest_is_byte_identical(run_dir, tmp_path):
    clone = tmp_path / "clone"
    assert run_cli(["run", "--config", run_dir / "manifest.yaml", "--out", clone]) == 0
    files = ["manifest.yaml", "metrics.csv", "min_distances.csv"]
    files += [os.path.join("trajectories", n) for n in sorted(os.listdir(run_dir / "trajectories"))]
    assert sorted(os.listdir(clone / "trajectories")) == sorted(os.listdir(run_dir / "trajectories"))
    for name in files:
        a = (run_dir / name).read_bytes()
        b = (clone / name).read_bytes()
        assert a == b, f"{name} differs between a run and its manifest rerun"


def test_run_rejects_unknown_mode(tmp_path):
    assert run_cli(["run", "--modes", "warp", "--out", tmp_path / "r"]) == 1


@pytest.mark.parametrize(
    "flag, value, path",
    [
        ("--levels", "-1", "run.levels"),
        ("--levels", "-1,2", "run.levels"),
        ("--tracks", "0", "run.tracks"),
        ("--tracks", "1001", "run.tracks"),
        ("--levels", "0,0", "run.levels"),
        ("--levels", "1e308", "run.levels"),
        ("--modes", "baseline,baseline", "run.modes"),
        # Accepted before the level bound, these overflowed a squared clearance.
        ("--levels", "8e307", "run.levels"),
        ("--levels", "0,1e300", "run.levels"),
        ("--levels", "1e160", "run.levels"),
    ],
)
def test_run_rejects_out_of_range_override_naming_its_path(flag, value, path, tmp_path, capsys):
    assert run_cli(["run", flag, value, "--out", tmp_path / "r"]) == 1
    assert path in capsys.readouterr().err
    assert not (tmp_path / "r").exists(), "a rejected override must not start the run"


def test_run_rejects_bad_config_values(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("safety:\n  gamma: -1\n")
    assert run_cli(["run", "--config", bad, "--out", tmp_path / "r"]) == 1
    typo = tmp_path / "typo.yaml"
    typo.write_text("safety:\n  gama: 2\n")
    assert run_cli(["run", "--config", typo, "--out", tmp_path / "r"]) == 1
    twice = tmp_path / "twice.yaml"
    twice.write_text("safety: {R: 0.5}\nsafety: {gamma: 2.0}\n")
    assert run_cli(["run", "--config", twice, "--out", tmp_path / "r"]) == 1
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "text, axis",
    [
        ("x: [0, 1.0e-9]", "x"),
        ("resolution: 1.0e-308", "x"),
        ("y: [-1.0e+308, 1.0e+308]", "y"),
        # Three whole cells, but every squared clearance would overflow.
        ("resolution: 1.0e+200, x: [-1.0e+200, 1.0e+200], y: [-1.0e+200, 1.0e+200], z: [-1.0e+200, 1.0e+200]", "x"),
    ],
    ids=["zero-cells", "cell-count-overflow", "extent-overflow", "squares-overflow"],
)
def test_unusable_map_extent_is_config_error_and_writes_nothing(text, axis, tmp_path, capsys):
    cfg = tmp_path / "map.yaml"
    cfg.write_text(f"map: {{{text}}}\n")
    for argv in (["run", "--tracks", "1", "--out", tmp_path / "r"], ["build-map", "--out", tmp_path / "m.esdf"]):
        assert run_cli([*argv, "--config", cfg]) == 1, argv
        assert capsys.readouterr().err.startswith(f"error: map.{axis} "), argv
    assert sorted(p.name for p in tmp_path.iterdir()) == ["map.yaml"]


def test_missing_subcommand_or_flag_is_usage_error(tmp_path):
    assert run_cli([]) == 1
    assert run_cli(["run"]) == 1, "--out is required"
    assert run_cli(["frobnicate"]) == 1


# ------------------------------------------------------------------- report


def quantile_by_sorting(values, p):
    """Independent quartile oracle: sort, then linear interpolation."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    h = (n - 1) * p
    lo = math.floor(h)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def box_oracle(values):
    q25 = quantile_by_sorting(values, 0.25)
    med = quantile_by_sorting(values, 0.50)
    q75 = quantile_by_sorting(values, 0.75)
    iqr = q75 - q25
    lo_fence, hi_fence = q25 - 1.5 * iqr, q75 + 1.5 * iqr
    inside = [v for v in values if lo_fence <= v <= hi_fence]
    outliers = sorted(v for v in values if v < lo_fence or v > hi_fence)
    return med, q25, q75, min(inside), max(inside), tuple(outliers)


def test_box_stats_singleton_value():
    s = box_stats([1.2])
    assert (s.median, s.q25, s.q75, s.whisker_lo, s.whisker_hi) == (1.2, 1.2, 1.2, 1.2, 1.2)
    assert s.outliers == ()


def test_box_stats_needs_a_value():
    with pytest.raises(ValueError, match="at least one value"):
        box_stats([])


def test_box_stats_pinned_quartiles():
    s = box_stats([1.0, 2.0, 3.0, 4.0])
    assert s.q25 == pytest.approx(1.75)
    assert s.median == pytest.approx(2.5)
    assert s.q75 == pytest.approx(3.25)
    assert (s.whisker_lo, s.whisker_hi) == (1.0, 4.0)
    assert s.outliers == ()


def test_box_stats_flags_outliers():
    data = [0.0, 10.0, 11.0, 12.0, 13.0, 14.0, 100.0]
    s = box_stats(data)
    assert s.outliers == (0.0, 100.0)
    assert s.whisker_lo == 10.0 and s.whisker_hi == 14.0


def test_box_stats_matches_sort_oracle_on_random_data():
    rng = np.random.default_rng(7)
    for size in (1, 2, 3, 5, 8, 13, 40):
        for _ in range(20):
            data = np.round(rng.normal(0.0, 10.0, size=size), 1).tolist()
            s = box_stats(data)
            med, q25, q75, wlo, whi, outliers = box_oracle(data)
            assert s.median == pytest.approx(med, abs=1e-9)
            assert s.q25 == pytest.approx(q25, abs=1e-9)
            assert s.q75 == pytest.approx(q75, abs=1e-9)
            assert s.whisker_lo == pytest.approx(wlo, abs=1e-9)
            assert s.whisker_hi == pytest.approx(whi, abs=1e-9)
            assert s.outliers == pytest.approx(outliers, abs=1e-9)


def test_report_quartiles_match_sort_oracle_on_real_run(run_dir):
    rows = load_metrics(str(run_dir / "metrics.csv"))
    summaries = summarize(rows)
    assert len(summaries) == 4, "2 levels x 2 modes"
    for s in summaries:
        values = [r["min_distance"] for r in rows if r["level"] == s.level and r["mode"] == s.mode]
        med, q25, q75, wlo, whi, outliers = box_oracle(values)
        assert s.min_distance.median == pytest.approx(med, abs=1e-12)
        assert s.min_distance.q25 == pytest.approx(q25, abs=1e-12)
        assert s.min_distance.q75 == pytest.approx(q75, abs=1e-12)
        assert s.min_distance.whisker_lo == pytest.approx(wlo, abs=1e-12)
        assert s.min_distance.whisker_hi == pytest.approx(whi, abs=1e-12)
        assert s.trials == len(values)
        safe_frac = sum(1 for r in rows if r["level"] == s.level and r["mode"] == s.mode and r["safe"]) / len(values)
        assert s.safety_rate == pytest.approx(safe_frac)


def test_report_cli_writes_summary_and_prints_table(run_dir, capsys):
    assert run_cli(["report", "--run", run_dir]) == 0
    captured = capsys.readouterr()
    assert "baseline" in captured.out and "median" in captured.out
    assert (run_dir / "summary.csv").exists()
    assert (run_dir / "summary.txt").exists()
    with open(run_dir / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for row in rows:
        assert 0.0 <= float(row["safety_rate"]) <= 1.0
        assert float(row["md_q25"]) <= float(row["md_median"]) <= float(row["md_q75"])


def test_report_out_dir_redirects_summaries(run_dir, tmp_path):
    target = tmp_path / "elsewhere"
    assert run_cli(["report", "--run", run_dir, "--out", target]) == 0
    assert (target / "summary.csv").exists() and (target / "summary.txt").exists()


def test_report_missing_and_malformed_inputs_are_distinct(tmp_path, capsys):
    with pytest.raises(ReportError, match="not found"):
        write_report(str(tmp_path / "nowhere"))
    with pytest.raises(ReportError, match="metrics file not found"):
        write_report(str(tmp_path))

    bad_dir = tmp_path / "bad"
    bad_dir.mkdir()
    (bad_dir / "metrics.csv").write_text("level,track\n0,0\n")
    with pytest.raises(ReportError, match="missing columns"):
        write_report(str(bad_dir))

    assert run_cli(["report", "--run", tmp_path / "nowhere"]) == 2
    missing_msg = capsys.readouterr().err
    assert run_cli(["report", "--run", bad_dir]) == 2
    malformed_msg = capsys.readouterr().err
    assert missing_msg != malformed_msg, "missing vs malformed inputs must read differently"


def test_report_rejects_unparsable_rows(tmp_path):
    bad_dir = tmp_path / "badrows"
    bad_dir.mkdir()
    header = "level,track,mode,safe,success_pct,min_distance\n"
    (bad_dir / "metrics.csv").write_text(header + "0,0,baseline,maybe,50,0.1\n")
    with pytest.raises(ReportError, match="line 2"):
        write_report(str(bad_dir))
    (bad_dir / "metrics.csv").write_text(header + "0,0,baseline,true,50,oops\n")
    with pytest.raises(ReportError, match="min_distance"):
        write_report(str(bad_dir))
    (bad_dir / "metrics.csv").write_text(header)
    with pytest.raises(ReportError, match="no data rows"):
        write_report(str(bad_dir))
    (bad_dir / "metrics.csv").write_text(header + "0,0,baseline,true\n")
    with pytest.raises(ReportError, match="line 2: short row"):
        write_report(str(bad_dir))
    (bad_dir / "metrics.csv").write_text("")
    with pytest.raises(ReportError, match="empty"):
        write_report(str(bad_dir))


@pytest.mark.parametrize("column, value", [
    ("min_distance", "nan"), ("min_distance", "inf"), ("success_pct", "nan"), ("level", "-inf"),
])
def test_report_rejects_non_finite_numbers(tmp_path, capsys, column, value):
    row = {"level": "0", "track": "0", "mode": "baseline", "safe": "true", "success_pct": "50", "min_distance": "0.1"}
    row[column] = value
    (tmp_path / "metrics.csv").write_text(",".join(row) + "\n" + ",".join(row.values()) + "\n")
    with pytest.raises(ReportError, match=f"line 2: column '{column}' is not finite"):
        write_report(str(tmp_path))
    assert run_cli(["report", "--run", tmp_path]) == 2, "a corrupt metrics.csv is a runtime failure"
    assert column in capsys.readouterr().err


def _reference_summary_csv(summaries):
    """format_summary_csv as written out cell by cell before SUMMARY_COLUMNS."""
    lines = [
        "level,mode,trials,safety_rate,mean_success_pct,"
        "md_median,md_q25,md_q75,md_whisker_lo,md_whisker_hi,md_outlier_count,md_outliers"
    ]
    for s in summaries:
        md = s.min_distance
        outliers = "|".join(_g(v) for v in md.outliers)
        lines.append(",".join([
            _g(s.level), s.mode, str(s.trials), _g(s.safety_rate), _g(s.mean_success_pct),
            _g(md.median), _g(md.q25), _g(md.q75), _g(md.whisker_lo), _g(md.whisker_hi),
            str(len(md.outliers)), outliers,
        ]))
    return "\n".join(lines) + "\n"


def _reference_summary_text(summaries):
    """format_summary_text written out in two f-strings, each column as wide as its widest cell."""
    def width(least, cells):
        return max([least] + [len(c) for c in cells])

    mds = [s.min_distance for s in summaries]
    wl = width(5, [f"{s.level:.2f}" for s in summaries])
    wm = width(20, [s.mode for s in summaries])
    wt = width(6, [f"{s.trials:d}" for s in summaries])
    ws = width(6, [f"{s.safety_rate:.2f}" for s in summaries])
    wp = width(6, [f"{s.mean_success_pct:.1f}" for s in summaries])
    wd = [width(7, [f"{getattr(md, k):.3f}" for md in mds]) for k in ("median", "q25", "q75", "whisker_lo", "whisker_hi")]
    header = (
        f"{'level':>{wl}}  {'mode':<{wm}} {'trials':>{wt}}  {'safety':>{ws}}  {'succ%':>{wp}}  "
        f"{'median':>{wd[0]}}  {'q25':>{wd[1]}}  {'q75':>{wd[2]}}  {'w_lo':>{wd[3]}}  {'w_hi':>{wd[4]}}  outliers"
    )
    rows = [header, "-" * len(header)]
    for s, md in zip(summaries, mds):
        outliers = ", ".join(f"{v:.3f}" for v in md.outliers) if md.outliers else "-"
        rows.append(
            f"{s.level:>{wl}.2f}  {s.mode:<{wm}} {s.trials:>{wt}d}  {s.safety_rate:>{ws}.2f}  "
            f"{s.mean_success_pct:>{wp}.1f}  {md.median:>{wd[0]}.3f}  {md.q25:>{wd[1]}.3f}  {md.q75:>{wd[2]}.3f}  "
            f"{md.whisker_lo:>{wd[3]}.3f}  {md.whisker_hi:>{wd[4]}.3f}  {outliers}"
        )
    return "\n".join(rows) + "\n"


def test_summary_tables_match_cell_by_cell_reference():
    def group(level, mode, values, safety=0.75, success=62.5):
        return GroupSummary(level=level, mode=mode, trials=len(values), safety_rate=safety,
                            mean_success_pct=success, min_distance=box_stats(values))

    spread = [0.41, 0.42, 0.43, 0.44, 0.45, 0.46, 0.47, 0.48]
    cases = [
        [],
        [group(0.0, "baseline", [0.3, 0.31, 0.32, 0.35])],
        [
            group(0.0, "baseline", [0.3, 0.31, 0.32, 0.35]),
            group(0.125, "filtered", spread + [0.0, 2.5, 3.75], safety=1.0, success=100.0),
            group(1.5, "filtered_uncertainty", [1.0 / 3.0], safety=0.0, success=0.0),
            group(10.0, "a_twenty_char_mode__", spread + [9.123456789, -1.0]),
            group(10.0, "not_a_mode", [0.1 + 0.2, 1e-12, 123456.789], safety=2.0 / 3.0, success=33.33333333333),
            group(12.5, "a_mode_longer_than_twenty_chars", [5e-324, 0.0]),
        ],
    ]
    assert len("a_twenty_char_mode__") == 20 and "not_a_mode" not in MODES
    assert len(cases[2][1].min_distance.outliers) == 3, "several outliers"
    for summaries in cases:
        assert format_summary_csv(summaries) == _reference_summary_csv(summaries)
        assert format_summary_text(summaries) == _reference_summary_text(summaries)


def test_summary_text_widens_a_column_to_its_widest_cell():
    summaries = [
        GroupSummary(level=level, mode="baseline", trials=1, safety_rate=1.0, mean_success_pct=100.0,
                     min_distance=box_stats([0.5]))
        for level in (0.5, 123.45, MAX_LEVEL)
    ]
    header, rule, *rows = format_summary_text(summaries).splitlines()
    at = header.index("mode")
    assert at == len(f"{MAX_LEVEL:.2f}  "), "the level column widens to its widest cell"
    assert all(row[at:at + len("baseline")] == "baseline" for row in rows), rows
    assert len(rule) == len(header) and rows[1].startswith(f"{123.45:>{at - 2}.2f}  ")


def test_report_handles_all_zero_min_distances(tmp_path):
    run = tmp_path / "zeros"
    run.mkdir()
    header = "level,track,mode,safe,success_pct,min_distance\n"
    body = "".join(f"1.5,{i},baseline,false,25,0\n" for i in range(4))
    (run / "metrics.csv").write_text(header + body)
    csv_path, _ = write_report(str(run))
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert float(rows[0]["safety_rate"]) == 0.0
    assert float(rows[0]["md_median"]) == 0.0
    assert rows[0]["md_outlier_count"] == "0"


def test_field_non_finite_offset_is_usage_error_and_writes_nothing(map_path, tmp_path):
    for offset in ("nan", "inf", "-inf"):
        out = tmp_path / f"f_{offset}.csv"
        rc = run_cli(["field", "--map", map_path, "--plane", "yz", "--offset", offset,
                      "--speed", "2.0", "--out", out])
        assert rc == 1, offset
        assert not out.exists(), offset


def _joined_trajectory_rows(rec):
    """One ",".join of _g per field, row by row."""
    log = rec.result.log
    rows = ["t,x,y,z,d,h,status,deviation"]
    for i in range(log.t.shape[0]):
        rows.append(",".join([
            _g(log.t[i]), _g(log.x[i, 0]), _g(log.x[i, 1]), _g(log.x[i, 2]),
            _g(log.d_true[i]), _g(log.h[i]), STEP_LABELS[int(log.status[i])], _g(log.deviation[i]),
        ]))
    return rows


def test_trajectory_rows_match_per_field_formatting(default_env):
    track = generate_track(num_gates=2, difficulty=1.0, laps=1, seed=5)
    records = [
        TrialRecord(level=1.0, track_index=0, mode=mode, seed=5, result=run_trial(default_env, track, mode, seed=6))
        for mode in ("baseline", "filtered")
    ]
    special = np.array([
        0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-300, 1e300, 0.1 + 0.2, 1.0 / 3.0,
        123456789012.0, -2.5e-7, 1.0, 7.0, 0.05,
    ])
    n = len(special)
    rng = np.random.default_rng(37)
    log = StepLog(
        t=special,
        x=np.stack([special, special[::-1], rng.normal(size=n)], axis=1),
        d_true=np.roll(special, 3),
        h=np.roll(special, 7),
        status=(np.arange(n) % len(STEP_LABELS)).astype(np.int8),
        deviation=np.roll(special, 11),
    )
    base = records[0].result
    records.append(TrialRecord(level=0.5, track_index=1, mode="filtered", seed=5, result=dataclasses.replace(base, log=log)))
    for rec in records:
        assert _trajectory_rows(rec) == _joined_trajectory_rows(rec)


def test_import_loads_no_scipy():
    # A fresh interpreter: this test process may have imported scipy already.
    import gatesafe

    src = os.path.dirname(os.path.dirname(gatesafe.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, gatesafe, gatesafe.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
