"""The three benchmark workloads: grid, filter_stream and maps.

Each workload exposes the same small protocol to ``run.py``:

- ``timed(time_ops)`` runs one pass of the workload's work and returns
  ``(wall_seconds, state)``; everything inside it is what the user waits for.
  With ``time_ops`` the pass also appends the sequence of its operation
  latencies to ``op_latencies`` and its ``hostspeed.PassSampler`` to
  ``samplers``: the reference timings it took between operations, whose
  time is not part of the wall, and when each operation ran.
- ``REFERENCE`` names the ``hostspeed`` kernel made of the kind of code the
  workload runs.
- ``check(state, wall)`` runs the correctness and determinism checks of that
  pass outside the timed region, counts attempted and failed operations, and
  returns ``(units, seconds)`` for ``work_per_s``: trial steps per pass wall
  second (``grid``), batch rows per batch second (``filter_stream``), map and
  slice nodes per pass wall second (``maps``).

Operations are what ``ops_failed_share`` counts: a trial in ``grid``, a filter
call (scalar call or batch row) in ``filter_stream``, and a map build or an
action-field export in ``maps``. Every pass of a run uses the same seed, so
the first pass is checked in full and later passes must reproduce its
outputs bit for bit; a mismatch fails the operations it touches.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import shutil
import time

import numpy as np

import hostspeed

clock = time.perf_counter


def _cli(gs, argv) -> int:
    """Call ``gatesafe.cli.main`` in-process with its stdout swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return gs.cli.main([str(a) for a in argv])
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _map_fingerprint(f) -> tuple | None:
    """Grid geometry, inflation and SHA-256 of node values and gradients."""
    if f is None:
        return None
    arrays = hashlib.sha256(f.values.tobytes())
    arrays.update(b"none" if f.gradients is None else f.gradients.tobytes())
    return (f.spec.dims, f.spec.origin.tobytes(), f.spec.resolution, f.inflated_by.tobytes(),
            str(f.values.dtype), arrays.hexdigest())


def _tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


class Ops:
    """Attempted and failed operation counts of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, attempted: int, failed: int, note: str | None = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and note and len(self.notes) < 20:
            self.notes.append(note)


class Grid:
    """``gatesafe run`` on the given config (4 levels x 3 modes), then ``report``.

    Trials run one after another, exactly as a user's ``gatesafe run`` does.
    """

    REFERENCE = "vector"

    def __init__(self, gs, cfg, cfg_path: str, work: str, ops: Ops) -> None:
        self.gs = gs
        self.cfg_path = cfg_path
        self.work = work
        self.ops = ops
        self.trials = len(cfg.run.levels) * cfg.run.tracks * len(cfg.run.modes)
        self.op_latencies: list[list[float]] = []
        self.samplers: list[hostspeed.PassSampler] = []
        self.digest: str | None = None
        self.bytes_written = 0
        self._passes = 0

    def timed(self, time_ops: bool):
        self._passes += 1
        out = os.path.join(self.work, f"grid-{self._passes}")
        sim = self.gs.sim
        run_trial = sim.run_trial
        sampler = hostspeed.PassSampler(self.REFERENCE)
        if time_ops:
            latencies = []
            self.op_latencies.append(latencies)
            self.samplers.append(sampler)

            # The one probe in the untraced run: a clock pair per trial,
            # then the reference kernel, outside the trial and the wall.
            def timed_trial(*args, **kwargs):
                t0 = clock()
                result = run_trial(*args, **kwargs)
                t1 = clock()
                latencies.append(t1 - t0)
                sampler.op(t0, t1)
                sampler.sample()
                return result

            sim.run_trial = timed_trial
        try:
            t0 = clock()
            rc_run = _cli(self.gs, ["run", "--config", self.cfg_path, "--out", out])
            rc_report = _cli(self.gs, ["report", "--run", out])
            wall = clock() - t0 - sampler.paused
            sampler.close()
        finally:
            sim.run_trial = run_trial
        return wall, (out, rc_run, rc_report)

    def check(self, state, wall: float) -> tuple[int, float]:
        out, rc_run, rc_report = state
        metrics = os.path.join(out, "metrics.csv")
        try:
            if rc_run != 0 or rc_report != 0:
                self.ops.add(self.trials, self.trials, f"grid: run exit {rc_run}, report exit {rc_report}")
                return 0, wall
            with open(metrics, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            try:
                parsed = self.gs.report.load_metrics(metrics)
            except self.gs.report.ReportError as exc:
                self.ops.add(self.trials, self.trials, f"grid: load_metrics failed: {exc}")
                return 0, wall
            bad = set()
            for i, row in enumerate(rows):
                if int(row["steps"]) <= 0:
                    bad.add(i)
                # Acceptance test 6: a filtered_uncertainty trial that never
                # fell back is safe.
                if row["mode"] == "filtered_uncertainty" and int(row["fallback_steps"]) == 0 and row["safe"] != "true":
                    bad.add(i)
            missing = max(self.trials - len(rows), 0) + (len(parsed) != len(rows))
            digest = self._digest(out)
            if self.digest is None:
                self.digest = digest
                self.bytes_written = _tree_bytes(out)
            elif digest != self.digest:
                bad = set(range(len(rows)))
            failed = len(bad) + missing
            self.ops.add(self.trials, failed, f"grid: {failed} trials failed checks (digest {digest[:12]})")
            return sum(int(r["steps"]) for r in rows), wall
        finally:
            shutil.rmtree(out, ignore_errors=True)

    @staticmethod
    def _digest(out: str) -> str:
        """SHA-256 over metrics.csv and every trajectory file, in name order."""
        h = hashlib.sha256()
        traj = os.path.join(out, "trajectories")
        paths = [os.path.join(out, "metrics.csv")] + [os.path.join(traj, n) for n in sorted(os.listdir(traj))]
        for p in paths:
            h.update(os.path.relpath(p, out).encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()

    def record(self) -> dict:
        """Determinism record: digest of the first pass's outputs."""
        return {"metrics_and_trajectories_sha256": self.digest}


class FilterStream:
    """Seeded control-step states through the filter, one at a time and in batches.

    A state is a robot position on a gate's approach corridor, an estimated
    gate pose (true pose plus a uniform error within +/-dv, yaw drawn the way
    ``generate_track`` draws it) and the ``nominal_policy`` action for it.
    Blocks of 120 states alternate between the nominal and inflated map, as
    the two filtered modes do. 120 is the grid's trial count, the lockstep
    width a batched simulator would use.
    """

    REFERENCE = "vector"
    BLOCK = 120
    BLOCKS = 40
    SAMPLE_EVERY = 1200  # states between reference timings
    LATERAL_SIGMA = 0.15  # [m] spread of the flown line around the ideal one

    def __init__(self, gs, cfg, maps, seed: int, ops: Ops) -> None:
        self.gs = gs
        self.ops = ops
        self.params = cfg.safety_params()
        self.op_latencies: list[np.ndarray] = []
        self.samplers: list[hostspeed.PassSampler] = []
        self.disagree = {"projected->unchanged": 0, "unchanged->projected": 0, "other": 0}
        self.compared_rows = 0
        self.mix: dict[str, int] | None = None
        self._ref = None
        self.maps = maps
        self._make_stream(cfg, maps, seed)
        self.batches = None

    def _make_stream(self, cfg, maps, seed: int) -> None:
        geometry, sim = self.gs.geometry, self.gs.sim
        rng = np.random.default_rng([seed, 7])
        spacing = cfg.track.spacing
        levels = np.array(cfg.run.levels, dtype=float)
        self.fields, self.x, self.est, self.u, self.q_est = [], [], [], [], []
        for block in range(self.BLOCKS):
            fld = maps[block % 2]
            for _ in range(self.BLOCK):
                level = levels[rng.integers(levels.size)]
                dy, dz = rng.uniform(-level, level, size=2)
                yaw = math.atan2(dy, spacing)
                centre = np.array([rng.uniform(0.0, 150.0), rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)])
                true = geometry.Pose(position=centre, yaw=yaw)
                est = geometry.Pose(position=centre + rng.uniform(-1.0, 1.0, size=3) * self.params.dv, yaw=yaw)
                # From the previous gate (local x = -spacing, offset -dy, -dz)
                # to just past this one.
                xg = rng.uniform(-spacing, 1.0)
                s = max(-xg / spacing, 0.0)
                lateral = -s * np.array([dy, dz]) + rng.normal(0.0, self.LATERAL_SIGMA, size=2)
                x = geometry.gate_to_world(np.array([xg, lateral[0], lateral[1]]), true)
                u = sim.nominal_policy(sim.SimState(x=x), est, cfg.policy.gain, self.params.alpha, cfg.policy.pass_offset)
                self.fields.append(fld)
                self.x.append(x)
                self.est.append(est)
                self.u.append(u)
                self.q_est.append(geometry.world_to_gate(x, est))

    def _make_batches(self, results) -> None:
        """Batches of 120 rows that the scalar path filtered, one map each.

        A and B are the scalar path's constraints, so the timed batch region
        runs only ``sample_batch`` and ``filter_action_batch``.
        """
        self.batches = []
        for fld in self.maps:
            rows = [i for i, r in enumerate(results) if r[1] is not None and self.fields[i] is fld]
            for k in range(0, len(rows) - self.BLOCK + 1, self.BLOCK):
                idx = np.array(rows[k:k + self.BLOCK])
                self.batches.append(
                    (
                        fld,
                        idx,
                        np.array([self.q_est[i] for i in idx]),
                        np.array([self.u[i] for i in idx]),
                        np.array([results[i][1].a for i in idx]),
                        np.array([results[i][1].b for i in idx]),
                    )
                )

    def timed(self, time_ops: bool):
        barrier, qp, field = self.gs.barrier, self.gs.qp, self.gs.field
        eval_world, assemble, filter_action = barrier.eval_barrier_world, barrier.assemble_constraint, qp.filter_action
        sample_batch, filter_batch = field.sample_batch, qp.filter_action_batch
        off_map, in_obstacle = field.OutOfBoundsError, field.InsideObstacleError
        params = self.params
        n = len(self.x)
        lat = np.empty(n)
        results = [None] * n
        sampler = hostspeed.PassSampler(self.REFERENCE) if time_ops else None
        for i in range(n):
            if sampler is not None and i and i % self.SAMPLE_EVERY == 0:
                sampler.sample()
            fld, x, est, u = self.fields[i], self.x[i], self.est[i], self.u[i]
            t0 = clock()
            try:
                ev = eval_world(fld, x, est, params)
                con = assemble(ev, params)
                dec = filter_action(u, con, params)
                results[i] = (dec.status.value, con, dec, ev.d)
            except off_map:
                results[i] = ("off_map", None, None, None)
            except in_obstacle:
                results[i] = ("in_obstacle", None, None, None)
            t1 = clock()
            lat[i] = t1 - t0
            if sampler is not None:
                sampler.op(t0, t1)
        scalar_s = float(lat.sum())
        if self.batches is None:
            self._make_batches(results)
        batch_s = 0.0
        batch_out = []
        for fld, _, q, u, a, b in self.batches:
            t0 = clock()
            sampled = sample_batch(fld, q)
            filtered = filter_batch(u, a, b, params.alpha)
            batch_s += clock() - t0
            batch_out.append((sampled, filtered))
        if sampler is not None:
            sampler.close()
            self.op_latencies.append(lat)
            self.samplers.append(sampler)
        return scalar_s + batch_s, (results, batch_out, batch_s)

    def check(self, state, wall: float) -> tuple[int, float]:
        results, batch_out, batch_s = state
        rows = sum(len(b[1]) for b in self.batches)
        attempted = len(results) + rows
        scalar_u = np.array([r[2].u_star if r[2] is not None else np.full(3, np.nan) for r in results])
        labels = [r[0] for r in results]
        batch_u = np.concatenate([f[0] for _, f in batch_out])
        batch_codes = np.concatenate([f[1] for _, f in batch_out])
        if self._ref is None:
            self._ref = (labels, scalar_u, batch_u, batch_codes)
            failed = self._full_check(results, batch_out)
            self.mix = {k: labels.count(k) for k in (
                "unchanged", "projected", "infeasible_fallback", "degenerate_safe", "off_map", "in_obstacle")}
        else:
            ref_labels, ref_su, ref_bu, ref_bc = self._ref
            same_u = np.all((scalar_u == ref_su) | (np.isnan(scalar_u) & np.isnan(ref_su)), axis=1)
            scalar_bad = ~same_u | (np.array(labels) != np.array(ref_labels))
            batch_bad = ~np.all(batch_u == ref_bu, axis=1) | (batch_codes != ref_bc)
            failed = int(scalar_bad.sum() + batch_bad.sum())
        self.ops.add(attempted, failed, f"filter_stream: {failed} filter calls failed checks")
        return rows, batch_s

    def _full_check(self, results, batch_out) -> int:
        """Admissibility and KKT for every feasible decision of both paths."""
        barrier, qp = self.gs.barrier, self.gs.qp
        params = self.params
        fallback = qp.FilterStatus.INFEASIBLE_FALLBACK
        failed = 0
        for i, (_, con, dec, _) in enumerate(results):
            if dec is not None and dec.status is not fallback:
                if not (barrier.admissible(dec.u_star, con, params) and qp.verify_kkt(self.u[i], con, params, dec)):
                    failed += 1
        for (_, idx, _, u, _, _), ((vals, _, sample_codes), (u_b, codes, margins, devs)) in zip(self.batches, batch_out):
            for j, i in enumerate(idx):
                label, con, dec, d = results[i]
                status = qp.FILTER_STATUS_ORDER[int(codes[j])]
                self.compared_rows += 1
                if status is not dec.status:
                    key = f"{dec.status.value}->{status.value}"
                    self.disagree[key if key in self.disagree else "other"] += 1
                ok = sample_codes[j] == 0 and abs(vals[j] - d) <= 1e-9
                ok = ok and float(np.max(np.abs(u_b[j] - dec.u_star))) <= 1e-9
                if ok and status is not fallback:
                    bdec = qp.FilterDecision(u_star=u_b[j], status=status, margin=float(margins[j]), deviation=float(devs[j]))
                    ok = barrier.admissible(u_b[j], con, params) and qp.verify_kkt(u[j], con, params, bdec)
                failed += not ok
        return failed

    def record(self) -> dict:
        """Determinism record: status counts and a digest of every decision."""
        labels, su, bu, bc = self._ref
        h = hashlib.sha256()
        for arr in (np.array(labels), su, bu, bc):
            h.update(arr.tobytes())
        return {"status_counts": self.mix, "decisions_sha256": h.hexdigest(),
                "status_disagree": self.disagree, "status_compared": self.compared_rows}


class Maps:
    """The offline precompute: both maps, reloaded, then action-field exports.

    ``build-map`` for the nominal map and the one inflated by 0.25 m per axis,
    ``load_field`` on both, and ``field`` exports of plane slices of about
    10^4 nodes, each on both maps. The seed picks slice offsets and speeds.
    """

    REFERENCE = "array"
    PLANES = ("yz", "xy", "yz")
    INFLATE = "0.25,0.25,0.25"

    def __init__(self, gs, cfg, cfg_path: str, work: str, seed: int, ops: Ops) -> None:
        self.gs = gs
        self.cfg = cfg
        self.cfg_path = cfg_path
        self.work = work
        self.ops = ops
        rng = np.random.default_rng([seed, 11])
        self.slices = [
            (plane, round(float(rng.uniform(-1.0, 1.0)), 3), round(float(rng.uniform(0.5, cfg.safety.alpha)), 3))
            for plane in self.PLANES
        ]
        self.op_latencies: list[list[float]] = []
        self.samplers: list[hostspeed.PassSampler] = []
        self.digest: dict[str, str] | None = None
        self.bytes_written = 0
        self.nodes = 0
        self._passes = 0

    def timed(self, time_ops: bool):
        self._passes += 1
        out = os.path.join(self.work, f"maps-{self._passes}")
        os.makedirs(out)
        maps = {"nominal": os.path.join(out, "nominal.esdf"), "inflated": os.path.join(out, "inflated.esdf")}
        rcs = {}
        latencies = []
        sampler = hostspeed.PassSampler(self.REFERENCE)
        if time_ops:
            self.op_latencies.append(latencies)
            self.samplers.append(sampler)

        def op(name, argv):
            t0 = clock()
            rcs[name] = _cli(self.gs, argv)
            t1 = clock()
            latencies.append(t1 - t0)
            if time_ops:
                sampler.op(t0, t1)
                sampler.sample()

        t0 = clock()
        op("nominal.esdf", ["build-map", "--config", self.cfg_path, "--out", maps["nominal"]])
        op("inflated.esdf", ["build-map", "--config", self.cfg_path, "--out", maps["inflated"], "--inflate", self.INFLATE])
        loaded = {}
        for tag, path in maps.items():
            try:
                loaded[tag] = self.gs.field.load_field(path)
            except (OSError, self.gs.field.MapFormatError):
                loaded[tag] = None
        for k, (plane, offset, speed) in enumerate(self.slices):
            for tag, path in maps.items():
                op(f"{tag}-{k}.csv", ["field", "--map", path, "--plane", plane, "--offset", offset,
                                      "--speed", speed, "--samples", 72, "--config", self.cfg_path,
                                      "--out", os.path.join(out, f"{tag}-{k}.csv")])
        wall = clock() - t0 - sampler.paused
        sampler.close()
        return wall, (out, rcs, loaded)

    def check(self, state, wall: float) -> tuple[int, float]:
        out, rcs, loaded = state
        try:
            bad = {name for name, rc in rcs.items() if rc != 0}
            digest = {name: _sha256(os.path.join(out, name)) for name in rcs if name not in bad}
            # Fingerprints, not the maps, outlive the pass, so the reference
            # build below adds no map-sized arrays to peak_rss_mb.
            loaded = {tag: _map_fingerprint(f) for tag, f in loaded.items()}
            state[2].clear()
            if self.digest is None:
                self.digest = digest
                self.bytes_written = _tree_bytes(out)
                bad |= self._full_check(out, loaded, bad)
            else:
                bad |= {name for name in rcs if digest.get(name) != self.digest.get(name)}
            self.ops.add(len(rcs), len(bad), f"maps: failed {sorted(bad)}")
            return self.nodes, wall
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _full_check(self, out, loaded, bad) -> set:
        gs, cfg = self.gs, self.cfg
        failed = set()
        # Reference maps built in-process through the public API.
        spec = cfg.grid_spec()
        params = cfg.safety_params()
        eps = gs.field.quantize_inflation(np.array([float(v) for v in self.INFLATE.split(",")]), spec.resolution)
        nominal = gs.field.build_field(cfg.gate(), spec, safety_radius=params.R, inflation=eps)
        refs = {"nominal": nominal, "inflated": gs.field.inflate_field(nominal, eps)}
        for tag, ref in refs.items():
            if loaded[tag] is None or loaded[tag] != _map_fingerprint(ref):
                failed.add(f"{tag}.esdf")
        self.nodes = 2 * int(np.prod(spec.dims))
        for k in range(len(self.slices)):
            unsafe = {}
            for tag in refs:
                name = f"{tag}-{k}.csv"
                if name in bad:
                    continue
                pos, dirs, flags = self._read_export(os.path.join(out, name))
                unsafe[tag] = flags
                self.nodes += len(flags)
                # The oracle of acceptance test 9: every safe arrow satisfies
                # its constraint recomputed from the map it was exported from
                # (the reference, which the file matched bit for bit above).
                safe = ~flags
                d, grad, code = gs.field.sample_batch(refs[tag], pos[safe])
                a = 2.0 * d[:, None] * grad
                b = -params.gamma * (d * d - params.R ** 2) + 2.0 * d * (np.abs(grad) @ params.dw)
                margin = np.einsum("ij,ij->i", a, dirs[safe]) - b
                if not (np.all(code == 0) and (margin.size == 0 or float(margin.min()) >= -1e-9)):
                    failed.add(name)
            if len(unsafe) == 2 and not np.all(unsafe["inflated"] >= unsafe["nominal"]):
                failed.add(f"inflated-{k}.csv")
        return failed

    @staticmethod
    def _read_export(path: str):
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return data[:, 0:3], data[:, 3:6], data[:, 6] != 0.0

    def record(self) -> dict:
        """Determinism record: digest of every output file of the first pass."""
        return {"outputs_sha256": self.digest}
