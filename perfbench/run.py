"""gatesafe benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload {grid,filter_stream,maps} --seed N \
        --seconds S --trace {0,1} [--config overrides.json]

Run from a checkout of the repository; gatesafe is imported from its
``src/`` directory, never from an installed copy. The last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones. Earlier stdout lines carry the environment
record, timing sample counts, the per-workload metric names, status mixes and
output digests. See perfbench/README.md for the workloads and metrics.

``--config`` takes a JSON object of config sections merged under the
workload's own settings; the smoke test uses it to shrink the maps and
tracks. Without it every workload runs on the default config.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

WORKLOADS = ("grid", "filter_stream", "maps")
THREAD_CAP_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 3  # this process plus two fresh ones
MIN_PASSES = 2  # determinism needs a repeat of the first pass
PASS_TRIM = 0.1  # share of passes dropped at each end before averaging
# One track per level: 12 trials, a grid pass of 6-10 s on a 2-CPU host.
GRID_TRACKS = 1

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--config", help="JSON object of config sections to merge (smoke test)")
    return p.parse_args(argv)


def _percentile(values, pct: float) -> float:
    data = sorted(values)
    pos = (len(data) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return float(data[lo] + (data[hi] - data[lo]) * (pos - lo))


def trimmed_mean(values, trim: float = PASS_TRIM) -> float:
    """Mean of the values left after dropping the ``trim`` share at each end."""
    data = sorted(values)
    k = int(len(data) * trim)
    kept = data[k:len(data) - k]
    return float(sum(kept) / len(kept))


def timing(values) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, n."""
    n = len(values)
    out = {"n": n, "p50": _percentile(values, 50.0)}
    if n >= 11:
        pct = min(99.9, int(1000.0 * (n - 10) / n) / 10.0)
        out[f"p{pct:g}"] = _percentile(values, pct)
    return out


def _git_revision() -> str:
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {v: os.environ[v] for v in THREAD_CAP_VARS},
        "git_revision": _git_revision(),
        "unpinned_shared_host": True,
    }


def _setup_in_fresh_process(workload: str, cfg_path: str) -> float:
    probe = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, cfg_path, SRC],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if probe.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {probe.stderr.strip()}")
    return float(probe.stdout.strip().splitlines()[-1])


def _merge(base: dict, extra: dict) -> dict:
    out = {k: dict(v) if isinstance(v, dict) else v for k, v in base.items()}
    for section, body in extra.items():
        out.setdefault(section, {}).update(body)
    return out


def _measure(gs, wl, seconds: float, tracer=None):
    """Passes until the next one would overrun ``seconds``.

    Returns (walls, work rates, traced flags, reference seconds). With a
    tracer, passes alternate untraced and traced, so the tracing overhead
    compares passes made under the same host load. The reference kernel runs
    before the first pass and after every pass's check, so pass ``i`` lies
    between reference timings ``i`` and ``i + 1``.
    """
    import hostspeed  # imports numpy, so only once the thread caps are set

    walls, rates, traced = [], [], []
    hostspeed.reference_seconds(wl.REFERENCE)  # warm-up: the first timing reads high
    refs = [hostspeed.reference_seconds(wl.REFERENCE)]
    start = time.perf_counter()
    while True:
        on = tracer is not None and len(walls) % 2 == 0
        if on:
            tracer.install(gs)
        try:
            wall, state = wl.timed(time_ops=tracer is None)
        finally:
            if on:
                tracer.uninstall()
        units, busy = wl.check(state, wall)
        del state  # free this pass's outputs before the next pass runs
        refs.append(hostspeed.reference_seconds(wl.REFERENCE))
        walls.append(wall)
        rates.append(units / busy)
        traced.append(on)
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed * (len(walls) + 1) / len(walls) > seconds:
            return walls, rates, traced, refs


def _pass_means(walls, rates, op_latencies, host) -> dict:
    """Trimmed means over passes of each pass's timings divided by ``host``.

    ``host`` holds, per pass, the reference kernel's mean seconds over the
    pass and its seconds at each operation, or ones for timings in seconds.
    Op percentiles are taken per pass first. Work per time is units over the
    trimmed mean of time per unit: the run's throughput. A mean, not a
    median, because the host's speed drifts in steps; a median over passes
    jumps by a whole step when a run spends about half its time at each
    speed, a mean moves in proportion. Trimming keeps a single stalled pass
    out of it.
    """

    def op(pct):
        return trimmed_mean([_percentile([t / h for t, h in zip(lat, h_op)], pct)
                             for lat, (_, h_op) in zip(op_latencies, host)])

    return {
        "wall": trimmed_mean([w / h for w, (h, _) in zip(walls, host)]),
        "work_per": 1.0 / trimmed_mean([1.0 / (r * h) for r, (h, _) in zip(rates, host)]),
        "op_p50": op(50.0),
        "op_p99": op(99.0),
    }


def _end_to_end(setup_samples, walls, rates, op_latencies, host) -> tuple[dict, dict]:
    """The bounded metrics, and the same timings in seconds for the info line.

    Timings of passes are in multiples of the reference kernel's time (see
    hostspeed.py); ``setup_s`` is the median of its samples in seconds.
    """
    ref = _pass_means(walls, rates, op_latencies, host)
    raw = _pass_means(walls, rates, op_latencies, [(1.0, [1.0] * len(lat)) for lat in op_latencies])
    metrics = {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "wall_ref": {"value": ref["wall"], "unit": "ref"},
        "work_per_ref": {"value": ref["work_per"], "unit": "1/ref"},
        "op_p50_ref": {"value": ref["op_p50"], "unit": "ref"},
        "op_p99_ref": {"value": ref["op_p99"], "unit": "ref"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }
    seconds = {"wall_s": raw["wall"], "work_per_s": raw["work_per"],
               "op_ms_p50": 1e3 * raw["op_p50"], "op_ms_p99": 1e3 * raw["op_p99"]}
    return metrics, seconds


def _named_metrics(workload: str, e2e: dict, seconds: dict, ops) -> dict:
    """The end-to-end timings in seconds under their per-workload names."""
    v = dict(seconds, setup_s=e2e["setup_s"]["value"], peak_rss_mb=e2e["peak_rss_mb"]["value"])
    named = {
        "grid": {"run_wall_s": v["wall_s"], "trial_steps_per_s": v["work_per_s"]},
        "filter_stream": {"filter_step_us_p50": 1e3 * v["op_ms_p50"], "filter_step_us_p99": 1e3 * v["op_ms_p99"],
                          "filter_batch_rows_per_s": v["work_per_s"]},
        "maps": {"maps_wall_s": v["wall_s"]},
    }[workload]
    named.update(setup_s=v["setup_s"], peak_rss_mb=v["peak_rss_mb"], ops_failed_share=ops.failed / ops.attempted)
    return named


def _run(args) -> int:
    for var in THREAD_CAP_VARS:
        os.environ[var] = "1"  # one single-threaded process; set before numpy loads
    if not os.path.isfile(os.path.join(SRC, "gatesafe", "__init__.py")):
        print(f"error: no gatesafe package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import setup_probe

    overrides = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            overrides = json.load(fh)
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        cfg_doc = _merge(overrides, {"run": {"seed_base": 1000 + 10_000 * (args.seed % 100_000), "tracks": GRID_TRACKS}})
        cfg_path = os.path.join(work, "config.yaml")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(cfg_doc, fh)  # JSON is YAML
        setup_s, gs, cfg, maps = setup_probe.setup(args.workload, cfg_path)
        if not os.path.realpath(gs.__file__).startswith(os.path.realpath(SRC) + os.sep):
            print(f"error: gatesafe imported from {gs.__file__}, not {SRC}", file=sys.stderr)
            return 2
        import hostspeed
        import tracing
        import workloads

        print(json.dumps({"env": _environment()}), flush=True)
        ops = workloads.Ops()
        if args.workload == "grid":
            wl = workloads.Grid(gs, cfg, cfg_path, work, ops)
        elif args.workload == "filter_stream":
            wl = workloads.FilterStream(gs, cfg, maps, args.seed, ops)
        else:
            wl = workloads.Maps(gs, cfg, cfg_path, work, args.seed, ops)

        info = {"workload": args.workload, "seed": args.seed}
        if args.trace:
            counters = tracing.LayerCounters()
            tracer = counters.tracer()
            walls, _, traced, _ = _measure(gs, wl, args.seconds, tracer)
            traced_walls = [w for w, on in zip(walls, traced) if on]
            untraced_walls = [w for w, on in zip(walls, traced) if not on]
            metrics = tracing.per_layer(tracer, counters, wl, traced_walls, untraced_walls)
            info["passes"] = {"traced_wall_s": traced_walls, "untraced_wall_s": untraced_walls}
        else:
            setup_samples = [setup_s] + [_setup_in_fresh_process(args.workload, cfg_path)
                                         for _ in range(SETUP_SAMPLES - 1)]
            walls, rates, _, refs = _measure(gs, wl, args.seconds)
            host = [sampler.references(refs[i], refs[i + 1]) for i, sampler in enumerate(wl.samplers)]
            metrics, seconds = _end_to_end(setup_samples, walls, rates, wl.op_latencies, host)
            info["seconds"] = seconds
            info["named_metrics"] = _named_metrics(args.workload, metrics, seconds, ops)
            info["timings"] = {"setup_s": timing(setup_samples), "wall_s": timing(walls),
                               "work_per_s": timing(rates), "reference_s": timing([h for h, _ in host]),
                               "op_s": timing([s for lat in wl.op_latencies for s in lat])}
            info["passes"] = {"wall_s": walls, "work_per_s": rates, "reference_s": [h for h, _ in host],
                              "op_s_p50": [_percentile(lat, 50.0) for lat in wl.op_latencies],
                              "op_s_p99": [_percentile(lat, 99.0) for lat in wl.op_latencies]}
        info["record"] = wl.record()
        info["failures"] = ops.notes
        print(json.dumps(info), flush=True)
        print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed,
                          "metrics": metrics}), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        return _run(args)
    except Exception:  # report and exit without a result line
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
