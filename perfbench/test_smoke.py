"""Smoke test of the benchmark on a tiny config.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs for a second on coarse maps and a two-gate, one-lap track,
untraced and traced. The test checks that every metric BENCHMARK.json names
is emitted with its unit, that the correctness checks counted operations and
found no failure, and that a directory without the package yields no result.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)

TINY = {
    "map": {"resolution": 0.25, "x": [-3.0, 3.0], "y": [-3.0, 3.0], "z": [-2.0, 2.0]},
    "sim": {"laps": 1, "max_steps": 2000},
    "track": {"num_gates": 2},
}


def _run(cwd, workload, trace, config=None):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace)]
    if config is not None:
        argv += ["--config", str(config)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_emitted_and_checks_pass(tmp_path, workload, trace):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY))
    proc = _run(ROOT, workload, trace, config)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    info = json.loads(lines[-2])
    assert info["workload"] == workload and all(info["record"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert info["named_metrics"]["ops_failed_share"] == 0.0


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(tmp_path, "grid", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
