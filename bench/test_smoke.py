"""Smoke test of the benchmark itself, on tiny meshes.

Run from the root of the checkout:

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7"]
    cmd += ["--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def results_file(workload, trace):
    path = ROOT / ".bench_out" / f"{workload}-seed7-trace{trace}" / "results.json"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_printed_with_its_unit(trace):
    result = result_line(bench("warm-p2", trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert math.isfinite(printed["value"])


def test_a_failing_op_lowers_ok_frac_instead_of_crashing():
    # In smoke mode the descent is capped at a few hundred iterations, so the
    # p = 1.2 solves exit 2, as they do at full size after 10000.
    result = result_line(bench("nonlinear-p", 0))
    assert result["failed"] > 0
    assert result["correct"] is True
    ok = result["metrics"]["ok_frac"]["value"]
    assert ok == pytest.approx(1.0 - result["failed"] / result["attempted"])
    exit_codes = {r["exit_code"] for p in results_file("nonlinear-p", 0)["passes"] for r in p["ops"]}
    assert exit_codes == {0, 2}


def test_traced_self_times_account_for_each_op():
    result = result_line(bench("cold-cli", 1))
    assert result["metrics"]["eigensolver.factorizations"]["value"] > 0
    assert result["metrics"]["mesh.generate.calls"]["value"] == 10
    records = results_file("cold-cli", 1)
    assert records["untraced_targets"] == []
    traced = [r for p in records["passes"] if p["traced"] for r in p["ops"]]
    assert traced
    # The spans cover everything but the harness's own call around main.  A
    # smoke op takes milliseconds, so one scheduling hiccup outside the root
    # span can skew a single op; the typical op must still be within 3 %.
    shares = [r["accounted_s"] / r["wall_s"] for r in traced]
    assert max(shares) <= 1.0
    assert statistics.median(shares) >= 0.97
    assert result["metrics"]["trace.accounted_frac"]["value"] >= 0.9


def test_a_directory_without_the_program_gives_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("cold-cli", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
