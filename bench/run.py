"""End-to-end and per-layer benchmark of the ``steklov`` command line.

Run from the root of a source checkout:

    python3 bench/run.py --workload cold-cli --seed 1 --seconds 30 --trace 0

A run repeats passes over the workload's op list until ``--seconds`` is
used up.  Every pass runs in a fresh worker process (``worker.py``), so
set-up time and peak memory are measured per process and no in-process cache
outlives a pass.  Pass ``k`` gets configs made from ``(workload, seed, k)``.

``--trace 0`` reports the end-to-end metrics declared in ``BENCHMARK.json``:
the median pass time ``run_s``, the median set-up time ``setup_s`` (at least
five processes), ``ok_frac``, the median ``peak_rss_mb`` and the median
``resid_digits``.  ``--trace 1`` runs each pass twice, untraced and then
traced with the same configs, and reports the per-layer metrics averaged
over the traced passes, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  All op records,
the environment and the per-pass numbers go to
``.bench_out/<workload>-seed<seed>-trace<t>/results.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

#: Set-up is reported as the median of at least this many processes.
MIN_SETUPS = 5
#: A run must end within 180 s; no new worker starts that would pass this.
HARD_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny meshes, for the benchmark's own test"
    )
    return parser.parse_args(argv)


def _declared(root, trace):
    """``{name: unit}`` of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Runner:
    def __init__(self, args, root):
        self.args = args
        self.root = root
        self.dir = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.blas_threads = len(os.sched_getaffinity(0))
        cap = str(self.blas_threads)
        self.env = dict(
            os.environ, OMP_NUM_THREADS=cap, OPENBLAS_NUM_THREADS=cap, MKL_NUM_THREADS=cap
        )
        self.t0 = time.perf_counter()
        self.n_workers = 0

    def elapsed(self):
        return time.perf_counter() - self.t0

    def worker(self, index, trace, setup_only=False):
        out = self.dir / f"w{self.n_workers:02d}"
        self.n_workers += 1
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", self.args.workload]
        cmd += ["--seed", str(self.args.seed), "--index", str(index)]
        cmd += ["--trace", str(trace), "--out", str(out)]
        cmd += ["--setup-only"] * setup_only + ["--smoke"] * self.args.smoke
        timeout = HARD_LIMIT_S - self.elapsed()
        if timeout <= 0:
            raise BenchError("out of time before a worker could start")
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {cmd} exceeded {timeout:.0f} s") from exc
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(f"worker {cmd} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def passes(self):
        """Untraced (and, with --trace 1, traced) passes until time is up."""
        untraced, traced = [], []
        k = 0
        while True:
            untraced.append(self.worker(k, 0))
            if self.args.trace:
                traced.append(self.worker(k, 1))
            k += 1
            per_pass = self.elapsed() / k
            # Stop before a pass that would overrun --seconds, or leave no
            # room under the hard limit for the set-up probes.
            budget = min(self.args.seconds, HARD_LIMIT_S - per_pass)
            if self.elapsed() + per_pass > budget:
                return untraced, traced


def _resid_digits(ops):
    """-log10 of a pass's worst eigen-residual; 0 if no op wrote an eigenpair."""
    residuals = [r["residual"] for r in ops if r["residual"] is not None]
    if not residuals:
        return 0.0
    worst = max(residuals)
    return 16.0 if worst <= 1e-16 else -math.log10(worst)


def end_to_end(runner, untraced):
    setups = [w["setup_s"] for w in untraced]
    while len(setups) < MIN_SETUPS:
        setups.append(runner.worker(len(setups), 0, setup_only=True)["setup_s"])
    ops = [r for w in untraced for r in w["ops"]]
    failed = sum(bool(r["failures"]) for r in ops)
    return setups, {
        "run_s": statistics.median(w["pass_s"] for w in untraced),
        "setup_s": statistics.median(setups),
        "ok_frac": 1.0 - failed / len(ops),
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in untraced),
        "resid_digits": statistics.median(_resid_digits(w["ops"]) for w in untraced),
    }


def per_layer(untraced, traced):
    metrics = {
        name: statistics.fmean(w["layers"][name] for w in traced)
        for name in traced[0]["layers"]
    }
    traced_s = sum(w["pass_s"] for w in traced)
    metrics["trace.overhead_frac"] = traced_s / sum(w["pass_s"] for w in untraced) - 1.0
    metrics["trace.accounted_frac"] = sum(w["accounted_s"] for w in traced) / traced_s
    return metrics


def main(argv=None):
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "steklov" / "cli.py").is_file():
        print(f"no steklov sources under {root / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    try:
        declared = _declared(root, args.trace)
        runner = Runner(args, root)
        untraced, traced = runner.passes()
        setups = None
        if args.trace:
            values = per_layer(untraced, traced)
        else:
            setups, values = end_to_end(runner, untraced)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    missing = sorted(set(declared) - set(values))
    if missing:
        print(f"benchmark computed no value for {missing}", file=sys.stderr)
        return 1
    workers = untraced + traced
    ops = [r for w in workers for r in w["ops"]]
    wrong = [r for r in ops if r["exit_code"] == 0 and r["failures"]]
    failed = sum(bool(r["failures"]) for r in ops)

    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": {
            "nproc": os.cpu_count(),
            "blas_thread_cap": runner.blas_threads,
            **workers[0]["versions"],
        },
        "metrics": values,
        "setup_samples_s": setups,
        "passes": [
            {k: w[k] for k in ("setup_s", "pass_s", "peak_rss_mb", "ops")}
            | {"traced": bool(w.get("layers"))}
            for w in workers
        ],
        "untraced_targets": traced[0]["untraced_targets"] if traced else [],
        "wall_s": runner.elapsed(),
    }
    path = runner.dir / "results.json"
    path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"results: {path}", file=sys.stderr)

    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": len(ops),
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
