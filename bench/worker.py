"""One pass of a benchmark workload, run in a fresh process by ``run.py``.

Set-up is everything from interpreter start of this module to the first
op: importing ``steklov`` (and with it numpy and scipy), generating the
pass's configs, and one warm-up ``solve`` on a disk with h = 0.1.  The pass
then runs each op as one in-process ``steklov.cli.main([...])`` call with
``--jobs 1`` and a fresh output directory, times it, and checks its outputs
(untimed).  The result is printed as one JSON line on standard output.

Usage: python3 bench/worker.py --workload W --seed N --index K --trace 0|1
       --out DIR [--setup-only] [--smoke]
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _quiet_call(fn, *args):
    """``fn(*args)`` with the CLI's printing captured; returns (value, text)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        value = fn(*args)
    return value, sink.getvalue()


def _write_config(directory, cfg):
    directory.mkdir(parents=True)
    path = directory / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def _tree_bytes(path):
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run_pass(cli, checks, ops, out_root, tracer):
    """Run, time and check every op of one pass; return the per-op records."""
    # The checks need the mesh each op built.  Catching it as the CLI builds
    # it costs one extra call per op, where rebuilding it would cost as much
    # as the op's own mesh generation.
    built = []
    build_mesh = cli.build_mesh

    def capture_mesh(cfg):
        mesh = build_mesh(cfg)
        built.append(mesh)
        return mesh

    cli.build_mesh = capture_mesh
    records = []
    try:
        for i, (command, cfg) in enumerate(ops):
            op_dir = out_root / f"op{i:02d}"
            cfg_path = _write_config(op_dir, cfg)
            argv = [command, "--config", str(cfg_path), "--out", str(op_dir / "out")]
            argv += ["--jobs", "1"]
            error = None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    code, text = _quiet_call(cli.main, argv)
                else:
                    code, text = _quiet_call(tracer.run_op, i, cli.main, argv)
            except Exception:  # an op that crashes is counted, not fatal
                code, text = None, ""
                error = traceback.format_exc(limit=3)
            wall = time.perf_counter() - t0

            rec, failures = checks.check_op(
                command, cfg, op_dir / "out", built[0] if built else None, code
            )
            canonical = json.dumps(cfg, sort_keys=True).encode()
            rec.update(
                index=i,
                command=command,
                config_digest=hashlib.sha256(canonical).hexdigest()[:16],
                wall_s=wall,
                output_bytes=_tree_bytes(op_dir / "out"),
                failures=failures,
            )
            if failures:
                rec["output_tail"] = (error or text)[-400:]
            records.append(rec)
            built.clear()
            shutil.rmtree(op_dir)
    finally:
        cli.build_mesh = build_mesh
    return records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path.cwd() / "src"))
    import numpy as np
    import scipy

    import checks
    import steklov.cli as cli
    import workloads

    ops = workloads.make_ops(args.workload, args.seed, args.index, smoke=args.smoke)
    out_root = args.out
    warm_cfg = _write_config(out_root / "warmup", workloads.warmup_config())
    code, text = _quiet_call(
        cli.main, ["solve", "--config", str(warm_cfg), "--out", str(out_root / "warmup")]
    )
    if code != 0:
        raise SystemExit(f"warm-up solve failed with exit code {code}:\n{text}")
    shutil.rmtree(out_root / "warmup")
    setup_s = time.perf_counter() - T_START

    result = {
        "setup_s": setup_s,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            records = run_pass(cli, checks, ops, out_root, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        result["ops"] = records
        result["pass_s"] = sum(r["wall_s"] for r in records)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            # Self time of every span recorded inside each op; these should
            # add up to the op's wall time, less only the harness's own call.
            _, op, self_s = tracer.self_times()
            inside = op >= 0
            per_op = np.bincount(op[inside], weights=self_s[inside], minlength=len(records))
            for rec, accounted in zip(records, per_op):
                rec["accounted_s"] = float(accounted)
            result["layers"] = tracer.layer_metrics()
            result["layers"]["cli.output_bytes"] = sum(r["output_bytes"] for r in records)
            result["accounted_s"] = float(per_op.sum())
            result["untraced_targets"] = tracer.missing
    print(json.dumps(result))


if __name__ == "__main__":
    main()
