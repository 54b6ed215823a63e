"""Run benchmark ops on two source trees and print where their results differ.

Each op of passes 0 .. K-1 of a benchmark workload (``bench/workloads.py``
of this repository, which builds the configs from the seed alone) runs as
one ``steklov.cli.main`` call with ``--jobs 1``, once on each tree.  Every
pass of every tree runs in its own Python process whose ``steklov`` is
imported from ``TREE/src``.  For each op the script prints both exit codes,
the eigenvalue, iteration count and residual the op reports, and the
output files that differ apart from their ``timestamp`` key.  It exits 1
when some op's exit codes differ, 0 otherwise.

Usage:
    python3 scripts/compare_ops.py --old ../base --new . \\
        --workload cold-cli --seed 1 --passes 1

The eigenvalue, iterations and residual come from ``eigenpair.json``
(``solve``), ``reference_eigenpair.json`` (``sigma-sweep``), the last entry
of ``trace.json`` (``optimize``; its iterations are outer iterations) or
the smallest of ``symmetry_report.json``'s eigenvalues; ``-`` marks a
value the op does not report.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS, make_ops  # noqa: E402

# Runs the argv lists of a JSON file through steklov.cli.main in this
# process; prints where steklov came from and the exit codes (None for an
# op that raised, shown as "crash", its traceback on standard error).
_RUNNER = """
import contextlib, io, json, sys, traceback
import steklov
from steklov.cli import main
codes = []
for argv in json.load(open(sys.argv[1])):
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            codes.append(main(argv))
    except Exception:
        traceback.print_exc()
        codes.append(None)
print(json.dumps({"module": steklov.__file__, "codes": codes}))
"""

# Output file -> (lambda, iterations, residual) read off its JSON content.
_SUMMARIES = {
    "eigenpair.json": lambda d: (d["lambda"], d["iterations"], d["residual"]),
    "reference_eigenpair.json": lambda d: (d["lambda"], d["iterations"], d["residual"]),
    "trace.json": lambda d: (d[-1]["lambda"], d[-1]["iter"], None),
    "symmetry_report.json": lambda d: (min(d["lambdas"]), None, None),
}


def run_tree(tree, argvs, work):
    """Exit codes of the CLI calls ``argvs``, run in one process on ``tree``."""
    src = (tree / "src").resolve()
    manifest = work / "argv.json"
    manifest.write_text(json.dumps(argvs), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", _RUNNER, str(manifest)],
        capture_output=True,
        text=True,
        env=env,
        cwd=work,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: the op runner failed\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not Path(result["module"]).resolve().is_relative_to(src):
        raise SystemExit(f"{tree}: steklov was imported from {result['module']}")
    return result["codes"]


def _canonical(path):
    """File content for comparison: JSON without its ``timestamp`` key, else bytes."""
    if path.suffix != ".json":
        return path.read_bytes()
    data = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(data, dict):
        data.pop("timestamp", None)
    return json.dumps(data, sort_keys=True)


def differing_files(old, new):
    """Relative paths of the files that differ, or exist on one side only."""
    names = {p.relative_to(d) for d in (old, new) for p in d.rglob("*") if p.is_file()}

    def same(name):
        a, b = old / name, new / name
        return a.is_file() and b.is_file() and _canonical(a) == _canonical(b)

    return sorted(str(name) for name in names if not same(name))


def summary(out):
    """``(lambda, iterations, residual)`` of an op's outputs, None where absent."""
    for name, read in _SUMMARIES.items():
        path = out / name
        if path.is_file():
            return read(json.loads(path.read_text(encoding="utf-8")))
    return None, None, None


def _pair(a, b, absent="-"):
    return "/".join(absent if v is None else repr(v) for v in (a, b))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--old", type=Path, required=True, help="tree before the change")
    parser.add_argument("--new", type=Path, required=True, help="tree after the change")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=1, help="runs passes 0 .. K-1")
    args = parser.parse_args()

    code_changes = file_changes = total = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for index in range(args.passes):
            ops = make_ops(args.workload, args.seed, index)
            configs = work / f"pass{index}"
            configs.mkdir()
            for i, (_, cfg) in enumerate(ops):
                (configs / f"op{i:02d}.json").write_text(json.dumps(cfg), encoding="utf-8")
            outputs = {side: work / side / f"pass{index}" for side in ("old", "new")}
            codes = {}
            for side, tree in (("old", args.old), ("new", args.new)):
                argvs = [
                    [command, "--config", str(configs / f"op{i:02d}.json")]
                    + ["--out", str(outputs[side] / f"op{i:02d}"), "--jobs", "1"]
                    for i, (command, _) in enumerate(ops)
                ]
                codes[side] = run_tree(tree, argvs, configs)
            for i, (command, _) in enumerate(ops):
                old, new = (outputs[side] / f"op{i:02d}" for side in ("old", "new"))
                lam, iters, resid = zip(summary(old), summary(new))
                diff = differing_files(old, new)
                code = (codes["old"][i], codes["new"][i])
                total += 1
                code_changes += code[0] != code[1]
                file_changes += bool(diff)
                print(
                    f"pass {index} op {i:02d} {command:<14} exit {_pair(*code, 'crash')}"
                    f"  lambda {_pair(*lam)}  iters {_pair(*iters)}"
                    f"  resid {_pair(*resid)}  differ: {', '.join(diff) or '-'}"
                )
    print(
        f"{total} ops: {code_changes} with different exit codes, "
        f"{file_changes} with different output files"
    )
    return 1 if code_changes else 0


if __name__ == "__main__":
    sys.exit(main())
