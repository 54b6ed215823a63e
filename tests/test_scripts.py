"""Every experiment script parses its arguments and runs end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _run_script(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_script_help_exits_cleanly(script):
    proc = _run_script(script, "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


@pytest.mark.parametrize(
    "name, args, expected",
    [
        pytest.param(
            "cap_formation.py",
            ["--h", "0.3", "--sigma", "1", "10"],
            "pinned reference on the final support",
            id="cap_formation.py",
        ),
        pytest.param(
            "layer_ladder.py",
            ["--h", "0.3", "--square-h", "0.25", "--repeat", "1"],
            "disk    0.3000      62    22",
            id="layer_ladder.py",
        ),
        pytest.param(
            "p_ladder.py",
            ["--p", "3", "--h", "0.1"],
            " 3.00  0.100    417    39 tolerance   True      0x1.eb09dd5875b2ep-1",
            id="p_ladder.py",
        ),
        pytest.param(
            "derivative_table.py",
            [],
            "  sign consistent        True",
            marks=pytest.mark.slow,
            id="derivative_table.py",
        ),
    ],
)
def test_script_runs_end_to_end(name, args, expected):
    proc = _run_script(ROOT / "scripts" / name, *args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert any(line.startswith(expected) for line in lines), proc.stdout


def test_layer_ladder_reports_the_solves_and_residual_of_its_eigenpair():
    import numpy as np
    import scipy.sparse.linalg as spla

    from steklov import BoundaryDensity, assemble_linear, generate_disk, solve_linear
    from steklov.eigensolver import _IN_ORDER, _nested_dissection

    proc = _run_script(
        ROOT / "scripts" / "layer_ladder.py", "--h", "0.1", "--square-h", "--repeat", "1"
    )
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()[1:]
    assert header.split()[4:] == [
        *("generate", "mesh", "loop", "geometry", "order", "assemble", "splu"),
        *("solve", "bathtub", "defect", "iters", "resid", "stop", "nnz", "MB"),
    ]
    iters, resid, stop, nnz, megabytes = row.split()[-5:]
    mesh = generate_disk(0.1)
    phi = BoundaryDensity.constant(mesh, 0.25)
    pair = solve_linear(mesh, phi, 5.0)
    assert int(iters) == pair.iterations
    assert float(resid) == float(f"{pair.residual:.1e}")
    assert float(resid) <= 1e-9
    assert stop == pair.diagnostics["stop"] == "tolerance"
    # the plain route's factor, as SuperLU stores it
    order = _nested_dissection(mesh, np.arange(mesh.n_vertices))
    A, _ = assemble_linear(mesh, phi, 5.0, order)
    assert int(nnz) == spla.splu(A.T, **_IN_ORDER).nnz
    assert megabytes == f"{12 * int(nnz) / 2**20:.2f}"


def _fake_tree(root, code, csv_text, keys=("lambda", "iterations", "residual"), text=""):
    """A source tree whose ``steklov.cli.main`` writes fixed outputs and returns ``code``.

    ``keys`` is the order of the eigenpair record's keys; ``main`` prints
    ``text`` and its output directory to standard output.
    """
    package = root / "src" / "steklov"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "import json, time\n"
        "from pathlib import Path\n"
        "def main(argv):\n"
        "    out = Path(argv[argv.index('--out') + 1])\n"
        "    out.mkdir(parents=True)\n"
        "    values = {'lambda': 1.5, 'iterations': 3, 'residual': 0.25}\n"
        f"    record = {{key: values[key] for key in {list(keys)!r}}}\n"
        "    record['timestamp'] = time.time_ns()\n"
        "    (out / 'eigenpair.json').write_text(json.dumps(record))\n"
        f"    (out / 'trace.csv').write_text({csv_text!r})\n"
        f"    print({text!r}, out)\n"
        f"    return {code}\n"
    )
    return root


def _compare(old, new, passes=2):
    return _run_script(
        ROOT / "scripts" / "compare_ops.py",
        *("--old", str(old), "--new", str(new), "--workload", "nonlinear-p"),
        *("--seed", "3", "--passes", str(passes)),
    )


def test_compare_ops_lists_differing_files_apart_from_timestamps(tmp_path):
    proc = _compare(_fake_tree(tmp_path / "a", 0, "a\n"), _fake_tree(tmp_path / "b", 0, "b\n"))
    assert proc.returncode == 0, proc.stderr
    *rows, total = proc.stdout.splitlines()
    assert len(rows) == 22
    for row in rows:
        assert "exit 0/0  lambda 1.5/1.5  iters 3/3  resid 0.25/0.25  differ: trace.csv" in row
    assert total == (
        "22 ops: 0 with different exit codes, 22 with different output files, "
        "0 with different printed text"
    )


def test_compare_ops_reports_a_change_of_key_order(tmp_path):
    old = _fake_tree(tmp_path / "a", 0, "a\n")
    new = _fake_tree(tmp_path / "b", 0, "a\n", keys=("residual", "lambda", "iterations"))
    proc = _compare(old, new, passes=1)
    assert proc.returncode == 0, proc.stderr
    *rows, total = proc.stdout.splitlines()
    assert len(rows) == 11
    for row in rows:
        assert "exit 0/0  lambda 1.5/1.5  iters 3/3  resid 0.25/0.25  differ: eigenpair.json" in row
    assert total == (
        "11 ops: 0 with different exit codes, 11 with different output files, "
        "0 with different printed text"
    )


def test_compare_ops_fails_when_an_exit_code_differs(tmp_path):
    proc = _compare(_fake_tree(tmp_path / "a", 0, "a\n"), _fake_tree(tmp_path / "b", 2, "a\n"))
    assert proc.returncode == 1, proc.stderr
    *rows, total = proc.stdout.splitlines()
    assert all("exit 0/2" in row and row.endswith("differ: -") for row in rows)
    assert total == (
        "22 ops: 22 with different exit codes, 0 with different output files, "
        "0 with different printed text"
    )


def test_compare_ops_fails_when_the_printed_text_differs(tmp_path):
    old = _fake_tree(tmp_path / "a", 0, "a\n", text="lambda = 1.5")
    new = _fake_tree(tmp_path / "b", 0, "a\n", text="lambda = 1.50")
    proc = _compare(old, new, passes=1)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(row.endswith("differ: printed text") for row in lines[:11])
    # each differing op is listed with a diff of its text, the output
    # directory (which differs between the sides) read as <out>
    assert lines[11:16] == [
        "printed text differs: pass 0 op 00 solve",
        "--- old",
        "+++ new",
        "@@ -1 +1 @@",
        "-lambda = 1.5 <out>/op00",
    ]
    assert lines[16] == "+lambda = 1.50 <out>/op00"
    assert lines[-1] == (
        "11 ops: 0 with different exit codes, 0 with different output files, "
        "11 with different printed text"
    )


def test_compare_ops_runs_the_cli_of_each_tree():
    proc = _compare(ROOT, ROOT, passes=1)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[:-1]
    assert len(rows) == 11
    for row in rows:
        old, new = row.split("  lambda ")[1].split()[0].split("/")
        assert old == new and float(old) > 0.0


def test_line_coverage_lists_the_lines_no_test_reached(tmp_path):
    package = tmp_path / "toy"
    package.mkdir()
    (package / "__init__.py").write_text(
        "def double(x):\n"
        "    return 2 * x\n"
        "\n"
        "\n"
        "def never(x):\n"
        "    if x:\n"
        "        return 1\n"
        "    return 0\n"
    )
    (tmp_path / "test_toy.py").write_text(
        "import toy\n\n\ndef test_double():\n    assert toy.double(2) == 4\n"
    )
    proc = _run_script(
        ROOT / "scripts" / "line_coverage.py",
        *("--src", str(package), "--", "-q", "-p", "no:cacheprovider"),
        str(tmp_path / "test_toy.py"),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert any(line.startswith("1 passed") for line in lines)
    missed = [line.split("/")[-1] for line in lines[-4:-1]]
    assert missed == ["__init__.py:6: if x:", "__init__.py:7: return 1", "__init__.py:8: return 0"]
    assert lines[-1].startswith("3 of 6 executable lines of ")
    assert lines[-1].endswith("toy not reached")
