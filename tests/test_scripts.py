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
            "disk_convergence.py",
            ["--h", "0.4", "0.2"],
            "   0.200       116",
            id="disk_convergence.py",
        ),
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
    from steklov import BoundaryDensity, generate_disk, solve_linear

    proc = _run_script(
        ROOT / "scripts" / "layer_ladder.py", "--h", "0.3", "--square-h", "--repeat", "1"
    )
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()[1:]
    assert header.split()[-2:] == ["iters", "resid"]
    iters, resid = row.split()[-2:]
    mesh = generate_disk(0.3)
    pair = solve_linear(mesh, BoundaryDensity.constant(mesh, 0.25), 5.0)
    assert int(iters) == pair.iterations
    assert float(resid) == float(f"{pair.residual:.1e}")
    assert float(resid) <= 1e-9
