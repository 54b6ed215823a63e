import csv
import json
import math
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

from steklov import (
    BoundaryDensity,
    NonConvergenceError,
    OptimizationTrace,
    ProblemParams,
    cap_indicator,
    generate_disk,
    optimize_potential,
    random_admissible,
    serialize_mesh,
)
from steklov import cli, eigensolver, rearrange
from steklov.cli import main

DISK_COARSE = {"type": "disk", "h": 0.3}
DISK_MEDIUM = {"type": "disk", "h": 0.1}
RECT = {"type": "rectangle", "width": 1.0, "height": 1.0, "target_h": 0.34}


def write_config(tmp_path, name="config.json", **cfg):
    cfg.setdefault("version", 1)
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def run(command, config_path, out_dir, *extra):
    return main([command, "--config", str(config_path), "--out", str(out_dir), *extra])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ------------------------------------------------------------------- solve


def test_solve_writes_eigenpair_and_trace(tmp_path):
    cfg = write_config(
        tmp_path,
        geometry=DISK_COARSE,
        params={"p": 2.0, "sigma": 0.0},
        potential={"type": "constant", "value": 0.0},
    )
    out = tmp_path / "out"
    assert run("solve", cfg, out) == 0

    record = json.loads((out / "eigenpair.json").read_text())
    assert set(record) == {
        "lambda",
        "iterations",
        "residual",
        "converged",
        "u",
        "timestamp",
    }
    assert record["converged"] is True
    assert 0.3 < record["lambda"] < 0.6

    rows = read_csv(out / "boundary_trace.csv")
    assert rows[0] == ["s", "u"]
    mesh = generate_disk(0.3)
    assert len(rows) - 1 == mesh.n_boundary_edges
    s_vals = [float(r[0]) for r in rows[1:]]
    assert s_vals == sorted(s_vals)
    assert all(float(r[1]) != 0.0 for r in rows[1:])


def test_solve_outputs_are_deterministic_up_to_timestamp(tmp_path):
    cfg = write_config(
        tmp_path,
        geometry=DISK_COARSE,
        params={"p": 2.5, "sigma": 3.0},
        potential={"type": "random", "seed": 11, "mass": 2.0},
        solver={"tol": 1e-8},
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("solve", cfg, out1) == 0
    assert run("solve", cfg, out2) == 0

    assert (out1 / "boundary_trace.csv").read_bytes() == (
        out2 / "boundary_trace.csv"
    ).read_bytes()
    r1 = json.loads((out1 / "eigenpair.json").read_text())
    r2 = json.loads((out2 / "eigenpair.json").read_text())
    r1.pop("timestamp"), r2.pop("timestamp")
    assert r1 == r2


def test_solve_constant_potential_shifts_the_eigenvalue(tmp_path):
    base = write_config(
        tmp_path,
        name="base.json",
        geometry=RECT,
        params={"p": 2.0, "sigma": 2.0},
        potential={"type": "constant", "value": 0.0},
        solver={"tol": 1e-12},
    )
    shifted = write_config(
        tmp_path,
        name="shifted.json",
        geometry=RECT,
        params={"p": 2.0, "sigma": 2.0},
        potential={"type": "constant", "value": 0.5},
        solver={"tol": 1e-12},
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run("solve", base, out1) == 0
    assert run("solve", shifted, out2) == 0
    lam0 = json.loads((out1 / "eigenpair.json").read_text())["lambda"]
    lam1 = json.loads((out2 / "eigenpair.json").read_text())["lambda"]
    assert lam1 - lam0 == pytest.approx(2.0 * 0.5, abs=1e-7)


def solve_record(tmp_path, name, **cfg):
    """Run ``solve`` on a p = 2, sigma = 2 config; return its eigenpair record."""
    cfg.setdefault("params", {"p": 2.0, "sigma": 2.0})
    path = write_config(tmp_path, name=f"{name}.json", **cfg)
    out = tmp_path / name
    assert run("solve", path, out) == 0
    record = json.loads((out / "eigenpair.json").read_text())
    record.pop("timestamp")
    return record


def test_solve_reads_a_serialized_mesh_file(tmp_path):
    mesh_path = tmp_path / "disk.mesh"
    mesh_path.write_text(serialize_mesh(generate_disk(0.3)), encoding="utf-8")
    zero = {"type": "constant", "value": 0.0}
    from_file = solve_record(
        tmp_path, "file", geometry={"type": "mesh_file", "path": str(mesh_path)}, potential=zero
    )
    generated = solve_record(tmp_path, "disk", geometry=DISK_COARSE, potential=zero)
    assert from_file == generated


def test_solve_with_a_cap_potential_raises_the_eigenvalue(tmp_path):
    zero = solve_record(
        tmp_path, "zero", geometry=DISK_COARSE, potential={"type": "constant", "value": 0.0}
    )
    cap = solve_record(
        tmp_path,
        "cap",
        geometry=DISK_COARSE,
        potential={"type": "cap", "angle": 0.5, "mass": 1.5},
    )
    assert cap["converged"] is True
    # 0 <= sigma * phi <= 2 raises the quotient of every field by at most 2
    assert zero["lambda"] < cap["lambda"] < zero["lambda"] + 2.0


def test_solve_reads_the_final_potential_of_an_optimize_run(tmp_path):
    cfg = write_config(
        tmp_path, geometry=DISK_COARSE, params={"p": 2.0, "sigma": 2.0}, mass=1.5
    )
    assert run("optimize", cfg, tmp_path / "opt") == 0
    final = float(read_csv(tmp_path / "opt" / "trace.csv")[-1][1])
    path = tmp_path / "opt" / "final_potential.json"
    record = solve_record(
        tmp_path, "again", geometry=DISK_COARSE, potential={"type": "file", "path": str(path)}
    )
    assert record["converged"] is True
    assert record["lambda"] == pytest.approx(final, rel=1e-8)


NON_FINITE_EDGE_VALUES = "{path}: 'edge_values' must hold finite numbers"


@pytest.mark.parametrize(
    "content, message",
    [
        ([0.5], "{path}: expected a JSON object with an 'edge_values' key"),
        ({"values": [0.5]}, "{path}: expected a JSON object with an 'edge_values' key"),
        ({"edge_values": [0.5]}, "density has (1,) values, boundary has {edges} edges"),
        ({"edge_values": [1.5] * 22}, "density values must lie in [0, 1]"),
        ({"edge_values": {"a": 1}}, "{path}: 'edge_values' must be a list of numbers"),
        ({"edge_values": [[0.5]] * 22}, "{path}: 'edge_values' must be a list of numbers"),
        ({"edge_values": "0.5"}, "{path}: 'edge_values' must be a list of numbers"),
        ({"edge_values": [True] * 22}, "{path}: 'edge_values' must be a list of numbers"),
        ({"edge_values": [0.5] * 21 + [10**400]}, NON_FINITE_EDGE_VALUES),
        ({"edge_values": [0.5] * 21 + [math.nan]}, NON_FINITE_EDGE_VALUES),
    ],
    ids=[
        "not-an-object",
        "no-edge-values",
        "wrong-length",
        "out-of-range",
        "values-an-object",
        "values-nested",
        "values-a-string",
        "values-booleans",
        "values-beyond-float-range",
        "values-nan",
    ],
)
def test_file_potential_errors_are_config_errors(tmp_path, capsys, content, message):
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(content), encoding="utf-8")
    cfg = write_config(
        tmp_path,
        geometry=DISK_COARSE,
        params={"p": 2.0, "sigma": 2.0},
        potential={"type": "file", "path": str(path)},
    )
    assert run("solve", cfg, tmp_path / "out") == 1
    edges = generate_disk(0.3).n_boundary_edges
    assert edges == 22
    expected = message.format(path=path, edges=edges)
    assert capsys.readouterr().err == f"config error: {expected}\n"
    assert list((tmp_path / "out").iterdir()) == []


# ---------------------------------------------------------------- optimize


def test_optimize_writes_monotone_trace_and_binarized_density(tmp_path):
    cfg = write_config(
        tmp_path,
        geometry=DISK_COARSE,
        params={"p": 2.0, "sigma": 5.0},
        mass=math.pi / 2,
    )
    out = tmp_path / "out"
    assert run("optimize", cfg, out, "--binarize") == 0

    trace = json.loads((out / "trace.json").read_text())
    lams = [row["lambda"] for row in trace]
    assert all(b <= a * (1 + 1e-10) for a, b in zip(lams, lams[1:]))
    assert all(row["mass"] == pytest.approx(math.pi / 2, abs=1e-10) for row in trace)

    rows = read_csv(out / "trace.csv")
    assert rows[0] == ["iter", "lambda"]
    assert [float(r[1]) for r in rows[1:]] == lams

    density = json.loads((out / "final_potential.json").read_text())
    assert set(density["edge_values"]) <= {0.0, 1.0}


def test_optimize_without_binarize_keeps_fractional_edges(tmp_path):
    cfg = write_config(
        tmp_path,
        geometry=DISK_COARSE,
        params={"p": 2.0, "sigma": 5.0},
        mass=1.3,
    )
    out = tmp_path / "out"
    assert run("optimize", cfg, out) == 0
    density = json.loads((out / "final_potential.json").read_text())
    lengths = generate_disk(0.3).edge_lengths
    mass = sum(v * le for v, le in zip(density["edge_values"], lengths))
    assert mass == pytest.approx(1.3, abs=1e-10)


def test_optimize_binarize_rounds_each_edge_at_one_half(tmp_path, monkeypatch):
    mesh = generate_disk(0.3)
    vals = np.zeros(mesh.n_boundary_edges)
    vals[:4] = [0.2, 0.5, 0.9, 0.49999]
    phi = BoundaryDensity.of(mesh, vals)
    trace = OptimizationTrace([1.0], [phi], [0.0], converged=True)
    monkeypatch.setattr(cli, "optimize_potential", lambda *args, **kwargs: trace)
    cfg = write_config(
        tmp_path, geometry=DISK_COARSE, params={"p": 2.0, "sigma": 5.0}, mass=phi.mass
    )
    out = tmp_path / "out"
    assert run("optimize", cfg, out, "--binarize") == 0
    density = json.loads((out / "final_potential.json").read_text())
    assert density == {"edge_values": [0.0, 1.0, 1.0] + [0.0] * (len(vals) - 3)}
    # the trace keeps the mass of the fractional density
    assert json.loads((out / "trace.json").read_text())[0]["mass"] == phi.mass


# ------------------------------------------------------------- sigma-sweep


def test_sigma_sweep_reports_positive_shrinking_gaps(tmp_path):
    cfg = write_config(
        tmp_path,
        geometry=DISK_COARSE,
        params={"p": 2.0, "sigma": 1.0},
        mass=math.pi / 2,
        sigma_list=[1.0, 10.0, 100.0],
    )
    out = tmp_path / "out"
    assert run("sigma-sweep", cfg, out, "--jobs", "3") == 0

    rows = read_csv(out / "sweep.csv")
    assert rows[0] == ["sigma", "Lambda_sigma", "Lambda_inf_reference"]
    lams = [float(r[1]) for r in rows[1:]]
    refs = [float(r[2]) for r in rows[1:]]
    assert len(set(refs)) == 1  # one hard-constraint reference for the sweep
    gaps = [ref - lam for lam, ref in zip(lams, refs)]
    assert all(g > 0 for g in gaps)
    assert gaps[-1] < gaps[0]
    assert lams == sorted(lams)
    assert (out / "reference_eigenpair.json").exists()


def test_sigma_sweep_flushes_the_completed_rows_when_a_coupling_fails(
    tmp_path, monkeypatch, capsys
):
    calls = []
    optimize = cli.optimize_potential

    def fail_second(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise NonConvergenceError("injected failure")
        return optimize(*args, **kwargs)

    monkeypatch.setattr(cli, "optimize_potential", fail_second)
    cfg = write_config(
        tmp_path,
        geometry=DISK_COARSE,
        params={"p": 2.0, "sigma": 1.0},
        mass=1.0,
        sigma_list=[1.0, 10.0, 100.0],
    )
    out = tmp_path / "out"
    assert run("sigma-sweep", cfg, out) == 2
    assert "injected failure" in capsys.readouterr().err
    rows = read_csv(out / "sweep.csv")
    assert rows[0] == ["sigma", "Lambda_sigma", "Lambda_inf_reference"]
    assert len(rows) == 2
    assert float(rows[1][0]) == 1.0 and float(rows[1][1]) > 0.0 and rows[1][2] == ""
    assert not (out / "reference_eigenpair.json").exists()


def test_sigma_sweep_flushes_the_completed_rows_when_the_reference_is_infeasible(
    tmp_path, capsys
):
    # a mass of the whole perimeter fills every boundary edge, so the
    # reference region pins every boundary vertex
    cfg = write_config(
        tmp_path,
        geometry=DISK_COARSE,
        params={"p": 2.0, "sigma": 1.0},
        mass=generate_disk(0.3).perimeter,
        sigma_list=[1.0, 2.0],
    )
    out = tmp_path / "out"
    assert run("sigma-sweep", cfg, out) == 2
    assert "region covers every boundary vertex" in capsys.readouterr().err
    rows = read_csv(out / "sweep.csv")
    assert rows[0] == ["sigma", "Lambda_sigma", "Lambda_inf_reference"]
    assert [float(r[0]) for r in rows[1:]] == [1.0, 2.0]
    assert all(float(r[1]) > 0.0 and r[2] == "" for r in rows[1:])
    assert not (out / "reference_eigenpair.json").exists()


def test_sigma_sweep_reference_takes_the_solver_options(tmp_path, capsys):
    # 8 iterations converge every optimize solve but not the reference,
    # which needs 9: the sweep writes both files and then exits 2
    cfg = write_config(
        tmp_path,
        geometry=DISK_COARSE,
        params={"p": 2.0, "sigma": 1.0},
        mass=1.0,
        sigma_list=[1.0],
        solver={"max_iters": 8},
    )
    out = tmp_path / "out"
    assert run("sigma-sweep", cfg, out) == 2
    reference = json.loads((out / "reference_eigenpair.json").read_text())
    assert (reference["converged"], reference["iterations"]) == (False, 8)
    rows = read_csv(out / "sweep.csv")
    assert len(rows) == 2 and float(rows[1][2]) == reference["lambda"]
    out_text, err = capsys.readouterr()
    assert out_text.startswith("sigma=1.0: Lambda=")
    assert err == "numerical failure: the reference eigensolve did not converge\n"


def test_sigma_sweep_rejects_unsorted_list(tmp_path):
    cfg = write_config(
        tmp_path,
        geometry=DISK_COARSE,
        params={"p": 2.0, "sigma": 1.0},
        mass=1.0,
        sigma_list=[10.0, 1.0],
    )
    assert run("sigma-sweep", cfg, tmp_path / "out") == 1


def test_sigma_sweep_rejects_a_non_finite_coupling_before_any_optimize(tmp_path, monkeypatch):
    calls = []
    optimize = cli.optimize_potential

    def counting(*args, **kwargs):
        calls.append(None)
        return optimize(*args, **kwargs)

    monkeypatch.setattr(cli, "optimize_potential", counting)
    cfg = write_config(
        tmp_path,
        geometry=DISK_COARSE,
        params={"p": 2.0, "sigma": 1.0},
        mass=1.0,
        sigma_list=[1.0, 2.0, math.inf],
    )
    assert run("sigma-sweep", cfg, tmp_path / "out") == 1
    assert calls == []
    assert not (tmp_path / "out" / "sweep.csv").exists()


# ------------------------------------------------------------- shape-deriv


def _half_disk_region_config(h):
    mesh = generate_disk(h)
    P = mesh.perimeter
    ell = P / mesh.n_boundary_edges
    return {"intervals": [[ell / 2, (ell / 2 + P / 2) % P]]}


def test_shape_deriv_midedge_run_passes(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        geometry=DISK_MEDIUM,
        params={"p": 2.0, "sigma": 5.0},
        region=_half_disk_region_config(0.1),
        tangent={"speeds": [[0.0, 1.0]]},
    )
    out = tmp_path / "out"
    assert run("shape-deriv", cfg, out) == 0
    captured = capsys.readouterr()
    assert "formula_value" in captured.out
    assert "central_difference" in captured.out

    record = json.loads((out / "derivative_report.json").read_text())
    assert record["sign_consistent"] is True
    assert record["vertex_crossings"] is False
    assert record["relative_error"] <= 0.05
    assert len(record["fd_table"]) == 3


def test_shape_deriv_passes_under_the_opposite_sign_convention(tmp_path):
    # the -1 record is the +1 record with formula_value negated, bitwise
    records = {}
    for sign in (1, -1):
        cfg = write_config(
            tmp_path,
            name=f"sign{sign}.json",
            geometry=DISK_MEDIUM,
            params={"p": 2.0, "sigma": 5.0},
            region=_half_disk_region_config(0.1),
            tangent={"speeds": [[0.0, 1.0]]},
            sign_convention=sign,
        )
        out = tmp_path / f"out{sign}"
        assert run("shape-deriv", cfg, out) == 0
        records[sign] = json.loads((out / "derivative_report.json").read_text())
        records[sign].pop("timestamp")
    plus, minus = records[1], records[-1]
    assert minus["sign_consistent"] is True
    assert minus["formula_value"] * minus["fd_value"] < 0
    assert minus["relative_error"] <= 0.05
    assert list(minus) == list(plus)
    assert minus["formula_value"].hex() == (-plus["formula_value"]).hex()
    assert json.dumps({**minus, "formula_value": plus["formula_value"]}) == json.dumps(plus)


def test_shape_deriv_flags_and_fails_on_vertex_crossing_steps(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        geometry=DISK_MEDIUM,
        params={"p": 2.0, "sigma": 5.0},
        region=_half_disk_region_config(0.1),
        tangent={"speeds": [[0.0, 1.0]]},
        fd_steps=[0.2, 0.1, 0.05],
    )
    out = tmp_path / "out"
    assert run("shape-deriv", cfg, out) == 2
    captured = capsys.readouterr()
    assert "across a mesh" in captured.err
    record = json.loads((out / "derivative_report.json").read_text())
    assert record["vertex_crossings"] is True


def test_shape_deriv_speeds_follow_their_arcs_in_any_listing(tmp_path):
    # the same motion, with the arcs listed against and along arc order
    records = []
    for name, intervals, speeds in (
        ("against", [[3.0, 4.0], [0.5, 1.0]], [[0.0, 1.0], [0.0, 0.0]]),
        ("along", [[0.5, 1.0], [3.0, 4.0]], [[0.0, 0.0], [0.0, 1.0]]),
    ):
        cfg = write_config(
            tmp_path,
            name=f"{name}.json",
            geometry=DISK_MEDIUM,
            params={"p": 2.0, "sigma": 5.0},
            region={"intervals": intervals},
            tangent={"speeds": speeds},
        )
        out = tmp_path / name
        code = run("shape-deriv", cfg, out)
        text = (out / "derivative_report.json").read_text()
        records.append((code, re.sub(r'"timestamp": [^,\n}]*', "", text)))
    assert records[0] == records[1]


def test_shape_deriv_rejects_bad_steps_and_sign(tmp_path):
    base = dict(
        geometry=DISK_COARSE,
        params={"p": 2.0, "sigma": 5.0},
        region=_half_disk_region_config(0.3),
        tangent={"speeds": [[0.0, 1.0]]},
    )
    cfg = write_config(tmp_path, name="steps.json", fd_steps=[1e-2, 5e-3], **base)
    assert run("shape-deriv", cfg, tmp_path / "o1") == 1
    cfg = write_config(tmp_path, name="sign.json", sign_convention=0.5, **base)
    assert run("shape-deriv", cfg, tmp_path / "o2") == 1


# ---------------------------------------------------------- symmetry-check


def test_symmetry_check_passes_on_disk(tmp_path):
    cfg = write_config(
        tmp_path,
        geometry=DISK_MEDIUM,
        params={"p": 2.0, "sigma": 5.0},
        mass=math.pi / 2,
        solver={"seed": 0},
    )
    out = tmp_path / "out"
    assert run("symmetry-check", cfg, out, "--jobs", "4") == 0
    record = json.loads((out / "symmetry_report.json").read_text())
    assert record["passed"] is True
    assert record["lambda_relative_spread"] <= 1e-6
    assert len(record["lambdas"]) == 5


def test_symmetry_check_passes_where_the_delaunay_disk_failed(tmp_path):
    # On the Delaunay triangulation of this disk the five single caps spread
    # lambda by 1.39e-6 and the check failed; the outer annulus of the ring
    # mesh turns with the boundary, so rotated caps see the same mesh.
    cfg = write_config(
        tmp_path,
        geometry={"type": "disk", "h": 0.04},
        params={"p": 2.0, "sigma": 5.0},
        mass=math.pi / 2,
        solver={"seed": 3},
    )
    out = tmp_path / "out"
    assert run("symmetry-check", cfg, out, "--jobs", "2") == 0
    record = json.loads((out / "symmetry_report.json").read_text())
    assert record["passed"] is True
    assert record["lambda_relative_spread"] <= cli.SYMMETRY_LAMBDA_RTOL


def test_symmetry_check_starts_from_the_seeded_random_densities(tmp_path):
    cfg = write_config(
        tmp_path,
        geometry=DISK_COARSE,
        params={"p": 2.0, "sigma": 5.0},
        mass=math.pi / 2,
        solver={"seed": 7},
    )
    out = tmp_path / "out"
    assert run("symmetry-check", cfg, out, "--jobs", "2") in (0, 2)
    record = json.loads((out / "symmetry_report.json").read_text())
    assert record["seeds"] == [7, 8, 9, 10, 11]
    mesh = generate_disk(0.3)
    params = ProblemParams(p=2.0, sigma=5.0)
    expected = [
        optimize_potential(
            mesh, params, math.pi / 2, phi0=random_admissible(mesh, math.pi / 2, seed)
        ).final_lambda
        for seed in record["seeds"]
    ]
    assert [lam.hex() for lam in record["lambdas"]] == [lam.hex() for lam in expected]


@pytest.mark.parametrize(
    "command, config",
    [
        ("sigma-sweep", {"sigma_list": [1.0, 2.0, 4.0]}),
        ("symmetry-check", {}),
    ],
)
def test_multi_run_commands_solve_on_the_calling_thread(tmp_path, monkeypatch, command, config):
    threads = []
    solve = rearrange.solve_linear

    def recording(*args, **kwargs):
        threads.append(threading.get_ident())
        return solve(*args, **kwargs)

    monkeypatch.setattr(rearrange, "solve_linear", recording)
    cfg = write_config(
        tmp_path, geometry=DISK_COARSE, params={"p": 2.0, "sigma": 5.0}, mass=1.0, **config
    )
    # --jobs is accepted and has no effect
    assert run(command, cfg, tmp_path / "out", "--jobs", "2") in (0, 2)
    assert threads and set(threads) == {threading.get_ident()}


def test_symmetry_check_requires_disk_geometry(tmp_path):
    cfg = write_config(
        tmp_path,
        geometry=RECT,
        params={"p": 2.0, "sigma": 5.0},
        mass=1.0,
    )
    assert run("symmetry-check", cfg, tmp_path / "out") == 1


# ----------------------------------------------------------- config policy


def test_unknown_top_level_key_is_rejected(tmp_path):
    cfg = write_config(
        tmp_path,
        geometry=DISK_COARSE,
        params={"p": 2.0, "sigma": 0.0},
        tippytop=True,
    )
    assert run("solve", cfg, tmp_path / "out") == 1


def test_unknown_nested_key_is_rejected(tmp_path):
    cfg = write_config(
        tmp_path,
        geometry={"type": "disk", "h": 0.3, "twist": 2},
        params={"p": 2.0, "sigma": 0.0},
    )
    assert run("solve", cfg, tmp_path / "out") == 1


def test_wrong_version_is_rejected(tmp_path):
    cfg = write_config(
        tmp_path,
        version=2,
        geometry=DISK_COARSE,
        params={"p": 2.0, "sigma": 0.0},
    )
    assert run("solve", cfg, tmp_path / "out") == 1


def test_missing_config_file_is_a_config_error(tmp_path):
    assert run("solve", tmp_path / "nope.json", tmp_path / "out") == 1


def test_missing_mesh_file_is_a_config_error(tmp_path):
    cfg = write_config(
        tmp_path,
        geometry={"type": "mesh_file", "path": str(tmp_path / "ghost.mesh")},
        params={"p": 2.0, "sigma": 0.0},
    )
    assert run("solve", cfg, tmp_path / "out") == 1


def test_malformed_mesh_file_is_a_mesh_error(tmp_path, capsys):
    mesh_path = tmp_path / "bad.mesh"
    mesh_path.write_text("vertices 3\n0 0\n1 0\n0 one\ntriangles 1\n0 1 2\n", encoding="utf-8")
    cfg = write_config(
        tmp_path,
        geometry={"type": "mesh_file", "path": str(mesh_path)},
        params={"p": 2.0, "sigma": 0.0},
        potential={"type": "constant", "value": 0.0},
    )
    assert run("solve", cfg, tmp_path / "out") == 1
    assert capsys.readouterr().err.startswith("mesh error: line 4: ")


@pytest.mark.parametrize(
    "text, message",
    [
        ("vertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 99999999999999999999999\n",
         "line 6: bad index in '0 1 99999999999999999999999'"),
        ("vertices 1000000000000\n0 0\n1 0\n0 1\n", "unexpected end of mesh text"),
        (f"vertices {10**30}\n0 0\n1 0\n0 1\n", "unexpected end of mesh text"),
    ],
    ids=["index-beyond-int64", "count-beyond-text", "count-beyond-int64"],
)
def test_mesh_file_numbers_beyond_range_are_mesh_errors(tmp_path, capsys, text, message):
    # they used to raise OverflowError, try to allocate 14.6 TiB or hit
    # numpy's dimension limit
    mesh_path = tmp_path / "bad.mesh"
    mesh_path.write_text(text, encoding="utf-8")
    cfg = write_config(
        tmp_path,
        geometry={"type": "mesh_file", "path": str(mesh_path)},
        params={"p": 2.0, "sigma": 0.0},
        potential={"type": "constant", "value": 0.0},
    )
    assert run("solve", cfg, tmp_path / "out") == 1
    assert capsys.readouterr().err == f"mesh error: {message}\n"


def test_a_descent_at_huge_p_ends_with_an_exit_code(tmp_path):
    # at p = 1e6 every trial's |v|^p overflows; the descent used to divide by zero
    cfg = write_config(
        tmp_path,
        geometry=DISK_COARSE,
        params={"p": 1e6, "sigma": 1.0},
        potential={"type": "constant", "value": 0.5},
    )
    with np.errstate(over="ignore"):
        assert run("solve", cfg, tmp_path / "out") in (0, 2)
    assert (tmp_path / "out" / "eigenpair.json").exists()


@pytest.mark.parametrize(
    "geometry",
    [
        {"type": "rectangle", "width": 1e300, "height": 1.0, "target_h": 1e-10},
        {"type": "disk", "h": 1e-200},
    ],
    ids=["rectangle-overflow", "disk-underflow"],
)
def test_unallocatable_generated_meshes_are_mesh_errors(tmp_path, capsys, geometry):
    cfg = write_config(
        tmp_path,
        geometry=geometry,
        params={"p": 2.0, "sigma": 0.0},
        potential={"type": "constant", "value": 0.0},
    )
    assert run("solve", cfg, tmp_path / "out") == 1
    assert capsys.readouterr().err.startswith("mesh error: ")


def test_usage_errors_return_config_exit(tmp_path):
    assert main([]) == 1
    assert main(["frobnicate", "--config", "x"]) == 1
    cfg = write_config(
        tmp_path, geometry=DISK_COARSE, params={"p": 2.0, "sigma": 0.0}
    )
    assert main(["solve", "--config", str(cfg), "--jobs", "0"]) == 1


def test_optimize_rejects_a_start_of_another_mass(tmp_path, capsys):
    # a start of mass 0.5 under a refill mass of 2.0 made the trace rise
    cfg = write_config(
        tmp_path,
        geometry=DISK_COARSE,
        params={"p": 2.0, "sigma": 5.0},
        mass=2.0,
        potential={"type": "random", "seed": 1, "mass": 0.5},
    )
    assert run("optimize", cfg, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: the start density has mass 0.49999")
    assert err.endswith(", not 'mass'=2.0\n")
    assert not (tmp_path / "out" / "trace.csv").exists()


def test_invalid_physical_parameters_are_config_errors(tmp_path):
    cfg = write_config(
        tmp_path,
        geometry=DISK_COARSE,
        params={"p": 1.0, "sigma": 0.0},  # exponent at the excluded endpoint
    )
    assert run("solve", cfg, tmp_path / "out") == 1
    cfg2 = write_config(
        tmp_path,
        name="mass.json",
        geometry=DISK_COARSE,
        params={"p": 2.0, "sigma": 1.0},
        mass=100.0,  # beyond the perimeter
    )
    assert run("optimize", cfg2, tmp_path / "out2") == 1
    # iteration budgets below one
    cfg3 = write_config(
        tmp_path,
        name="iters.json",
        geometry=DISK_COARSE,
        params={"p": 2.0, "sigma": 0.0},
        potential={"type": "constant", "value": 0.0},
        solver={"max_iters": 0},
    )
    assert run("solve", cfg3, tmp_path / "out3") == 1
    # stopping tolerances that are not positive
    for k, tol in enumerate((0.0, -1.0)):
        cfg_tol = write_config(
            tmp_path,
            name=f"tol-{k}.json",
            geometry=DISK_COARSE,
            params={"p": 2.0, "sigma": 0.0},
            potential={"type": "constant", "value": 0.0},
            solver={"tol": tol, "max_iters": 50},
        )
        assert run("solve", cfg_tol, tmp_path / f"out-tol-{k}") == 1
    for command, max_outer, extra in (
        ("optimize", 0, {}),
        ("sigma-sweep", -1, {"sigma_list": [1.0, 2.0]}),
        ("symmetry-check", 0, {}),
    ):
        cfg4 = write_config(
            tmp_path,
            name=f"outer-{command}.json",
            geometry=DISK_COARSE,
            params={"p": 2.0, "sigma": 1.0},
            mass=1.0,
            max_outer=max_outer,
            **extra,
        )
        assert run(command, cfg4, tmp_path / f"out-{command}") == 1


@pytest.mark.parametrize(
    "geometry",
    [
        dict(RECT, width=math.inf),
        dict(RECT, target_h=math.nan),
        dict(RECT, target_h=math.inf),
    ],
    ids=["width-inf", "target_h-nan", "target_h-inf"],
)
def test_non_finite_rectangle_sizes_are_config_errors(tmp_path, capsys, geometry):
    cfg = write_config(
        tmp_path,
        geometry=geometry,
        params={"p": 2.0, "sigma": 0.0},
        potential={"type": "constant", "value": 0.0},
    )
    assert run("solve", cfg, tmp_path / "out") == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out" / "eigenpair.json").exists()


@pytest.mark.parametrize(
    "params",
    [
        {"p": 2.0, "sigma": math.nan},
        {"p": 2.0, "sigma": math.inf},
        {"p": math.inf, "sigma": 1.0},
        {"p": 1.5, "sigma": 1.0, "eps_reg": math.nan},
        {"p": 1.5, "sigma": 1.0, "eps_reg": math.inf},
    ],
    ids=["sigma-nan", "sigma-inf", "p-inf", "eps_reg-nan", "eps_reg-inf"],
)
def test_non_finite_physical_parameters_are_config_errors(tmp_path, capsys, params):
    cfg = write_config(
        tmp_path,
        geometry=DISK_COARSE,
        params=params,
        potential={"type": "constant", "value": 0.5},
        solver={"max_iters": 200},
    )
    assert run("solve", cfg, tmp_path / "out") == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out" / "eigenpair.json").exists()


@pytest.mark.parametrize("outer_tol", [-1.0, math.nan], ids=["negative", "nan"])
def test_bad_outer_tolerances_are_config_errors(tmp_path, capsys, outer_tol):
    cfg = write_config(
        tmp_path,
        geometry=DISK_COARSE,
        params={"p": 2.0, "sigma": 5.0},
        mass=1.0,
        outer_tol=outer_tol,
    )
    assert run("optimize", cfg, tmp_path / "out") == 1
    assert capsys.readouterr().err.startswith("config error: outer_tol ")
    assert not (tmp_path / "out" / "trace.json").exists()


SOLVE_CONFIG = {
    "geometry": DISK_COARSE,
    "params": {"p": 2.0, "sigma": 0.0},
    "potential": {"type": "constant", "value": 0.0},
}
SHAPE_CONFIG = {
    "geometry": DISK_COARSE,
    "params": {"p": 2.0, "sigma": 5.0},
    "region": {"intervals": [[0.5, 2.0]]},
    "tangent": {"speeds": [[0.0, 1.0]]},
}
SWEEP_CONFIG = {"geometry": DISK_COARSE, "params": {"p": 2.0}, "mass": 1.0}
SYMMETRY_CONFIG = {"geometry": DISK_COARSE, "params": {"p": 2.0, "sigma": 5.0}, "mass": 1.0}

# (command, base config, changes (None deletes a key), message after "config error: ")
CONFIG_ERRORS = {
    # JSON true and 1.0 both compare equal to 1, yet neither is the version
    "version-true": ("solve", SOLVE_CONFIG, {"version": True}, "config 'version' must be 1, got True"),
    "version-float": ("solve", SOLVE_CONFIG, {"version": 1.0}, "config 'version' must be 1, got 1.0"),
    "section-not-object": ("solve", SOLVE_CONFIG, {"params": [1]}, "params must be a JSON object"),
    "missing-number": (
        "solve",
        SOLVE_CONFIG,
        {"geometry": {"type": "disk"}},
        "disk geometry requires a numeric 'h'",
    ),
    "non-numeric": (
        "solve",
        SOLVE_CONFIG,
        {"geometry": {"type": "disk", "h": "0.3"}},
        "'h' in disk geometry must be a number",
    ),
    "non-integer": (
        "solve",
        SOLVE_CONFIG,
        {"solver": {"max_iters": 2.5}},
        "'max_iters' in solver must be an integer",
    ),
    "non-string": (
        "solve",
        SOLVE_CONFIG,
        {"geometry": {"type": "mesh_file", "path": 3}},
        "mesh-file geometry requires a string 'path'",
    ),
    "missing-geometry": (
        "solve",
        SOLVE_CONFIG,
        {"geometry": None},
        "config requires a 'geometry' object",
    ),
    "missing-potential": (
        "solve",
        SOLVE_CONFIG,
        {"potential": None},
        "config requires a 'potential' object",
    ),
    "missing-region": (
        "shape-deriv",
        SHAPE_CONFIG,
        {"region": None},
        "config requires a 'region' object",
    ),
    "missing-tangent": (
        "shape-deriv",
        SHAPE_CONFIG,
        {"tangent": None},
        "config requires a 'tangent' object",
    ),
    "geometry-type": (
        "solve",
        SOLVE_CONFIG,
        {"geometry": {"type": "cube"}},
        "geometry 'type' must be one of disk, rectangle, mesh_file; got 'cube'",
    ),
    "potential-type": (
        "solve",
        SOLVE_CONFIG,
        {"potential": {"type": "gauss"}},
        "potential 'type' must be one of file, constant, cap, random; got 'gauss'",
    ),
    "empty-intervals": (
        "shape-deriv",
        SHAPE_CONFIG,
        {"region": {"intervals": []}},
        "region 'intervals' must be a non-empty list",
    ),
    "interval-not-a-pair": (
        "shape-deriv",
        SHAPE_CONFIG,
        {"region": {"intervals": [[0.5, 2.0, 3.0]]}},
        "each region interval must be a [s_begin, s_end] number pair",
    ),
    "speed-not-a-pair": (
        "shape-deriv",
        SHAPE_CONFIG,
        {"tangent": {"speeds": [["0", 1.0]]}},
        "each tangent speed entry must be a [v_begin, v_end] pair",
    ),
    "speed-count": (
        "shape-deriv",
        SHAPE_CONFIG,
        {"tangent": {"speeds": [[0.0, 1.0], [1.0, 0.0]]}},
        "tangent 'speeds' must list one [v_begin, v_end] pair per region arc",
    ),
    "missing-sigma-list": (
        "sigma-sweep",
        SWEEP_CONFIG,
        {},
        "sigma-sweep requires a non-empty numeric 'sigma_list'",
    ),
    "descending-sigma-list": (
        "sigma-sweep",
        SWEEP_CONFIG,
        {"sigma_list": [2.0, 1.0]},
        "'sigma_list' must be strictly ascending and positive",
    ),
    "non-finite-sigma-list": (
        "sigma-sweep",
        SWEEP_CONFIG,
        {"sigma_list": [1.0, 2.0, math.inf]},
        "'sigma_list' must hold finite numbers",
    ),
    # JSON integers beyond float range read as +-inf, so each field's own
    # finiteness check rejects them
    "overflowing-sigma": (
        "solve",
        SOLVE_CONFIG,
        {"params": {"p": 2.0, "sigma": 10**400}},
        "sigma must be finite and nonnegative, got inf",
    ),
    "overflowing-sigma-list": (
        "sigma-sweep",
        SWEEP_CONFIG,
        {"sigma_list": [1.0, -(10**400)]},
        "'sigma_list' must hold finite numbers",
    ),
    "zero-eps-reg-below-two": (
        "solve",
        SOLVE_CONFIG,
        {"params": {"p": 1.5, "sigma": 2.0, "eps_reg": 0}},
        "eps_reg must be positive for p < 2, got 0.0",
    ),
    # A u = lambda Mb u has no eps term, so a p = 2 eps_reg would be dropped
    "eps-reg-at-two": (
        "shape-deriv",
        SHAPE_CONFIG,
        {"params": {"p": 2.0, "sigma": 5.0, "eps_reg": 0.1}},
        "eps_reg must be 0 at p = 2, got 0.1",
    ),
    "nan-cap-angle": (
        "solve",
        SOLVE_CONFIG,
        {"potential": {"type": "cap", "angle": math.nan, "mass": 1.0}},
        "cap angle must be finite, got nan",
    ),
    "infinite-cap-angle": (
        "solve",
        SOLVE_CONFIG,
        {"potential": {"type": "cap", "angle": -math.inf, "mass": 1.0}},
        "cap angle must be finite, got -inf",
    ),
    "fd-steps": (
        "shape-deriv",
        SHAPE_CONFIG,
        {"fd_steps": "small"},
        "'fd_steps' must be a list of numbers",
    ),
    "infinite-interval-end": (
        "shape-deriv",
        SHAPE_CONFIG,
        {"region": {"intervals": [[0.5, math.inf]]}},
        "region 'intervals' must hold finite numbers",
    ),
    "overflowing-interval-end": (
        "shape-deriv",
        SHAPE_CONFIG,
        {"region": {"intervals": [[-(10**400), 2.0]]}},
        "region 'intervals' must hold finite numbers",
    ),
    "infinite-fd-step": (
        "shape-deriv",
        SHAPE_CONFIG,
        {"fd_steps": [0.01, 0.005, math.inf]},
        "'fd_steps' must hold finite numbers",
    ),
    "overflowing-fd-step": (
        "shape-deriv",
        SHAPE_CONFIG,
        {"fd_steps": [0.01, 10**400]},
        "'fd_steps' must hold finite numbers",
    ),
    "output-dir": ("solve", SOLVE_CONFIG, {"output_dir": 3}, "'output_dir' must be a string"),
    # numpy's own message for a negative seed names neither the key nor the cause
    "negative-solver-seed": (
        "symmetry-check",
        SYMMETRY_CONFIG,
        {"solver": {"seed": -1}, "max_outer": 0},
        "'seed' in solver must be a non-negative integer, got -1",
    ),
    "negative-solver-seed-unread": (
        "optimize",
        SYMMETRY_CONFIG,
        {"solver": {"seed": -3}},
        "'seed' in solver must be a non-negative integer, got -3",
    ),
    "negative-potential-seed": (
        "solve",
        SOLVE_CONFIG,
        {"potential": {"type": "random", "seed": -2, "mass": 1.0}},
        "'seed' in random potential must be a non-negative integer, got -2",
    ),
    "cap-on-rectangle": (
        "solve",
        {**SOLVE_CONFIG, "geometry": RECT},
        {"potential": {"type": "cap", "angle": 0.0, "mass": 1.0}},
        "cap_indicator requires a disk mesh, got kind='rectangle'",
    ),
    "symmetry-check-on-rectangle": (
        "symmetry-check",
        SYMMETRY_CONFIG,
        {"geometry": RECT},
        "symmetry-check requires disk geometry",
    ),
    "zero-max-outer": (
        "sigma-sweep",
        SWEEP_CONFIG,
        {"sigma_list": [1.0, 2.0], "max_outer": 0},
        "max_outer must be an integer of at least 1, got 0",
    ),
    "negative-outer-tol": (
        "symmetry-check",
        SYMMETRY_CONFIG,
        {"outer_tol": -1},
        "outer_tol must be finite and positive, got -1.0",
    ),
}


def config_error_case(tmp_path, case):
    """The command and written config of a ``CONFIG_ERRORS`` case, and its message."""
    command, base, changes, message = CONFIG_ERRORS[case]
    cfg = {**base, **changes}
    cfg = write_config(tmp_path, **{k: v for k, v in cfg.items() if v is not None})
    return command, cfg, message


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_config_error_messages(tmp_path, capsys, case):
    command, cfg, message = config_error_case(tmp_path, case)
    assert run(command, cfg, tmp_path / "out") == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


ZERO_MAX_OUTER = "max_outer must be an integer of at least 1, got 0"
BAD_MASS = "'mass' must lie in [0, "


def no_mesh_work(*args, **kwargs):
    raise AssertionError("numerical work before the config was checked")


def test_an_empty_sigma_list_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_mesh", no_mesh_work)
    cfg = write_config(tmp_path, **SWEEP_CONFIG, sigma_list=[])
    out = tmp_path / "out"
    assert run("sigma-sweep", cfg, out) == 1
    captured = capsys.readouterr()
    assert captured.err == "config error: sigma-sweep requires a non-empty numeric 'sigma_list'\n"
    assert captured.out == ""
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_every_config_error_is_found_before_the_mesh_is_built(
    tmp_path, capsys, monkeypatch, case
):
    monkeypatch.setattr(cli, "build_mesh", no_mesh_work)
    command, cfg, message = config_error_case(tmp_path, case)
    assert run(command, cfg, tmp_path / "out") == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


OVERLAPPING_ARCS = {
    "region": {"intervals": [[0.5, 2.0], [1.0, 3.0]]},
    "tangent": {"speeds": [[0.0, 1.0], [0.0, 1.0]]},
}


@pytest.mark.parametrize(
    "command, base, changes, message",
    [
        ("sigma-sweep", SWEEP_CONFIG, {"sigma_list": [1.0, 2.0], "max_outer": 0}, ZERO_MAX_OUTER),
        ("symmetry-check", SYMMETRY_CONFIG, {"max_outer": 0}, ZERO_MAX_OUTER),
        # the checks that need the mesh
        ("sigma-sweep", SWEEP_CONFIG, {"sigma_list": [1.0], "mass": 100.0}, BAD_MASS),
        ("symmetry-check", SYMMETRY_CONFIG, {"mass": 100.0}, BAD_MASS),
        (
            "sigma-sweep",
            SWEEP_CONFIG,
            {"sigma_list": [1.0], "potential": {"type": "constant", "value": 1.5}},
            "density values must lie in [0, 1]",
        ),
        (
            "sigma-sweep",
            SWEEP_CONFIG,
            {"sigma_list": [1.0], "potential": {"type": "random", "seed": 1, "mass": 0.5}},
            "the start density has mass 0.49999",
        ),
        ("shape-deriv", SHAPE_CONFIG, OVERLAPPING_ARCS, "arcs overlap"),
    ],
    ids=[
        "sweep-max-outer",
        "symmetry-max-outer",
        "sweep-mass",
        "symmetry-mass",
        "potential",
        "start-mass",
        "overlapping-arcs",
    ],
)
def test_config_errors_come_before_any_factorization(
    tmp_path, capsys, monkeypatch, command, base, changes, message
):
    monkeypatch.setattr(eigensolver, "boundary_operator", no_mesh_work)
    monkeypatch.setattr(eigensolver.spla, "splu", no_mesh_work)
    cfg = write_config(tmp_path, **{**base, **changes})
    assert run(command, cfg, tmp_path / "out") == 1
    assert capsys.readouterr().err.startswith(f"config error: {message}")


def test_build_potential_returns_the_librarys_density(tmp_path):
    # bench/checks.py rebuilds the density of each solve op through it
    mesh = generate_disk(0.3)
    values = [1.0] * 4 + [0.0] * (mesh.n_boundary_edges - 4)
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({"edge_values": values}), encoding="utf-8")
    cases = {
        "file": ({"path": str(path)}, BoundaryDensity.of(mesh, values)),
        "constant": ({"value": 0.25}, BoundaryDensity.constant(mesh, 0.25)),
        "cap": ({"angle": 1.0, "mass": 1.5}, cap_indicator(mesh, 1.0, 1.5)[1]),
        "random": ({"seed": 3, "mass": 1.5}, random_admissible(mesh, 1.5, 3)),
    }
    assert set(cases) == set(cli._POTENTIALS)
    for kind, (keys, expected) in cases.items():
        phi = cli.build_potential({"potential": {"type": kind, **keys}}, mesh)
        assert isinstance(phi, BoundaryDensity), kind
        np.testing.assert_array_equal(phi.edge_values, expected.edge_values, err_msg=kind)


def test_sigma_sweep_reads_a_file_potential_once(tmp_path, monkeypatch):
    reads = []
    load = cli._load_density

    def counting(mesh, path):
        reads.append(path)
        return load(mesh, path)

    monkeypatch.setattr(cli, "_load_density", counting)
    values = [1.0] * 4 + [0.0] * 18
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"edge_values": values}), encoding="utf-8")
    cfg = write_config(
        tmp_path,
        **{**SWEEP_CONFIG, "mass": BoundaryDensity.of(generate_disk(0.3), values).mass},
        sigma_list=[1.0, 2.0, 4.0],
        potential={"type": "file", "path": str(phi)},
    )
    assert run("sigma-sweep", cfg, tmp_path / "out", "--jobs", "2") == 0
    assert reads == [phi]


OPTIMIZE_CONFIG = {**SOLVE_CONFIG, "mass": 1.0, "potential": None}
RECTANGLE = {"type": "rectangle", "width": 1.0, "height": 1.0, "target_h": 0.3}

# (command, base config, section or None, key, value before the overflow):
# every numeric config field, each set to a JSON integer beyond float range.
NUMERIC_FIELDS = [
    ("solve", SOLVE_CONFIG, "geometry", "h", None),
    ("solve", {**SOLVE_CONFIG, "geometry": RECTANGLE}, "geometry", "width", None),
    ("solve", {**SOLVE_CONFIG, "geometry": RECTANGLE}, "geometry", "height", None),
    ("solve", {**SOLVE_CONFIG, "geometry": RECTANGLE}, "geometry", "target_h", None),
    ("solve", SOLVE_CONFIG, "params", "p", None),
    ("solve", SOLVE_CONFIG, "params", "sigma", None),
    ("solve", SOLVE_CONFIG, "params", "eps_reg", None),
    ("solve", SOLVE_CONFIG, "solver", "tol", None),
    ("solve", SOLVE_CONFIG, "potential", "value", None),
    ("solve", {**SOLVE_CONFIG, "potential": {"type": "cap", "mass": 1.0}}, "potential", "angle", None),
    ("solve", {**SOLVE_CONFIG, "potential": {"type": "cap", "angle": 0.0}}, "potential", "mass", None),
    ("solve", {**SOLVE_CONFIG, "potential": {"type": "random"}}, "potential", "mass", None),
    ("optimize", OPTIMIZE_CONFIG, None, "mass", None),
    ("optimize", OPTIMIZE_CONFIG, None, "outer_tol", None),
    ("sigma-sweep", SWEEP_CONFIG, None, "sigma_list", [1.0]),
    ("shape-deriv", SHAPE_CONFIG, "region", "intervals", [0.5]),
    ("shape-deriv", SHAPE_CONFIG, "tangent", "speeds", [0.0]),
    ("shape-deriv", SHAPE_CONFIG, None, "fd_steps", [1e-2, 5e-3]),
    ("shape-deriv", SHAPE_CONFIG, None, "sign_convention", None),
]


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
@pytest.mark.parametrize(
    "command, base, section, key, head",
    NUMERIC_FIELDS,
    ids=[f"{f[0]}-{f[2] or 'config'}-{f[3]}" for f in NUMERIC_FIELDS],
)
def test_integers_beyond_float_range_are_config_errors(
    tmp_path, capsys, command, base, section, key, head, sign
):
    big = sign * 10**400
    value = big if head is None else head + [big]
    if key in ("intervals", "speeds"):
        value = [value]
    cfg = {k: v for k, v in base.items() if v is not None}
    if section is None:
        cfg[key] = value
    else:
        cfg[section] = {**cfg.get(section, {}), key: value}
    assert run(command, write_config(tmp_path, **cfg), tmp_path / "out") == 1
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "{",
            "config {path} is not valid JSON: Expecting property name enclosed in double "
            "quotes: line 1 column 2 (char 1)",
        ),
        ("[1]", "config must be a JSON object"),
    ],
    ids=["invalid-json", "not-an-object"],
)
def test_unreadable_config_messages(tmp_path, capsys, text, message):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    assert run("solve", path, tmp_path / "out") == 1
    assert capsys.readouterr().err == f"config error: {message.format(path=path)}\n"


def test_inner_solver_failure_is_a_numerical_exit(tmp_path):
    cfg = write_config(
        tmp_path,
        geometry=DISK_COARSE,
        params={"p": 2.0, "sigma": 5.0},
        mass=1.0,
        solver={"tol": 1e-14, "max_iters": 1},
    )
    assert run("optimize", cfg, tmp_path / "out") == 2


SUPERLU_MALLOC = "SUPERLU_MALLOC fails for buf in intCalloc() at line 173 in file memory.c"


@pytest.mark.parametrize(
    "error, message",
    [
        (MemoryError(), "resource error: out of memory"),
        (RuntimeError(SUPERLU_MALLOC + "\n"), f"resource error: out of memory ({SUPERLU_MALLOC})"),
    ],
    ids=["memory-error", "superlu-malloc"],
)
@pytest.mark.parametrize(
    "command, extra",
    [
        ("solve", {"potential": {"type": "constant", "value": 0.5}}),
        ("sigma-sweep", {"mass": 1.0, "sigma_list": [1.0, 2.0]}),
    ],
    ids=["solve", "sigma-sweep"],
)
def test_out_of_memory_is_one_line_and_writes_nothing(
    tmp_path, capsys, monkeypatch, command, extra, error, message
):
    # SuperLU reports a factorization that the address space cannot hold
    # either as a bare MemoryError or as a RuntimeError naming the failed malloc
    def no_memory(*args, **kwargs):
        raise error

    monkeypatch.setattr(eigensolver.spla, "splu", no_memory)
    cfg = write_config(tmp_path, geometry=DISK_COARSE, params={"p": 2.0, "sigma": 5.0}, **extra)
    out = tmp_path / "out"
    assert run(command, cfg, out, "--jobs", "2") == 1
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert captured.out == ""
    assert list(out.iterdir()) == []


# Runs the CLI with a process-local RLIMIT_AS set just before each sparse
# factorization, argv[1] bytes above the process's size then.
CAPPED_CLI = """
import resource, sys
from steklov import cli, eigensolver

factor = eigensolver._splu

def capped(A, dense=0, **options):
    with open("/proc/self/statm") as statm:
        size = int(statm.read().split()[0]) * resource.getpagesize()
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    resource.setrlimit(resource.RLIMIT_AS, (size + int(sys.argv[1]), hard))
    return factor(A, dense, **options)

eigensolver._splu = capped
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
@pytest.mark.parametrize("room", [0.5, 100.0], ids=["half-the-estimate", "ample"])
@pytest.mark.parametrize(
    "command, p, extra",
    [
        ("solve", 2.0, {"potential": {"type": "constant", "value": 0.5}}),
        # the boundary operator's factor, with its dense B x B block
        ("sigma-sweep", 2.0, {"mass": 1.0, "sigma_list": [1.0, 2.0]}),
        # the descent's metric, factored in SuperLU's default order
        ("solve", 3.0, {"potential": {"type": "constant", "value": 0.5}}),
    ],
    ids=["solve", "sigma-sweep", "solve-p3"],
)
def test_factorization_that_cannot_fit_the_address_space_fails_at_once(
    tmp_path, command, p, extra, room
):
    # A factorization whose estimated memory exceeds what the address-space
    # limit leaves is refused before SuperLU starts (which could otherwise
    # spin for minutes); one with room to spare runs.  The limit is set in
    # a child process only.
    mesh = generate_disk(0.025)
    n, dense = mesh.n_vertices, mesh.n_boundary_edges if command == "sigma-sweep" else 0
    need = eigensolver._ENTRY_BYTES * (eigensolver._FILL * n * math.log2(n) + dense**2)
    cfg = write_config(
        tmp_path, geometry={"type": "disk", "h": 0.025}, params={"p": p, "sigma": 5.0}, **extra
    )
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_CLI, str(int(room * need))]
        + [command, "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    if room < 1.0:
        assert proc.returncode == 1
        assert re.fullmatch(
            f"resource error: out of memory \\(factoring {n} unknowns needs about "
            f"{need / 2**20:.0f} MB, the address-space limit leaves \\d+ MB\\)\n",
            proc.stderr,
        ), proc.stderr
        assert list(out.iterdir()) == []
    else:
        assert proc.returncode == 0, proc.stderr


def test_other_factorization_errors_are_not_memory_errors(tmp_path, monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(eigensolver.spla, "splu", singular)
    cfg = write_config(
        tmp_path,
        geometry=DISK_COARSE,
        params={"p": 2.0, "sigma": 5.0},
        potential={"type": "constant", "value": 0.5},
    )
    with pytest.raises(RuntimeError, match="^Factor is exactly singular$"):
        run("solve", cfg, tmp_path / "out")


def test_a_failed_rename_leaves_no_output_file(tmp_path, capsys, monkeypatch):
    # the temp file is removed when the rename onto the output path fails
    def no_rename(src, dst):
        raise OSError(f"cannot rename {src} to {dst}")

    monkeypatch.setattr(cli.os, "replace", no_rename)
    cfg = write_config(tmp_path, **SOLVE_CONFIG)
    out = tmp_path / "out"
    assert run("solve", cfg, out) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("i/o error: cannot rename ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert list(out.iterdir()) == []


def test_a_failed_clean_up_still_reports_the_failed_rename(tmp_path, capsys, monkeypatch):
    # when removing the temp file fails too, the rename's error propagates
    # and the temp file stays
    def no_rename(src, dst):
        raise OSError(f"cannot rename {src} to {dst}")

    def no_unlink(path):
        raise OSError(f"cannot remove {path}")

    monkeypatch.setattr(cli.os, "replace", no_rename)
    monkeypatch.setattr(cli.os, "unlink", no_unlink)
    cfg = write_config(tmp_path, **SOLVE_CONFIG)
    out = tmp_path / "out"
    assert run("solve", cfg, out) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("i/o error: cannot rename ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert [path.suffix for path in out.iterdir()] == [".tmp"]


def test_output_dir_from_config_is_created(tmp_path):
    target = tmp_path / "fresh" / "nested"
    cfg = write_config(
        tmp_path,
        geometry=DISK_COARSE,
        params={"p": 2.0, "sigma": 0.0},
        potential={"type": "constant", "value": 0.0},
        output_dir=str(target),
    )
    assert main(["solve", "--config", str(cfg)]) == 0
    assert (target / "eigenpair.json").exists()


def test_console_entry_point_runs(tmp_path):
    cfg = write_config(
        tmp_path,
        geometry=DISK_COARSE,
        params={"p": 2.0, "sigma": 0.0},
        potential={"type": "constant", "value": 0.0},
    )
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "steklov.cli", "solve", "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "lambda =" in proc.stdout
    assert (out / "eigenpair.json").exists()


# ------------------------------------------------------------- JSON output
#
# The writer joins lists of finite floats itself; its bytes must stay those
# of json.dumps(obj, indent=2).


def test_every_json_record_is_what_json_dumps_writes(tmp_path, monkeypatch):
    written = []
    write = cli._write_json

    def capture(path, obj):
        write(path, obj)
        written.append((path, obj))

    monkeypatch.setattr(cli, "_write_json", capture)
    p2 = {"p": 2.0, "sigma": 5.0}
    runs = {
        "solve": dict(params=p2, potential={"type": "random", "seed": 3, "mass": 2.0}),
        "solve-p3": dict(
            params={"p": 3.0, "sigma": 2.0}, potential={"type": "constant", "value": 0.3}
        ),
        "optimize": dict(params=p2, mass=1.3),
        "sigma-sweep": dict(params=p2, mass=math.pi / 2, sigma_list=[1.0, 10.0]),
        "shape-deriv": dict(
            params=p2, region=_half_disk_region_config(0.3), tangent={"speeds": [[0.0, 1.0]]}
        ),
        "symmetry-check": dict(params=p2, mass=math.pi / 2),
    }
    for name, cfg in runs.items():
        path = write_config(tmp_path, name=f"{name}.json", geometry=DISK_COARSE, **cfg)
        assert run(name.removesuffix("-p3"), path, tmp_path / name) in (0, 2)
    assert sorted(path.name for path, _ in written) == [
        "derivative_report.json",
        "eigenpair.json",
        "eigenpair.json",
        "final_potential.json",
        "reference_eigenpair.json",
        "symmetry_report.json",
        "trace.json",
    ]
    for path, obj in written:
        assert path.read_bytes() == (json.dumps(obj, indent=2) + "\n").encode()


JSON_EDGE_CASES = {
    "empty-list": [],
    "empty-dict": {},
    "empty-containers-nested": {"a": [], "b": {}, "c": [[], {}]},
    "non-finite-floats": {"u": [1.5, math.nan, -0.0], "v": [math.inf, 2.0, -math.inf]},
    "overflowing-sum": [1e308, 1e308, 5e-324],
    "nested-lists": [[0.1, 2.5e-300], [[1.0, -3.25]], [1, 2.0, True, None], 7],
    "non-ascii": {"λ": ["σ-sweep", "naïve   \"q\""], "φ": [0.5, 1.0]},
    "non-string-keys": {"s": {1: [0.5, 1.5], 2.5: None, True: "x"}},
    "tuple": {"t": (0.25, 0.5), "nested": [(1.0, (2.0,))]},
    "shortest-reprs": {"x": [float.fromhex("0x1.8p-3"), 1e16, 1.0000000000000002]},
    "numpy-floats": {"x": [np.float64(0.1), np.float64(-2.5)], "y": np.float64(3.0)},
}


@pytest.mark.parametrize("case", sorted(JSON_EDGE_CASES))
def test_json_writer_matches_json_dumps_on_edge_cases(tmp_path, case):
    obj = JSON_EDGE_CASES[case]
    path = tmp_path / "out.json"
    cli._write_json(path, obj)
    assert path.read_bytes() == (json.dumps(obj, indent=2) + "\n").encode()
