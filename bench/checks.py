"""Output checks for one CLI op, computed from the files it wrote.

The checks never trust a solver's own ``converged`` flag or residual.  They
reload the written eigenfunction and recompute, on the op's mesh:

* the Rayleigh quotient, which must reproduce the written eigenvalue;
* the relative eigen-residual, ``|A u - lam Mb u| / |A u|`` for p = 2 and
  ``|grad E - lam grad B| / |grad E|`` otherwise, which feeds the
  ``resid_digits`` metric.

``check_op`` returns a dict with the op's record fields and a list of the
checks that failed; an empty list and exit code 0 mean the op succeeded.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from steklov.assembly import (
    BoundaryDensity,
    assemble_linear,
    boundary_p_power,
    boundary_power_gradient,
    energy,
    energy_gradient,
)
from steklov.cli import build_params, build_potential

RAYLEIGH_RTOL = 1e-10
POSITIVITY_TOL = -1e-8
MASS_RTOL = 1e-10
SHAPE_DERIV_MAX_REL_ERROR = 0.05


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _images(mesh, u, phi, params):
    """``(A u, Mb u)`` for p = 2, ``(grad E, grad B)`` otherwise."""
    if params.p == 2.0:
        A, Mb = assemble_linear(mesh, phi, params.sigma)
        return A @ u, Mb @ u
    return (
        energy_gradient(mesh, u, phi, params),
        boundary_power_gradient(mesh, u, params.p),
    )


def eigen_residual(left, right, lam, rows=None):
    """Relative residual ``|left - lam right| / |left|``, optionally on ``rows``."""
    r = left - lam * right
    if rows is not None:
        r, left = r[rows], left[rows]
    return float(np.linalg.norm(r) / max(float(np.linalg.norm(left)), 1e-300))


def rayleigh_quotient(mesh, u, phi, params, left, right):
    if params.p == 2.0:
        return float(u @ left) / float(u @ right)
    return energy(mesh, u, phi, params) / boundary_p_power(mesh, u, params.p)


def _check_solve(cfg, out, mesh, rec, failures):
    pair = _read_json(out / "eigenpair.json")
    u = np.asarray(pair["u"], dtype=np.float64)
    lam = float(pair["lambda"])
    rec["lambda"] = lam
    rec["iterations"] = int(pair["iterations"])
    params = build_params(cfg)
    phi = build_potential(cfg, mesh)
    left, right = _images(mesh, u, phi, params)
    rec["residual"] = eigen_residual(left, right, lam)
    rq = rayleigh_quotient(mesh, u, phi, params, left, right)
    if not abs(rq - lam) <= RAYLEIGH_RTOL * abs(lam):
        failures.append(f"rayleigh quotient {rq!r} != lambda {lam!r}")
    if not u.min() >= POSITIVITY_TOL:
        failures.append(f"eigenfunction has negative values (min {u.min()!r})")


def _check_optimize(cfg, out, mesh, rec, failures):
    _, rows = _read_csv(out / "trace.csv")
    lams = [float(r[1]) for r in rows]
    rec["lambda"] = lams[-1]
    rec["iterations"] = len(lams)
    if any(b > a for a, b in zip(lams, lams[1:])):
        failures.append("optimize trace increases")
    edge_values = np.asarray(_read_json(out / "final_potential.json")["edge_values"])
    mass = float(edge_values @ mesh.edge_lengths)
    if not abs(mass - cfg["mass"]) <= MASS_RTOL * max(1.0, cfg["mass"]):
        failures.append(f"final mass {mass!r} != configured {cfg['mass']!r}")


def _check_sigma_sweep(cfg, out, mesh, rec, failures):
    _, rows = _read_csv(out / "sweep.csv")
    gaps = [float(r[2]) - float(r[1]) for r in rows]
    if len(gaps) != len(cfg["sigma_list"]) or not all(g > 0.0 for g in gaps):
        failures.append(f"sweep gaps not all positive: {gaps!r}")
    pair = _read_json(out / "reference_eigenpair.json")
    u = np.asarray(pair["u"], dtype=np.float64)
    lam = float(pair["lambda"])
    rec["lambda"] = lam
    rec["iterations"] = int(pair["iterations"])
    # The pinned reference solves the sigma-free problem on the vertices it
    # leaves free, so its residual is taken on the rows where u != 0.
    zero = BoundaryDensity.constant(mesh, 0.0)
    params = build_params({"params": {"p": cfg["params"]["p"], "sigma": 0.0}})
    left, right = _images(mesh, u, zero, params)
    rec["residual"] = eigen_residual(left, right, lam, rows=u != 0.0)


def _check_symmetry(cfg, out, mesh, rec, failures):
    report = _read_json(out / "symmetry_report.json")
    rec["lambda"] = float(np.mean(report["lambdas"]))
    if report["passed"] is not True:
        failures.append("symmetry-check did not pass")


def _check_shape_deriv(cfg, out, mesh, rec, failures):
    report = _read_json(out / "derivative_report.json")
    rec["lambda"] = None
    rel = float(report["relative_error"])
    if not rel <= SHAPE_DERIV_MAX_REL_ERROR:
        failures.append(f"shape derivative relative error {rel!r}")


_CHECKS = {
    "solve": _check_solve,
    "optimize": _check_optimize,
    "sigma-sweep": _check_sigma_sweep,
    "symmetry-check": _check_symmetry,
    "shape-deriv": _check_shape_deriv,
}


def check_op(command, cfg, out, mesh, exit_code):
    """Record and failed checks of one finished op.

    ``mesh`` is the mesh the op built, or ``None`` if it never got that far.
    Outputs are checked even after a non-zero exit, so that the residual of a
    written but unconverged eigenpair still counts.
    """
    rec = {"exit_code": exit_code, "lambda": None, "iterations": None, "residual": None}
    failures = []
    if exit_code != 0:
        failures.append(f"exit code {exit_code}")
    if mesh is None:
        failures.append("op built no mesh")
        return rec, failures
    rec["n"] = int(mesh.n_vertices)
    rec["B"] = int(mesh.n_boundary_edges)
    try:
        _CHECKS[command](cfg, out, mesh, rec, failures)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        failures.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return rec, failures

