"""Each solver input follows one rule, and every route applies it.

The routes are the p = 2 plain route (a fresh factorization per solve), the
p = 2 reduced route (on the mesh's boundary operator, built first) and the
p = 3 descent.  An input that breaks a rule gets the same exception with the
same message from each of them.  The p = 2 problem is one problem on the
free, the pinned and the descent route alike, so an ``eps_reg`` it cannot
hold is refused by all of them.
"""

import math
import re

import numpy as np
import pytest

from steklov import (
    BoundaryDensity,
    ProblemParams,
    RegionSpec,
    SolverOptions,
    assemble_linear,
    generate_disk,
    optimize_potential,
    rasterize_region,
    solve_dirichlet,
    solve_linear,
    solve_nonlinear,
)
from steklov import eigensolver
from steklov.eigensolver import boundary_operator, prepare_repeated_solves

ROUTES = ("plain", "reduced", "descent")


@pytest.fixture(scope="module")
def meshes():
    plain, reduced = generate_disk(0.3), generate_disk(0.3)
    assert boundary_operator(reduced) is not None
    return {"plain": plain, "reduced": reduced, "descent": plain, "rasterize": plain}


def _solve(route, mesh, phi, sigma, opts=None):
    if route == "descent":
        return solve_nonlinear(mesh, phi, ProblemParams(p=3.0, sigma=sigma), opts)
    return solve_linear(mesh, phi, ProblemParams(sigma=sigma), opts)


def _outcome(call):
    """``("returned", lam)`` for a pair (a float is its own value), else the
    exception's type name and message."""
    try:
        value = call()
        return "returned", getattr(value, "lam", value)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc).__name__, str(exc)


def _raised(make):
    """The outcome of a call that ``make`` raises from by itself."""
    with pytest.raises(Exception) as info:
        make()
    return type(info.value).__name__, str(info.value)


def _pinned(route, mesh):
    """A region built on perimeter 6, which no disk mesh has."""
    region = RegionSpec.from_intervals([(0.0, 1.0)], 6.0)
    if route == "rasterize":
        return rasterize_region(mesh, region).mass
    return solve_dirichlet(mesh, region, ProblemParams(p=3.0 if route == "descent" else 2.0))


def _sigma_case(sigma):
    return pytest.param(
        ROUTES,
        lambda route, mesh: _solve(route, mesh, BoundaryDensity.constant(mesh, 0.5), sigma),
        lambda route, mesh: _raised(lambda: ProblemParams(sigma=sigma)),
        id=f"sigma={sigma}",
    )


CASES = [
    pytest.param(
        ROUTES,
        lambda route, mesh: _solve(route, mesh, np.full(mesh.n_boundary_edges, -3.0), 1.0),
        lambda route, mesh: ("TypeError", "phi must be a BoundaryDensity, got ndarray"),
        id="raw-density",
    ),
    # at sigma = 0 the density is never read, whatever it is
    pytest.param(
        ROUTES,
        lambda route, mesh: _solve(route, mesh, np.zeros(mesh.n_boundary_edges + 3), 0.0),
        lambda route, mesh: (
            "returned",
            _solve(route, mesh, BoundaryDensity.constant(mesh, 0.0), 0.0).lam,
        ),
        id="unread-density",
    ),
    _sigma_case(-5.0),
    _sigma_case(math.nan),
    _sigma_case(math.inf),
    pytest.param(
        ROUTES + ("rasterize",),
        _pinned,
        lambda route, mesh: ("ValueError", f"region perimeter 6.0 != mesh's {mesh.perimeter!r}"),
        id="foreign-region",
    ),
    pytest.param(
        ROUTES,
        lambda route, mesh: _solve(
            route, mesh, BoundaryDensity.constant(mesh, 0.3), 2.0, SolverOptions(max_iters=2.5)
        ),
        lambda route, mesh: ("ValueError", "max_iters must be an integer of at least 1, got 2.5"),
        id="fractional-max-iters",
    ),
]


@pytest.mark.parametrize("routes, call, expected", CASES)
def test_every_route_applies_one_rule_per_input(meshes, routes, call, expected):
    outcomes = {route: _outcome(lambda: call(route, meshes[route])) for route in routes}
    assert outcomes == {route: expected(route, meshes[route]) for route in routes}


@pytest.mark.parametrize("max_iters", [True, 0, 2.0, "3"])
def test_max_iters_must_be_a_positive_integer(max_iters):
    message = f"max_iters must be an integer of at least 1, got {max_iters!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SolverOptions(max_iters=max_iters)


def test_max_iters_takes_any_integer_type():
    assert SolverOptions(max_iters=np.int64(3)).max_iters == 3


# A u = lambda Mb u has no eps term: a p = 2 route that read eps_reg would
# add eps^2 * |Omega_h| to its quotient, one that dropped it would solve
# another problem than it was given.
EPS_AT_TWO = ProblemParams(p=2.0, sigma=5.0, eps_reg=0.5)


def test_every_p2_route_rejects_eps_reg(meshes):
    def on(route):
        mesh = meshes[route]
        phi = BoundaryDensity.constant(mesh, 0.3)
        region = RegionSpec.from_intervals([(0.0, 1.0)], mesh.perimeter)
        return {
            f"{route}-free": lambda: solve_linear(mesh, phi, EPS_AT_TWO),
            f"{route}-pinned": lambda: solve_dirichlet(mesh, region, EPS_AT_TWO),
            f"{route}-descent": lambda: solve_nonlinear(mesh, phi, EPS_AT_TWO),
        }

    calls = {**on("plain"), **on("reduced")}
    outcomes = {name: _outcome(call) for name, call in calls.items()}
    assert outcomes == dict.fromkeys(calls, ("ValueError", "eps_reg must be 0 at p = 2, got 0.5"))


def test_rejected_params_build_no_boundary_operator():
    mesh = generate_disk(0.3)
    with pytest.raises(ValueError, match="^eps_reg must be 0 at p = 2, got 0.5$"):
        prepare_repeated_solves(mesh, EPS_AT_TWO)
    with pytest.raises(ValueError, match="^eps_reg must be 0 at p = 2, got 0.5$"):
        optimize_potential(mesh, EPS_AT_TWO, math.pi / 2)
    assert mesh not in eigensolver._operators


def test_solve_linear_solves_p2_only(meshes):
    mesh = meshes["plain"]
    phi = BoundaryDensity.constant(mesh, 0.3)
    with pytest.raises(ValueError, match=r"^solve_linear solves p = 2 only, got p = 3\.0$"):
        solve_linear(mesh, phi, ProblemParams(p=3.0, sigma=1.0))


@pytest.mark.parametrize("max_outer", [2.5, True])
def test_max_outer_follows_the_step_cap_rule(meshes, max_outer):
    message = f"max_outer must be an integer of at least 1, got {max_outer!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        optimize_potential(
            meshes["plain"], ProblemParams(sigma=1.0), math.pi / 2, max_outer=max_outer
        )


@pytest.mark.parametrize("sigma", [-5.0, math.nan])
def test_assemble_linear_checks_sigma_by_the_problem_rule(meshes, sigma):
    mesh = meshes["plain"]
    phi = BoundaryDensity.constant(mesh, 1.0)
    assert _raised(lambda: assemble_linear(mesh, phi, sigma)) == _raised(
        lambda: ProblemParams(sigma=sigma)
    )
