"""Each solver input follows one rule, and every route applies it.

The routes are the p = 2 plain route (a fresh factorization per solve), the
p = 2 reduced route (on the mesh's boundary operator, built first) and the
p = 3 descent.  An input that breaks a rule gets the same exception with the
same message from each of them.
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
    generate_disk,
    rasterize_region,
    solve_dirichlet,
    solve_linear,
    solve_nonlinear,
)
from steklov.eigensolver import boundary_operator

ROUTES = ("plain", "reduced", "descent")


@pytest.fixture(scope="module")
def meshes():
    plain, reduced = generate_disk(0.3), generate_disk(0.3)
    assert boundary_operator(reduced) is not None
    return {"plain": plain, "reduced": reduced, "descent": plain, "rasterize": plain}


def _solve(route, mesh, phi, sigma, opts=None):
    if route == "descent":
        return solve_nonlinear(mesh, phi, ProblemParams(p=3.0, sigma=sigma), opts)
    return solve_linear(mesh, phi, sigma, opts)


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
