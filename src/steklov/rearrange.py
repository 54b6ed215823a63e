"""Optimal boundary-potential rearrangement by alternating minimization.

For a fixed trace u, the best mass-a density minimizing the boundary term
is the solution of a one-dimensional transportation LP whose optimum is a
sub-level set ("bathtub") fill: sort edges by trace weight, fill the
cheapest ones, split at most one edge fractionally.  Alternating eigensolve
and bathtub steps monotonically drives the eigenvalue down; on the disk the
iteration settles on a single boundary cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .assembly import BoundaryDensity, _as_values, density_weights
from .errors import NonConvergenceError
from .eigensolver import (
    SolverOptions,
    _check_loop,
    prepare_repeated_solves,
    solve_linear,
    solve_nonlinear,
)
from .mesh import RegionSpec

#: ``optimize_potential``'s default limit on outer iterations.
DEFAULT_MAX_OUTER = 100


def _circular_overlaps(mesh, start, length):
    """Overlap length of window ``[start, start + length)`` with every edge."""
    P = mesh.perimeter
    x = (mesh.cum_arclength - start) % P  # edge start in window coordinates
    le = mesh.edge_lengths
    main = np.maximum(0.0, np.minimum(le, length - x))  # le itself for a whole edge
    wrapped = np.maximum(0.0, np.minimum(x + le - P, length))
    return main + wrapped


def rasterize_region(mesh, region):
    """Edge-value indicator of a region built on ``mesh`` (see
    :meth:`RegionSpec.check_mesh`): per-edge covered fraction in [0, 1]."""
    region.check_mesh(mesh)
    vals = np.zeros(mesh.n_boundary_edges)
    for start, length in region.arcs:
        vals += _circular_overlaps(mesh, start, length) / mesh.edge_lengths
    return BoundaryDensity.of(mesh, np.minimum(vals, 1.0))


def _single_arc(mesh, start, mass):
    """The arc ``[start, start + mass)``, ``mass > 0``, as ``(RegionSpec, BoundaryDensity)``.

    The density rasterizes the arc, with fractional end edges, and is
    exactly 1 from the full perimeter up.
    """
    P = mesh.perimeter
    if mass >= P:
        return RegionSpec(((start, P),), P), BoundaryDensity.constant(mesh, 1.0)
    region = RegionSpec.from_intervals([(start, start + mass)], P)
    return region, rasterize_region(mesh, region)


def _check_cap(kind, center_angle):
    """The rules of :func:`cap_indicator` that need no mesh, only its kind."""
    if kind != "disk":
        raise ValueError(f"cap_indicator requires a disk mesh, got kind={kind!r}")
    if not math.isfinite(center_angle):
        raise ValueError(f"cap angle must be finite, got {center_angle}")


def cap_indicator(mesh, center_angle, mass):
    """Single boundary arc of the given mass centered at polar angle ``center_angle``.

    Only meaningful on generator-tagged disk meshes, where arc length and
    polar angle are proportional.  Returns ``(RegionSpec, BoundaryDensity)``
    as :func:`_single_arc` builds them.
    """
    _check_cap(mesh.kind, center_angle)
    P = mesh.perimeter
    if not (0.0 < mass <= P):
        raise ValueError(f"cap mass must lie in (0, perimeter], got {mass}")
    center_s = (center_angle % (2.0 * math.pi)) / (2.0 * math.pi) * P
    return _single_arc(mesh, (center_s - 0.5 * mass) % P, mass)


def _check_mass(mesh, mass, start=None):
    """The mass rule: reject a mass outside ``[0, perimeter]`` and a ``start``
    density of another mass, each with a slack of 1e-12 perimeters."""
    P = mesh.perimeter
    slack = 1e-12 * P
    if not (0.0 <= mass <= P + slack):
        raise ValueError(f"'mass' must lie in [0, perimeter={P!r}], got {mass!r}")
    if start is not None and not abs(start.mass - mass) <= slack:
        raise ValueError(f"the start density has mass {start.mass!r}, not 'mass'={mass!r}")


def bathtub(mesh, u, mass, p=2.0):
    """Exact minimizer of ``sum_e phi_e w_e len_e`` at the given mass.

    ``w_e = (|u_i|^p + |u_j|^p) / 2`` is the trapezoid trace weight of the
    edge e from boundary vertex i to j, so the sum is the energy's coupling
    term without sigma (:func:`bathtub_objective`).  Edges are filled in
    ascending-weight order (ties by lower edge index) with at most one
    fractional edge; this greedy fill is the exact optimum of the
    underlying LP.  Returns ``(BoundaryDensity, level)`` where ``level`` is
    the weight of the last edge touched.
    """
    _check_mass(mesh, mass)
    pb = np.abs(_as_values(u, mesh)[mesh.boundary_vertices]) ** p
    w = 0.5 * (pb + np.roll(pb, -1))
    order = np.argsort(w, kind="stable")
    lens = mesh.edge_lengths[order]
    # The mass left before each edge while every earlier edge fills, taken
    # one subtraction at a time; the leading edges that it fills are full.
    left = np.subtract.accumulate(np.concatenate(([float(mass)], lens)))[:-1]
    n_full = int(np.logical_and.accumulate((left > 0.0) & (left >= lens)).sum())
    phi = np.zeros(mesh.n_boundary_edges)
    phi[order[:n_full]] = 1.0
    touched = n_full
    if n_full < len(order) and left[n_full] > 0.0:
        phi[order[n_full]] = left[n_full] / lens[n_full]
        touched += 1
    level = float(w[order[touched - 1]]) if touched else 0.0
    return BoundaryDensity.of(mesh, phi), level


def bathtub_objective(mesh, u, phi, p=2.0):
    """The boundary LP objective ``sum_e phi_e w_e len_e`` for density phi.

    Summed vertex by vertex as ``density_weights(phi) @ |u|^p``, the
    energy's coupling term without sigma.
    """
    return float(np.dot(density_weights(mesh, phi), np.abs(_as_values(u, mesh)) ** p))


def random_admissible(mesh, mass, seed):
    """Deterministic random density with exactly the requested mass.

    Uniform values are rescaled to the target mass; values clipped at 1 are
    frozen and the remainder rescaled again until feasible.
    """
    _check_mass(mesh, mass)
    B = mesh.n_boundary_edges
    lens = mesh.edge_lengths
    if mass == 0.0:
        return BoundaryDensity.of(mesh, np.zeros(B))
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.0, 1.0, B)
    saturated = np.zeros(B, dtype=bool)
    for _ in range(B + 1):
        free_mass = float(np.dot(vals[~saturated], lens[~saturated]))
        target = mass - float(np.dot(vals[saturated], lens[saturated]))
        if free_mass <= 0.0 or target <= 0.0:
            break
        vals[~saturated] *= target / free_mass
        over = (vals > 1.0) & ~saturated
        if not over.any():
            break
        vals[over] = 1.0
        saturated |= over
    return BoundaryDensity.of(mesh, np.clip(vals, 0.0, 1.0))


def support_region(mesh, phi):
    """The support of the density: arcs of maximal runs of edges with ``phi_e > 0``.

    Fractional edges are included, so the support's indicator dominates the
    density edgewise.
    """
    mask = phi.edge_values > 0.0
    P = mesh.perimeter
    if not mask.any():
        return RegionSpec(arcs=(), perimeter=P)
    if mask.all():
        return RegionSpec(arcs=((0.0, P),), perimeter=P)
    # The first and last edge of each cyclic run of True, in edge order.
    starts = np.flatnonzero(mask & ~np.roll(mask, 1))
    ends = np.flatnonzero(mask & ~np.roll(mask, -1))
    if ends[0] < starts[0]:  # the last run wraps through edge 0
        ends = np.roll(ends, -1)
    cum = np.append(mesh.cum_arclength, P)
    return RegionSpec.from_intervals(list(zip(cum[starts], cum[ends + 1])), P)


def _best_window(mesh, phi):
    """Start and captured mass of the window of length ``mass(phi)`` that meets the most mass.

    Slides a window ``[alpha, alpha + mass)`` around the boundary and sums
    the full mass ``phi_e len_e`` of every edge the window meets.  The
    met-edge set is constant between consecutive events (edge starts and
    edge starts minus the mass), so the windows tried start at the
    midpoints between events, which keeps window ends off edge boundaries.
    Requires ``0 < mass(phi) < perimeter``.
    """
    m = phi.mass
    P = mesh.perimeter
    edge_masses = phi.edge_values * mesh.edge_lengths
    starts = mesh.cum_arclength
    events = np.unique(np.concatenate([starts, (starts - m) % P]))
    gaps = np.diff(np.concatenate([events, [events[0] + P]]))
    mids = (events + 0.5 * gaps) % P
    best, best_alpha = -1.0, 0.0
    for alpha in mids:
        captured = float(edge_masses[_circular_overlaps(mesh, alpha, m) > 0.0].sum())
        if captured > best:
            best, best_alpha = captured, float(alpha)
    return best_alpha, best


def arc_defect(mesh, phi):
    """Mass not captured by the best single window of length ``mass(phi)``.

    The defect is ``mass - captured`` for the window of :func:`_best_window`.
    Zero (up to rasterization) exactly when the density is a single-arc
    indicator.
    """
    m = phi.mass
    if m <= 0.0 or m >= mesh.perimeter:
        return 0.0
    _, captured = _best_window(mesh, phi)
    # full-capture windows can overshoot the mass by rounding
    return max(0.0, m - captured)


def _window_density(mesh, phi):
    """The single arc of mass ``mass(phi)`` on :func:`_best_window`'s window."""
    alpha, _ = _best_window(mesh, phi)
    return _single_arc(mesh, alpha, phi.mass)[1]


@dataclass
class OptimizationTrace:
    """History of one alternating optimize run, one entry per outer iteration."""

    lambdas: list
    potentials: list
    levels: list
    converged: bool
    diagnostics: dict = dc_field(default_factory=dict)

    @property
    def outer_iterations(self):
        return len(self.lambdas)

    @property
    def final_potential(self):
        return self.potentials[-1]

    @property
    def final_lambda(self):
        return self.lambdas[-1]


def _initial_density(mesh, mass, phi0):
    """``phi0``, or for ``None`` the single arc ``[0, mass)``."""
    if phi0 is not None:
        return phi0
    if mass == 0.0:
        return BoundaryDensity.of(mesh, np.zeros(mesh.n_boundary_edges))
    return _single_arc(mesh, 0.0, mass)[1]


def optimize_potential(
    mesh,
    params,
    mass,
    opts=None,
    phi0=None,
    max_outer=DEFAULT_MAX_OUTER,
    outer_tol=None,
):
    """Minimize the first eigenvalue over densities of the given mass.

    Alternates an eigensolve for the current density with a bathtub refill
    for the current trace.  The run starts from the ``BoundaryDensity``
    ``phi0`` (a random start is ``random_admissible(mesh, mass, seed)``) or,
    for ``None``, from the single arc ``[0, mass)``; ``phi0`` must have mass
    ``mass``, as every refill has (:func:`_check_mass`).  Inner solves are
    warm-started with the previous eigenfunction, which makes the recorded
    eigenvalues non-increasing.
    :func:`prepare_repeated_solves` runs first, so for p = 2 the solves of
    this run and of later runs on the same mesh share one factorization.
    Stops on a refill equal, edge by edge within 1e-12, to the current
    density (a bathtub fixed point) or to one of the four before it (a
    cycle, flagged in diagnostics), on a relative eigenvalue change below
    ``outer_tol`` (finite and positive; by default ``opts.tol``, else
    1e-9), or after ``max_outer`` iterations.

    A fixed point whose support has more than one arc can be a saddle
    between single caps (two antipodal arcs of half the mass each on the
    disk).  There the run solves once, warm-started, on the single arc of
    the same mass on :func:`arc_defect`'s best window and, if that
    eigenvalue is lower, continues from that arc as its next outer
    iteration (counted in ``diagnostics["window_restarts"]``); otherwise it
    stops at the fixed point with ``diagnostics["window_rejected"]`` set.
    Either way the recorded eigenvalues stay non-increasing.
    """
    opts = opts or SolverOptions()
    if outer_tol is None:
        outer_tol = opts.tol if opts.tol is not None else 1e-9
    if phi0 is not None and not isinstance(phi0, BoundaryDensity):
        raise TypeError(f"phi0 must be a BoundaryDensity or None, got {phi0!r}")
    _check_mass(mesh, mass, phi0)
    _check_loop("max_outer", max_outer, "outer_tol", outer_tol)

    phi = _initial_density(mesh, mass, phi0)
    prepare_repeated_solves(mesh, params)
    lambdas, potentials, levels = [], [], []
    history = []
    converged = False
    diagnostics = {}

    def same(a, b):
        return float(np.abs(a - b).max(initial=0.0)) <= 1e-12

    def solve(density, start, k):
        eig = (solve_linear if params.p == 2.0 else solve_nonlinear)(
            mesh, density, params, opts=opts, start=start
        )
        if not eig.converged:
            raise NonConvergenceError(
                f"inner eigensolve failed at outer iteration {k}",
                diagnostics={"outer_iteration": k, "eigen": eig.diagnostics},
            )
        return eig

    eig = window_eig = None
    for k in range(max_outer):
        if window_eig is not None:
            eig, window_eig = window_eig, None
        else:
            eig = solve(phi, None if eig is None else eig.u, k)
        lambdas.append(eig.lam)
        potentials.append(phi)
        new_phi, level = bathtub(mesh, eig.u, mass, params.p)
        levels.append(level)

        if same(new_phi.edge_values, phi.edge_values):
            if len(support_region(mesh, phi).arcs) > 1:
                window = _window_density(mesh, phi)
                trial = solve(window, eig.u, k + 1)
                if trial.lam < eig.lam:
                    diagnostics["window_restarts"] = diagnostics.get("window_restarts", 0) + 1
                    phi, window_eig = window, trial
                    continue
                diagnostics["window_rejected"] = True
            converged = True
            break
        if any(same(new_phi.edge_values, old) for old in history):
            diagnostics["cycle_detected"] = True
            break
        if len(lambdas) >= 2 and abs(lambdas[-1] - lambdas[-2]) <= outer_tol * abs(
            lambdas[-1]
        ):
            converged = True
            break
        history.append(phi.edge_values)
        history = history[-4:]
        phi = new_phi

    return OptimizationTrace(
        lambdas=lambdas,
        potentials=potentials,
        levels=levels,
        converged=converged,
        diagnostics=diagnostics,
    )
