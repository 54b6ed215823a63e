"""Tangential shape derivatives of the lowest boundary-weighted eigenvalue.

The region ``D`` enters the eigenvalue problem through the indicator
potential ``chi_D``.  Sliding the endpoints of ``D`` along the boundary at
prescribed tangential speeds changes the eigenvalue; the envelope theorem
gives a closed-form first derivative in terms of the eigenfunction's trace
at the endpoints.  This module evaluates that formula and arbitrates it
against a finite-difference oracle that re-rasterizes the perturbed region
on the *same* mesh (the domain never moves, only the indicator does).

The formula carries the envelope-theorem sign, under which enlarging the
region increases the eigenvalue for positive coupling, and so does the
finite-difference oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .assembly import Field, ProblemParams, boundary_p_power
from .eigensolver import (
    EigenPair,
    SolverOptions,
    prepare_repeated_solves,
    rayleigh,
    solve_linear,
    solve_nonlinear,
)
from .errors import RegionCollisionError
from .mesh import Mesh, RegionSpec, locate_arc_point
from .rearrange import rasterize_region

__all__ = [
    "TangentField",
    "DerivativeReport",
    "shape_derivative_formula",
    "perturb_region",
    "shape_derivative_fd",
]

#: Default finite-difference steps; geometric with ratio 2 so the two
#: smallest entries support Richardson extrapolation of the O(t^2) error.
DEFAULT_FD_STEPS = (1e-2, 5e-3, 2.5e-3)

# Relative slack for the eigenpair/region consistency guard.  The Rayleigh
# quotient of the supplied eigenfunction under the region's rasterized
# potential must reproduce the stored eigenvalue to this accuracy.
_CONSISTENCY_RTOL = 1e-6


def _check_pair_count(speeds, arcs) -> None:
    if len(speeds) != len(arcs):
        raise ValueError(
            f"need one (begin, end) speed pair per arc: got {len(speeds)} "
            f"pairs for {len(arcs)} arcs"
        )


@dataclass(frozen=True)
class TangentField:
    """Tangential speeds at the endpoints of a region's arcs.

    ``speeds[i]`` is the pair ``(v_begin, v_end)`` for the i-th arc of the
    region, in the same order as ``region.arcs``.  Positive speed moves an
    endpoint in the direction of increasing arc length.  The functions
    below take their region from here.
    """

    region: RegionSpec
    speeds: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        speeds = tuple((float(vb), float(ve)) for vb, ve in self.speeds)
        _check_pair_count(speeds, self.region.arcs)
        if not all(math.isfinite(v) for pair in speeds for v in pair):
            raise ValueError("endpoint speeds must be finite")
        object.__setattr__(self, "speeds", speeds)

    @classmethod
    def from_intervals(cls, intervals, speeds, perimeter) -> "TangentField":
        """``speeds[i]`` at the ends of ``intervals[i]``, one pair per interval, each
        kept with its arc when :meth:`RegionSpec.from_intervals` sorts the arcs."""
        _check_pair_count(speeds, intervals)
        paired = sorted(zip(intervals, speeds), key=lambda pair: float(pair[0][0]) % perimeter)
        region = RegionSpec.from_intervals([arc for arc, _ in paired], perimeter)
        return cls(region, [speed for _, speed in paired])

    @classmethod
    def single_endpoint(
        cls,
        region: RegionSpec,
        arc: int = 0,
        end: bool = True,
        speed: float = 1.0,
    ) -> "TangentField":
        """Unit-speed motion of one endpoint, all others held fixed.

        With ``end=True`` and positive speed the arc grows (its terminal
        endpoint advances); with ``end=False`` positive speed shrinks it.
        """
        if not 0 <= arc < len(region.arcs):
            raise ValueError(f"arc index {arc} out of range")
        pairs = [[0.0, 0.0] for _ in region.arcs]
        pairs[arc][1 if end else 0] = float(speed)
        return cls(region, tuple((vb, ve) for vb, ve in pairs))


@dataclass(frozen=True)
class DerivativeReport:
    """Closed-form endpoint derivative next to its finite-difference oracle.

    ``fd_table`` holds ``(step, central_difference)`` rows, largest step
    first; ``shape_derivative_fd``, which builds every report, requires at
    least three steps in decreasing geometric progression so Richardson
    extrapolation of the two smallest is meaningful.
    ``sign_consistent`` is ``formula_value * fd_value > 0`` and
    ``relative_error`` is ``|formula_value - fd_value|`` over ``|fd_value|``.

    ``vertex_crossings`` is set when some finite-difference evaluation moved
    an endpoint across a mesh boundary vertex.  The discrete eigenvalue is
    only piecewise smooth in the endpoint positions (kinks at vertices), so
    crossed steps degrade the central differences; prefer steps smaller than
    the distance from each moving endpoint to its nearest vertex.
    """

    formula_value: float
    fd_value: float
    fd_table: tuple[tuple[float, float], ...]
    sign_consistent: bool
    relative_error: float
    vertex_crossings: bool = False


def _validate_steps(steps: Sequence[float]) -> None:
    if len(steps) < 3:
        raise ValueError("need at least 3 finite-difference steps")
    for t in steps:
        if not (math.isfinite(t) and t > 0):
            raise ValueError("finite-difference steps must be positive")
    ratios = [steps[i] / steps[i + 1] for i in range(len(steps) - 1)]
    for r in ratios:
        if r <= 1.0 + 1e-12:
            raise ValueError("finite-difference steps must strictly decrease")
        if abs(r - ratios[0]) > 1e-9 * ratios[0]:
            raise ValueError(
                "finite-difference steps must form a geometric progression"
            )


def _trace_p_power_at(mesh: Mesh, values: np.ndarray, s: float, p: float) -> float:
    """|u(s)|^p with u linearly interpolated along the boundary polygon."""
    edge, frac = locate_arc_point(mesh, s)
    v0, v1 = mesh.boundary_loop[edge]
    u_s = (1.0 - frac) * values[v0] + frac * values[v1]
    return abs(u_s) ** p


def shape_derivative_formula(
    mesh: Mesh,
    pair: EigenPair,
    tangent: TangentField,
    params: ProblemParams,
) -> float:
    """Endpoint-sum formula for d(lambda)/dt under tangential endpoint flow.

    Each arc of ``tangent.region`` contributes
    ``|u(s_end)|^p * v_end - |u(s_begin)|^p * v_begin``: at a terminal
    endpoint the out-of-region tangent direction is increasing arc length,
    at an initial endpoint it is decreasing.  The eigenfunction is
    normalized internally to unit boundary p-power, so any scaling of the
    supplied eigenpair is accepted.

    Raises ``ValueError`` if the region was built on another perimeter
    (:func:`rasterize_region`) or the eigenpair was not solved with this
    region's indicator potential (checked through the Rayleigh quotient).
    """
    region = tangent.region
    values = pair.u.values
    phi = rasterize_region(mesh, region)
    check = rayleigh(mesh, pair.u, phi, params)
    if abs(check - pair.lam) > _CONSISTENCY_RTOL * max(1.0, abs(pair.lam)):
        raise ValueError(
            "eigenpair/region mismatch: the supplied eigenpair was not "
            f"solved with this region's indicator (Rayleigh quotient {check!r} "
            f"vs stored eigenvalue {pair.lam!r})"
        )

    norm = boundary_p_power(mesh, pair.u, params.p)
    total = 0.0
    for (start, length), (v_begin, v_end) in zip(region.arcs, tangent.speeds):
        s_end = (start + length) % region.perimeter
        total += _trace_p_power_at(mesh, values, s_end, params.p) * v_end
        total -= _trace_p_power_at(mesh, values, start, params.p) * v_begin
    return float(params.sigma * total / norm)


def perturb_region(tangent: TangentField, t: float) -> RegionSpec:
    """``tangent.region`` with every arc endpoint moved by ``t`` times its speed.

    Raises ``RegionCollisionError`` when the motion would make an arc vanish,
    merge two arcs, or swap the cyclic order of endpoints.
    """
    region = tangent.region
    if not math.isfinite(t):
        raise ValueError("perturbation parameter must be finite")
    if t == 0.0:
        return region

    period = region.perimeter
    # The arcs are sorted by start and disjoint, so their endpoints already
    # form one increasing sequence from the first arc's begin, and cyclic
    # order is an ordinary monotonicity check.
    positions = [q for start, length in region.arcs for q in (start, start + length)]
    speeds = [v for pair_ in tangent.speeds for v in pair_]

    moved = [q + t * v for q, v in zip(positions, speeds)]
    for i in range(1, len(moved)):
        if moved[i] <= moved[i - 1]:
            raise RegionCollisionError(
                "endpoint transport collapses or reorders arcs "
                f"(endpoints {i - 1} and {i} at t={t!r})"
            )
    if moved[-1] - moved[0] >= period:
        raise RegionCollisionError(
            f"endpoint transport wraps arcs onto each other at t={t!r}"
        )

    intervals = [
        (moved[2 * i] % period, (moved[2 * i] + (moved[2 * i + 1] - moved[2 * i])) % period)
        for i in range(len(region.arcs))
    ]
    try:
        return RegionSpec.from_intervals(intervals, period)
    except ValueError as exc:  # an arc below one ulp of the period rounds away
        raise RegionCollisionError(str(exc)) from exc


def _solve_indicator(
    mesh: Mesh,
    tangent: TangentField,
    t: float,
    params: ProblemParams,
    opts: SolverOptions,
    start: Field | None,
) -> EigenPair:
    """The eigenpair on ``perturb_region(tangent, t)``'s indicator."""
    phi = rasterize_region(mesh, perturb_region(tangent, t))
    return (solve_linear if params.p == 2.0 else solve_nonlinear)(
        mesh, phi, params, opts=opts, start=start
    )


def shape_derivative_fd(
    mesh: Mesh,
    tangent: TangentField,
    params: ProblemParams,
    steps: Sequence[float] = DEFAULT_FD_STEPS,
    opts: SolverOptions | None = None,
) -> DerivativeReport:
    """Central-difference oracle for the endpoint derivative.

    For each step ``t`` the region is transported to ``+t`` and ``-t``, the
    indicator is re-rasterized on the unchanged mesh (end edges become
    fractional), the eigenvalue recomputed, and the central difference
    formed.  ``fd_value`` is the Richardson extrapolation of the two
    smallest steps; the closed-form value comes from
    ``shape_derivative_formula`` on ``tangent.region``.
    """
    steps = [float(t) for t in steps]
    _validate_steps(steps)
    opts = opts or SolverOptions()

    region = tangent.region
    period = region.perimeter
    t_max = max(steps)
    crossings = False
    for (start, length), (v_begin, v_end) in zip(region.arcs, tangent.speeds):
        for s, v in ((start, v_begin), ((start + length) % period, v_end)):
            if v == 0.0:
                continue
            gaps = np.abs(
                (mesh.cum_arclength - s + 0.5 * period) % period - 0.5 * period
            )
            if bool((gaps < abs(v) * t_max).any()):
                crossings = True

    # The 2 * len(steps) + 1 solves differ only in the boundary density.
    prepare_repeated_solves(mesh, params)
    base = _solve_indicator(mesh, tangent, 0.0, params, opts, start=None)
    formula = shape_derivative_formula(mesh, base, tangent, params)

    table: list[tuple[float, float]] = []
    for t in steps:
        lam_plus = _solve_indicator(mesh, tangent, t, params, opts, start=base.u).lam
        lam_minus = _solve_indicator(mesh, tangent, -t, params, opts, start=base.u).lam
        table.append((t, (lam_plus - lam_minus) / (2.0 * t)))

    # Richardson extrapolation of the two smallest steps kills the O(t^2)
    # truncation term: for step ratio r, fd = (r^2 d_small - d_large)/(r^2-1).
    r = table[-2][0] / table[-1][0]
    d_large, d_small = table[-2][1], table[-1][1]
    fd_value = (r * r * d_small - d_large) / (r * r - 1.0)

    return DerivativeReport(
        formula_value=formula,
        fd_value=fd_value,
        fd_table=tuple(table),
        sign_consistent=bool(formula * fd_value > 0.0),
        relative_error=abs(formula - fd_value) / max(abs(fd_value), 1e-14),
        vertex_crossings=crossings,
    )

