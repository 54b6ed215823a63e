"""First-eigenpair solvers for the boundary-weighted Rayleigh quotient.

The object minimized is R(u) = energy(u, phi, params) / boundary_p_norm(u)^p.
For p = 2 the minimizer solves the generalized problem A u = lambda Mb u
(Mb is the boundary mass, singular on interior nodes) and is computed by
inverse power iteration.  For general p > 1 a projected descent with
Barzilai-Borwein steps and an Armijo backtracking safeguard is used; every
accepted step decreases R, so warm-started solves never increase the
eigenvalue estimate.

``solve_linear`` and the p = 2 ``solve_dirichlet`` are two callers of one
core: ``solve_dirichlet`` pins the trace to zero on its region and drops
phi and sigma, ``solve_linear`` pins nothing.  The core runs the inverse
iteration on one of two routes with the same iterates:

- plain: a sparse LU of the n x n matrix for every solve, restricted to
  the unpinned vertices (diagonally preconditioned CG above
  ``_DIRECT_SOLVE_LIMIT`` unknowns);
- reduced: phi and sigma enter A only on the boundary diagonal, so all
  solves on one mesh share the interior block.  :func:`boundary_operator`
  eliminates it once, giving the dense B x B Steklov-Poincare matrix S0
  (Quarteroni & Valli, Domain Decomposition Methods for PDEs, 1999), and
  each solve then factors ``S0 + sigma * diag(b_phi)`` (its principal
  submatrix when some vertex is pinned) by dense Cholesky and recovers the
  interior values once at the end.

Whether to build the operator is decided in one place,
:func:`prepare_repeated_solves`: it builds it for p = 2 and is called by
everything that solves many times on one mesh (``optimize_potential``,
``shape_derivative_fd``, and the CLI's ``sigma-sweep`` and
``symmetry-check`` before their thread pools).  The solvers themselves use
the operator when the mesh has one and never build it, so a single solve
pays for no precompute.  An operator holds the sparse LU of the interior
block (about the size of one plain factorization) plus B^2 * 8 bytes for
S0 (2 MB at B = 504) until its mesh is garbage collected.

The descent for p != 2 holds one :class:`~steklov.assembly.EnergyKernel`
per solve.  Per solve it shares the corner columns of the mesh (vertex
indices and basis-gradient components, contiguous per corner), the
corner-major scatter index and the constant weights, ``sigma *
density_weights`` among them.  Per trial field it computes one set of
element gradients and one pass of trace weights, which give the energy
and the boundary p-power together; the gradient at an accepted field
reuses those element gradients and scatters with a single ``np.bincount``.
Its operations and their order are those of the element-wise ``energy``
and ``energy_gradient`` formulas it replaced, so every iterate is bitwise
the same; ``tests/test_assembly.py`` pins this.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from . import assembly

# The descent evaluates through assembly.EnergyKernel.  The energy and
# boundary functions stay importable from this module, where
# bench/tracing.py wraps them by name.
from .assembly import (  # noqa: F401
    BoundaryDensity,
    Field,
    ProblemParams,
    boundary_p_norm,
    boundary_p_power,
    boundary_power_gradient,
    energy,
    energy_gradient,
)
from .errors import InfeasibleConstraintError

# Above this many unknowns the inner solves switch from a reused direct
# factorization to diagonally preconditioned CG.
_DIRECT_SOLVE_LIMIT = 200_000

# splu options for a symmetric positive definite matrix that is already in a
# fill-reducing order: no row pivoting and no column reordering (symmetric
# mode also skips SuperLU's elimination-tree postorder), so the trailing
# rows of the factor belong to the trailing vertices.
_IN_ORDER = {
    "permc_spec": "NATURAL",
    "diag_pivot_thresh": 0.0,
    "options": {"SymmetricMode": True},
}

# Nested dissection stops splitting parts of at most this many vertices.
_DISSECTION_LEAF = 8

# Armijo sufficient-decrease slope and backtracking factor of the descent.
_ARMIJO_SLOPE = 1e-4
_ARMIJO_BACKTRACK = 0.5


@dataclass(frozen=True)
class SolverOptions:
    """Iteration controls shared by the linear and descent solvers.

    ``tol = None`` resolves to 1e-9 for p = 2 and 1e-7 otherwise; a given
    ``tol`` must be finite and positive.  ``seed`` only matters for
    randomized starts.
    """

    tol: float | None = None
    max_iters: int = 10000
    seed: int = 0

    def __post_init__(self):
        if self.tol is not None and not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")

    def resolved_tol(self, p):
        if self.tol is not None:
            return self.tol
        return 1e-9 if p == 2.0 else 1e-7


@dataclass(frozen=True)
class EigenPair:
    """Converged (or best-effort) eigenvalue and normalized eigenfunction."""

    lam: float
    u: Field
    iterations: int
    residual: float
    converged: bool
    positivity_violation: bool = False
    diagnostics: dict = dc_field(default_factory=dict)


def eigenpair_to_json(eig):
    return {
        "lambda": eig.lam,
        "iterations": eig.iterations,
        "residual": eig.residual,
        "converged": eig.converged,
        "u": [float(v) for v in eig.u.values],
    }


def eigenpair_from_json(mesh, data):
    return EigenPair(
        lam=float(data["lambda"]),
        u=Field.of(mesh, np.asarray(data["u"], dtype=np.float64)),
        iterations=int(data["iterations"]),
        residual=float(data["residual"]),
        converged=bool(data["converged"]),
    )


def rayleigh(mesh, u, phi, params):
    """energy / boundary_p_norm^p; rejects fields with zero boundary trace."""
    denom = boundary_p_power(mesh, u, params.p)
    if denom == 0.0:
        raise ValueError("Rayleigh quotient undefined: zero boundary trace")
    return energy(mesh, u, phi, params) / denom


def _make_solver(A):
    """Return a callable solving A x = b, direct or CG depending on size.

    The CG solver starts each solve from its previous solution.
    """
    n = A.shape[0]
    if n <= _DIRECT_SOLVE_LIMIT:
        return spla.splu(A.tocsc()).solve
    dinv = 1.0 / A.diagonal()
    precond = spla.LinearOperator(A.shape, matvec=lambda x: dinv * x)
    x = None

    def solve(b):
        nonlocal x
        x, info = spla.cg(A, b, x0=x, M=precond, rtol=1e-12, atol=0.0, maxiter=20 * n)
        if info != 0:
            raise np.linalg.LinAlgError(f"CG failed to converge (info={info})")
        return x

    return solve


def _inverse_iteration(apply_A, mb, solve, lam, u, tol, max_iters):
    """Inverse power steps for the smallest finite eigenpair of A u = lam diag(mb) u.

    ``u`` is the normalized start and ``lam`` its Rayleigh quotient;
    ``solve`` applies A^-1.  Stops once lam moves by at most ``tol``
    relative.  Returns ``(lam, u, iterations, converged)``.
    """
    iters = 0
    converged = False
    for iters in range(1, max_iters + 1):
        w = solve(mb * u)
        norm = np.sqrt(w @ (mb * w))
        if norm == 0.0 or not np.isfinite(norm):
            break
        w = w / norm
        lam_new = float(w @ apply_A(w))
        u = w
        delta = abs(lam_new - lam)
        lam = lam_new
        if delta <= tol * abs(lam_new):
            converged = True
            break
    return lam, u, iters, converged


def _relative_residual(Au, Mu, lam):
    return float(np.linalg.norm(Au - lam * Mu) / max(np.linalg.norm(Au), 1e-300))


def _plain_iteration(A, mb, u0, tol, max_iters):
    """Inverse iteration with a fresh factorization of the sparse matrix A."""
    u = u0 / np.sqrt(u0 @ (mb * u0))
    lam, u, iters, converged = _inverse_iteration(
        A.__matmul__, mb, _make_solver(A), float(u @ (A @ u)), u, tol, max_iters
    )
    return lam, u, iters, _relative_residual(A @ u, mb * u, lam), converged


class BoundaryOperator:
    """The p = 2 operator of one mesh, reduced to its boundary vertices.

    ``A0`` is the part of A that depends on neither phi nor sigma (stiffness
    plus lumped mass); the coupling adds ``sigma * density_weights`` to the
    boundary diagonal only.  ``S0 = A0_bb - A0_bi A0_ii^-1 A0_ib`` is the
    dense discrete Steklov-Poincare matrix, its rows and columns ordered
    like ``mesh.boundary_vertices``.  Instances are never modified after
    construction, so threads share them.
    """

    def __init__(self, A0, S0, boundary, interior, coupling, interior_lu):
        self.A0 = A0
        self.S0 = S0
        self._boundary = boundary
        self._interior = interior
        self._coupling = coupling  # A0 rows of the interior, boundary columns
        self._interior_lu = interior_lu

    def extend(self, ub):
        """The field with boundary values ``ub`` that is A0-harmonic inside."""
        u = np.empty(self.A0.shape[0])
        u[self._boundary] = ub
        u[self._interior] = -self._interior_lu.solve(self._coupling @ ub)
        return u


def _nested_dissection(mesh):
    """Interior vertices in a geometric nested-dissection order.

    Level by level, every part with more than ``_DISSECTION_LEAF`` vertices
    is cut at the median of its longer coordinate extent, and the vertices
    of the upper half that share an edge with the lower half become the
    part's separator.  Parts are numbered like a binary heap (the halves of
    part k are 2k and 2k + 1), and the order lists both halves of a part
    before its separator (George, SIAM J. Numer. Anal. 10, 1973).
    """
    interior = np.flatnonzero(~mesh.is_boundary_vertex)
    m = len(interior)
    xy = mesh.vertices[interior]
    local = np.full(mesh.n_vertices, -1)
    local[interior] = np.arange(m)
    t = mesh.triangles
    edges = local[np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])]
    a, b = edges[(edges >= 0).all(axis=1)].T
    part = np.ones(m, dtype=np.int64)
    unplaced = np.ones(m, dtype=bool)  # not yet in any separator
    while True:
        sizes = np.bincount(part[unplaced], minlength=part.max() + 1)
        cut = unplaced & (sizes[part] > _DISSECTION_LEAF)
        sel = np.flatnonzero(cut)
        if sel.size == 0:
            break
        k = part[sel]
        lo = np.full((k.max() + 1, 2), np.inf)
        hi = -lo
        np.minimum.at(lo, k, xy[sel])
        np.maximum.at(hi, k, xy[sel])
        coord = xy[sel, np.argmax(hi - lo, axis=1)[k]]
        order = np.lexsort((coord, k))
        rank = np.empty(sel.size, dtype=np.int64)
        rank[order] = np.arange(sel.size) - np.searchsorted(k[order], k[order])
        part[sel] = 2 * k + (rank >= sizes[k] // 2)
        crossing = cut[a] & cut[b] & (part[a] != part[b]) & (part[a] // 2 == part[b] // 2)
        upper = np.where(part[a] % 2 == 1, a, b)[crossing]
        separator = np.unique(upper)
        part[separator] //= 2
        unplaced[separator] = False

    top = int(part.max())
    post = np.empty(top + 1, dtype=np.int64)
    count = 0
    stack = [(1, False)]
    while stack:
        k, halves_done = stack.pop()
        if k > top:
            continue
        if halves_done:
            post[k] = count
            count += 1
        else:
            stack += [(k, True), (2 * k + 1, False), (2 * k, False)]
    return interior[np.argsort(post[part], kind="stable")]


def _build_boundary_operator(mesh):
    """Factor A0 once with the boundary last and read S0 off the factor.

    Returns None when the mesh has no interior vertex or the factorization
    did not keep the boundary block in place.
    """
    if mesh.is_boundary_vertex.all():
        return None
    interior = _nested_dissection(mesh)
    ni = len(interior)
    boundary = mesh.boundary_vertices
    A0, _ = assembly.assemble_linear(mesh, BoundaryDensity.constant(mesh, 0.0), 0.0)
    order = np.concatenate([interior, boundary])
    A = A0[order][:, order].tocsc()
    lu = spla.splu(A, **_IN_ORDER)
    kept = np.arange(ni, mesh.n_vertices)
    if not (np.array_equal(lu.perm_r[ni:], kept) and np.array_equal(lu.perm_c[ni:], kept)):
        return None
    # Unpivoted LU of a symmetric matrix has L = U^T D^-1 with D = diag(U),
    # so the Schur complement L_bb U_bb equals U_bb^T D_bb^-1 U_bb.
    U_bb = lu.U[ni:, ni:].toarray()
    # Reading U made the object cache both factors as CSC copies; free all
    # of it before the interior factorization that recovery keeps.
    del lu
    R = U_bb / np.sqrt(np.diag(U_bb))[:, None]
    S0 = R.T @ R
    interior_lu = spla.splu(A[:ni, :ni], **_IN_ORDER)
    return BoundaryOperator(A0, S0, boundary, interior, A[:ni, ni:].tocsr(), interior_lu)


_operators = weakref.WeakKeyDictionary()
_operators_lock = threading.Lock()


def boundary_operator(mesh):
    """The mesh's :class:`BoundaryOperator`, built on the first call and cached.

    Returns None above ``_DIRECT_SOLVE_LIMIT`` unknowns and when no operator
    can be built; solvers then take the plain path.  Threads asking for the
    same mesh wait for one build.
    """
    if mesh.n_vertices > _DIRECT_SOLVE_LIMIT:
        return None
    with _operators_lock:
        if mesh not in _operators:
            _operators[mesh] = _build_boundary_operator(mesh)
        return _operators[mesh]


def prepare_repeated_solves(mesh, params):
    """Build what the solves of ``params`` on ``mesh`` share, before they run.

    For p = 2 that is the mesh's :class:`BoundaryOperator`; the descent for
    p != 2 shares nothing.  Callers that solve many times on one mesh call
    this first; a single solve never does, so it pays for no precompute.
    """
    if params.p == 2.0:
        boundary_operator(mesh)


def _reduced_iteration(mesh, op, d, u0, free, tol, max_iters):
    """The inverse iteration of ``A0 + diag(d)`` run on the boundary.

    ``d`` is zero off the boundary, so every iterate after the start is
    A0-harmonic inside and the loop runs on ``S0 + diag(d_b)`` restricted
    to the boundary positions ``free`` (the others are pinned to zero); the
    interior is recovered once at the end.  The start, the eigenvalue and
    the residual, taken over the rows of the unpinned vertices, use the full
    operator.  Returns ``(lam, u, iterations, residual, converged)``.
    """
    mb = assembly.geometry(mesh).boundary_weights

    def apply_A(v):
        return op.A0 @ v + d * v

    u = u0 / np.sqrt(u0 @ (mb * u0))
    lam = float(u @ apply_A(u))
    idx = mesh.boundary_vertices[free]
    S = op.S0[np.ix_(free, free)]
    S[np.diag_indices_from(S)] += d[idx]
    factor = sla.cho_factor(S)
    lam, ub, iters, converged = _inverse_iteration(
        S.__matmul__,
        mb[idx],
        lambda rhs: sla.cho_solve(factor, rhs),
        lam,
        u[idx],
        tol,
        max_iters,
    )
    trace = np.zeros(mesh.n_boundary_edges)
    trace[free] = ub
    u = op.extend(trace)
    rows = np.ones(mesh.n_vertices, dtype=bool)
    rows[mesh.boundary_vertices[~free]] = False
    residual = _relative_residual(apply_A(u)[rows], mb[rows] * u[rows], lam)
    return lam, u, iters, residual, converged


def _start_values(mesh, start, p):
    """A float copy of ``start`` (a Field or array), or the default start.

    The default is the constant one for p = 2 and the positive constant
    with unit boundary p-norm otherwise.
    """
    if start is not None:
        return np.array(assembly._as_values(start, mesh), dtype=np.float64)
    if p == 2.0:
        return np.ones(mesh.n_vertices)
    return np.full(mesh.n_vertices, mesh.perimeter ** (-1.0 / p))


def _eigenpair(mesh, lam, u, iterations, residual, converged, diagnostics):
    """Pack a solver result, with u flipped to nonnegative boundary mean."""
    if float(assembly.geometry(mesh).boundary_weights @ u) < 0.0:
        u = -u
    return EigenPair(
        lam=lam,
        u=Field.of(mesh, u),
        iterations=iterations,
        residual=residual,
        converged=converged,
        positivity_violation=bool(u.min() < -1e-8),
        diagnostics=diagnostics,
    )


def _solve_p2(mesh, phi, sigma, pinned_b, opts, start):
    """Inverse iteration for p = 2 with the trace pinned to zero on ``pinned_b``.

    ``pinned_b`` masks the positions of ``mesh.boundary_vertices``.  Runs on
    the mesh's cached boundary operator when one has been built, otherwise
    on a fresh sparse factorization of A, restricted to the unpinned
    vertices when some vertex is pinned.
    """
    tol = opts.resolved_tol(2.0)
    u0 = _start_values(mesh, start, 2.0)
    pinned = mesh.boundary_vertices[pinned_b]
    u0[pinned] = 0.0
    op = _operators.get(mesh)
    if op is not None:
        d = sigma * assembly.density_weights(mesh, phi)
        lam, u, iters, residual, converged = _reduced_iteration(
            mesh, op, d, u0, ~pinned_b, tol, opts.max_iters
        )
    else:
        A, Mb = assembly.assemble_linear(mesh, phi, sigma)
        mb = Mb.diagonal()
        if pinned.size == 0:
            lam, u, iters, residual, converged = _plain_iteration(
                A, mb, u0, tol, opts.max_iters
            )
        else:
            keep = np.ones(mesh.n_vertices, dtype=bool)
            keep[pinned] = False
            idx = np.flatnonzero(keep)
            lam, uf, iters, residual, converged = _plain_iteration(
                A[np.ix_(idx, idx)].tocsr(), mb[idx], u0[idx], tol, opts.max_iters
            )
            u = np.zeros(mesh.n_vertices)
            u[idx] = uf
    diagnostics = {"method": "inverse_iteration", "boundary_operator": op is not None}
    return _eigenpair(mesh, lam, u, iters, residual, converged, diagnostics)


def solve_linear(mesh, phi, sigma, opts=None, start=None):
    """First eigenpair of the p = 2 problem for boundary density phi.

    Runs on the mesh's cached boundary operator when one has been built
    (see :func:`boundary_operator`), on a fresh sparse factorization
    otherwise.  Returns a converged flag rather than raising on
    iteration-limit hits; the returned eigenfunction is normalized to unit
    boundary 2-norm and sign-fixed to nonnegative boundary mean.
    """
    pinned_b = np.zeros(mesh.n_boundary_edges, dtype=bool)
    return _solve_p2(mesh, phi, sigma, pinned_b, opts or SolverOptions(), start)


def random_positive_start(mesh, seed):
    """Strictly positive random field, for multistart experiments."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.1, 1.0, mesh.n_vertices)


def _descent(mesh, phi, params, opts, u0, frozen=None):
    """Projected BB descent on R; ``frozen`` pins a vertex set to zero.

    One energy kernel serves the whole solve (see the module docstring).
    """
    tol = opts.resolved_tol(params.p)
    p = params.p
    kernel = assembly.EnergyKernel(mesh, phi, params)

    def project(vals):
        if frozen is not None:
            vals = vals.copy()
            vals[frozen] = 0.0
        return vals

    def p_norm(vals):
        return kernel.power(vals) ** (1.0 / p)

    u = project(np.asarray(u0, dtype=np.float64))
    norm = p_norm(u)
    if norm == 0.0:
        raise ValueError("start has zero boundary trace")
    u = u / norm

    def quotient(vals):
        e, b = kernel.evaluate(vals)
        return e / b

    def gradient(r):
        """E' - r B' at the field of the last ``quotient`` call, 0 where frozen."""
        g = kernel.gradient(r)
        if frozen is not None:
            g[frozen] = 0.0
        return g

    R = quotient(u)
    g = gradient(R)
    gnorm = float(np.linalg.norm(g))
    alpha = 1.0 / max(gnorm, 1.0)
    rel_change = np.inf
    converged = False
    iters = 0
    line_search_failed = False

    for iters in range(1, opts.max_iters + 1):
        if rel_change <= tol and gnorm <= tol * max(1.0, abs(R)):
            converged = True
            iters -= 1
            break
        a = alpha
        gg = gnorm * gnorm
        accepted = False
        while a > 1e-18:
            v = u - a * g
            nv = p_norm(v)
            if nv > 0.0:
                v = v / nv
                Rv = quotient(v)
                if Rv <= R - _ARMIJO_SLOPE * a * gg:
                    accepted = True
                    break
            a *= _ARMIJO_BACKTRACK
        if not accepted:
            # Step underflow: the quotient cannot be decreased along -g.
            line_search_failed = gnorm > tol * max(1.0, abs(R))
            converged = not line_search_failed
            break
        s = v - u
        g_new = gradient(Rv)
        y = g_new - g
        sy = float(s @ y)
        alpha = float(s @ s) / sy if sy > 0.0 else min(2.0 * a, 1e3)
        alpha = min(max(alpha, 1e-12), 1e3)
        rel_change = abs(R - Rv) / max(abs(Rv), 1e-300)
        u, R, g = v, Rv, g_new
        gnorm = float(np.linalg.norm(g))

    diagnostics = {"method": "bb_descent", "grad_norm": gnorm}
    if line_search_failed:
        diagnostics["line_search_failure"] = True
    return _eigenpair(mesh, R, u, iters, gnorm, converged, diagnostics)


def solve_nonlinear(mesh, phi, params, opts=None, start=None):
    """First eigenpair for general p > 1 by projected descent.

    The default start is the positive constant with unit boundary p-norm;
    pass ``start`` (a Field or array) to warm-start, which by monotonicity
    of the accepted steps can only lower the computed eigenvalue.
    """
    opts = opts or SolverOptions()
    return _descent(mesh, phi, params, opts, _start_values(mesh, start, params.p))


def solve_dirichlet(mesh, region, params, opts=None, start=None):
    """Mixed problem: trace pinned to zero on the closure of the arcs in ``region``.

    Minimizes the sigma-free quotient over fields vanishing at every
    boundary vertex whose arc coordinate lies in a closed arc of ``region``;
    for p = 2 this is a reduced generalized eigenproblem, run on the principal
    submatrix of the cached boundary operator's ``S0`` when the mesh has one.
    """
    opts = opts or SolverOptions()
    params = ProblemParams(p=params.p, sigma=0.0, eps_reg=params.eps_reg)

    constrained_b = region.contains_array(mesh.boundary_vertex_arclength, closed=True)
    if constrained_b.all():
        raise InfeasibleConstraintError(
            "region covers every boundary vertex; no admissible trace remains"
        )
    phi0 = BoundaryDensity.constant(mesh, 0.0)
    if params.p == 2.0:
        eig = _solve_p2(mesh, phi0, 0.0, constrained_b, opts, start)
    else:
        frozen = np.zeros(mesh.n_vertices, dtype=bool)
        frozen[mesh.boundary_vertices[constrained_b]] = True
        u0 = _start_values(mesh, start, params.p)
        eig = _descent(mesh, phi0, params, opts, u0, frozen=frozen)
    eig.diagnostics["constrained_vertices"] = int(constrained_b.sum())
    return eig
