"""First-eigenpair solvers for the boundary-weighted Rayleigh quotient.

The object minimized is R(u) = energy(u, phi, params) / boundary_p_norm(u)^p.
For p = 2 the minimizer solves the generalized problem A u = lambda Mb u
(Mb is the boundary mass, singular on interior nodes) and is computed by a
Rayleigh-Ritz step on the Krylov space of A^-1 Mb (:func:`_krylov_ritz`),
which stops on the relative residual ``|A u - lambda Mb u| / |A u|`` of its
Ritz pair, so ``converged`` at p = 2 means a residual of at most ``tol``.
It stops unconverged once ``_RITZ_BASIS`` solves in a row have not lowered
its best residual, which is where a ``tol`` below the rounding floor ends.
For general p > 1 a projected descent with
Barzilai-Borwein steps in a reweighted metric and an Armijo backtracking
safeguard is used; every accepted step decreases R, so warm-started solves
never increase the eigenvalue estimate.

Both cores, :func:`_solve_p2` for p = 2 and the descent :func:`_descent`,
take ``(phi, params, pinned)``: a BoundaryDensity, read only when
``params.sigma != 0``, the caller's problem and a vertex mask pinned to
zero; both first check ``params`` by the one ``eps_reg`` rule,
:func:`_check_regularization`, and take their start by the one start
rule, :func:`_start`.  ``solve_linear`` (p = 2 only) and ``solve_nonlinear``
pin nothing; ``solve_dirichlet`` pins its region, sets sigma to 0 and picks
the core by p.  The p = 2 core runs the Krylov-Ritz
driver on one of two routes with the same iterates:

- plain: a sparse LU of A for every solve, on the unpinned vertices in the
  nested-dissection order of all vertices (:func:`_nested_dissection`)
  with no pivoting (``_IN_ORDER``); on the generated disks and squares its
  factor has 28-37 % fewer nonzeros than with SuperLU's default COLAMD
  order and partial pivoting;
- reduced: phi and sigma enter A only on the boundary diagonal, so all
  solves on one mesh share the interior block.  :func:`boundary_operator`
  eliminates it once by the same recipe, the interior in its dissection
  order and the boundary last, giving the dense B x B Steklov-Poincare
  matrix S0 (Quarteroni & Valli, Domain Decomposition Methods for PDEs,
  1999), and each solve then factors ``S0 + sigma * diag(b_phi)`` (its
  principal submatrix when some vertex is pinned) by dense Cholesky and
  recovers the interior values once at the end.

Under a finite address-space limit, :func:`_splu` refuses each sparse
factorization, these and the descent's below, at once when its estimated
memory does not fit.

Whether to build the operator is decided in one place,
:func:`prepare_repeated_solves`: it builds it for p = 2 and is called by
everything that solves many times on one mesh (``optimize_potential``,
which the CLI's ``sigma-sweep`` and ``symmetry-check`` run, and
``shape_derivative_fd``).  The solvers themselves use
the operator when the mesh has one and never build it, so a single solve
pays for no precompute.  An operator holds the sparse LU of the interior
block (about the size of one plain factorization) plus B^2 * 8 bytes for
S0 (2 MB at B = 504) until its mesh is garbage collected.

The descent for p != 2 steps along ``z = M(u)^-1 g``, where g is the
gradient of R and M(u) reweights the p = 2 operator by the current field u
(the relaxed Kacanov iteration of Diening, Fornasier, Tomasi & Wank, Numer.
Math. 145, 2020, used as a preconditioner as in Huang, Li & Liu, J. Sci.
Comput. 32, 2007):

    M(u) = sum_T w_T K_T + diag((lumped + sigma * density_weights(phi)
                                 + boundary_weights) * w_v),
    w_T = (|grad u|_T^2 + delta_T^2)^((p-2)/2),  w_v = (u_v^2 + delta_v^2)^((p-2)/2),

with K_T the element stiffness, the energy's nodal weights and the boundary
weights on the diagonal, and each delta^2 a floor of 1e-8 times the largest
squared value over the mesh (all weights are 1 where that value is 0, as
for the gradient of the constant start).  At p = 2 every weight is 1
and M is the p = 2 matrix plus the boundary mass.  The Armijo test uses the
slope ``g^T z`` and the BB step is ``s^T M s / s^T y``.  The iteration
count stays flat under mesh refinement, where Euclidean gradient steps
needed about h^-2 iterations.  M is refactored by ``splu`` every
``_METRIC_REFRESH`` accepted steps on a sparsity pattern built once per
solve on the unpinned vertices (:class:`~steklov.assembly.WeightedStiffness`),
so the pinned values of every direction are exactly 0.  Like every matrix
``splu`` factors here, M is assembled exactly symmetric on its unknowns in
factor order, and ``splu`` gets its CSC view.  The energy, the gradient, the
projection and the stopping test are those of a Euclidean-step descent, so
the metric changes the path to the fixed point, not the fixed point or the
meaning of ``converged``.  The descent stops on the gradient test
``|g| <= tol * max(1, |R|)`` alone, and ``converged`` means that this test
ended it.  It stops unconverged when a line search ends unaccepted because
``u - a z`` rounds to u (``stop = "line_search"``), or when R has dropped
by at most ``_STALL_DROP * |R|`` over the last ``_STALL_STEPS`` accepted
steps (``stop = "stall"``); p = 1.2 ends on the first, at
``|E' - lambda B'| / |E'| <= 1.3e-5``.

The energy, its gradient and the boundary p-power come from one
:class:`~steklov.assembly.EnergyKernel` per solve.  Per trial field it
computes one element term ``|grad u|^2 + eps^2`` and one array ``|u|^p``,
which give the energy and the boundary p-power together; the gradient at an
accepted field reuses that element term and scatters with a single
``np.bincount``.  Nothing of the descent is cached per mesh.
"""

from __future__ import annotations

import collections
import math
import numbers
import threading
import weakref
from dataclasses import dataclass, field as dc_field, replace

try:  # POSIX only; elsewhere no address-space limit is checked
    import resource
except ImportError:
    resource = None

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from . import assembly

# The descent evaluates through assembly.EnergyKernel and normalizes with
# boundary_p_norm; rayleigh uses energy and boundary_p_power.  The two
# gradient functions stay importable from this module only because
# bench/tracing.py wraps them here by name.
from .assembly import (  # noqa: F401
    Field,
    boundary_p_norm,
    boundary_p_power,
    boundary_power_gradient,
    energy,
    energy_gradient,
)
from .errors import InfeasibleConstraintError

# splu options for a symmetric positive definite matrix that is already in a
# fill-reducing order: no row pivoting and no column reordering (symmetric
# mode also skips SuperLU's elimination-tree postorder), so the trailing
# rows of the factor belong to the trailing vertices.
_IN_ORDER = {
    "permc_spec": "NATURAL",
    "diag_pivot_thresh": 0.0,
    "options": {"SymmetricMode": True},
}

# The unpivoted factor of m unknowns in dissection order holds about
# _FILL * m log2 m entries or more (3.9-5.5 on the generated disks and
# squares with 10^3 to 2.5 * 10^5 unknowns), plus b^2 for a dense trailing
# b x b block.  SuperLU needs _ENTRY_BYTES per entry while it factors: a
# value and a row index, 12 bytes, twice over, as it grows its arrays by
# copying them.
_FILL = 4.0
_ENTRY_BYTES = 24

# The p = 2 Krylov-Ritz driver keeps at most this many basis vectors, then
# restarts from its Ritz vector.
_RITZ_BASIS = 20

# Nested dissection stops splitting parts of at most this many vertices.
_DISSECTION_LEAF = 8

# Armijo sufficient-decrease slope and backtracking factor of the descent.
_ARMIJO_SLOPE = 1e-4
_ARMIJO_BACKTRACK = 0.5

# The descent refactors its metric after this many accepted steps.
_METRIC_REFRESH = 10

# Relative floor of the squared gradients and values under the metric weights.
_WEIGHT_FLOOR = 1e-8

# The descent stops as stalled when R has dropped by at most _STALL_DROP * |R|
# over the last _STALL_STEPS accepted steps.
_STALL_STEPS = 100
_STALL_DROP = 1e-14


def _splu(A, dense=0, **options):
    """``spla.splu(A, **options)``, with running out of memory as ``MemoryError``.

    Under a finite soft ``RLIMIT_AS`` the factorization is refused at once
    when its estimated memory (see ``_FILL``; the last ``dense`` unknowns
    form a dense block) does not fit in the limit minus the process's
    virtual size, where SuperLU could spend minutes retrying ever smaller
    expansions of its arrays.  The estimate is calibrated on ``_IN_ORDER``
    factors; SuperLU's default order fills 1.4-1.5 times more, so there it
    is a lower bound that refuses only factors that cannot fit.  SuperLU's
    ``RuntimeError`` for a failed allocation ("SUPERLU_MALLOC fails for
    ...", "... out of memory") is raised again as ``MemoryError``.
    """
    limit = resource.getrlimit(resource.RLIMIT_AS)[0] if resource else None
    if limit is not None and limit != resource.RLIM_INFINITY:
        m = A.shape[0]
        need = _ENTRY_BYTES * (_FILL * m * math.log2(m) + dense * dense)
        with open("/proc/self/statm") as statm:
            free = limit - int(statm.read().split()[0]) * resource.getpagesize()
        if need > free:
            raise MemoryError(
                f"factoring {m} unknowns needs about {need / 2**20:.0f} MB, "
                f"the address-space limit leaves {max(free, 0) / 2**20:.0f} MB"
            )
    try:
        return spla.splu(A, **options)
    except RuntimeError as exc:
        message = str(exc).strip()
        if "malloc fail" in message.lower() or "memory" in message.lower():
            raise MemoryError(message) from exc
        raise


def _check_loop(cap_name, cap, tol_name, tol):
    """The one rule for a loop's controls: the step cap ``cap`` is an integer
    (not a bool) of at least 1, the tolerance ``tol`` None or finite and positive."""
    if isinstance(cap, bool) or not isinstance(cap, numbers.Integral) or cap < 1:
        raise ValueError(f"{cap_name} must be an integer of at least 1, got {cap!r}")
    if tol is not None and not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"{tol_name} must be finite and positive, got {tol}")


@dataclass(frozen=True)
class SolverOptions:
    """Iteration controls shared by the linear and descent solvers.

    ``tol = None`` resolves to 1e-9 for p = 2 and 1e-7 otherwise.  For p = 2
    it bounds the relative eigen-residual ``|K x - lambda Mb x| / |K x|`` of
    the returned pair and ``max_iters`` counts linear solves; for p != 2 it
    is the descent's gradient test (see :func:`_descent`) and ``max_iters``
    counts descent steps.  Both follow :func:`_check_loop`.
    """

    tol: float | None = None
    max_iters: int = 10000

    def __post_init__(self):
        _check_loop("max_iters", self.max_iters, "tol", self.tol)

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


def rayleigh(mesh, u, phi, params):
    """energy / boundary_p_norm^p; rejects fields with zero boundary trace."""
    denom = boundary_p_power(mesh, u, params.p)
    if denom == 0.0:
        raise ValueError("Rayleigh quotient undefined: zero boundary trace")
    return energy(mesh, u, phi, params) / denom


def _krylov_ritz(apply_K, mb, solve, x0, tol, max_iters):
    """Smallest eigenpair of ``K x = theta diag(mb) x`` by Rayleigh-Ritz on K^-1 Mb.

    ``solve`` applies K^-1 and ``apply_K`` applies K.  Every step solves
    ``K w = mb * v`` for the newest basis vector v (the first for ``x0``),
    makes w mb-orthonormal to the basis (classical Gram-Schmidt, twice) and
    keeps w and K w, so the basis spans a Krylov space of K^-1 Mb (a
    Lanczos process; Parlett, The Symmetric Eigenvalue Problem, 1998).  The
    Ritz pair is the smallest eigenpair of the projected matrix V^T K V,
    which grows by one row and column per step.  A full basis of
    ``_RITZ_BASIS`` vectors restarts from the Ritz vector.  Every basis
    vector is an image of K^-1 Mb, so it is fixed by its values where
    mb > 0 and the mb inner product is definite on the basis.

    Stops once the relative residual ``|K x - theta mb x| / |K x|`` is at
    most ``tol`` (``"tolerance"``), after ``max_iters`` solves
    (``"max_iters"``), once ``_RITZ_BASIS`` solves in a row have not lowered
    the best residual (``"stagnation"``) or when a new vector has no
    finite nonzero mb-norm (``"breakdown"``).  Returns
    ``(theta, x, solves, residual, stop)`` for the Ritz pair of lowest
    residual, which is the last one when ``tol`` stopped the loop, with x of
    unit mb-norm.
    """
    n = len(x0)
    V = np.empty((_RITZ_BASIS, n))
    KV = np.empty((_RITZ_BASIS, n))  # K V
    H = np.empty((_RITZ_BASIS, _RITZ_BASIS))  # V^T K V
    best = (math.nan, x0, math.inf)  # the (theta, x, residual) of lowest residual
    best_at = 0  # the solve that found it
    stop = "max_iters"
    v = x0
    j = 0  # vectors in the basis
    solves = 0
    for solves in range(1, max_iters + 1):
        if j == _RITZ_BASIS:
            V[0], KV[0], H[0, 0] = x, Kx, theta
            v, j = V[0], 1
        w = solve(mb * v)
        for _ in range(2):
            w -= (V[:j] @ (mb * w)) @ V[:j]
        norm = math.sqrt(w @ (mb * w))
        if not (norm > 0.0 and math.isfinite(norm)):
            stop = "breakdown"
            break
        v = np.divide(w, norm, out=V[j])
        KV[j] = apply_K(v)
        H[j, : j + 1] = H[: j + 1, j] = V[: j + 1] @ KV[j]
        j += 1
        vals, vecs = np.linalg.eigh(H[:j, :j])
        theta, y = float(vals[0]), vecs[:, 0]
        x, Kx = y @ V[:j], y @ KV[:j]
        residual = float(np.linalg.norm(Kx - theta * (mb * x)) / np.linalg.norm(Kx))
        if residual < best[2]:
            best, best_at = (theta, x, residual), solves
        if residual <= tol:
            stop = "tolerance"
            break
        if solves - best_at >= _RITZ_BASIS:
            stop = "stagnation"
            break
    theta, x, residual = best
    return theta, x / math.sqrt(x @ (mb * x)), solves, residual, stop


class BoundaryOperator:
    """The p = 2 operator of one mesh, reduced to its boundary vertices.

    A0 = stiffness + lumped mass is A without the coupling, which adds
    ``sigma * density_weights`` to the boundary diagonal only, and
    ``S0 = A0_bb - A0_bi A0_ii^-1 A0_ib`` is the dense discrete
    Steklov-Poincare matrix, its rows and columns ordered like
    ``mesh.boundary_vertices``.  Instances are never modified after
    construction, so threads share them.
    """

    def __init__(self, S0, boundary, interior, coupling, interior_lu):
        self.S0 = S0
        self._boundary = boundary
        self._interior = interior
        self._coupling = coupling  # A0 rows of the interior, boundary columns
        self._interior_lu = interior_lu

    def extend(self, ub):
        """The field with boundary values ``ub`` that is A0-harmonic inside."""
        u = np.empty(len(self._boundary) + len(self._interior))
        u[self._boundary] = ub
        u[self._interior] = -self._interior_lu.solve(self._coupling @ ub)
        return u


def _nested_dissection(mesh, vertices):
    """The vertex set ``vertices`` in a geometric nested-dissection order.

    ``vertices`` is a non-empty index array; the edges of ``mesh.edges``
    between its members form the graph.  Level by level, every part with
    more than ``_DISSECTION_LEAF`` vertices is cut at the median of its longer
    coordinate extent, and the vertices of the upper half that share an
    edge with the lower half become the part's separator.  Parts are
    numbered like a binary heap (the halves of part k are 2k and 2k + 1),
    and the order lists both halves of a part before its separator (George,
    SIAM J. Numer. Anal. 10, 1973).  That post-order is a sort: part k at
    depth d = floor(log2 k) sorts at the last slot of its subtree on the
    deepest level D, ``((k - 2^d + 1) << (D - d)) - 1``, and after its
    descendants that share that slot; within a part the vertices keep their
    order in ``vertices``.  An edge leaves the graph once it stops joining
    two vertices of one part that is still being cut.
    """
    m = len(vertices)
    x, y = mesh.vertices[vertices].T
    local = np.full(mesh.n_vertices, -1, dtype=np.int32)
    local[vertices] = np.arange(m, dtype=np.int32)
    ends = local[mesh.edges]
    a, b = ends[(ends >= 0).all(axis=1)].T
    part = np.ones(m, dtype=np.int32)
    unplaced = np.ones(m, dtype=bool)  # not yet in any separator
    while True:
        sizes = np.bincount(part[unplaced], minlength=part.max() + 1)
        sizes[sizes <= _DISSECTION_LEAF] = 0
        cut = unplaced & (sizes[part] > 0)
        sel = np.flatnonzero(cut)
        if sel.size == 0:
            break
        inside = cut[a] & cut[b]
        a, b = a[inside], b[inside]
        k = part[sel]
        xs, ys = x[sel], y[sel]
        extents = []
        for c in (xs, ys):
            lo = np.full(len(sizes), np.inf)
            hi = np.full(len(sizes), -np.inf)
            np.minimum.at(lo, k, c)
            np.maximum.at(hi, k, c)
            extents.append(hi - lo)
        coord = np.where((extents[1] > extents[0])[k], ys, xs)
        order = np.lexsort((coord, k))
        k = k[order]
        rank = np.arange(sel.size) - (np.cumsum(sizes) - sizes)[k]
        part[sel[order]] = 2 * k + (rank >= sizes[k] // 2)
        pa, pb = part[a], part[b]
        crossing = np.flatnonzero(pa != pb)
        separator = np.zeros(m, dtype=bool)
        separator[np.where(pa[crossing] % 2 == 1, a[crossing], b[crossing])] = True
        a, b = np.delete(a, crossing), np.delete(b, crossing)
        part[separator] //= 2
        unplaced &= ~separator

    d = np.frexp(part)[1] - 1
    D = d.max()
    key = ((part - (1 << d) + 1) << (D - d)) - 1
    return vertices[np.lexsort((-d, key))]


def _build_boundary_operator(mesh):
    """Factor A0 once with the boundary last and read S0 off the factor.

    Returns None when the mesh has no interior vertex or the factorization
    did not keep the boundary block in place.
    """
    if mesh.is_boundary_vertex.all():
        return None
    interior = _nested_dissection(mesh, np.flatnonzero(~mesh.is_boundary_vertex))
    ni = len(interior)
    boundary = mesh.boundary_vertices
    order = np.concatenate([interior, boundary])
    A, _ = assembly.assemble_linear(mesh, None, 0.0, order)  # phi unread at sigma = 0
    lu = _splu(A.T, dense=len(boundary), **_IN_ORDER)
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
    interior_lu = _splu(A.T[:ni, :ni], **_IN_ORDER)
    return BoundaryOperator(S0, boundary, interior, A[:ni, ni:], interior_lu)


_operators = weakref.WeakKeyDictionary()
_operators_lock = threading.Lock()


def boundary_operator(mesh):
    """The mesh's :class:`BoundaryOperator`, built on the first call and cached.

    Returns None when no operator can be built (see
    :func:`_build_boundary_operator`); solvers then take the plain path.
    Threads asking for the same mesh wait for one build.
    """
    with _operators_lock:
        if mesh not in _operators:
            _operators[mesh] = _build_boundary_operator(mesh)
        return _operators[mesh]


def _check_regularization(params):
    """The one ``eps_reg`` rule: positive for p < 2, where the gradient's
    ``s^((p-2)/2)`` is infinite at a zero element gradient (the constant
    start), and 0 at p = 2, whose ``A u = lambda Mb u`` has no eps term."""
    if params.p < 2.0 and params.eps == 0.0:
        raise ValueError(f"eps_reg must be positive for p < 2, got {params.eps}")
    if params.p == 2.0 and params.eps != 0.0:
        raise ValueError(f"eps_reg must be 0 at p = 2, got {params.eps}")


def prepare_repeated_solves(mesh, params):
    """Build what the solves of ``params`` on ``mesh`` share, before they run.

    For p = 2 that is the mesh's :class:`BoundaryOperator`; the descent for
    p != 2 shares nothing.  Callers that solve many times on one mesh call
    this first; a single solve never does, so it pays for no precompute.
    Params that no solve accepts raise before anything is built.
    """
    _check_regularization(params)
    if params.p == 2.0:
        boundary_operator(mesh)


def _start(mesh, start, p, pinned):
    """The start rule of both cores: ``(u, norm)``, ``start`` (finite) or the
    default start, zero on ``pinned``, and its boundary p-norm.  The default
    is 1 for p = 2 and the constant of unit boundary p-norm otherwise.  Only
    a start of norm 0 or inf is first scaled by the power of two that brings
    its largest boundary |value| into [0.5, 1); a norm still 0 raises."""
    if start is not None:
        u = Field.of(mesh, assembly._as_values(start, mesh)).values
    else:
        u = np.full(mesh.n_vertices, 1.0 if p == 2.0 else mesh.perimeter ** (-1.0 / p))
    u = np.where(pinned, 0.0, u)
    with np.errstate(over="ignore"):  # an overflow is scaled away below
        norm = boundary_p_norm(mesh, u, p)
    if not 0.0 < norm < math.inf:
        u = np.ldexp(u, -math.frexp(float(np.abs(u[mesh.boundary_vertices]).max()))[1])
        norm = boundary_p_norm(mesh, u, p)
    if norm == 0.0:
        raise ValueError("start has zero boundary trace")
    return u, norm


def _eigenpair(mesh, lam, u, iterations, residual, diagnostics):
    """Pack a solver result, with u flipped to nonnegative boundary mean; the
    pair is converged exactly when ``diagnostics["stop"]`` is ``"tolerance"``."""
    if float(assembly.geometry(mesh).boundary_weights @ u) < 0.0:
        u = -u
    return EigenPair(
        lam=lam,
        u=Field.of(mesh, u),
        iterations=iterations,
        residual=residual,
        converged=diagnostics["stop"] == "tolerance",
        positivity_violation=bool(u.min() < -1e-8),
        diagnostics=diagnostics,
    )


def _solve_p2(mesh, phi, params, pinned, opts, start):
    """The Krylov-Ritz driver for p = 2 with the field pinned to zero on ``pinned``.

    ``pinned`` is a vertex mask that is False off the boundary; ``rows`` is
    its complement and ``free`` the unpinned positions of
    ``mesh.boundary_vertices``.  Each route of the module docstring supplies
    a matrix K of the unpinned unknowns, its solve and a lift back to all
    vertices.  Reduced: ``S0 + sigma * diag(b_phi)`` on ``free`` (S0 alone
    at sigma = 0, where phi is unread), its Cholesky factor and the
    A0-harmonic extension (``b_phi`` is zero off the boundary, so the
    lifted field solves the interior rows of A u = lam Mb u).  Plain: A
    assembled on ``rows`` in their dissection order, its unpivoted ``splu``
    and a scatter.  The start enters only through its values on the unknowns
    of K; the reported residual is the driver's ``|K x - lam Mb x| / |K x|``,
    which on the plain route is the residual of A over ``rows``.  The
    diagnostics name the route (``boundary_operator``) and why
    :func:`_krylov_ritz` stopped (``stop``).
    """
    _check_regularization(params)
    mb = assembly.geometry(mesh).boundary_weights
    rows = ~pinned
    op = _operators.get(mesh)
    if op is not None:
        free = rows[mesh.boundary_vertices]
        idx = mesh.boundary_vertices[free]
        K = op.S0[np.ix_(free, free)]
        if params.sigma != 0.0:
            K[np.diag_indices_from(K)] += params.sigma * assembly.density_weights(mesh, phi)[idx]
        factor = sla.cho_factor(K)

        def solve(rhs):
            return sla.cho_solve(factor, rhs)

        def lift(x):
            trace = np.zeros(mesh.n_boundary_edges)
            trace[free] = x
            return op.extend(trace)

    else:
        order = _nested_dissection(mesh, np.arange(mesh.n_vertices))
        idx = order[rows[order]]
        K, _ = assembly.assemble_linear(mesh, phi, params.sigma, idx)
        solve = _splu(K.T, **_IN_ORDER).solve

        def lift(x):
            v = np.zeros(mesh.n_vertices)
            v[idx] = x
            return v

    x0 = _start(mesh, start, 2.0, pinned)[0][idx]
    lam, x, iters, residual, stop = _krylov_ritz(
        K.__matmul__, mb[idx], solve, x0, opts.resolved_tol(2.0), opts.max_iters
    )
    diagnostics = {"method": "krylov_ritz", "boundary_operator": op is not None, "stop": stop}
    return _eigenpair(mesh, lam, lift(x), iters, residual, diagnostics)


def solve_linear(mesh, phi, params, opts=None, start=None):
    """First eigenpair of the p = 2 problem ``params`` for boundary density phi.

    Runs on the mesh's cached boundary operator when one has been built
    (see :func:`boundary_operator`), on a fresh sparse factorization
    otherwise.  Raises ``ValueError`` for ``params.p != 2``.  Returns a
    converged flag rather than raising on iteration-limit hits; the returned
    eigenfunction is normalized to unit boundary 2-norm and sign-fixed to
    nonnegative boundary mean.
    """
    if params.p != 2.0:
        raise ValueError(f"solve_linear solves p = 2 only, got p = {params.p}")
    pinned = np.zeros(mesh.n_vertices, dtype=bool)
    return _solve_p2(mesh, phi, params, pinned, opts or SolverOptions(), start)


class _ReweightedMetric:
    """The descent's metric M(u), factored; see the module docstring.

    M is assembled on the unpinned vertices ``free`` only, so directions
    vanish exactly on ``pinned``.
    """

    def __init__(self, kernel, pinned):
        mesh = kernel.mesh
        self._kernel = kernel
        self._p = kernel.p
        self._free = np.flatnonzero(~pinned)
        self._stiffness = assembly.WeightedStiffness(mesh, self._free)
        self._mass = kernel.weights + assembly.geometry(mesh).boundary_weights
        self._matrix = None
        self._lu = None
        self.factorizations = 0

    def refresh(self, u):
        """Reweight M at the field ``u`` and factor it."""
        gx, gy = self._kernel.element_gradients(u)
        # Release the old factor before building the new one.
        self._matrix = self._lu = None
        self._matrix = self._stiffness.matrix(
            _reweighting(gx * gx + gy * gy, self._p), self._mass * _reweighting(u * u, self._p)
        )
        self._lu = _splu(self._matrix.T)
        self.factorizations += 1

    def direction(self, g):
        """M^-1 g, zero on the pinned vertices."""
        z = np.zeros_like(g)
        z[self._free] = self._lu.solve(g[self._free])
        return z

    def norm_sq(self, s):
        """s^T M s for an ``s`` that is zero on the pinned vertices."""
        s = s[self._free]
        return float(s @ (self._matrix @ s))


def _reweighting(sq, p):
    """``(sq + delta^2)^((p - 2)/2)`` with ``delta^2 = _WEIGHT_FLOOR * max(sq)``.

    All ones when ``sq`` is zero everywhere, as at a constant field.
    """
    top = float(sq.max())
    if top == 0.0:
        return np.ones_like(sq)
    return (sq + _WEIGHT_FLOOR * top) ** ((p - 2.0) / 2.0)


def _descent(mesh, phi, params, pinned, opts, start):
    """Projected BB descent on R in the reweighted metric, with u = 0 on ``pinned``.

    Starts from ``start`` (see :func:`_start`).  One energy kernel
    serves the whole solve, and the metric is refactored every
    ``_METRIC_REFRESH`` accepted steps (see the module docstring).  Each step
    first checks the gradient test ``|g| <= tol * max(1, |R|)``, then the
    step limit, then the stall window.  The pair's ``residual`` is the
    Euclidean norm of the final gradient.  The returned diagnostics have
    exactly these keys:

    - ``method``: ``"reweighted_descent"``;
    - ``stop``: why the loop ended, one of ``"tolerance"`` (the gradient
      test holds), ``"max_iters"``, ``"stall"`` (R dropped by at most
      ``_STALL_DROP * |R|`` over the last ``_STALL_STEPS`` accepted steps)
      or ``"line_search"`` (the halved steps along -M^-1 g fail the Armijo
      test until ``u - a z`` rounds to u bitwise; the failed attempt counts
      as a step);
    - ``metric_factorizations``: the number of factorizations of M;
    - ``backtracks``: the number of Armijo step halvings.

    ``pinned`` is a vertex mask (all False for a free solve).
    """
    _check_regularization(params)
    p = params.p
    tol = opts.resolved_tol(p)
    kernel = assembly.EnergyKernel(mesh, phi, params)
    metric = _ReweightedMetric(kernel, pinned)

    u, norm = _start(mesh, start, p, pinned)
    u = u / norm

    def quotient(vals):
        e, b = kernel.evaluate(vals)
        return e / b

    def gradient(r):
        """E' - r B' at the field of the last ``quotient`` call, 0 where pinned."""
        g = kernel.gradient(r)
        g[pinned] = 0.0
        return g

    R = quotient(u)
    g = gradient(R)
    gnorm = float(np.linalg.norm(g))
    metric.refresh(u)
    z = metric.direction(g)
    alpha = 1.0  # z is already scaled by M^-1; start from the full step
    history = collections.deque([R], maxlen=_STALL_STEPS + 1)
    stop = "tolerance"
    backtracks = 0
    iters = 0

    while not (gnorm <= tol * max(1.0, abs(R))):  # a NaN gradient fails the test
        if iters == opts.max_iters:
            stop = "max_iters"
            break
        if len(history) > _STALL_STEPS and history[0] - R <= _STALL_DROP * abs(R):
            stop = "stall"
            break
        iters += 1
        a = alpha
        slope = float(g @ z)
        accepted = False
        while a > 0.0:
            v = u - a * z
            if np.array_equal(v, u):
                break
            nv = boundary_p_norm(mesh, v, p)
            if 0.0 < nv < math.inf:  # |v|^p may overflow at large p
                v = v / nv
                Rv = quotient(v)
                if Rv <= R - _ARMIJO_SLOPE * a * slope:
                    accepted = True
                    break
            a *= _ARMIJO_BACKTRACK
            backtracks += 1
        if not accepted:
            # Every step that still moves u fails the Armijo test.
            stop = "line_search"
            break
        s = v - u
        g_new = gradient(Rv)
        sy = float(s @ (g_new - g))
        alpha = metric.norm_sq(s) / sy if sy > 0.0 else 2.0 * a
        alpha = min(max(alpha, 1e-12), 1e3)
        u, R, g = v, Rv, g_new
        gnorm = float(np.linalg.norm(g))
        history.append(R)
        if iters % _METRIC_REFRESH == 0:
            metric.refresh(u)
        z = metric.direction(g)

    diagnostics = {
        "method": "reweighted_descent",
        "stop": stop,
        "metric_factorizations": metric.factorizations,
        "backtracks": backtracks,
    }
    return _eigenpair(mesh, R, u, iters, gnorm, diagnostics)


def solve_nonlinear(mesh, phi, params, opts=None, start=None):
    """First eigenpair for general p > 1 by projected descent.

    The default start is the positive constant with unit boundary p-norm;
    pass ``start`` (a Field or array) to warm-start, which by monotonicity
    of the accepted steps can only lower the computed eigenvalue.
    """
    pinned = np.zeros(mesh.n_vertices, dtype=bool)
    return _descent(mesh, phi, params, pinned, opts or SolverOptions(), start)


def solve_dirichlet(mesh, region, params, opts=None, start=None):
    """Mixed problem: trace pinned to zero on the closure of the arcs in ``region``.

    ``region`` must be built on ``mesh`` (:meth:`RegionSpec.check_mesh`).
    Minimizes the sigma-free quotient over fields vanishing at every
    boundary vertex whose arc coordinate lies in a closed arc of ``region``;
    for p = 2 this is a reduced generalized eigenproblem, run on the
    principal submatrix of the cached boundary operator's ``S0`` when the
    mesh has one.
    """
    region.check_mesh(mesh)
    params = replace(params, sigma=0.0)

    constrained_b = region.contains_array(mesh.cum_arclength, closed=True)
    if constrained_b.all():
        raise InfeasibleConstraintError(
            "region covers every boundary vertex; no admissible trace remains"
        )
    pinned = np.zeros(mesh.n_vertices, dtype=bool)
    pinned[mesh.boundary_vertices[constrained_b]] = True
    core = _solve_p2 if params.p == 2.0 else _descent  # phi is unread at sigma = 0
    eig = core(mesh, None, params, pinned, opts or SolverOptions(), start)
    eig.diagnostics["constrained_vertices"] = int(constrained_b.sum())
    return eig
