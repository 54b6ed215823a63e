"""Discrete energy, gradients, and linear operators on P1 meshes.

The discrete energy of a nodal field u with boundary density phi is

    E(u) = sum_T area(T) s_T^(p/2)   with s_T = |grad u|_T|^2 + eps^2 (gradient constant)
         + sum_v w_v |u_v|^p         with w = lumped_mass + sigma * density_weights(phi)

and the boundary p-power is ``sum_v boundary_weights_v |u_v|^p``, the lumped
mass being area/3 per corner and the boundary weights trapezoid rules.
Value and gradient share s_T, so the gradient is exact for every eps.  These
quadratures are normative: every solver and optimality check reduces to them.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class ProblemParams:
    """Exponent p > 1, boundary coupling sigma >= 0, gradient regularization.

    Every given value must be finite.

    ``eps_reg`` turns the gradient term into ``(|grad u|^2 + eps^2)^(p/2)``,
    whose derivative stays finite at zero gradients; ``None`` resolves to
    1e-8 for p < 2 (where |grad u|^(p-2) blows up) and to 0 for p >= 2.
    """

    p: float = 2.0
    sigma: float = 0.0
    eps_reg: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p > 1.0):
            raise ValueError(f"p must be finite and exceed 1, got {self.p}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma}")
        if self.eps_reg is not None and not (
            math.isfinite(self.eps_reg) and self.eps_reg >= 0.0
        ):
            raise ValueError(f"eps_reg must be finite and nonnegative, got {self.eps_reg}")

    @property
    def eps(self):
        if self.eps_reg is not None:
            return self.eps_reg
        return 1e-8 if self.p < 2.0 else 0.0


@dataclass(frozen=True)
class Field:
    """Nodal P1 field: one finite float per mesh vertex."""

    values: np.ndarray

    @staticmethod
    def of(mesh, values):
        # A copy, so freezing it leaves the caller's array writeable.
        values = np.array(values, dtype=np.float64, order="C")
        if values.shape != (mesh.n_vertices,):
            raise ValueError(
                f"field has {values.shape} values, mesh has {mesh.n_vertices} vertices"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field contains non-finite values")
        values.flags.writeable = False
        return Field(values)


@dataclass(frozen=True)
class BoundaryDensity:
    """Piecewise-constant boundary density, one value in [0, 1] per loop edge."""

    edge_values: np.ndarray
    mass: float

    @staticmethod
    def of(mesh, edge_values):
        # A copy, so freezing it leaves the caller's array writeable.
        vals = np.array(edge_values, dtype=np.float64, order="C")
        if vals.shape != (mesh.n_boundary_edges,):
            raise ValueError(
                f"density has {vals.shape} values, boundary has "
                f"{mesh.n_boundary_edges} edges"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("density contains non-finite values")
        if vals.min() < 0.0 or vals.max() > 1.0:
            raise ValueError("density values must lie in [0, 1]")
        vals.flags.writeable = False
        mass = float(np.dot(vals, mesh.edge_lengths))
        return BoundaryDensity(edge_values=vals, mass=mass)

    @staticmethod
    def constant(mesh, value):
        return BoundaryDensity.of(mesh, np.full(mesh.n_boundary_edges, float(value)))


def _as_values(u, mesh):
    vals = u.values if isinstance(u, Field) else np.asarray(u, dtype=np.float64)
    if vals.shape != (mesh.n_vertices,):
        raise ValueError(
            f"field has shape {vals.shape}, mesh has {mesh.n_vertices} vertices"
        )
    return vals


def _phi_values(phi, mesh):
    if isinstance(phi, BoundaryDensity):
        return phi.edge_values
    vals = np.asarray(phi, dtype=np.float64)
    if vals.shape != (mesh.n_boundary_edges,):
        raise ValueError("density length does not match the boundary loop")
    return vals


class _Geometry:
    """Per-mesh precomputed P1 quantities (areas, basis gradients, lumped masses)."""

    def __init__(self, mesh):
        v = mesh.vertices
        t = mesh.triangles
        p0, p1, p2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
        d1 = p1 - p0
        d2 = p2 - p0
        area2 = d1[:, 0] * d2[:, 1] - d2[:, 0] * d1[:, 1]
        self.areas = 0.5 * area2
        # grad of the barycentric basis: rotate opposite edges by 90 degrees.
        e0 = p2 - p1
        e1 = p0 - p2
        e2 = p1 - p0
        grads = np.empty((len(t), 3, 2))
        grads[:, 0, 0] = -e0[:, 1]
        grads[:, 0, 1] = e0[:, 0]
        grads[:, 1, 0] = -e1[:, 1]
        grads[:, 1, 1] = e1[:, 0]
        grads[:, 2, 0] = -e2[:, 1]
        grads[:, 2, 1] = e2[:, 0]
        grads /= area2[:, None, None]
        self.basis_grads = grads

        self.lumped_mass = np.bincount(
            t.ravel(), weights=np.repeat(self.areas / 3.0, 3), minlength=mesh.n_vertices
        )

        # unweighted trapezoid, zero off-boundary
        self.boundary_weights = density_weights(mesh, np.ones(mesh.n_boundary_edges))


_geometry_cache = weakref.WeakKeyDictionary()


def geometry(mesh):
    geom = _geometry_cache.get(mesh)
    if geom is None:
        geom = _Geometry(mesh)
        _geometry_cache[mesh] = geom
    return geom


class EnergyKernel:
    """The energy of one ``(mesh, phi, params)``, evaluated field by field.

    The descent builds one per solve.  It holds what every evaluation
    shares: the areas, the nodal weights w of the module docstring
    (``weights``, which the descent's metric reuses) and the boundary
    weights (and their multiples by p), and per triangle corner the vertex
    index and the basis gradient's x and y components, each a contiguous row
    of a corner-major array, so the vertex index is also the one
    ``np.bincount`` scatters the gradient with.

    :meth:`evaluate` forms the element term ``s = gx^2 + gy^2 + eps^2`` once
    per field and returns the energy and the boundary p-power from it and
    one array ``|u|^p``; :meth:`gradient` at that field takes its
    coefficient ``p * area * s^((p-2)/2)`` from the same ``s``.  ``phi`` is
    read only when ``params.sigma != 0``.
    """

    def __init__(self, mesh, phi, params):
        g = geometry(mesh)
        p = params.p
        self.mesh = mesh
        self.p = p
        self._corners = np.ascontiguousarray(mesh.triangles.T)
        self._bx = np.ascontiguousarray(g.basis_grads[:, :, 0].T)
        self._by = np.ascontiguousarray(g.basis_grads[:, :, 1].T)
        self._areas = g.areas
        self.weights, density = _nodal_weights(mesh, phi, params.sigma)
        self._boundary = mesh.boundary_vertices
        self._boundary_weights = g.boundary_weights[self._boundary]
        self._p_areas = p * g.areas
        self._p_lumped = p * g.lumped_mass
        self._p_boundary = p * g.boundary_weights
        self._eps_sq = params.eps * params.eps
        self._coupling = None if density is None else params.sigma * p * density
        self._point = None

    def element_gradients(self, vals):
        """The constant gradient of ``vals`` on each triangle, as ``(gx, gy)``."""
        u0, u1, u2 = vals[self._corners[0]], vals[self._corners[1]], vals[self._corners[2]]
        bx, by = self._bx, self._by
        gx = u0 * bx[0]
        gx += u1 * bx[1]
        gx += u2 * bx[2]
        gy = u0 * by[0]
        gy += u1 * by[1]
        gy += u2 * by[2]
        return gx, gy

    def evaluate(self, vals):
        """``(energy, boundary p-power)`` of ``vals``, which becomes the kernel's field."""
        gx, gy = self.element_gradients(vals)
        s = gx * gx
        s += gy * gy
        s += self._eps_sq
        self._point = (vals, gx, gy, s)
        p = self.p
        powers = np.abs(vals) ** p
        total = float(np.dot(s ** (p / 2.0), self._areas))
        total += float(np.dot(self.weights, powers))
        return total, float(np.dot(self._boundary_weights, powers[self._boundary]))

    def gradient(self, r=None):
        """Nodal energy gradient at the last evaluated field.

        With ``r`` given, ``r`` times the gradient of the boundary p-power is
        subtracted: the gradient of the Rayleigh numerator minus ``r`` times
        that of its denominator.
        """
        vals, gx, gy, s = self._point
        p = self.p
        coef = self._p_areas * s ** ((p - 2.0) / 2.0)
        contrib = np.empty(self._corners.shape)
        for k in range(3):
            dot = gx * self._bx[k]
            dot += gy * self._by[k]
            np.multiply(coef, dot, out=contrib[k])
        out = np.bincount(self._corners.ravel(), weights=contrib.ravel(), minlength=len(vals))
        signed = _signed_power(vals, p - 1.0)
        out += self._p_lumped * signed
        if self._coupling is not None:
            out += self._coupling * signed
        if r is not None:
            out -= r * (self._p_boundary * signed)
        return out


def energy(mesh, u, phi, params):
    """Normative discrete energy; see the module docstring for the quadrature."""
    return EnergyKernel(mesh, phi, params).evaluate(_as_values(u, mesh))[0]


def boundary_p_norm(mesh, u, p):
    """Trapezoid-rule L^p norm of the boundary trace of u."""
    return boundary_p_power(mesh, u, p) ** (1.0 / p)


def boundary_p_power(mesh, u, p):
    """The p-th power of :func:`boundary_p_norm`, bitwise that of :class:`EnergyKernel`."""
    vals = _as_values(u, mesh)
    bv = mesh.boundary_vertices
    return float(np.dot(geometry(mesh).boundary_weights[bv], np.abs(vals[bv]) ** p))


def _signed_power(vals, q):
    """sign(u) * |u|^q, with the continuous extension 0 at u = 0 (q > 0)."""
    return np.sign(vals) * np.abs(vals) ** q


def energy_gradient(mesh, u, phi, params):
    """Nodal gradient of the discrete energy, exact for every ``eps_reg``."""
    kernel = EnergyKernel(mesh, phi, params)
    kernel.evaluate(_as_values(u, mesh))
    return kernel.gradient()


def density_weights(mesh, phi):
    """Nodal trapezoid weights of the phi-weighted boundary length, zero inside."""
    pv = _phi_values(phi, mesh)
    loop = mesh.boundary_loop
    half = 0.5 * pv * mesh.edge_lengths
    # one pass over the edges' first ends, then their second ends
    return np.bincount(
        np.concatenate((loop[:, 0], loop[:, 1])),
        weights=np.concatenate((half, half)),
        minlength=mesh.n_vertices,
    )


def _nodal_weights(mesh, phi, sigma):
    """``(w, density_weights)``: the energy's nodal weights, also the p = 2
    diagonal, and their phi part, which is None at sigma = 0 (phi unused)."""
    lumped = geometry(mesh).lumped_mass
    if sigma == 0.0:
        return lumped, None
    density = density_weights(mesh, phi)
    return lumped + sigma * density, density


def boundary_power_gradient(mesh, u, p):
    """Nodal gradient of :func:`boundary_p_power`."""
    vals = _as_values(u, mesh)
    return p * geometry(mesh).boundary_weights * _signed_power(vals, p - 1.0)


class WeightedStiffness:
    """The P1 stiffness matrix with one weight per triangle, ``sum_T w_T K_T``.

    Row k belongs to vertex ``unknowns[k]`` (default: all vertices).  The
    sparsity pattern is built once: the element contributions in CSR order
    (a stable sort on ``(row, col)``) and the start of each entry's run.
    :meth:`matrix` then only scales the contributions and sums each run in
    triangle order.  The local matrices are bitwise symmetric and their
    ``(i, j)`` and ``(j, i)`` contributions arrive in the same triangle
    order, so every assembled matrix is exactly symmetric (its CSR arrays
    are its CSC arrays) -- scipy's own duplicate folding does not guarantee
    that.
    """

    def __init__(self, mesh, unknowns=None):
        g = geometry(mesh)
        n = mesh.n_vertices
        self._unknowns = unknowns = np.arange(n) if unknowns is None else unknowns
        k = len(unknowns)
        position = np.full(n, -1, dtype=np.int64)
        position[unknowns] = np.arange(k)
        local = np.einsum("tid,tjd->tij", g.basis_grads, g.basis_grads)
        local *= g.areas[:, None, None]
        tri = position[mesh.triangles]
        rows = np.repeat(tri, 3, axis=1).ravel()  # t-major, then i, then j
        cols = np.tile(tri, (1, 3)).ravel()
        keep = np.flatnonzero((rows >= 0) & (cols >= 0))  # entries between unknowns
        order = keep[np.argsort(rows[keep] * k + cols[keep], kind="stable")]
        rows, cols = rows[order], cols[order]
        self._vals = local.ravel()[order]
        self._elements = np.floor_divide(order, 9, out=order)  # 9 entries per triangle
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        self._starts = np.flatnonzero(first)
        self._indices = cols[self._starts]
        self._indptr = np.searchsorted(rows[self._starts], np.arange(k + 1))
        self._diagonal = np.flatnonzero(rows[self._starts] == self._indices)
        self.shape = (k, k)

    def matrix(self, weights=None, diagonal=None):
        """``sum_T weights_T K_T + diag(diagonal)`` on the unknowns, in CSR format.

        ``weights`` (one per triangle) and ``diagonal`` (one per vertex)
        default to ones and zeros.
        """
        vals = self._vals if weights is None else self._vals * weights[self._elements]
        data = np.add.reduceat(vals, self._starts)
        if diagonal is not None:
            data[self._diagonal] += diagonal[self._unknowns]
        return sp.csr_matrix((data, self._indices, self._indptr), shape=self.shape)


def assemble_linear(mesh, phi, sigma, unknowns=None):
    """Sparse operators of the p = 2 problem on ``unknowns``.

    Returns ``(A, Mb)`` in CSR format with
    ``A = stiffness + lumped volume mass + sigma * phi-weighted boundary mass``
    and ``Mb`` the unweighted trapezoid boundary mass, both on ``unknowns`` as
    in :class:`WeightedStiffness` and without explicit zeros (A is SPD, and
    ``A.T`` is A in CSC format; Mb is diagonal PSD), and ``u @ A @ u``
    reproduces ``energy(u, phi, p=2, sigma)`` up to roundoff.
    """
    unknowns = np.arange(mesh.n_vertices) if unknowns is None else unknowns
    stiff = WeightedStiffness(mesh, unknowns).matrix()
    A = (stiff + sp.diags(_nodal_weights(mesh, phi, sigma)[0][unknowns])).tocsr()
    return A, sp.diags(geometry(mesh).boundary_weights[unknowns]).tocsr()
