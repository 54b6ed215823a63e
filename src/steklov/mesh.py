"""Planar triangle meshes with an ordered boundary loop.

All domains are simply connected polygons triangulated by straight P1
triangles.  The boundary is kept as an ordered, counterclockwise, closed
loop of directed edges so that boundary quantities (arc length,
densities) can be addressed by a single circular coordinate
``s in [0, perimeter)``.

Meshes are immutable after construction: every array is marked read-only,
so instances are safe to share between threads and to memoize against.

Construction is array work: the disk's and the rectangle's triangles come
from index arithmetic and the boundary loop and edge list from one sort of
directed-edge keys (see :func:`_extract_boundary_loop`); only the walk over
the B boundary vertices and the disk's loop over its rings are Python loops.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import MeshParseError, MeshResourceError, MeshTopologyError

# Refuse disk/rectangle resolutions that would allocate more vertices than this.
_MAX_GENERATED_VERTICES = 5_000_000

# A closed region holds every arc coordinate within this of an endpoint.
_CLOSED_SLACK = 1e-12


class Mesh:
    """Immutable triangle mesh of a simply connected planar domain.

    Attributes
    ----------
    vertices : (n, 2) float array
        Vertex coordinates.
    triangles : (m, 3) int array
        Vertex indices, counterclockwise.
    boundary_loop : (b, 2) int array
        Directed boundary edges ``(i, j)`` in counterclockwise loop order;
        ``boundary_loop[k, 1] == boundary_loop[k + 1, 0]`` cyclically.
    edges : (e, 2) int array
        Every edge once, as ``(i, j)`` with ``i < j``, in sorted order.
    edge_lengths : (b,) float array
        Euclidean length of each boundary edge.
    cum_arclength : (b,) float array
        Arc length at the start vertex of each boundary edge, so also the
        arc coordinate of ``boundary_vertices[k]``; ``cum_arclength[0] == 0``.
    kind : str
        Generator tag: ``"disk"``, ``"rectangle"`` or ``"file"``.
    diagnostics : dict
        Construction notes (currently the count of reoriented triangles).
    """

    def __init__(self, vertices, triangles, kind="file"):
        # vertices is copied, as _orient_ccw copies triangles, so freezing
        # the mesh's arrays leaves the caller's own ones writeable.
        vertices = np.array(vertices, dtype=np.float64, order="C")
        triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshTopologyError("vertices must be an (n, 2) array")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise MeshTopologyError("triangles must be an (m, 3) array")
        if not np.all(np.isfinite(vertices)):
            raise MeshTopologyError("non-finite vertex coordinates")
        if triangles.size == 0:
            raise MeshTopologyError("mesh has no triangles")
        if triangles.min() < 0 or triangles.max() >= len(vertices):
            raise MeshParseError("triangle refers to a vertex that does not exist")

        triangles, flipped = _orient_ccw(vertices, triangles)
        self.vertices = vertices
        self.triangles = triangles
        self.kind = kind
        self.diagnostics = {"reoriented_triangles": flipped}

        used = np.zeros(len(vertices), dtype=bool)
        used[triangles.ravel()] = True
        if not used.all():
            raise MeshTopologyError("vertex not referenced by any triangle")

        loop, self.edges = _extract_boundary_loop(triangles)
        self.boundary_loop = loop
        seg = vertices[loop[:, 1]] - vertices[loop[:, 0]]
        self.edge_lengths = np.hypot(seg[:, 0], seg[:, 1])
        if np.any(self.edge_lengths == 0.0):
            raise MeshTopologyError("zero-length boundary edge")
        cum = np.concatenate(([0.0], np.cumsum(self.edge_lengths)))
        self.cum_arclength = cum[:-1]
        self.perimeter = float(cum[-1])

        self.boundary_vertices = loop[:, 0].copy()
        mask = np.zeros(len(vertices), dtype=bool)
        mask[self.boundary_vertices] = True
        self.is_boundary_vertex = mask

        for arr in (
            self.vertices,
            self.triangles,
            self.boundary_loop,
            self.edges,
            self.edge_lengths,
            self.cum_arclength,
            self.boundary_vertices,
            self.is_boundary_vertex,
        ):
            arr.flags.writeable = False

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_boundary_edges(self):
        return len(self.boundary_loop)

    @property
    def max_boundary_edge_length(self):
        return float(self.edge_lengths.max())

    def all_edge_lengths(self):
        """Lengths of every mesh edge (interior and boundary), in ``edges`` order."""
        seg = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        return np.hypot(seg[:, 0], seg[:, 1])

    def __repr__(self):
        return (
            f"Mesh(kind={self.kind!r}, vertices={self.n_vertices}, "
            f"triangles={len(self.triangles)}, boundary_edges={self.n_boundary_edges})"
        )


def _orient_ccw(vertices, triangles):
    """Return triangles with positive signed area, flipping clockwise ones."""
    p0 = vertices[triangles[:, 0]]
    p1 = vertices[triangles[:, 1]]
    p2 = vertices[triangles[:, 2]]
    area2 = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (p2[:, 0] - p0[:, 0]) * (
        p1[:, 1] - p0[:, 1]
    )
    if np.any(area2 == 0.0):
        raise MeshTopologyError("degenerate (zero-area) triangle")
    flip = area2 < 0.0
    out = triangles.copy()
    out[flip] = out[flip][:, [0, 2, 1]]
    return out, int(flip.sum())


def _extract_boundary_loop(triangles):
    """Chain the directed boundary edges of a CCW triangulation into one loop.

    Returns ``(loop, edges)``: ``loop[k] = (i, j)`` is the k-th directed
    boundary edge, starting at the smallest boundary vertex, and ``edges``
    is ``Mesh.edges``.  Each boundary edge is an edge of a counterclockwise
    triangle, which lies to its left, so the loop runs counterclockwise.

    Edges are matched by one sort: the directed edges are listed in
    triangle-major order ``(a, b), (b, c), (c, a)`` and packed into integer
    keys that put each edge next to its reverse.  A boundary edge is one
    whose reverse is absent.  Only the walk along the B boundary edges runs
    in Python.

    The loop always closes.  At every vertex each triangle contributes one
    outgoing and one incoming directed edge, and so does each matched
    interior pair; the unmatched (boundary) edges therefore have equal out-
    and in-degree at every vertex.  Once no vertex has two outgoing
    boundary edges, every boundary vertex has exactly one successor and one
    predecessor, so the successor map permutes the boundary vertices and
    the walk returns to its start.  A walk shorter than B means the
    permutation has more than one cycle: several boundary loops.
    """
    triangles = np.asarray(triangles, dtype=np.int64)
    n = int(triangles.max()) + 1
    src = triangles.ravel()
    dst = triangles[:, [1, 2, 0]].ravel()
    # Key of (i, j): twice the key of the undirected edge, plus 1 if i > j.
    # Sorted, a repeated directed edge is a run of equal keys and an interior
    # edge meets its reverse in the adjacent slot.
    keys = 2 * (np.minimum(src, dst) * n + np.maximum(src, dst)) + (src > dst)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]

    # A stable sort lists the copies of one key in edge order, so the first
    # repeat in edge order is the smallest index that is not first in its run.
    repeats = order[1:][sorted_keys[1:] == sorted_keys[:-1]]
    if repeats.size:
        e = int(repeats.min())
        key = (int(src[e]), int(dst[e]))
        raise MeshTopologyError(
            f"directed edge {key} appears twice (repeated or overlapping triangle)"
        )

    undirected = sorted_keys >> 1
    first = np.ones(len(keys), dtype=bool)  # first key of its undirected edge
    first[1:] = undirected[1:] != undirected[:-1]
    unmatched = first & np.append(first[1:], True)
    boundary = np.sort(order[unmatched])
    if boundary.size == 0:
        raise MeshTopologyError("mesh has no boundary")

    starts = src[boundary]
    by_start = np.argsort(starts, kind="stable")
    pinches = by_start[1:][starts[by_start[1:]] == starts[by_start[:-1]]]
    if pinches.size:
        i = int(starts[pinches.min()])
        raise MeshTopologyError(
            f"vertex {i} has two outgoing boundary edges (non-manifold pinch)"
        )

    succ = np.full(n, -1, dtype=np.int64)
    succ[starts] = dst[boundary]

    start = int(starts.min())
    nxt = succ.tolist()
    walk = [start]
    v = nxt[start]
    while v != start:
        walk.append(v)
        v = nxt[v]
    if len(walk) != len(boundary):
        raise MeshTopologyError("boundary has multiple loops")
    walk = np.asarray(walk, dtype=np.int64)
    return np.column_stack((walk, succ[walk])), np.column_stack(np.divmod(undirected[first], n))


def generate_disk(target_h):
    """Mesh the unit disk with boundary vertices exactly on the unit circle.

    The boundary is a regular N-gon (N even, chord <= target_h); the interior
    is filled with concentric rings of near-uniform spacing and the centre.
    Consecutive rings are joined by index arithmetic (see
    :func:`_zip_rings`) and the innermost ring by a fan to the centre, so
    every triangle is counterclockwise as generated.

    Vertex order: the boundary ring first (indices ``0..N-1`` in angular
    order from angle 0), then the interior rings from the outside in, each
    in angular order, and the centre last.

    Parameters
    ----------
    target_h : float
        Requested edge length, ``0 < target_h < 1``.

    Returns
    -------
    Mesh
        ``kind == "disk"``; every edge is no longer than ``1.5 * target_h``.
    """
    if not (0.0 < target_h < 1.0):
        raise ValueError(f"target_h must lie in (0, 1), got {target_h}")
    # Divide twice: target_h**2 underflows to 0 for tiny target_h.
    est = 3.7 / target_h / target_h
    if est > _MAX_GENERATED_VERTICES:
        raise MeshResourceError(
            f"target_h={target_h:g} would need ~{est:g} vertices "
            f"(limit {_MAX_GENERATED_VERTICES})"
        )

    n_bnd = int(math.ceil(2.0 * math.pi / target_h))
    if n_bnd % 2:
        n_bnd += 1
    n_rings = max(2, int(math.ceil(1.0 / target_h)))

    # Boundary ring first so that boundary vertices get indices 0..n_bnd-1
    # in angular order: arc length and polar angle then line up trivially.
    #
    # Rings in the outer annulus keep the full boundary count (staggered by
    # half a cell), so the mesh near the boundary is exactly invariant under
    # rotation by one boundary edge: boundary data shifted by whole edges
    # then sees an identical discretization, which keeps eigenvalues of
    # rotated boundary densities equal to far below discretization error.
    theta = 2.0 * math.pi * np.arange(n_bnd) / n_bnd
    pts = [np.column_stack((np.cos(theta), np.sin(theta)))]
    rings = [(n_bnd, 0.0)]  # (count, angle of the ring's vertex 0)
    r_uniform = 0.55
    for j in range(n_rings - 1, 0, -1):
        r = j / n_rings
        if r >= r_uniform:
            nj = n_bnd
        else:
            nj = max(6, int(round(n_bnd * r)))
        off = (j % 2) * math.pi / nj
        ang = 2.0 * math.pi * np.arange(nj) / nj + off
        pts.append(np.column_stack((r * np.cos(ang), r * np.sin(ang))))
        rings.append((nj, off))
    pts.append(np.zeros((1, 2)))
    points = np.vstack(pts)

    tris = []
    first = 0
    for (n_out, off_out), (n_in, off_in) in zip(rings, rings[1:]):
        tris.append(_zip_rings(first, n_out, off_out, first + n_out, n_in, off_in))
        first += n_out
    # The centre, the last vertex, fans the innermost ring.
    k = np.arange(n_in, dtype=np.int64)
    centre = np.full(n_in, len(points) - 1)
    tris.append(np.column_stack((first + k, first + (k + 1) % n_in, centre)))
    return Mesh(points, np.concatenate(tris), kind="disk")


def _zip_rings(a0, na, off_a, b0, nb, off_b):
    """Counterclockwise triangles of the annulus between two vertex rings.

    The outer ring has ``na`` vertices ``a0 + k`` at angles
    ``off_a + 2 pi k / na``, the inner one ``nb`` vertices ``b0 + m``
    likewise.  Each ring edge is the base of one triangle whose apex lies
    on the other ring.  Walking round the annulus in the order of the edge
    midpoint angles (outer edge first on a tie), the apex of an edge is the
    other ring's vertex reached after all of that ring's earlier edges;
    since midpoints on each ring increase with the edge index, that count
    is one ``searchsorted``.  Two rings with equal counts and staggered
    offsets give the strip of ``2 n`` triangles that is invariant under
    rotation by one edge.
    """
    k = np.arange(na, dtype=np.int64)
    m = np.arange(nb, dtype=np.int64)
    mid_a = 2.0 * math.pi * (k + 0.5) / na + off_a
    mid_b = 2.0 * math.pi * (m + 0.5) / nb + off_b
    apex_b = b0 + np.searchsorted(mid_b, mid_a, side="left") % nb
    apex_a = a0 + np.searchsorted(mid_a, mid_b, side="right") % na
    outer = np.column_stack((a0 + k, a0 + (k + 1) % na, apex_b))
    inner = np.column_stack((b0 + (m + 1) % nb, b0 + m, apex_a))
    return np.concatenate((outer, inner))


def generate_rectangle(width, height, target_h):
    """Structured triangulation of ``[0, width] x [0, height]``.

    Cells of a uniform ``nx x ny`` grid are split along one diagonal; the
    boundary polygon is the exact rectangle, so its perimeter equals
    ``2 * (width + height)`` up to the last bit of the arc-length sums.
    """
    for name, value in (("width", width), ("height", height), ("target_h", target_h)):
        if not (0.0 < value < math.inf):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    # Float cell counts: width / target_h may overflow to inf, which
    # math.ceil cannot convert.  Below the limit every count is exact.
    nx = max(1.0, float(np.ceil(width / target_h)))
    ny = max(1.0, float(np.ceil(height / target_h)))
    if (nx + 1.0) * (ny + 1.0) > _MAX_GENERATED_VERTICES:
        raise MeshResourceError(
            f"rectangle grid {nx:g}x{ny:g} exceeds {_MAX_GENERATED_VERTICES} vertices"
        )
    nx, ny = int(nx), int(ny)
    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    vertices = np.column_stack((xx.ravel(), yy.ravel()))

    # Vertex (i, j) has index i * (ny + 1) + j; cell (i, j) is split into
    # (v00, v10, v11) and (v00, v11, v01), cells in i-major order.
    v00 = (np.arange(nx, dtype=np.int64)[:, None] * (ny + 1) + np.arange(ny)).ravel()
    v10, v01 = v00 + (ny + 1), v00 + 1
    v11 = v10 + 1
    tris = np.stack((v00, v10, v11, v00, v11, v01), axis=1).reshape(-1, 3)
    return Mesh(vertices, tris, kind="rectangle")


def load_mesh(text):
    """Parse the plain-text mesh format.

    Format: a ``vertices N`` header, N ``x y`` lines, a ``triangles M``
    header, M ``i j k`` lines.  Lines starting with ``#`` and blank lines
    are skipped; CRLF is accepted.  Clockwise triangles are reoriented and
    counted in ``mesh.diagnostics["reoriented_triangles"]``.
    """
    lines = []
    for ln, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append((ln, stripped))

    pos = 0

    def take():
        nonlocal pos
        if pos >= len(lines):
            raise MeshParseError("unexpected end of mesh text")
        item = lines[pos]
        pos += 1
        return item

    def section(header_form, noun, row_form, bad, dtype):
        """The rows under a ``header_form`` header, a positive count of them,
        each of ``row_form``'s number of tokens converted by ``dtype``."""
        ln, header = take()
        parts = header.split()
        if len(parts) != 2 or parts[0] != header_form.split()[0]:
            raise MeshParseError(f"line {ln}: expected '{header_form}', got {header!r}")
        try:
            count = int(parts[1])
        except ValueError:
            raise MeshParseError(f"line {ln}: bad {noun} count {parts[1]!r}") from None
        if count <= 0:
            raise MeshParseError(f"line {ln}: {noun} count must be positive")
        if count > len(lines) - pos:  # before allocating the rows
            raise MeshParseError("unexpected end of mesh text")
        width = len(row_form.split())
        rows = np.empty((count, width), dtype=dtype)
        for k in range(count):
            ln, row = take()
            parts = row.split()
            if len(parts) != width:
                raise MeshParseError(f"line {ln}: expected '{row_form}', got {row!r}")
            try:
                rows[k] = [dtype(part) for part in parts]
            except (ValueError, OverflowError):  # an index beyond int64
                raise MeshParseError(f"line {ln}: bad {bad} in {row!r}") from None
        return rows

    vertices = section("vertices N", "vertex", "x y", "coordinate", float)
    triangles = section("triangles M", "triangle", "i j k", "index", int)

    if pos != len(lines):
        ln, row = lines[pos]
        raise MeshParseError(f"line {ln}: trailing content {row!r}")
    return Mesh(vertices, triangles, kind="file")


def load_mesh_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return load_mesh(fh.read())


def serialize_mesh(mesh):
    """Inverse of :func:`load_mesh`: full-precision round-trippable text."""
    buf = io.StringIO()
    buf.write(f"vertices {mesh.n_vertices}\n")
    for x, y in mesh.vertices:
        buf.write(f"{x:.17g} {y:.17g}\n")
    buf.write(f"triangles {len(mesh.triangles)}\n")
    for i, j, k in mesh.triangles:
        buf.write(f"{i} {j} {k}\n")
    return buf.getvalue()


def locate_arc_point(mesh, s):
    """Map an arc-length coordinate to ``(edge_index, fraction)``.

    Satisfies ``cum_arclength[edge] + fraction * edge_lengths[edge] == s``
    with ``fraction in [0, 1)``.  Raises ``ValueError`` outside
    ``[0, perimeter)``.
    """
    if not (0.0 <= s < mesh.perimeter):
        raise ValueError(f"arc coordinate {s} outside [0, {mesh.perimeter})")
    k = int(np.searchsorted(mesh.cum_arclength, s, side="right")) - 1
    t = (s - mesh.cum_arclength[k]) / mesh.edge_lengths[k]
    return k, float(t)


@dataclass(frozen=True)
class RegionSpec:
    """Disjoint union of half-open boundary arcs ``[start, start + length)``.

    Arc coordinates are taken modulo the perimeter P; arcs may wrap through
    ``s = 0``.  Every region, however built, holds the arc rule or raises
    ``ValueError``: P is finite and positive, and the arcs ``(start, length)``
    have a finite start in [0, P] and a finite length in (0, P], are sorted
    by start and are pairwise disjoint around the loop.
    """

    arcs: tuple  # tuple of (start, length)
    perimeter: float

    def __post_init__(self):
        P = self.perimeter
        if not 0.0 < P < math.inf:
            message = "positive" if P <= 0.0 else f"finite, got {P!r}"
            raise ValueError(f"perimeter must be {message}")
        arcs = tuple((float(start), float(length)) for start, length in self.arcs)
        for arc in arcs:
            if arc[1] == 0.0:
                raise ValueError(f"arc {arc!r} has zero length")
            if not (0.0 <= arc[0] <= P and 0.0 < arc[1] <= P):  # NaN fails both
                raise ValueError(f"arc {arc!r} needs a start in [0, P] and a length in (0, P]")
        starts = [start for start, _ in arcs]
        if starts != sorted(starts):
            raise ValueError("arcs must be sorted by start")
        following = starts[1:] + [start + P for start in starts[:1]]
        if any(start + length > f for (start, length), f in zip(arcs, following)):
            raise ValueError("arcs overlap")
        object.__setattr__(self, "arcs", arcs)

    @staticmethod
    def from_intervals(intervals, perimeter):
        """Build from ``(s_begin, s_end)`` pairs, each taken mod perimeter.

        ``s_end < s_begin`` denotes an arc wrapping through zero.  The arcs
        are sorted by start; the class checks the rest.
        """
        if perimeter <= 0.0:  # before any ``% perimeter``
            raise ValueError("perimeter must be positive")
        arcs = [(float(s0) % perimeter, float(s1 - s0) % perimeter) for s0, s1 in intervals]
        return RegionSpec(arcs=tuple(sorted(arcs)), perimeter=float(perimeter))

    def check_mesh(self, mesh):
        """Reject a mesh of another perimeter than the one this region was built on."""
        if self.perimeter != mesh.perimeter:
            raise ValueError(f"region perimeter {self.perimeter!r} != mesh's {mesh.perimeter!r}")

    @property
    def total_mass(self):
        return float(sum(length for _, length in self.arcs))

    def contains(self, s, closed=False):
        """Membership of an arc coordinate; ``closed`` includes both endpoints."""
        s = s % self.perimeter
        for start, length in self.arcs:
            d = (s - start) % self.perimeter
            if d < length:
                return True
            if closed and (d <= length + _CLOSED_SLACK or d >= self.perimeter - _CLOSED_SLACK):
                return True
        return False

    def contains_array(self, s, closed=False):
        """:meth:`contains` for every entry of an array of arc coordinates."""
        s = np.asarray(s, dtype=np.float64) % self.perimeter
        if not self.arcs:
            return np.zeros(s.shape, dtype=bool)
        starts, lengths = np.array(self.arcs).T
        d = (s[..., None] - starts) % self.perimeter
        inside = d < lengths
        if closed:
            inside |= (d <= lengths + _CLOSED_SLACK) | (d >= self.perimeter - _CLOSED_SLACK)
        return inside.any(axis=-1)
