import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import steklov.mesh as mesh_module
from steklov import (
    Mesh,
    MeshParseError,
    MeshResourceError,
    MeshTopologyError,
    RegionSpec,
    ProblemParams,
    SolverOptions,
    generate_disk,
    generate_rectangle,
    load_mesh,
    locate_arc_point,
    rasterize_region,
    serialize_mesh,
    solve_linear,
)

SINGLE_TRIANGLE = """\
# one CCW triangle
vertices 3
0 0
1 0
0 1
triangles 1
0 1 2
"""


# ----------------------------------------------------------------- disk


def test_disk_boundary_vertices_on_unit_circle():
    mesh = generate_disk(0.2)
    radii = np.hypot(*mesh.vertices[mesh.boundary_vertices].T)
    assert np.max(np.abs(radii - 1.0)) <= 1e-12


def test_repr_names_the_kind_and_the_sizes():
    mesh = generate_rectangle(1.0, 1.0, 1.0)
    assert (mesh.n_vertices, len(mesh.triangles), mesh.n_boundary_edges) == (4, 2, 4)
    assert repr(mesh) == "Mesh(kind='rectangle', vertices=4, triangles=2, boundary_edges=4)"


def test_disk_boundary_indices_are_angle_ordered():
    mesh = generate_disk(0.3)
    n = mesh.n_boundary_edges
    assert list(mesh.boundary_vertices) == list(range(n))
    angles = np.arctan2(
        mesh.vertices[mesh.boundary_vertices, 1],
        mesh.vertices[mesh.boundary_vertices, 0],
    )
    assert np.all(np.diff(np.unwrap(angles)) > 0)


def test_disk_coarse_perimeter_bracket():
    mesh = generate_disk(0.5)
    assert 6.0 <= mesh.perimeter <= 2 * math.pi


def test_disk_perimeter_near_two_pi():
    mesh = generate_disk(0.1)
    # inscribed N-gon perimeter is 2 N sin(pi/N)
    n = mesh.n_boundary_edges
    assert mesh.perimeter == pytest.approx(2 * n * math.sin(math.pi / n), abs=1e-12)
    assert abs(mesh.perimeter - 2 * math.pi) <= 0.05


def test_disk_rejects_nonpositive_h():
    with pytest.raises(ValueError):
        generate_disk(0.0)
    with pytest.raises(ValueError):
        generate_disk(-0.1)


def test_disk_rejects_unallocatable_h():
    with pytest.raises(MeshResourceError):
        generate_disk(1e-6)
    # target_h**2 underflows to 0 here
    with pytest.raises(MeshResourceError, match="would need ~inf vertices"):
        generate_disk(1e-200)


@pytest.mark.parametrize(
    "make",
    [
        lambda: generate_disk(0.5),
        lambda: generate_disk(0.05),
        lambda: generate_rectangle(2.0, 1.0, 0.3),
        lambda: generate_rectangle(0.5, 0.5, 1.0),
        lambda: load_mesh(SINGLE_TRIANGLE),
        lambda: load_mesh(_scrambled_disk_text(0.2, seed=7)[0]),
    ],
    ids=["disk-0.5", "disk-0.05", "rectangle", "one-cell", "one-triangle", "scrambled-file"],
)
def test_edges_list_every_edge_once(make):
    # each triangle has three sides; an inner edge is a side of two
    # triangles and a boundary edge of one
    mesh = make()
    sides = 3 * len(mesh.triangles) + mesh.n_boundary_edges
    assert sides % 2 == 0
    assert mesh.edges.shape == (sides // 2, 2)
    i, j = mesh.edges.T
    assert (i < j).all()
    assert (np.diff(i * mesh.n_vertices + j) > 0).all()
    assert not mesh.edges.flags.writeable
    assert len(mesh.all_edge_lengths()) == len(mesh.edges)


@pytest.mark.parametrize("h", [0.05, 0.11, 0.23, 0.4])
def test_disk_edge_length_budget(h):
    mesh = generate_disk(h)
    assert mesh.all_edge_lengths().max() <= 1.5 * h


def test_disk_boundary_count_is_even():
    for h in (0.05, 0.13, 0.31):
        assert generate_disk(h).n_boundary_edges % 2 == 0


# ------------------------------------------- ring-by-ring disk vs Delaunay
#
# generate_disk zips its rings by index arithmetic; the reference triangulates
# the same points with scipy.spatial.Delaunay (tests/conftest.py).

DISK_LADDER = (0.95, 0.524, 0.4, 0.3, 0.23, 0.15, 0.1, 0.07, 0.05, 0.04, 0.03, 0.0125)


@pytest.fixture(scope="module", params=DISK_LADDER)
def disk_and_reference(request, delaunay_disk):
    h = request.param
    return h, generate_disk(h), delaunay_disk(h)


def _min_angle_degrees(mesh):
    v = mesh.vertices[mesh.triangles]
    cosines = []
    for k in range(3):
        a = v[:, (k + 1) % 3] - v[:, k]
        b = v[:, (k + 2) % 3] - v[:, k]
        cosines.append(np.einsum("ij,ij->i", a, b) / np.hypot(*a.T) / np.hypot(*b.T))
    return float(np.degrees(np.arccos(np.clip(np.max(cosines), -1.0, 1.0))))


def _sorted_triangles(triangles):
    """Each triangle cycled to start at its smallest vertex, rows sorted."""
    first = triangles.argmin(axis=1)[:, None]
    cycled = np.take_along_axis(triangles, (first + np.arange(3)) % 3, axis=1)
    return cycled[np.lexsort(cycled.T[::-1])]


def test_ring_disk_keeps_the_delaunay_vertices(disk_and_reference):
    _, mesh, reference = disk_and_reference
    assert _same_bits(mesh.vertices, reference.vertices)
    assert len(mesh.triangles) == len(reference.triangles)


def test_ring_disk_min_angle_is_not_below_delaunay(disk_and_reference):
    # Delaunay maximizes the smallest angle over all triangulations of the
    # points, so equality is the best possible; 1e-9 degrees absorbs the
    # rounding of one angle computed from differently ordered vertices.
    _, mesh, reference = disk_and_reference
    assert _min_angle_degrees(mesh) >= _min_angle_degrees(reference) - 1e-9


def test_ring_disk_triangles_are_ccw_as_generated_and_tile_the_polygon(disk_and_reference):
    h, mesh, _ = disk_and_reference
    assert mesh.diagnostics["reoriented_triangles"] == 0
    v = mesh.vertices[mesh.triangles]
    e1, e2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    assert areas.min() > 0.0
    n = mesh.n_boundary_edges
    assert areas.sum() == pytest.approx(0.5 * n * math.sin(2.0 * math.pi / n), abs=1e-12)
    assert mesh.all_edge_lengths().max() <= 1.5 * h


def test_ring_disk_outer_annulus_turns_with_the_boundary(disk_and_reference):
    # The leading rings with the boundary count n, stored as consecutive
    # blocks of n vertices; rotating by one boundary edge sends vertex k of
    # each block to vertex k + 1 and must map their strips onto themselves.
    _, mesh, _ = disk_and_reference
    n = mesh.n_boundary_edges
    radii = np.hypot(*mesh.vertices.T)
    blocks = 1
    while np.ptp(radii[blocks * n : (blocks + 1) * n]) < 1e-12 and blocks * n + n < len(radii):
        blocks += 1
    outer = np.arange(blocks * n)
    turned = outer // n * n + (outer % n + 1) % n
    step = 2.0 * math.pi / n
    rotation = np.array([[math.cos(step), -math.sin(step)], [math.sin(step), math.cos(step)]])
    assert np.abs(mesh.vertices[outer] @ rotation.T - mesh.vertices[turned]).max() <= 1e-14

    strips = mesh.triangles[(mesh.triangles < blocks * n).all(axis=1)]
    assert len(strips) == 2 * n * (blocks - 1)
    assert _same_bits(_sorted_triangles(turned[strips]), _sorted_triangles(strips))


def test_rotated_caps_see_the_same_eigenvalue():
    # 13 caps of mass pi/2, rotated by whole multiples of B // 12 boundary
    # edges.  On the Delaunay triangulation of these points lambda spread
    # by 2.2e-6; the inner rings, which do not turn with the boundary, leave
    # about 2e-7 here.
    mesh = generate_disk(0.04)
    P, n = mesh.perimeter, mesh.n_boundary_edges
    edge = P / n
    lams = []
    for k in range(13):
        start = k * (n // 12) * edge
        region = RegionSpec.from_intervals([(start, start + math.pi / 2)], P)
        phi = rasterize_region(mesh, region)
        pair = solve_linear(mesh, phi, ProblemParams(sigma=5.0), opts=SolverOptions(tol=1e-13))
        assert pair.converged
        lams.append(pair.lam)
    assert (max(lams) - min(lams)) / np.mean(lams) < 1e-6


def test_generating_a_disk_does_not_load_scipy_spatial():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    code = (
        "import sys, steklov; steklov.generate_disk(0.1); "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# ------------------------------------------------------------ rectangle


def test_rectangle_perimeter_exact():
    assert generate_rectangle(1.0, 1.0, 0.25).perimeter == 4.0
    assert generate_rectangle(2.0, 1.0, 0.5).perimeter == 6.0


def test_rectangle_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate_rectangle(1.0, -1.0, 0.5)
    with pytest.raises(ValueError):
        generate_rectangle(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        generate_rectangle(1.0, 1.0, 0.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("position, name", [(0, "width"), (1, "height"), (2, "target_h")])
def test_rectangle_rejects_non_finite_sizes(position, name, bad):
    args = [1.0, 1.0, 0.5]
    args[position] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
        generate_rectangle(*args)


@pytest.mark.parametrize(
    "args, grid",
    [
        ((1e300, 1.0, 1e-10), "infx1e+10"),  # width / target_h overflows to inf
        ((1e200, 1e200, 1e-200), "infxinf"),
        ((3000.0, 3000.0, 1.0), "3000x3000"),  # finite, just over the limit
    ],
    ids=["width-overflow", "both-overflow", "finite"],
)
def test_rectangle_rejects_unallocatable_grids(args, grid):
    with pytest.raises(MeshResourceError, match=re.escape(f"rectangle grid {grid} exceeds")):
        generate_rectangle(*args)


# ------------------------------------------------------- mesh invariants


@pytest.mark.parametrize(
    "make",
    [
        lambda: generate_disk(0.25),
        lambda: generate_rectangle(1.0, 2.0, 0.3),
        lambda: load_mesh(SINGLE_TRIANGLE),
    ],
)
def test_mesh_invariants(make):
    mesh = make()
    v = mesh.vertices[mesh.triangles]
    e1, e2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    assert np.all(areas > 0)

    # closed single loop: consecutive edges chain and wrap around
    loop = mesh.boundary_loop
    assert np.all(loop[:-1, 1] == loop[1:, 0])
    assert loop[-1, 1] == loop[0, 0]

    # arc length bookkeeping: the perimeter is the running total of the
    # edge lengths, bitwise
    assert mesh.perimeter == float(np.cumsum(mesh.edge_lengths)[-1])
    assert mesh.perimeter == pytest.approx(np.sum(mesh.edge_lengths), rel=1e-15)
    assert mesh.cum_arclength[0] == 0.0
    assert np.all(np.diff(mesh.cum_arclength) > 0)

    # the loop runs counterclockwise around the whole domain: the shoelace
    # area of the boundary polygon is the total triangle area
    x, y = mesh.vertices[loop].transpose(2, 0, 1)
    shoelace = 0.5 * np.sum(x[:, 0] * y[:, 1] - x[:, 1] * y[:, 0])
    assert shoelace == pytest.approx(areas.sum(), rel=1e-12)


def test_mesh_arrays_are_immutable(disk_coarse):
    for arr in (disk_coarse.vertices, disk_coarse.triangles, disk_coarse.edge_lengths):
        with pytest.raises(ValueError):
            arr[0] = 0


# ------------------------------------------------------------ file format


def test_load_single_triangle():
    mesh = load_mesh(SINGLE_TRIANGLE)
    assert mesh.n_boundary_edges == 3
    assert mesh.perimeter == pytest.approx(2 + math.sqrt(2), abs=1e-15)


def test_load_rejects_repeated_triangle():
    text = SINGLE_TRIANGLE.replace("triangles 1", "triangles 2") + "0 1 2\n"
    with pytest.raises(MeshTopologyError):
        load_mesh(text)


def test_load_reorients_clockwise_triangles():
    text = SINGLE_TRIANGLE.replace("0 1 2", "0 2 1")
    mesh = load_mesh(text)
    assert mesh.diagnostics["reoriented_triangles"] == 1
    v = mesh.vertices[mesh.triangles[0]]
    e1, e2 = v[1] - v[0], v[2] - v[0]
    assert e1[0] * e2[1] - e1[1] * e2[0] > 0


def test_load_parse_error_reports_line():
    bad = SINGLE_TRIANGLE.replace("1 0", "1 zebra")
    with pytest.raises(MeshParseError) as err:
        load_mesh(bad)
    assert "line" in str(err.value)


def test_load_rejects_trailing_content():
    with pytest.raises(MeshParseError):
        load_mesh(SINGLE_TRIANGLE + "extra 42\n")


def test_load_rejects_open_boundary():
    # two triangles sharing only vertex 0, so the boundary pinches there:
    # vertex 0 has two outgoing boundary edges.
    text = """\
vertices 5
0 0
1 0
0 1
-1 0
0 -1
triangles 2
0 1 2
0 3 4
"""
    with pytest.raises(MeshTopologyError) as err:
        load_mesh(text)
    assert type(err.value) is MeshTopologyError
    assert str(err.value) == "vertex 0 has two outgoing boundary edges (non-manifold pinch)"


def test_load_rejects_unreferenced_vertex():
    text = SINGLE_TRIANGLE.replace("vertices 3", "vertices 4") + ""
    text = text.replace("triangles 1", "5 5\ntriangles 1")
    with pytest.raises(MeshTopologyError):
        load_mesh(text)


PARSE_ERRORS = {
    "vertex-header": ("vertices 3", "verts 3", "line 2: expected 'vertices N', got 'verts 3'"),
    "vertex-count": ("vertices 3", "vertices three", "line 2: bad vertex count 'three'"),
    "vertex-count-zero": ("vertices 3", "vertices 0", "line 2: vertex count must be positive"),
    "vertex-row": ("1 0\n", "1 0 0\n", "line 4: expected 'x y', got '1 0 0'"),
    "coordinate": ("1 0\n", "1 zebra\n", "line 4: bad coordinate in '1 zebra'"),
    "triangle-header": ("triangles 1", "tris 1", "line 6: expected 'triangles M', got 'tris 1'"),
    "triangle-count": ("triangles 1", "triangles one", "line 6: bad triangle count 'one'"),
    "triangle-count-negative": (
        "triangles 1",
        "triangles -1",
        "line 6: triangle count must be positive",
    ),
    "triangle-row": ("0 1 2", "0 1", "line 7: expected 'i j k', got '0 1'"),
    "index": ("0 1 2", "0 1 x", "line 7: bad index in '0 1 x'"),
    "index-beyond-int64": (
        "0 1 2",
        "0 1 99999999999999999999999",
        "line 7: bad index in '0 1 99999999999999999999999'",
    ),
    # counts beyond the lines left are refused before the rows are allocated
    "vertex-count-beyond-text": (
        "vertices 3",
        "vertices 1000000000000",
        "unexpected end of mesh text",
    ),
    "vertex-count-beyond-int64": (
        "vertices 3",
        f"vertices {10**30}",
        "unexpected end of mesh text",
    ),
    "end": ("triangles 1", "triangles 2", "unexpected end of mesh text"),
    "end-before-triangles": ("triangles 1\n0 1 2\n", "", "unexpected end of mesh text"),
    "end-in-vertices": ("0 1\ntriangles 1\n0 1 2\n", "", "unexpected end of mesh text"),
    "end-before-vertices": (
        SINGLE_TRIANGLE[SINGLE_TRIANGLE.index("vertices") :],
        "",
        "unexpected end of mesh text",
    ),
    "trailing": ("0 1 2\n", "0 1 2\nextra 42\n", "line 8: trailing content 'extra 42'"),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_load_parse_errors_name_line_and_content(case):
    old, new, message = PARSE_ERRORS[case]
    with pytest.raises(MeshParseError, match=f"^{re.escape(message)}$"):
        load_mesh(SINGLE_TRIANGLE.replace(old, new))


UNIT_TRIANGLE = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]

CONSTRUCTION_ERRORS = {
    "vertex-shape": (
        [(0.0, 0.0, 0.0)] * 3,
        [(0, 1, 2)],
        MeshTopologyError,
        "vertices must be an (n, 2) array",
    ),
    "triangle-shape": (
        UNIT_TRIANGLE,
        [(0, 1)],
        MeshTopologyError,
        "triangles must be an (m, 3) array",
    ),
    "non-finite": (
        [(0.0, 0.0), (math.nan, 0.0), (0.0, 1.0)],
        [(0, 1, 2)],
        MeshTopologyError,
        "non-finite vertex coordinates",
    ),
    "no-triangles": (UNIT_TRIANGLE, np.zeros((0, 3)), MeshTopologyError, "mesh has no triangles"),
    "index-range": (
        UNIT_TRIANGLE,
        [(0, 1, 3)],
        MeshParseError,
        "triangle refers to a vertex that does not exist",
    ),
    "degenerate": (
        [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)],
        [(0, 1, 2)],
        MeshTopologyError,
        "degenerate (zero-area) triangle",
    ),
    "unreferenced": (
        UNIT_TRIANGLE + [(5.0, 5.0)],
        [(0, 1, 2)],
        MeshTopologyError,
        "vertex not referenced by any triangle",
    ),
    # Coincident vertices make their triangle's signed area exactly 0, so the
    # degenerate-triangle check sees them first; only when the area is NaN
    # (an overflowing coordinate difference times 0) does the edge check.
    "zero-length-edge": (
        [(1e308, 0.0), (1e308, 0.0), (-1e308, 1e308)],
        [(0, 1, 2)],
        MeshTopologyError,
        "zero-length boundary edge",
    ),
}


@pytest.mark.parametrize("case", sorted(CONSTRUCTION_ERRORS))
def test_mesh_construction_errors(case):
    vertices, triangles, error, message = CONSTRUCTION_ERRORS[case]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(error, match=f"^{re.escape(message)}$") as err:
            Mesh(vertices, triangles)
    assert type(err.value) is error


def test_serialize_round_trip():
    mesh = generate_rectangle(1.0, 1.0, 0.4)
    again = load_mesh(serialize_mesh(mesh))
    assert np.array_equal(again.vertices, mesh.vertices)
    assert np.array_equal(again.triangles, mesh.triangles)
    assert again.perimeter == mesh.perimeter


# ------------------------------------- construction against plain loops
#
# Transcriptions of the original construction: a dict over every directed
# edge with a chain walk (and the set of its undirected edges), and a nested
# loop over the rectangle's cells.  The array construction in steklov.mesh
# must reproduce both bitwise, errors included.


def _reference_boundary_loop(triangles):
    directed = {}
    for t in range(len(triangles)):
        a, b, c = triangles[t]
        for i, j in ((a, b), (b, c), (c, a)):
            key = (int(i), int(j))
            if key in directed:
                raise MeshTopologyError(
                    f"directed edge {key} appears twice (repeated or overlapping triangle)"
                )
            directed[key] = t

    boundary = {}
    for i, j in directed:
        if (j, i) not in directed:
            if i in boundary:
                raise MeshTopologyError(
                    f"vertex {i} has two outgoing boundary edges (non-manifold pinch)"
                )
            boundary[i] = j
    if not boundary:
        raise MeshTopologyError("mesh has no boundary")

    start = min(boundary)
    loop = []
    v = start
    for _ in range(len(boundary)):
        w = boundary[v]
        loop.append((v, w))
        v = w
        if v == start:
            break
    if len(loop) != len(boundary):
        raise MeshTopologyError("boundary has multiple loops")
    edges = sorted({(min(i, j), max(i, j)) for i, j in directed})
    return np.asarray(loop, dtype=np.int64), np.asarray(edges, dtype=np.int64)


def _reference_rectangle_triangles(nx, ny):
    tris = []
    for i in range(nx):
        for j in range(ny):
            v00, v10 = i * (ny + 1) + j, (i + 1) * (ny + 1) + j
            v01, v11 = v00 + 1, v10 + 1
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return np.asarray(tris, dtype=np.int64)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_construction(mesh, build, monkeypatch):
    """``build()`` under the reference loop extraction reproduces ``mesh``."""
    with monkeypatch.context() as patch:
        patch.setattr(mesh_module, "_extract_boundary_loop", _reference_boundary_loop)
        reference = build()
    for name in (
        "vertices",
        "triangles",
        "boundary_loop",
        "edges",
        "edge_lengths",
        "cum_arclength",
    ):
        assert _same_bits(getattr(mesh, name), getattr(reference, name)), name
    assert mesh.perimeter == reference.perimeter
    assert mesh.diagnostics == reference.diagnostics
    extracted = mesh_module._extract_boundary_loop(mesh.triangles)
    for got, expected in zip(extracted, _reference_boundary_loop(mesh.triangles), strict=True):
        assert _same_bits(got, expected)


@pytest.mark.parametrize("h", [0.5, 0.3, 0.1, 0.05, 0.0125])
def test_disk_construction_matches_the_dict_walk(h, monkeypatch):
    _assert_same_construction(generate_disk(h), lambda: generate_disk(h), monkeypatch)


@pytest.mark.parametrize(
    "width, height, target_h",
    [(2.0, 1.0, 0.3), (1.0, 3.0, 0.7), (1.0, 0.4, 0.5), (0.3, 2.0, 0.5), (0.5, 0.5, 1.0)],
)
def test_rectangle_construction_matches_the_cell_loop(width, height, target_h, monkeypatch):
    mesh = generate_rectangle(width, height, target_h)
    nx = max(1, math.ceil(width / target_h))
    ny = max(1, math.ceil(height / target_h))
    expected = _reference_rectangle_triangles(nx, ny)
    assert _same_bits(mesh.triangles, expected)
    _assert_same_construction(
        mesh, lambda: Mesh(mesh.vertices, expected, kind="rectangle"), monkeypatch
    )


def _scrambled_disk_text(h, seed):
    """A disk as mesh text with shuffled, partly clockwise triangles and
    permuted vertex indices, so that no boundary vertex has index 0."""
    disk = generate_disk(h)
    rng = np.random.default_rng(seed)
    n = disk.n_vertices
    interior = np.flatnonzero(~disk.is_boundary_vertex)
    boundary = np.flatnonzero(disk.is_boundary_vertex)
    new_index = np.empty(n, dtype=np.int64)
    new_index[np.concatenate((rng.permutation(interior), rng.permutation(boundary)))] = (
        np.arange(n)
    )
    vertices = np.empty_like(disk.vertices)
    vertices[new_index] = disk.vertices
    triangles = new_index[disk.triangles][rng.permutation(len(disk.triangles))]
    flip = rng.random(len(triangles)) < 0.4
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    lines = [f"vertices {n}"] + [f"{x:.17g} {y:.17g}" for x, y in vertices]
    lines += [f"triangles {len(triangles)}"] + [f"{i} {j} {k}" for i, j, k in triangles]
    return "\n".join(lines) + "\n", int(flip.sum())


def test_scrambled_file_mesh_matches_the_dict_walk(monkeypatch):
    text, flipped = _scrambled_disk_text(0.2, seed=7)
    mesh = load_mesh(text)
    assert mesh.diagnostics["reoriented_triangles"] == flipped > 0
    assert mesh.boundary_loop[0, 0] == mesh.boundary_vertices.min() > 0
    _assert_same_construction(mesh, lambda: load_mesh(text), monkeypatch)


def _triangle_text(vertices, triangles):
    lines = [f"vertices {len(vertices)}"] + [f"{x} {y}" for x, y in vertices]
    lines += [f"triangles {len(triangles)}"] + [" ".join(map(str, t)) for t in triangles]
    return "\n".join(lines) + "\n"


MESH_ERRORS = {
    # the third triangle repeats the second one rotated; the first repeat in
    # edge order is (2, 3), not the smallest repeated key (0, 2)
    "repeated-edge": (
        [(0, 0), (1, 0), (1, 1), (0, 1)],
        [(0, 1, 2), (0, 2, 3), (2, 3, 0)],
        "directed edge (2, 3) appears twice (repeated or overlapping triangle)",
    ),
    # three triangles in a row, touching at vertices 1 and 5; vertex 5's
    # second outgoing boundary edge comes first in edge order
    "pinch": (
        [(0, 0), (1, 0), (0, 1), (2, 0), (3, 1), (2, 1), (3, 2)],
        [(1, 3, 5), (5, 4, 6), (0, 1, 2)],
        "vertex 5 has two outgoing boundary edges (non-manifold pinch)",
    ),
    "two-loops": (
        [(0, 0), (1, 0), (0, 1), (3, 0), (4, 0), (3, 1)],
        [(0, 1, 2), (3, 4, 5)],
        "boundary has multiple loops",
    ),
}


@pytest.mark.parametrize("case", sorted(MESH_ERRORS))
def test_mesh_errors_name_what_the_dict_walk_named(case):
    vertices, triangles, message = MESH_ERRORS[case]
    with pytest.raises(MeshTopologyError, match=f"^{re.escape(message)}$") as err:
        load_mesh(_triangle_text(vertices, triangles))
    assert type(err.value) is MeshTopologyError
    with pytest.raises(MeshTopologyError, match=f"^{re.escape(message)}$"):
        _reference_boundary_loop(np.asarray(triangles))


def test_closed_surface_has_no_boundary():
    # The four consistently oriented faces of a tetrahedron.  A Mesh cannot
    # hold them: mapped to the plane, a closed surface has degree 0, so its
    # triangles cannot all have positive area.
    faces = np.array([(0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3)])
    for extract in (mesh_module._extract_boundary_loop, _reference_boundary_loop):
        with pytest.raises(MeshTopologyError, match="^mesh has no boundary$") as err:
            extract(faces)
        assert type(err.value) is MeshTopologyError


# --------------------------------------------------------- arc locations


def test_locate_arc_point_at_vertices(disk_coarse):
    mesh = disk_coarse
    for k in (0, 1, mesh.n_boundary_edges - 1):
        edge, frac = locate_arc_point(mesh, float(mesh.cum_arclength[k]))
        assert edge == k
        assert frac == 0.0


def test_locate_arc_point_range_errors(disk_coarse):
    with pytest.raises(ValueError):
        locate_arc_point(disk_coarse, disk_coarse.perimeter)
    with pytest.raises(ValueError):
        locate_arc_point(disk_coarse, -1e-9)


@given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_locate_arc_point_inverts_arclength(frac):
    mesh = generate_rectangle(1.0, 1.0, 0.5)
    s = frac * mesh.perimeter
    edge, t = locate_arc_point(mesh, s)
    assert 0 <= edge < mesh.n_boundary_edges
    assert 0.0 <= t < 1.0 + 1e-12
    recovered = mesh.cum_arclength[edge] + t * mesh.edge_lengths[edge]
    assert recovered == pytest.approx(s, abs=1e-12)


# ----------------------------------------------------------- boundary arcs


def test_region_wraparound_normalization():
    region = RegionSpec.from_intervals([(5.0, 1.0)], 6.0)
    assert region.total_mass == pytest.approx(2.0)
    assert region.contains(5.5)
    assert region.contains(0.5)
    assert not region.contains(2.0)


def test_region_rejects_overlap():
    with pytest.raises(ValueError):
        RegionSpec.from_intervals([(0.0, 2.0), (1.0, 3.0)], 6.0)


def test_region_rejects_empty_interval():
    with pytest.raises(ValueError):
        RegionSpec.from_intervals([(1.0, 1.0)], 6.0)


@pytest.mark.parametrize("perimeter", [0.0, -6.0])
def test_region_rejects_a_perimeter_that_is_not_positive(perimeter):
    with pytest.raises(ValueError, match="^perimeter must be positive$"):
        RegionSpec.from_intervals([(1.0, 2.0)], perimeter)


MALFORMED_REGIONS = {
    "inf-end": (lambda: RegionSpec.from_intervals([(1.0, math.inf)], 6.0), "needs a start in"),
    "nan-begin": (lambda: RegionSpec.from_intervals([(math.nan, 2.0)], 6.0), "needs a start in"),
    "nan-perimeter": (
        lambda: RegionSpec.from_intervals([(1.0, 2.0)], math.nan),
        "^perimeter must be finite, got nan$",
    ),
    "inf-perimeter": (lambda: RegionSpec((), math.inf), "^perimeter must be finite"),
    "negative-length": (lambda: RegionSpec(((1.0, -0.5),), 6.0), "needs a start in"),
    "nan-length": (lambda: RegionSpec(((1.0, math.nan),), 6.0), "needs a start in"),
    "longer-than-perimeter": (lambda: RegionSpec(((0.0, 7.0),), 6.0), "needs a start in"),
    "start-past-perimeter": (lambda: RegionSpec(((7.0, 1.0),), 6.0), "needs a start in"),
    "negative-start": (lambda: RegionSpec(((-1.0, 1.0),), 6.0), "needs a start in"),
    "inf-start": (lambda: RegionSpec(((math.inf, 1.0),), 6.0), "needs a start in"),
    "zero-length": (lambda: RegionSpec(((1.0, 0.0),), 6.0), "has zero length$"),
    "overlapping": (lambda: RegionSpec(((0.0, 2.0), (1.0, 2.0)), 6.0), "^arcs overlap$"),
    "same-start": (lambda: RegionSpec(((1.0, 1.0), (1.0, 2.0)), 6.0), "^arcs overlap$"),
    "overlapping-through-zero": (
        lambda: RegionSpec(((1.0, 1.0), (5.0, 2.5)), 6.0),
        "^arcs overlap$",
    ),
    "unsorted": (
        lambda: RegionSpec(((3.0, 1.0), (1.0, 1.0)), 6.0),
        "^arcs must be sorted by start$",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_REGIONS))
def test_every_malformed_region_is_refused_by_the_type(case):
    build, message = MALFORMED_REGIONS[case]
    with pytest.raises(ValueError, match=message):
        build()


def test_a_hand_built_region_is_stored_like_a_built_one():
    built = RegionSpec.from_intervals([(5.0, 1.0), (2.0, 3.5)], 6)
    by_hand = RegionSpec([[2, 1.5], [5, 2]], 6)
    assert by_hand == built and by_hand.arcs == ((2.0, 1.5), (5.0, 2.0))
    assert hash(by_hand) == hash(built)


def test_region_accepts_a_start_at_the_perimeter():
    # ``-1e-17 % 6.0`` is 6.0, so a normalized start can equal the perimeter
    region = RegionSpec.from_intervals([(-1e-17, 1.0)], 6.0)
    assert region.arcs == ((6.0, 1.0),)
    assert region.contains(0.5) and not region.contains(1.5)


def test_region_closed_contains_endpoints():
    region = RegionSpec.from_intervals([(1.0, 2.0)], 6.0)
    assert not region.contains(2.0)
    assert region.contains(2.0, closed=True)
    assert region.contains(1.0)


REGIONS = {
    "wraps-through-zero": RegionSpec.from_intervals([(5.0, 1.0), (2.0, 3.5)], 6.0),
    "hairline": RegionSpec.from_intervals([(2.0, 2.0 + 1e-13)], 6.0),
    "hairline-at-zero": RegionSpec.from_intervals([(6.0 - 5e-13, 5e-13)], 6.0),
    "empty": RegionSpec(arcs=(), perimeter=6.0),
}


@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("name", sorted(REGIONS))
def test_region_contains_array_matches_scalar_contains(name, closed):
    region = REGIONS[name]
    probes = [0.0, 6.0, -6.0, 12.0, 3.0]
    for start, length in region.arcs:
        for edge in (start, start + length):
            probes += [edge + k * 1e-13 for k in range(-15, 16)]
            probes += [edge - 6.0, edge + 6.0]
    probes += list(np.linspace(-1.0, 7.0, 801))
    s = np.array(probes)
    expected = [region.contains(float(v), closed=closed) for v in s]
    assert region.contains_array(s, closed=closed).tolist() == expected


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=5.99),
            st.floats(min_value=0.01, max_value=1.0),
        ),
        min_size=1,
        max_size=3,
    )
)
def test_region_total_mass_is_sum_of_lengths(spans):
    # build disjoint intervals by spreading the requested lengths out
    period = 6.0 * len(spans)
    intervals = []
    for k, (_, length) in enumerate(spans):
        start = 6.0 * k
        intervals.append((start, start + length))
    region = RegionSpec.from_intervals(intervals, period)
    assert region.total_mass == pytest.approx(sum(l for _, l in spans), rel=1e-12)
