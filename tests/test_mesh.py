import math
import re

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
    OpenBoundaryError,
    RegionSpec,
    generate_disk,
    generate_rectangle,
    load_mesh,
    locate_arc_point,
    serialize_mesh,
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


@pytest.mark.parametrize("h", [0.05, 0.11, 0.23, 0.4])
def test_disk_edge_length_budget(h):
    mesh = generate_disk(h)
    assert mesh.all_edge_lengths().max() <= 1.5 * h


def test_disk_boundary_count_is_even():
    for h in (0.05, 0.13, 0.31):
        assert generate_disk(h).n_boundary_edges % 2 == 0


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

    # outward normals: unit length, pointing away from the adjacent interior
    norms = np.hypot(mesh.outward_normals[:, 0], mesh.outward_normals[:, 1])
    assert np.max(np.abs(norms - 1.0)) <= 1e-12


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


def test_serialize_round_trip():
    mesh = generate_rectangle(1.0, 1.0, 0.4)
    again = load_mesh(serialize_mesh(mesh))
    assert np.array_equal(again.vertices, mesh.vertices)
    assert np.array_equal(again.triangles, mesh.triangles)
    assert again.perimeter == mesh.perimeter


# ------------------------------------- construction against plain loops
#
# Transcriptions of the original construction: a dict over every directed
# edge with a chain walk, and a nested loop over the rectangle's cells.  The
# array construction in steklov.mesh must reproduce both bitwise, errors
# included.


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
    for (i, j), t in directed.items():
        if (j, i) not in directed:
            if i in boundary:
                raise MeshTopologyError(
                    f"vertex {i} has two outgoing boundary edges (non-manifold pinch)"
                )
            boundary[i] = (j, t)
    if not boundary:
        raise MeshTopologyError("mesh has no boundary")

    start = min(boundary)
    loop, edge_tri = [], []
    v = start
    for _ in range(len(boundary)):
        w, t = boundary[v]
        loop.append((v, w))
        edge_tri.append(t)
        v = w
        if v == start:
            break
    if len(loop) != len(boundary):
        raise MeshTopologyError("boundary has multiple loops")
    return np.asarray(loop, dtype=np.int64), np.asarray(edge_tri, dtype=np.int64)


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
        "edge_lengths",
        "cum_arclength",
        "outward_normals",
    ):
        assert _same_bits(getattr(mesh, name), getattr(reference, name)), name
    assert mesh.perimeter == reference.perimeter
    assert mesh.diagnostics == reference.diagnostics
    loop, edge_tri = mesh_module._extract_boundary_loop(mesh.triangles)
    ref_loop, ref_edge_tri = _reference_boundary_loop(mesh.triangles)
    assert _same_bits(loop, ref_loop)
    assert _same_bits(edge_tri, ref_edge_tri)


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


def test_open_boundary_error_stays_exported_as_a_topology_error():
    assert issubclass(OpenBoundaryError, MeshTopologyError)


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
    wide = [region.contains(float(v), closed=closed, tol=1e-3) for v in s]
    assert region.contains_array(s, closed=closed, tol=1e-3).tolist() == wide


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
