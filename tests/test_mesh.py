import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    # two triangles glued along a full edge... but with a vertex used twice so
    # the boundary walk pinches: vertex 0 has two outgoing boundary edges.
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
    with pytest.raises((OpenBoundaryError, MeshTopologyError)):
        load_mesh(text)


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
