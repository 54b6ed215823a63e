import json
import math

import numpy as np
import pytest

from steklov import (
    ProblemParams,
    RegionCollisionError,
    RegionSpec,
    SolverOptions,
    TangentField,
    generate_disk,
    generate_rectangle,
    perturb_region,
    rasterize_region,
    shape_derivative_fd,
    shape_derivative_formula,
    solve_linear,
)
from steklov.shapederiv import _vertex_gap


@pytest.fixture(scope="module")
def half_disk_setup(disk_fine):
    """Half-boundary region with both endpoints at edge midpoints."""
    mesh = disk_fine
    P = mesh.perimeter
    ell = P / mesh.n_boundary_edges
    region = RegionSpec.from_intervals([(ell / 2, (ell / 2 + P / 2) % P)], P)
    params = ProblemParams(p=2.0, sigma=5.0)
    pair = solve_linear(mesh, rasterize_region(mesh, region), params)
    return mesh, region, params, pair


def _slide(region):
    """Rigid translation: every endpoint moves at unit speed."""
    return TangentField(region, tuple((1.0, 1.0) for _ in region.arcs))


def _shape_deriv_record(run_cli, region, params, **config):
    """Run ``shape-deriv`` on the half-disk setup; exit code and record."""
    (start, length), = region.arcs
    code, out = run_cli(
        "shape-deriv",
        geometry={"type": "disk", "h": 0.1},
        params={"p": params.p, "sigma": params.sigma},
        region={"intervals": [[start, (start + length) % region.perimeter]]},
        tangent={"speeds": [[0.0, 1.0]]},
        **config,
    )
    path = out / "derivative_report.json"
    if not path.exists():
        return code, None
    data = json.loads(path.read_text())
    data.pop("timestamp")
    return code, data


# ------------------------------------------------------- closed-form value


def test_formula_is_linear_in_the_tangent_field(half_disk_setup):
    mesh, region, params, pair = half_disk_setup
    v1 = TangentField.single_endpoint(region, arc=0, end=True, speed=1.0)
    v2 = TangentField.single_endpoint(region, arc=0, end=False, speed=0.7)
    s1 = shape_derivative_formula(mesh, pair, v1, params)
    s2 = shape_derivative_formula(mesh, pair, v2, params)
    summed = TangentField(
        region,
        tuple((vb + wb, ve + we) for (vb, ve), (wb, we) in zip(v1.speeds, v2.speeds)),
    )
    s12 = shape_derivative_formula(mesh, pair, summed, params)
    assert s12 == pytest.approx(s1 + s2, rel=1e-12)
    scaled = TangentField(region, tuple((-3.5 * vb, -3.5 * ve) for vb, ve in v1.speeds))
    s_scaled = shape_derivative_formula(mesh, pair, scaled, params)
    assert s_scaled == pytest.approx(-3.5 * s1, rel=1e-12)


def test_zero_field_gives_zero_derivative(half_disk_setup):
    mesh, region, params, pair = half_disk_setup
    zero = TangentField(region, tuple((0.0, 0.0) for _ in region.arcs))
    assert shape_derivative_formula(mesh, pair, zero, params) == 0.0


def test_translation_cancels_on_symmetric_configuration(half_disk_setup):
    # the eigenfunction trace is mirror symmetric about the region's center,
    # so sliding the whole region moves one endpoint up exactly as much as
    # the other moves down
    mesh, region, params, pair = half_disk_setup
    single = TangentField.single_endpoint(region, arc=0, end=True, speed=1.0)
    s_single = shape_derivative_formula(mesh, pair, single, params)
    slide = _slide(region)
    s_slide = shape_derivative_formula(mesh, pair, slide, params)
    assert abs(s_slide) <= 1e-3 * abs(s_single)


def test_sign_convention_flips_the_value(half_disk_setup, run_cli):
    # the library's value is the +1 convention; the CLI negates it for -1
    mesh, region, params, _ = half_disk_setup
    v = TangentField.single_endpoint(region, arc=0, end=True, speed=1.0)
    value = shape_derivative_fd(mesh, v, params).formula_value
    _, plus = _shape_deriv_record(run_cli, region, params, sign_convention=1)
    _, minus = _shape_deriv_record(run_cli, region, params, sign_convention=-1)
    assert plus["formula_value"].hex() == value.hex()
    assert minus["formula_value"].hex() == (-value).hex()
    code, record = _shape_deriv_record(run_cli, region, params, sign_convention=0.5)
    assert code == 1 and record is None


def test_formula_rejects_mismatched_inputs(half_disk_setup, disk_coarse):
    mesh, region, params, pair = half_disk_setup
    other_region = RegionSpec.from_intervals([(0.0, 1.0)], mesh.perimeter)
    v = TangentField.single_endpoint(region, arc=0, end=True, speed=1.0)
    with pytest.raises(ValueError, match="perimeter"):
        shape_derivative_formula(disk_coarse, pair, v, params)

    # an eigenpair solved for a different potential must be refused
    stale = solve_linear(mesh, rasterize_region(mesh, other_region), params)
    with pytest.raises(ValueError, match="mismatch"):
        shape_derivative_formula(mesh, stale, v, params)


def test_formula_and_report_values_are_python_floats(half_disk_setup, disk_coarse):
    # numpy 2 writes np.float64 under !r, as in the CLI's printed lines
    mesh, region, params, pair = half_disk_setup
    v = TangentField.single_endpoint(region, arc=0, end=True, speed=1.0)
    assert type(shape_derivative_formula(mesh, pair, v, params)) is float
    coarse = RegionSpec.from_intervals([(0.5, 2.0)], disk_coarse.perimeter)
    report = shape_derivative_fd(disk_coarse, TangentField.single_endpoint(coarse), params)
    values = [report.formula_value, report.fd_value, report.relative_error]
    assert all(type(x) is float for x in values + [x for row in report.fd_table for x in row])


def test_tangent_field_from_intervals_keeps_each_speed_with_its_arc():
    # listed out of arc order, one arc given by a negative start that wraps
    intervals = [(5.0, 6.0), (-1.0, 1.0), (2.0, 3.0)]
    speeds = [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)]
    tangent = TangentField.from_intervals(intervals, speeds, 10.0)
    assert tangent.region == RegionSpec.from_intervals(intervals, 10.0)
    assert tangent.region.arcs == ((2.0, 1.0), (5.0, 1.0), (9.0, 2.0))
    assert tangent.speeds == ((5.0, 6.0), (1.0, 2.0), (3.0, 4.0))


def test_ends_lists_every_arc_end_once_in_arc_order_unwrapped():
    intervals = [(5.0, 6.0), (-1.0, 1.0), (2.0, 3.0)]
    speeds = [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)]
    tangent = TangentField.from_intervals(intervals, speeds, 10.0)
    assert tangent.ends() == [
        (2.0, 5.0), (3.0, 6.0), (5.0, 1.0), (6.0, 2.0), (9.0, 3.0), (11.0, 4.0)
    ]


@pytest.mark.parametrize("count", [1, 3])
def test_tangent_field_from_intervals_rejects_a_count_mismatch(count):
    with pytest.raises(ValueError):
        TangentField.from_intervals([(0.0, 1.0), (2.0, 3.0)], [(0.0, 1.0)] * count, 10.0)


@pytest.mark.parametrize("count", [1, 3])
def test_a_speed_count_mismatch_names_the_counts_in_both_constructors(count):
    intervals = [(0.0, 1.0), (2.0, 3.0)]
    message = f"^need one \\(begin, end\\) speed pair per arc: got {count} pairs for 2 arcs$"
    with pytest.raises(ValueError, match=message):
        TangentField.from_intervals(intervals, [(0.0, 1.0)] * count, 10.0)
    region = RegionSpec.from_intervals(intervals, 10.0)
    with pytest.raises(ValueError, match=message):
        TangentField(region, [(0.0, 1.0)] * count)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_tangent_field_rejects_a_speed_that_is_not_finite(bad):
    region = RegionSpec.from_intervals([(0.0, 1.0)], 10.0)
    with pytest.raises(ValueError, match="^endpoint speeds must be finite$"):
        TangentField(region, [(0.0, bad)])


def test_single_endpoint_rejects_an_arc_index_out_of_range():
    region = RegionSpec.from_intervals([(0.0, 1.0), (2.0, 3.0)], 10.0)
    with pytest.raises(ValueError, match="^arc index 5 out of range$"):
        TangentField.single_endpoint(region, arc=5)


# -------------------------------------------------------- moving endpoints


def test_perturb_region_identity_and_mass_bookkeeping(half_disk_setup):
    _, region, _, _ = half_disk_setup
    slide = _slide(region)
    assert perturb_region(slide, 0.0) is region

    moved = perturb_region(slide, 0.01)
    assert moved.total_mass == pytest.approx(region.total_mass, rel=1e-12)
    assert moved.arcs[0][0] == pytest.approx(region.arcs[0][0] + 0.01, abs=1e-12)

    grow_end = TangentField.single_endpoint(region, arc=0, end=True, speed=2.0)
    grown = perturb_region(grow_end, 0.01)
    assert grown.total_mass == pytest.approx(region.total_mass + 0.02, rel=1e-12)

    # a begin endpoint moving forward eats into the arc
    push_begin = TangentField.single_endpoint(region, arc=0, end=False, speed=2.0)
    shrunk = perturb_region(push_begin, 0.01)
    assert shrunk.total_mass == pytest.approx(region.total_mass - 0.02, rel=1e-12)


def test_perturb_region_detects_arc_collapse(half_disk_setup):
    _, region, _, _ = half_disk_setup
    length = region.arcs[0][1]
    pinch = TangentField(
        region=region, speeds=((1.0, -1.0),)
    )  # both endpoints move inward
    with pytest.raises(RegionCollisionError):
        perturb_region(pinch, length)


def test_perturb_region_detects_arc_merge():
    P = 10.0
    region = RegionSpec.from_intervals([(0.0, 2.0), (5.0, 7.0)], P)
    chase = TangentField(region=region, speeds=((0.0, 1.0), (0.0, 0.0)))
    with pytest.raises(RegionCollisionError):
        perturb_region(chase, 4.0)  # arc 0 end crosses arc 1 begin
    ok = perturb_region(chase, 1.0)
    assert ok.total_mass == pytest.approx(5.0, rel=1e-12)


def test_perturb_region_detects_wraparound():
    P = 10.0
    region = RegionSpec.from_intervals([(0.0, 4.0)], P)
    inflate = TangentField(region=region, speeds=((-1.0, 1.0),))
    with pytest.raises(RegionCollisionError):
        perturb_region(inflate, 3.5)  # span would exceed the period


def test_perturb_region_reports_an_arc_that_rounds_away_as_a_collision():
    # both ends move to just below 0, where ``% period`` rounds each up to
    # the period: the arc keeps its order but has zero length as a region
    region = RegionSpec.from_intervals([(0.0, 1e-20)], 2.0 * math.pi)
    sink = TangentField(region=region, speeds=((-1.0, -1.0),))
    with pytest.raises(RegionCollisionError, match="has zero length$"):
        perturb_region(sink, 2e-20)


def test_perturb_region_moves_the_empty_region_to_itself():
    # it has no ends; the wrap check used to index the first of them
    empty = TangentField(RegionSpec((), 10.0), ())
    assert empty.ends() == []
    assert perturb_region(empty, 0.5) == empty.region


def test_perturb_region_rejects_non_finite_parameter(half_disk_setup):
    _, region, _, _ = half_disk_setup
    slide = _slide(region)
    with pytest.raises(ValueError):
        perturb_region(slide, math.nan)


# --------------------------------------------------- finite-difference side


def test_fd_report_on_midedge_half_disk(half_disk_setup):
    mesh, region, params, _ = half_disk_setup
    v = TangentField.single_endpoint(region, arc=0, end=True, speed=1.0)
    rep = shape_derivative_fd(mesh, v, params)
    assert not rep.vertex_crossings
    assert rep.sign_consistent
    assert rep.relative_error <= 0.05
    diffs = [row[1] for row in rep.fd_table]
    ratio = (diffs[0] - diffs[1]) / (diffs[1] - diffs[2])
    assert 3.0 < ratio < 5.0  # central differences converge at second order
    assert isinstance(rep.formula_value, float)
    assert isinstance(rep.fd_value, float)


def test_fd_report_agrees_under_either_sign_convention(half_disk_setup, run_cli):
    mesh, region, params, _ = half_disk_setup
    v = TangentField.single_endpoint(region, arc=0, end=True, speed=1.0)
    rep = shape_derivative_fd(mesh, v, params)
    _, plus = _shape_deriv_record(run_cli, region, params, sign_convention=1)
    _, minus = _shape_deriv_record(run_cli, region, params, sign_convention=-1)
    assert minus["formula_value"] == -plus["formula_value"] == -rep.formula_value
    assert (minus["fd_value"], minus["fd_table"]) == (plus["fd_value"], plus["fd_table"])
    assert plus["fd_table"] == [{"t": t, "diff": d} for t, d in rep.fd_table]
    assert minus["relative_error"] == plus["relative_error"] == rep.relative_error <= 0.05
    assert plus["sign_consistent"] and minus["sign_consistent"]


def test_fd_flags_vertex_crossings_for_large_steps(half_disk_setup):
    mesh, region, params, _ = half_disk_setup
    v = TangentField.single_endpoint(region, arc=0, end=True, speed=1.0)
    rep = shape_derivative_fd(mesh, v, params, steps=(0.2, 0.1, 0.05))
    assert rep.vertex_crossings


def _all_vertex_scan(mesh, s, v, t_max):
    """The crossing test as a scan over every boundary vertex, the reference."""
    period = mesh.perimeter
    s = s % period
    gaps = np.abs((mesh.cum_arclength - s + 0.5 * period) % period - 0.5 * period)
    return bool((gaps < abs(v) * t_max).any())


@pytest.mark.parametrize(
    "mesh",
    [generate_disk(0.1), generate_rectangle(2.0, 1.0, 0.1)],
    ids=["disk", "rectangle"],
)
def test_located_crossing_flag_matches_the_all_vertex_scan(mesh):
    # the fd flags an end whose nearest vertex, found by locate_arc_point on
    # the end's edge, is closer than |v| * t_max
    rng = np.random.default_rng(7)
    P = mesh.perimeter
    on_vertices = np.concatenate([mesh.cum_arclength, mesh.cum_arclength + P])
    positions = np.concatenate([rng.uniform(0.0, 2.0 * P, 4000), on_vertices])
    for s in positions:
        v = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0)
        t = 10.0 ** rng.uniform(-4.0, -0.5)
        located = _vertex_gap(mesh, float(s)) < abs(v) * t
        assert located == _all_vertex_scan(mesh, float(s), v, t), (s, v, t)
    assert all(_vertex_gap(mesh, float(s)) < 1e-15 * P for s in on_vertices)


def test_fd_flags_an_end_that_sits_on_a_vertex(disk_coarse):
    P = disk_coarse.perimeter
    vertex = float(disk_coarse.cum_arclength[3])
    region = RegionSpec.from_intervals([(vertex, vertex + 0.5 * P)], P)
    tangent = TangentField.single_endpoint(region, arc=0, end=False, speed=1.0)
    steps = (1e-6, 5e-7, 2.5e-7)
    rep = shape_derivative_fd(disk_coarse, tangent, ProblemParams(sigma=5.0), steps=steps)
    assert rep.vertex_crossings


def test_fd_step_validation(half_disk_setup):
    mesh, region, params, _ = half_disk_setup
    v = TangentField.single_endpoint(region, arc=0, end=True, speed=1.0)
    with pytest.raises(ValueError):
        shape_derivative_fd(mesh, v, params, steps=(1e-2, 5e-3))
    with pytest.raises(ValueError):
        shape_derivative_fd(mesh, v, params, steps=(1e-2, 5e-3, 3e-3))
    with pytest.raises(ValueError):
        shape_derivative_fd(mesh, v, params, steps=(5e-3, 1e-2, 2e-2))


@pytest.mark.parametrize("steps", [(1e-2, 5e-3, 0.0), (-1e-2, -5e-3, -2.5e-3)])
def test_fd_steps_must_be_positive(half_disk_setup, steps):
    mesh, region, params, _ = half_disk_setup
    v = TangentField.single_endpoint(region)
    with pytest.raises(ValueError, match="^finite-difference steps must be positive$"):
        shape_derivative_fd(mesh, v, params, steps=steps)


def test_fd_descent_branch_keeps_the_sign(disk_coarse):
    mesh = disk_coarse
    P = mesh.perimeter
    ell = P / mesh.n_boundary_edges
    region = RegionSpec.from_intervals([(ell / 2, (ell / 2 + P / 2) % P)], P)
    params = ProblemParams(p=3.0, sigma=2.0)
    v = TangentField.single_endpoint(region, arc=0, end=True, speed=1.0)
    rep = shape_derivative_fd(
        mesh, v, params, opts=SolverOptions(tol=1e-9)
    )
    assert rep.sign_consistent
    assert rep.relative_error <= 0.25  # coarse mesh, loose agreement only


def test_report_json_layout(half_disk_setup, run_cli):
    # shape-deriv's record holds the library's report bitwise, keys in order
    mesh, region, params, _ = half_disk_setup
    v = TangentField.single_endpoint(region, arc=0, end=True, speed=1.0)
    rep = shape_derivative_fd(mesh, v, params)
    (start, length), = region.arcs
    code, out = run_cli(
        "shape-deriv",
        geometry={"type": "disk", "h": 0.1},
        params={"p": params.p, "sigma": params.sigma},
        region={"intervals": [[start, (start + length) % region.perimeter]]},
        tangent={"speeds": [[0.0, 1.0]]},
    )
    assert code == 0
    data = json.loads((out / "derivative_report.json").read_text())
    assert data.pop("timestamp")
    assert data == {
        "formula_value": rep.formula_value,
        "fd_value": rep.fd_value,
        "fd_table": [{"t": t, "diff": d} for t, d in rep.fd_table],
        "sign_consistent": True,
        "relative_error": rep.relative_error,
        "vertex_crossings": False,
    }
    assert list(data) == [
        "formula_value",
        "fd_value",
        "fd_table",
        "sign_consistent",
        "relative_error",
        "vertex_crossings",
    ]
    assert [row["t"] for row in data["fd_table"]] == [1e-2, 5e-3, 2.5e-3]
