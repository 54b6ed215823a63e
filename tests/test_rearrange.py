import dataclasses
import functools
import itertools
import json
import math

import numpy as np
import pytest

from steklov import (
    BoundaryDensity,
    NonConvergenceError,
    ProblemParams,
    RegionSpec,
    SolverOptions,
    arc_defect,
    bathtub,
    bathtub_objective,
    cap_indicator,
    energy,
    generate_disk,
    generate_rectangle,
    optimize_potential,
    random_admissible,
    rasterize_region,
    solve_linear,
    support_region,
)
from test_boundary_operator import l_shape


def _edge_weights(mesh, values, p=2.0):
    loop = mesh.boundary_loop
    return 0.5 * (np.abs(values[loop[:, 0]]) ** p + np.abs(values[loop[:, 1]]) ** p)


# ----------------------------------------------------------------- bathtub


def test_bathtub_matches_exhaustive_lp_enumeration(octagon_boundary_mesh, rng, lp_vertices):
    mesh = octagon_boundary_mesh
    a = 0.4 * mesh.perimeter
    values = rng.uniform(0.1, 2.0, mesh.n_vertices)
    phi, level = bathtub(mesh, values, a)
    objective = bathtub_objective(mesh, values, phi)

    candidates = lp_vertices(mesh, a)
    assert len(candidates) > 1000
    objs = [bathtub_objective(mesh, values, c) for c in candidates]
    best = min(objs)
    assert objective <= best * (1 + 1e-14) + 1e-300
    assert best <= objective * (1 + 1e-14) + 1e-300

    # generic weights: the optimal layout is unique, so the greedy fill must
    # match the enumerated argmin structurally
    winner = candidates[int(np.argmin(objs))]
    full_greedy = set(np.nonzero(phi.edge_values == 1.0)[0])
    full_enum = set(np.nonzero(winner == 1.0)[0])
    assert full_greedy == full_enum
    frac_greedy = np.nonzero((phi.edge_values > 0) & (phi.edge_values < 1))[0]
    frac_enum = np.nonzero((winner > 0) & (winner < 1))[0]
    assert list(frac_greedy) == list(frac_enum)
    if len(frac_greedy):
        e = frac_greedy[0]
        assert phi.edge_values[e] == pytest.approx(winner[e], rel=1e-12)


def test_bathtub_output_is_a_sublevel_set(disk_coarse, rng):
    values = rng.uniform(0.05, 3.0, disk_coarse.n_vertices)
    phi, level = bathtub(disk_coarse, values, 0.3 * disk_coarse.perimeter)
    w = _edge_weights(disk_coarse, values)
    full = phi.edge_values == 1.0
    empty = phi.edge_values == 0.0
    frac = ~full & ~empty
    assert frac.sum() <= 1
    assert np.all(w[full] <= level)
    assert np.all(w[empty] >= level)
    if frac.any():
        assert w[frac][0] == level


def test_bathtub_mass_and_bounds(disk_coarse, rng):
    for a in (0.0, 0.17, 1.9, disk_coarse.perimeter):
        values = rng.uniform(0.1, 1.0, disk_coarse.n_vertices)
        phi, _ = bathtub(disk_coarse, values, a)
        assert phi.mass == pytest.approx(a, abs=1e-12 * max(1.0, disk_coarse.perimeter))
        assert np.all(phi.edge_values >= 0.0)
        assert np.all(phi.edge_values <= 1.0)
    assert np.all(bathtub(disk_coarse, values, 0.0)[0].edge_values == 0.0)
    # the running remainder may leave the last edge one ulp short of 1
    filled = bathtub(disk_coarse, values, disk_coarse.perimeter)[0].edge_values
    assert np.all(filled >= 1.0 - 1e-12)


def test_bathtub_rejects_mass_outside_range(disk_coarse):
    values = np.ones(disk_coarse.n_vertices)
    with pytest.raises(ValueError):
        bathtub(disk_coarse, values, -0.1)
    with pytest.raises(ValueError):
        bathtub(disk_coarse, values, disk_coarse.perimeter * 1.01)


def _reference_bathtub(mesh, values, mass, p):
    """The greedy fill on per-edge weights ``(|u_i|^p + |u_j|^p) / 2``."""
    w = _edge_weights(mesh, values, p)
    phi = np.zeros(mesh.n_boundary_edges)
    remaining = float(mass)
    level = 0.0
    for e in np.lexsort((np.arange(len(w)), w)):
        if remaining <= 0.0:
            break
        le = mesh.edge_lengths[e]
        if remaining >= le:
            phi[e] = 1.0
            remaining -= le
        else:
            phi[e] = remaining / le
            remaining = 0.0
        level = float(w[e])
    return phi, level


BATHTUB_MESHES = {
    "disk": lambda: generate_disk(0.1),
    "rectangle": lambda: generate_rectangle(2.0, 1.0, 0.15),
    "l-shape-file": l_shape,
}


@pytest.mark.parametrize("p", [1.2, 2.0, 3.0])
@pytest.mark.parametrize("name", sorted(BATHTUB_MESHES))
def test_bathtub_repeats_the_per_edge_fill_bitwise(rng, name, p):
    mesh = BATHTUB_MESHES[name]()
    for fraction, values in (
        (0.1, rng.normal(0.0, 1.0, mesh.n_vertices)),
        (0.3, rng.normal(0.0, 1.0, mesh.n_vertices)),
        (0.7, rng.normal(0.0, 1.0, mesh.n_vertices)),
        # few distinct weights: ties fill in edge order
        (0.3, rng.choice([-1.0, 0.5, 1.0], mesh.n_vertices)),
        (0.5, np.ones(mesh.n_vertices)),
        # nothing to fill, and every edge
        (0.0, rng.normal(0.0, 1.0, mesh.n_vertices)),
        (1.0, rng.normal(0.0, 1.0, mesh.n_vertices)),
    ):
        mass = fraction * mesh.perimeter
        phi, level = bathtub(mesh, values, mass, p)
        ref_phi, ref_level = _reference_bathtub(mesh, values, mass, p)
        assert phi.edge_values.tobytes() == ref_phi.tobytes()
        assert level.hex() == ref_level.hex()


@pytest.mark.parametrize("p", [1.2, 2.0, 3.0])
def test_bathtub_objective_is_the_energys_coupling_term(disk_fine, rng, p):
    sigma = 3.0
    values = rng.uniform(0.1, 2.0, disk_fine.n_vertices)
    phi = random_admissible(disk_fine, 0.3 * disk_fine.perimeter, seed=5)
    coupled = energy(disk_fine, values, phi, ProblemParams(p=p, sigma=sigma))
    uncoupled = energy(disk_fine, values, phi, ProblemParams(p=p, sigma=0.0))
    objective = bathtub_objective(disk_fine, values, phi, p)
    assert abs(sigma * objective - (coupled - uncoupled)) <= 1e-12 * coupled


# ---------------------------------------------------- indicators and masks


def test_rasterize_region_covers_fractional_edges(octagon_boundary_mesh):
    mesh = octagon_boundary_mesh
    ell = float(mesh.edge_lengths[0])
    region = RegionSpec.from_intervals([(0.0, 1.5 * ell)], mesh.perimeter)
    phi = rasterize_region(mesh, region)
    assert phi.edge_values[0] == pytest.approx(1.0, abs=1e-14)
    assert 0.0 < phi.edge_values[1] < 1.0
    assert np.all(phi.edge_values[2:] == 0.0)
    assert phi.mass == pytest.approx(region.total_mass, rel=1e-12)


@pytest.mark.parametrize("angle", [0.0, 1.0], ids=["wraps-through-zero", "inside"])
def test_a_caps_whole_edges_are_exactly_one(disk_fine, angle):
    # The overlap of an edge that lies inside the arc is its own length, so
    # its value is 1.0 exactly; the end edges keep the value that the overlap
    # min(x + le, length) - x of the edge starting x into the arc gives.
    mesh = disk_fine
    region, phi = cap_indicator(mesh, angle, math.pi / 2)
    (start, length), = region.arcs
    x = (mesh.cum_arclength - start) % mesh.perimeter
    le = mesh.edge_lengths
    ends = np.flatnonzero((x < length) & (x + le > length))
    ends = np.append(ends, np.flatnonzero(x + le > mesh.perimeter))
    inner = np.flatnonzero((x + le <= length))
    assert len(ends) == 2 and len(inner) > 10
    assert np.all(phi.edge_values[inner] == 1.0)
    covered = np.where(x < length, np.minimum(x + le, length) - x, x + le - mesh.perimeter)
    assert np.array_equal(phi.edge_values[ends], covered[ends] / le[ends])
    assert np.count_nonzero(phi.edge_values) == len(inner) + len(ends)


def test_cap_indicator_mass_and_centering(disk_coarse):
    region, phi = cap_indicator(disk_coarse, 1.1, math.pi / 2)
    assert phi.mass == pytest.approx(math.pi / 2, rel=1e-12)
    assert region.total_mass == pytest.approx(math.pi / 2, rel=1e-12)
    (start, length), = region.arcs
    center_s = (start + length / 2.0) % disk_coarse.perimeter
    expected = (1.1 / (2 * math.pi)) * disk_coarse.perimeter
    assert center_s == pytest.approx(expected, abs=1e-12)


def test_cap_indicator_of_the_whole_boundary(disk_coarse):
    P = disk_coarse.perimeter
    region, phi = cap_indicator(disk_coarse, 1.1, P)
    (start, length), = region.arcs
    assert length == P
    assert start == pytest.approx((1.1 / (2 * math.pi) - 0.5) * P % P, abs=1e-12)
    # the same exact constant 1 that optimize starts from at this mass
    assert np.all(phi.edge_values == 1.0)
    assert phi.mass == pytest.approx(P, rel=1e-12)


def test_cap_indicator_requires_disk(square_tiny):
    with pytest.raises(ValueError):
        cap_indicator(square_tiny, 0.0, 1.0)


def test_support_region_threshold_semantics(octagon_boundary_mesh):
    mesh = octagon_boundary_mesh
    vals = np.zeros(mesh.n_boundary_edges)
    vals[0] = 1.0
    vals[1] = 0.5
    phi = BoundaryDensity.of(mesh, vals)
    # the support keeps the fractional edge
    full = support_region(mesh, phi)
    assert full.total_mass == pytest.approx(
        float(mesh.edge_lengths[0] + mesh.edge_lengths[1]), rel=1e-12
    )
    # full support must dominate the density edgewise once rasterized back
    raster = rasterize_region(mesh, full)
    assert np.all(raster.edge_values >= phi.edge_values - 1e-12)


def test_support_region_degenerate_masks(disk_coarse):
    zero = BoundaryDensity.constant(disk_coarse, 0.0)
    assert support_region(disk_coarse, zero).arcs == ()
    ones = BoundaryDensity.constant(disk_coarse, 1.0)
    assert support_region(disk_coarse, ones).total_mass == pytest.approx(
        disk_coarse.perimeter
    )


def test_support_region_wraps_through_zero(octagon_boundary_mesh):
    mesh = octagon_boundary_mesh
    vals = np.zeros(mesh.n_boundary_edges)
    vals[-1] = 1.0
    vals[0] = 1.0
    region = support_region(mesh, BoundaryDensity.of(mesh, vals))
    assert len(region.arcs) == 1
    assert region.total_mass == pytest.approx(
        float(mesh.edge_lengths[-1] + mesh.edge_lengths[0]), rel=1e-12
    )


def _reference_support_region(mesh, phi):
    """The support's arcs, each run walked edge by edge from its first edge."""
    mask = phi.edge_values > 0.0
    P = mesh.perimeter
    if not mask.any():
        return RegionSpec(arcs=(), perimeter=P)
    if mask.all():
        return RegionSpec(arcs=((0.0, P),), perimeter=P)
    B = len(mask)
    cum = mesh.cum_arclength
    intervals = []
    for k in range(B):
        if mask[k] and not mask[(k - 1) % B]:
            end = k
            while mask[(end + 1) % B]:
                end = (end + 1) % B
            intervals.append((cum[k], cum[end + 1] if end + 1 < B else P))
    return RegionSpec.from_intervals(intervals, P)


@pytest.mark.parametrize("name", sorted(BATHTUB_MESHES))
def test_support_region_repeats_the_run_walk_bitwise(rng, name):
    mesh = BATHTUB_MESHES[name]()
    B = mesh.n_boundary_edges
    masks = [rng.random(B) < q for q in (0.05, 0.3, 0.7, 0.95) for _ in range(5)]
    for edges in ([0], [B - 1], [0, B - 1], [0, 1, B - 2], list(range(0, B, 2))):
        masks.append(np.isin(np.arange(B), edges))
    masks += [np.zeros(B, dtype=bool), np.ones(B, dtype=bool)]
    for mask in masks:
        phi = BoundaryDensity.of(mesh, np.where(mask, rng.uniform(0.01, 1.0, B), 0.0))
        region, ref = support_region(mesh, phi), _reference_support_region(mesh, phi)
        assert [(s.hex(), n.hex()) for s, n in region.arcs] == [
            (s.hex(), n.hex()) for s, n in ref.arcs
        ]
        assert region.perimeter == ref.perimeter


# -------------------------------------------------------------- arc defect


def test_arc_defect_zero_for_single_cap(disk_coarse):
    for angle in (0.0, 1.1, 2.7):
        _, phi = cap_indicator(disk_coarse, angle, math.pi / 2)
        assert arc_defect(disk_coarse, phi) == 0.0


def test_arc_defect_of_constant_density(disk_coarse):
    a = math.pi / 2
    c = a / disk_coarse.perimeter
    phi = BoundaryDensity.constant(disk_coarse, c)
    d = arc_defect(disk_coarse, phi)
    # best mass-a window over a uniform density captures c*a plus at most
    # the two partially met end edges, counted in full
    upper = a * (1.0 - a / disk_coarse.perimeter)
    lower = upper - 2.0 * c * float(disk_coarse.edge_lengths.max())
    assert lower <= d <= upper


def test_arc_defect_of_antipodal_pair(disk_coarse):
    a = math.pi / 2
    P = disk_coarse.perimeter
    region = RegionSpec.from_intervals([(0.0, a / 2), (P / 2, P / 2 + a / 2)], P)
    phi = rasterize_region(disk_coarse, region)
    assert arc_defect(disk_coarse, phi) == pytest.approx(a / 2, rel=1e-12)


def test_arc_defect_degenerate_masses(disk_coarse):
    assert arc_defect(disk_coarse, BoundaryDensity.constant(disk_coarse, 0.0)) == 0.0
    assert arc_defect(disk_coarse, BoundaryDensity.constant(disk_coarse, 1.0)) == 0.0


# -------------------------------------------------------- random densities


def test_random_admissible_is_deterministic(disk_coarse):
    a = 1.3
    one = random_admissible(disk_coarse, a, seed=7)
    two = random_admissible(disk_coarse, a, seed=7)
    other = random_admissible(disk_coarse, a, seed=8)
    assert np.array_equal(one.edge_values, two.edge_values)
    assert not np.array_equal(one.edge_values, other.edge_values)


def test_random_admissible_mass_and_bounds(disk_coarse):
    P = disk_coarse.perimeter
    for a in (0.0, 0.2, 2.0, 0.95 * P, P):
        phi = random_admissible(disk_coarse, a, seed=3)
        assert phi.mass == pytest.approx(a, rel=1e-12, abs=1e-12)
        assert np.all(phi.edge_values >= 0.0)
        assert np.all(phi.edge_values <= 1.0)


def test_random_admissible_saturates_every_edge_at_full_mass(disk_coarse):
    # with seed 1 the rescaling saturates every edge before it balances, so
    # the loop ends on its no-free-mass exit
    phi = random_admissible(disk_coarse, disk_coarse.perimeter, seed=1)
    assert np.all(phi.edge_values == 1.0)
    assert phi.mass == pytest.approx(disk_coarse.perimeter, rel=1e-12)


# ------------------------------------------------------------ optimization


def test_optimize_trace_is_monotone_and_fixed(disk_coarse):
    params = ProblemParams(p=2.0, sigma=5.0)
    a = math.pi / 2
    trace = optimize_potential(disk_coarse, params, a)
    assert trace.converged
    lams = trace.lambdas
    assert all(b <= a0 * (1 + 1e-10) for a0, b in zip(lams, lams[1:]))
    # the final density must be a fixed point of one more exchange step
    final = trace.final_potential
    eig = solve_linear(disk_coarse, final, params.sigma)
    refill, _ = bathtub(disk_coarse, eig.u, a)
    assert float(np.abs(refill.edge_values - final.edge_values).max()) <= 1e-9
    assert final.mass == pytest.approx(a, abs=1e-12)


def test_optimize_supports_descent_branch(square_tiny):
    params = ProblemParams(p=3.0, sigma=1.0)
    a = 0.5 * square_tiny.perimeter
    trace = optimize_potential(
        square_tiny, params, a, opts=SolverOptions(tol=1e-9), max_outer=40
    )
    lams = trace.lambdas
    assert all(b <= a0 * (1 + 1e-8) for a0, b in zip(lams, lams[1:]))
    assert trace.final_potential.mass == pytest.approx(a, abs=1e-12)


def test_optimize_random_starts_reach_fixed_points(disk_coarse):
    params = ProblemParams(p=2.0, sigma=5.0)
    a = math.pi / 2
    for seed in (0, 1):
        trace = optimize_potential(
            disk_coarse, params, a, phi0=random_admissible(disk_coarse, a, seed)
        )
        lams = trace.lambdas
        assert all(b <= a0 * (1 + 1e-10) for a0, b in zip(lams, lams[1:]))
        assert trace.final_potential.mass == pytest.approx(a, abs=1e-12)


def test_optimize_degenerate_masses_are_fixed_points(disk_coarse):
    params = ProblemParams(p=2.0, sigma=2.0)
    zero = optimize_potential(disk_coarse, params, 0.0)
    assert zero.converged
    assert np.all(zero.final_potential.edge_values == 0.0)
    full = optimize_potential(disk_coarse, params, disk_coarse.perimeter)
    assert full.converged
    assert np.all(full.final_potential.edge_values == 1.0)
    # filled boundary is the constant shift of the free problem
    free = solve_linear(disk_coarse, BoundaryDensity.constant(disk_coarse, 0.0), 0.0)
    assert full.final_lambda == pytest.approx(free.lam + params.sigma, rel=1e-9)


def test_optimize_stops_on_a_two_cycle(disk_coarse, monkeypatch):
    # a refill that alternates between two caps revisits the first density
    # on the second outer iteration, which must stop the loop unconverged
    import steklov.rearrange as rearrange

    a = math.pi / 2
    caps = [cap_indicator(disk_coarse, angle, a)[1] for angle in (0.0, math.pi)]
    calls = itertools.count(1)
    monkeypatch.setattr(
        rearrange, "bathtub", lambda *args: (caps[next(calls) % 2], 0.0)
    )
    trace = optimize_potential(
        disk_coarse, ProblemParams(p=2.0, sigma=5.0), a, phi0=caps[0]
    )
    assert trace.diagnostics == {"cycle_detected": True}
    assert trace.converged is False
    assert trace.outer_iterations == 2


def test_optimize_stops_on_the_eigenvalue_tolerance(disk_fine):
    # from this start lambda drops by 18 % and then by 2 %, so a 20 % tolerance
    # stops the run one refill before its fixed point
    params = ProblemParams(p=2.0, sigma=5.0)
    phi0 = random_admissible(disk_fine, math.pi / 2, 1)
    run = functools.partial(optimize_potential, disk_fine, params, math.pi / 2, phi0=phi0)
    full = run()
    assert full.converged
    assert full.outer_iterations == 4
    loose = run(outer_tol=0.2)
    assert loose.converged
    assert loose.outer_iterations == 3
    assert loose.diagnostics == {}
    assert loose.lambdas == full.lambdas[:3]


@pytest.mark.parametrize("outer_tol", [0.0, -1.0, math.inf, math.nan])
def test_optimize_rejects_outer_tolerances_that_are_not_finite_and_positive(
    disk_coarse, outer_tol
):
    with pytest.raises(ValueError, match="^outer_tol must be finite and positive"):
        optimize_potential(disk_coarse, ProblemParams(p=2.0, sigma=5.0), 1.0, outer_tol=outer_tol)


def test_optimize_raises_on_inner_failure(disk_coarse):
    params = ProblemParams(p=2.0, sigma=5.0)
    with pytest.raises(NonConvergenceError):
        optimize_potential(
            disk_coarse, params, 1.0, opts=SolverOptions(max_iters=1, tol=1e-14)
        )


# ------------------------------------------------------- two-arc fixed points
#
# On this disk (sigma = 5, mass pi/2) the random start of seed
# TWO_ARC_SEED + 4 refills to an exact bathtub fixed point on two antipodal
# arcs of half the mass each, at lambda 0.87710, while the other four starts
# of a symmetry check end on one cap at 0.684702.

TWO_ARC_H = 0.025672260713638165
TWO_ARC_SEED = 1425354459


@pytest.fixture(scope="module")
def two_arc_disk():
    return generate_disk(TWO_ARC_H)


def _two_arc_run(mesh, seed):
    return optimize_potential(
        mesh,
        ProblemParams(p=2.0, sigma=5.0),
        math.pi / 2,
        phi0=random_admissible(mesh, math.pi / 2, seed),
    )


def test_two_arc_fixed_point_restarts_from_its_best_window(two_arc_disk):
    mesh = two_arc_disk
    traces = [_two_arc_run(mesh, TWO_ARC_SEED + k) for k in range(5)]
    lams = [trace.final_lambda for trace in traces]
    assert (max(lams) - min(lams)) / np.mean(lams) < 1e-6
    for trace in traces:
        assert trace.converged
        assert len(support_region(mesh, trace.final_potential).arcs) == 1
        assert arc_defect(mesh, trace.final_potential) <= 2.0 * mesh.max_boundary_edge_length
        assert all(b <= a for a, b in zip(trace.lambdas, trace.lambdas[1:]))
    restarted = traces[4]
    assert restarted.diagnostics == {"window_restarts": 1}
    assert [t.diagnostics for t in traces[:4]] == [{}] * 4
    # the two-arc fixed point stays in the trace, and the window follows it
    # as the next outer iteration, one arc of the same mass
    k = next(k for k, lam in enumerate(restarted.lambdas) if abs(lam - 0.87710) < 1e-5)
    two_arcs, window = restarted.potentials[k : k + 2]
    assert len(support_region(mesh, two_arcs).arcs) == 2
    assert len(support_region(mesh, window).arcs) == 1
    assert window.mass == pytest.approx(math.pi / 2, abs=1e-12)


def test_a_window_that_does_not_lower_lambda_leaves_the_trace_unchanged(
    two_arc_disk, monkeypatch
):
    import steklov.rearrange as rearrange

    mesh = two_arc_disk
    seed = TWO_ARC_SEED + 4
    with monkeypatch.context() as m:
        # every support reads as one arc, so no window is ever tried
        one_arc = RegionSpec(arcs=((0.0, 1.0),), perimeter=1.0)
        m.setattr(rearrange, "support_region", lambda *args, **kwargs: one_arc)
        plain = _two_arc_run(mesh, seed)

    windows = []
    window_density = rearrange._window_density
    solve = rearrange.solve_linear

    def recording_window(*args):
        windows.append(window_density(*args))
        return windows[-1]

    def no_lower_on_windows(mesh, density, *args, **kwargs):
        eig = solve(mesh, density, *args, **kwargs)
        if any(density is w for w in windows):
            return dataclasses.replace(eig, lam=math.inf)
        return eig

    monkeypatch.setattr(rearrange, "_window_density", recording_window)
    monkeypatch.setattr(rearrange, "solve_linear", no_lower_on_windows)
    rejected = _two_arc_run(mesh, seed)

    assert len(windows) == 1
    assert plain.diagnostics == {}
    assert rejected.diagnostics == {"window_rejected": True}
    assert rejected.converged and plain.converged
    assert rejected.lambdas == plain.lambdas
    assert rejected.levels == plain.levels
    assert rejected.final_lambda == pytest.approx(0.87710, abs=1e-5)
    for a, b in zip(rejected.potentials, plain.potentials, strict=True):
        assert np.array_equal(a.edge_values, b.edge_values)


# ------------------------------------------------------------- trace files


def test_trace_serialization_round_trip(disk_coarse, run_cli):
    # optimize's trace and final density records hold the library's run bitwise
    params = ProblemParams(p=2.0, sigma=5.0)
    phi0 = random_admissible(disk_coarse, 1.0, 3)
    trace = optimize_potential(disk_coarse, params, 1.0, phi0=phi0, max_outer=5)
    assert trace.outer_iterations > 1
    code, out = run_cli(
        "optimize",
        geometry={"type": "disk", "h": 0.3},
        params={"p": 2.0, "sigma": 5.0},
        mass=1.0,
        potential={"type": "random", "seed": 3, "mass": 1.0},
        max_outer=5,
    )
    assert code == (0 if trace.converged else 2)
    rows = json.loads((out / "trace.json").read_text())
    assert rows == [
        {"iter": k, "lambda": lam, "level": level, "mass": phi.mass}
        for k, (lam, level, phi) in enumerate(
            zip(trace.lambdas, trace.levels, trace.potentials, strict=True)
        )
    ]
    assert all(list(row) == ["iter", "lambda", "level", "mass"] for row in rows)
    density = json.loads((out / "final_potential.json").read_text())
    assert density == {"edge_values": trace.final_potential.edge_values.tolist()}


def test_optimize_takes_a_density_or_none_as_its_start(disk_coarse):
    with pytest.raises(TypeError, match="^phi0 must be a BoundaryDensity or None, got 'random'$"):
        optimize_potential(disk_coarse, ProblemParams(p=2.0, sigma=5.0), 1.0, phi0="random")


def test_optimize_rejects_a_start_of_another_mass(disk_coarse):
    params = ProblemParams(p=2.0, sigma=5.0)
    start = random_admissible(disk_coarse, 0.5, 1)
    message = r"^the start density has mass 0\.49999\d*, not 'mass'=2\.0$"
    with pytest.raises(ValueError, match=message):
        optimize_potential(disk_coarse, params, 2.0, phi0=start)
    # within 1e-12 perimeters of the mass, as the range test allows
    slack = 0.5e-12 * disk_coarse.perimeter
    trace = optimize_potential(disk_coarse, params, 0.5 + slack, phi0=start, max_outer=1)
    assert trace.potentials[0] is start
