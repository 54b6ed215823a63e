import functools
import itertools
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
    binarize,
    cap_indicator,
    generate_rectangle,
    optimize_potential,
    random_admissible,
    rasterize_region,
    solve_linear,
    support_region,
    trace_to_json,
)


def _edge_weights(mesh, values, p=2.0):
    loop = mesh.boundary_loop
    return 0.5 * (np.abs(values[loop[:, 0]]) ** p + np.abs(values[loop[:, 1]]) ** p)


# ----------------------------------------------------------------- bathtub


def enumerate_lp_vertices(mesh, a):
    """All extreme points of {0 <= phi <= 1, sum phi_e len_e = a}.

    Each vertex has at most one fractional coordinate: a set of fully
    filled edges plus one partial edge absorbing the remainder.
    """
    lens = mesh.edge_lengths
    B = len(lens)
    out = []
    for r in range(B + 1):
        for subset in itertools.combinations(range(B), r):
            filled = sum(float(lens[e]) for e in subset)
            remaining = a - filled
            if remaining <= 0.0:
                if abs(remaining) <= 1e-12:
                    phi = np.zeros(B)
                    phi[list(subset)] = 1.0
                    out.append(phi)
                continue
            for f in range(B):
                if f in subset or remaining > lens[f]:
                    continue
                phi = np.zeros(B)
                phi[list(subset)] = 1.0
                phi[f] = remaining / lens[f]
                out.append(phi)
    return out


def test_bathtub_matches_exhaustive_lp_enumeration(octagon_boundary_mesh, rng):
    mesh = octagon_boundary_mesh
    a = 0.4 * mesh.perimeter
    values = rng.uniform(0.1, 2.0, mesh.n_vertices)
    phi, level = bathtub(mesh, values, a)
    objective = bathtub_objective(mesh, values, phi)

    candidates = enumerate_lp_vertices(mesh, a)
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
    assert np.all(phi.edge_values >= 1.0 - 1e-12)
    assert phi.mass == pytest.approx(P, rel=1e-12)


def test_cap_indicator_requires_disk(square_tiny):
    with pytest.raises(ValueError):
        cap_indicator(square_tiny, 0.0, 1.0)


def test_binarize_thresholds_at_half(disk_coarse):
    vals = np.zeros(disk_coarse.n_boundary_edges)
    vals[:4] = [0.2, 0.5, 0.9, 0.49999]
    out = binarize(disk_coarse, BoundaryDensity.of(disk_coarse, vals))
    assert list(out.edge_values[:4]) == [0.0, 1.0, 1.0, 0.0]
    assert set(np.unique(out.edge_values)) <= {0.0, 1.0}


def test_support_region_threshold_semantics(octagon_boundary_mesh):
    mesh = octagon_boundary_mesh
    vals = np.zeros(mesh.n_boundary_edges)
    vals[0] = 1.0
    vals[1] = 0.5
    phi = BoundaryDensity.of(mesh, vals)
    half = support_region(mesh, phi)  # default threshold 1/2 is strict
    assert half.total_mass == pytest.approx(float(mesh.edge_lengths[0]), rel=1e-12)
    full = support_region(mesh, phi, threshold=0.0)
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
            disk_coarse, params, a, opts=SolverOptions(seed=seed), phi0="random"
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
    opts = SolverOptions(seed=1)
    run = functools.partial(optimize_potential, disk_fine, params, math.pi / 2, opts, "random")
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


# ------------------------------------------------------------- trace files


def test_trace_serialization_round_trip(disk_coarse):
    params = ProblemParams(p=2.0, sigma=5.0)
    trace = optimize_potential(disk_coarse, params, 1.0, max_outer=5)
    rows = trace_to_json(trace)
    assert [r["iter"] for r in rows] == list(range(len(trace.lambdas)))
    assert [r["lambda"] for r in rows] == trace.lambdas
