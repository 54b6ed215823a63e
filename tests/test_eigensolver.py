import json
import math

import numpy as np
import pytest

import steklov.eigensolver as eigensolver
import steklov.rearrange as rearrange
from steklov import (
    BoundaryDensity,
    Field,
    InfeasibleConstraintError,
    ProblemParams,
    RegionSpec,
    SolverOptions,
    assemble_linear,
    assembly,
    boundary_operator,
    generate_disk,
    generate_rectangle,
    random_admissible,
    rayleigh,
    solve_dirichlet,
    solve_linear,
    solve_nonlinear,
)

# ---------------------------------------------------------------- oracles
#
# Independent reference values, computed by the routines below and frozen.
# The series oracle needs only integer arithmetic and exp/factorials; the
# descent oracle uses nothing from the package but the mesh coordinates.

# I1(1)/I0(1): first eigenvalue of the linear problem on the unit disk with
# zero potential (radial mode of the associated Bessel quotient).
BESSEL_QUOTIENT = 0.44638996589653457

# Rayleigh-quotient minimum on generate_rectangle(1, 1, 0.34) computed by
# brute_force_minimum below (plain-Python energy + coordinate descent).
SQUARE_TINY_LAMBDA = {1.5: 0.2490020400336109, 3.0: 0.2157918102123785}


def bessel_i_ratio(x, terms=40):
    """I1(x)/I0(x) by the power series sum (x/2)^(nu+2k) / (k! (k+nu)!)."""
    i0 = sum((x / 2.0) ** (2 * k) / (math.factorial(k) ** 2) for k in range(terms))
    i1 = sum(
        (x / 2.0) ** (1 + 2 * k) / (math.factorial(k) * math.factorial(k + 1))
        for k in range(terms)
    )
    return i1 / i0


def plain_energy(mesh, values, phi_edges, p, sigma):
    # element p-Dirichlet term with constant gradients
    total = 0.0
    for tri in mesh.triangles:
        (x1, y1), (x2, y2), (x3, y3) = mesh.vertices[tri]
        det = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
        area = 0.5 * abs(det)
        u1, u2, u3 = values[tri]
        gx = ((y2 - y3) * u1 + (y3 - y1) * u2 + (y1 - y2) * u3) / det
        gy = ((x3 - x2) * u1 + (x1 - x3) * u2 + (x2 - x1) * u3) / det
        total += area * (gx * gx + gy * gy) ** (p / 2.0)
        total += (area / 3.0) * sum(abs(values[v]) ** p for v in tri)
    loop = mesh.boundary_vertices
    for k in range(mesh.n_boundary_edges):
        i, j = loop[k], loop[(k + 1) % len(loop)]
        w = mesh.edge_lengths[k] * (abs(values[i]) ** p + abs(values[j]) ** p) / 2.0
        total += sigma * phi_edges[k] * w
    return total


def plain_boundary_power(mesh, values, p):
    loop = mesh.boundary_vertices
    total = 0.0
    for k in range(mesh.n_boundary_edges):
        i, j = loop[k], loop[(k + 1) % len(loop)]
        total += mesh.edge_lengths[k] * (abs(values[i]) ** p + abs(values[j]) ** p) / 2.0
    return total


def brute_force_minimum(mesh, p, sigma=0.0, iters=4000):
    """Coordinate finite-difference descent on the plain-Python quotient."""
    phi = np.zeros(mesh.n_boundary_edges)

    def quotient(vals):
        return plain_energy(mesh, vals, phi, p, sigma) / plain_boundary_power(
            mesh, vals, p
        )

    vals = np.ones(mesh.n_vertices)
    step = 0.25
    best = quotient(vals)
    for _ in range(iters):
        grad = np.zeros_like(vals)
        for i in range(len(vals)):
            vals[i] += 1e-6
            up = quotient(vals)
            vals[i] -= 2e-6
            dn = quotient(vals)
            vals[i] += 1e-6
            grad[i] = (up - dn) / 2e-6
        gnorm = np.linalg.norm(grad)
        if gnorm < 1e-12:
            break
        while step > 1e-14:
            trial = vals - step * grad / gnorm
            q = quotient(trial)
            if q < best:
                vals, best = trial, q
                step *= 1.2
                break
            step *= 0.5
        else:
            break
    return best


def test_bessel_series_matches_frozen_constant():
    assert bessel_i_ratio(1.0) == pytest.approx(BESSEL_QUOTIENT, abs=1e-15)


# The radial eigenvalue at sigma * c = 0.6, to 12 digits, per p.
RADIAL_LAMBDA = {
    1.2: 1.099610417936,
    1.5: 1.088056894962,
    2.0: 1.046389965897,
    3.0: 0.958783457046,
    8.0: 0.752761668816,
}


@pytest.mark.parametrize("p", sorted(RADIAL_LAMBDA))
def test_radial_oracle_reproduces_its_recorded_values(radial_lambda, p):
    assert radial_lambda(p, 0.6) == pytest.approx(RADIAL_LAMBDA[p], abs=1e-12)
    # the series start is far inside the integration tolerance
    assert radial_lambda(p, 0.6, r0=1e-5) == pytest.approx(radial_lambda(p, 0.6), abs=1e-15)


def test_radial_oracle_at_p2_is_the_bessel_quotient(radial_lambda):
    for sigma_c in (0.0, 0.6, 3.0):
        assert radial_lambda(2.0, sigma_c) == pytest.approx(
            sigma_c + bessel_i_ratio(1.0), abs=2e-15
        )


def test_descent_oracle_reproduces_frozen_value(square_tiny):
    # cheap case re-run in full; the p=3 twin is covered by the slow marker
    assert brute_force_minimum(square_tiny, 1.5) == pytest.approx(
        SQUARE_TINY_LAMBDA[1.5], abs=1e-10
    )


@pytest.mark.slow
def test_descent_oracle_reproduces_frozen_value_p3(square_tiny):
    assert brute_force_minimum(square_tiny, 3.0) == pytest.approx(
        SQUARE_TINY_LAMBDA[3.0], abs=1e-10
    )


# ------------------------------------------------------------ linear solve


def test_disk_eigenvalue_near_bessel_quotient():
    mesh = generate_disk(0.1)
    pair = solve_linear(mesh, BoundaryDensity.constant(mesh, 0.0), ProblemParams())
    assert pair.converged
    assert pair.lam == pytest.approx(BESSEL_QUOTIENT, abs=1e-2)
    assert pair.lam == pytest.approx(BESSEL_QUOTIENT, rel=2e-3)


def test_linear_solution_is_rayleigh_minimizer_proxy(square_tiny, rng):
    phi = BoundaryDensity.of(square_tiny, rng.uniform(0, 1, square_tiny.n_boundary_edges))
    params = ProblemParams(p=2.0, sigma=2.0)
    pair = solve_linear(square_tiny, phi, params)
    for _ in range(100):
        v = Field.of(square_tiny, rng.uniform(-1, 1, square_tiny.n_vertices))
        if plain_boundary_power(square_tiny, v.values, 2.0) < 1e-12:
            continue
        assert rayleigh(square_tiny, v, phi, params) >= pair.lam - 1e-12


def test_eigenvalue_monotone_in_sigma(square_tiny):
    phi = BoundaryDensity.constant(square_tiny, 0.7)
    lams = [
        solve_linear(square_tiny, phi, ProblemParams(sigma=s)).lam for s in (0.0, 1.0, 5.0, 25.0)
    ]
    assert all(b > a for a, b in zip(lams, lams[1:]))


def test_eigenfunction_positive_on_disk(disk_fine):
    pair = solve_linear(disk_fine, BoundaryDensity.constant(disk_fine, 0.0), ProblemParams())
    assert not pair.positivity_violation
    assert np.all(pair.u.values > 0)


def test_random_starts_agree_on_lowest_eigenvalue(square_tiny):
    phi = BoundaryDensity.constant(square_tiny, 0.4)
    opts = SolverOptions(tol=1e-11)
    lams = []
    for seed in range(20):
        start = np.random.default_rng(seed).uniform(0.1, 1.0, square_tiny.n_vertices)
        pair = solve_linear(square_tiny, phi, ProblemParams(sigma=3.0), opts=opts, start=start)
        lams.append(pair.lam)
    spread = max(lams) - min(lams)
    assert spread <= 5 * 1e-11 * abs(lams[0])


def test_negative_start_is_flipped_to_the_positive_eigenfunction(disk_coarse):
    phi = BoundaryDensity.constant(disk_coarse, 0.5)
    ones = np.ones(disk_coarse.n_vertices)
    plus = solve_linear(disk_coarse, phi, ProblemParams(sigma=2.0), start=ones)
    minus = solve_linear(disk_coarse, phi, ProblemParams(sigma=2.0), start=-ones)
    assert minus.lam == plus.lam
    assert np.array_equal(minus.u.values, plus.u.values)
    assert minus.u.values.min() > 0.0


def test_fields_with_zero_boundary_trace_are_rejected(square_tiny):
    params = ProblemParams(p=1.5, sigma=1.0)
    phi = BoundaryDensity.constant(square_tiny, 0.5)
    bump = np.where(square_tiny.is_boundary_vertex, 0.0, 1.0)
    with pytest.raises(ValueError, match="^Rayleigh quotient undefined: zero boundary trace$"):
        rayleigh(square_tiny, Field.of(square_tiny, bump), phi, params)
    with pytest.raises(ValueError, match="^start has zero boundary trace$"):
        solve_nonlinear(square_tiny, phi, params, start=bump)
    with pytest.raises(ValueError, match="^start has zero boundary trace$"):
        solve_linear(square_tiny, phi, ProblemParams(sigma=1.0), start=bump)


def test_descent_below_two_rejects_zero_regularization(disk_coarse):
    # At the constant start every element gradient is 0, so without eps the
    # descent's first gradient would be inf * 0.
    params = ProblemParams(p=1.5, sigma=2.0, eps_reg=0.0)
    phi = BoundaryDensity.constant(disk_coarse, 0.3)
    region = RegionSpec.from_intervals([(0.0, 1.0)], disk_coarse.perimeter)
    message = "^eps_reg must be positive for p < 2, got 0.0$"
    with pytest.raises(ValueError, match=message):
        solve_nonlinear(disk_coarse, phi, params)
    with pytest.raises(ValueError, match=message):
        solve_dirichlet(disk_coarse, region, params)


def test_non_convergence_is_reported(square_tiny):
    phi = BoundaryDensity.constant(square_tiny, 0.3)
    pair = solve_linear(square_tiny, phi, ProblemParams(sigma=1.0), opts=SolverOptions(max_iters=1))
    assert not pair.converged
    assert pair.diagnostics["stop"] == "max_iters"


def test_eigenpair_json_round_trip(square_tiny, run_cli):
    # solve's eigenpair record holds the library's pair bitwise, keys in order
    code, out = run_cli(
        "solve",
        geometry={"type": "rectangle", "width": 1.0, "height": 1.0, "target_h": 0.34},
        potential={"type": "constant", "value": 0.0},
    )
    assert code == 0
    data = json.loads((out / "eigenpair.json").read_text())
    assert data.pop("timestamp")
    pair = solve_linear(square_tiny, BoundaryDensity.constant(square_tiny, 0.0), ProblemParams())
    assert data == {
        "lambda": pair.lam,
        "iterations": pair.iterations,
        "residual": pair.residual,
        "converged": True,
        "u": pair.u.values.tolist(),
    }
    assert list(data) == ["lambda", "iterations", "residual", "converged", "u"]

# ------------------------------------------------- p = 2 Krylov-Ritz driver
#
# Each mesh is generated inside its test, so no other test can have built a
# boundary operator for it: solves before ``boundary_operator(mesh)`` run the
# plain route, solves after it the reduced one.


@pytest.mark.parametrize("tol", [None, 1e-11])
@pytest.mark.parametrize(
    "make",
    [lambda: generate_disk(0.1), lambda: generate_rectangle(2.0, 1.0, 0.15)],
    ids=["disk", "rectangle"],
)
def test_a_converged_pair_has_a_residual_within_the_tolerance(make, tol):
    # On both routes, free and pinned, at a weak and a strong coupling: the
    # reported residual is the residual of A over the unpinned rows, and a
    # converged pair has it at most tol.
    mesh = make()
    P = mesh.perimeter
    mb = assembly.geometry(mesh).boundary_weights
    phi = random_admissible(mesh, 0.3 * P, seed=4)
    zero = BoundaryDensity.constant(mesh, 0.0)
    region = RegionSpec.from_intervals([(0.1, 0.1 + 0.3 * P)], P)
    opts = SolverOptions(tol=tol)
    for reduced in (False, True):
        if reduced:
            assert boundary_operator(mesh) is not None
        for sigma in (1.0, 25.0):
            free = solve_linear(mesh, phi, ProblemParams(sigma=sigma), opts)
            pinned = solve_dirichlet(mesh, region, ProblemParams(sigma=sigma), opts)
            for pair, A in (
                (free, assemble_linear(mesh, phi, sigma)[0]),
                (pinned, assemble_linear(mesh, zero, 0.0)[0]),
            ):
                assert pair.diagnostics["boundary_operator"] is reduced
                assert pair.diagnostics["method"] == "krylov_ritz"
                assert pair.converged
                assert pair.residual <= opts.resolved_tol(2.0)
                u = pair.u.values
                rows = u != 0.0
                Au = (A @ u)[rows]
                full = np.linalg.norm(Au - pair.lam * (mb * u)[rows]) / np.linalg.norm(Au)
                assert pair.residual == pytest.approx(full, rel=1e-2, abs=1e-14)


def test_strong_coupling_random_density_converges_in_few_solves():
    # A sigma = 25 random density on a disk near h = 0.05, where inverse
    # iteration stopped on a settled eigenvalue after 64 solves at a
    # residual of 2e-5.
    mesh = generate_disk(0.05113892540707861)
    phi = random_admissible(mesh, 2.294590882702329, seed=915969690)
    pair = solve_linear(mesh, phi, ProblemParams(sigma=25.0))
    assert pair.converged
    assert pair.residual <= 1e-9
    assert pair.iterations <= 30


def test_a_restarted_basis_reaches_the_same_pair(monkeypatch):
    # A three-vector basis restarts from its Ritz vector every two solves
    # on both routes and still stops on the same residual test.
    mesh = generate_disk(0.1)
    phi = random_admissible(mesh, 0.3 * mesh.perimeter, seed=1)
    for reduced in (False, True):
        if reduced:
            assert boundary_operator(mesh) is not None
        full = solve_linear(mesh, phi, ProblemParams(sigma=25.0))
        with monkeypatch.context() as m:
            m.setattr(eigensolver, "_RITZ_BASIS", 3)
            restarted = solve_linear(mesh, phi, ProblemParams(sigma=25.0))
        assert full.iterations < eigensolver._RITZ_BASIS < restarted.iterations
        assert restarted.converged
        assert restarted.residual <= 1e-9
        assert restarted.lam == pytest.approx(full.lam, rel=1e-13)
        np.testing.assert_allclose(restarted.u.values, full.u.values, rtol=0, atol=1e-7)


def test_one_solve_is_never_a_converged_pair():
    # max_iters = 1 gives a one-vector basis, whose Ritz pair is far from
    # the tolerance; the optimizer's inner-failure exits rely on this.
    mesh = generate_disk(0.1)
    P = mesh.perimeter
    phi = random_admissible(mesh, 0.3 * P, seed=1)
    region = RegionSpec.from_intervals([(0.1, 0.1 + 0.3 * P)], P)
    opts = SolverOptions(max_iters=1)
    for reduced in (False, True):
        if reduced:
            assert boundary_operator(mesh) is not None
        for pair in (
            solve_linear(mesh, phi, ProblemParams(sigma=5.0), opts),
            solve_dirichlet(mesh, region, ProblemParams(), opts),
        ):
            assert pair.diagnostics["boundary_operator"] is reduced
            assert (pair.iterations, pair.converged) == (1, False)
            assert pair.diagnostics["stop"] == "max_iters"
            assert pair.residual > 1e-9


def test_a_tolerance_below_the_rounding_floor_ends_as_stagnation():
    # No Ritz pair reaches a residual of 1e-16; the solve stops once a
    # basis' worth of solves has not lowered its best residual, instead of
    # running all max_iters solves, and returns that best pair.
    mesh = generate_disk(0.1)
    phi = BoundaryDensity.constant(mesh, 0.25)
    for reduced in (False, True):
        if reduced:
            assert boundary_operator(mesh) is not None
        converged = solve_linear(mesh, phi, ProblemParams(sigma=5.0))
        floor = solve_linear(mesh, phi, ProblemParams(sigma=5.0), opts=SolverOptions(tol=1e-16))
        assert floor.diagnostics["boundary_operator"] is reduced
        assert converged.diagnostics["stop"] == "tolerance"
        assert (floor.diagnostics["stop"], floor.converged) == ("stagnation", False)
        assert eigensolver._RITZ_BASIS < floor.iterations <= 3 * eigensolver._RITZ_BASIS
        assert floor.residual < 1e-12
        assert floor.lam == pytest.approx(converged.lam, rel=1e-12)


def test_a_vector_without_a_finite_norm_ends_as_breakdown():
    # The first solve returns NaN: no Ritz pair exists, and _krylov_ritz
    # returns its start with an infinite residual.
    x0 = np.ones(3)
    theta, x, solves, residual, stop = eigensolver._krylov_ritz(
        lambda v: v, np.ones(3), lambda rhs: np.full_like(rhs, np.nan), x0, 1e-9, 100
    )
    assert (solves, residual, stop) == (1, math.inf, "breakdown")
    assert math.isnan(theta)
    np.testing.assert_array_equal(x, x0 / math.sqrt(3.0))


@pytest.mark.parametrize(
    "make",
    [lambda: generate_disk(0.025), lambda: generate_rectangle(1.0, 1.0, 0.01)],
    ids=["disk", "square"],
)
def test_plain_route_factors_with_less_fill_than_default_splu(make, monkeypatch):
    # The plain route factors A in the nested-dissection order of the mesh;
    # SuperLU's default (COLAMD with partial pivoting) on the same matrix
    # fills 1.4 to 1.5 times as much, free or pinned.
    mesh = make()
    P = mesh.perimeter
    phi = random_admissible(mesh, 0.3 * P, seed=1)
    region = RegionSpec.from_intervals([(0.1, 0.1 + 0.3 * P)], P)
    splu = eigensolver.spla.splu
    factored = []

    def capture(matrix, **kwargs):
        lu = splu(matrix, **kwargs)
        factored.append((matrix, lu))
        return lu

    monkeypatch.setattr(eigensolver.spla, "splu", capture)
    free = solve_linear(mesh, phi, ProblemParams(sigma=5.0))
    pinned = solve_dirichlet(mesh, region, ProblemParams())
    monkeypatch.undo()
    assert free.converged and pinned.converged
    assert [matrix.shape[0] for matrix, _ in factored] == [
        mesh.n_vertices,
        mesh.n_vertices - pinned.diagnostics["constrained_vertices"],
    ]
    for matrix, lu in factored:
        assert lu.nnz < 0.85 * splu(matrix).nnz


def test_p2_start_with_a_nan_is_rejected(square_tiny):
    # the first solve breaks down and the start comes back as the field
    phi = BoundaryDensity.constant(square_tiny, 0.5)
    start = np.ones(square_tiny.n_vertices)
    start[square_tiny.boundary_vertices[0]] = np.nan
    with pytest.raises(ValueError, match="^field contains non-finite values$"):
        solve_linear(square_tiny, phi, ProblemParams(sigma=1.0), start=start)


def test_descent_start_with_a_nan_is_rejected():
    # the start is checked before the metric is factored, so SuperLU never
    # sees the NaN (it used to fail with "Factor is exactly singular")
    mesh = generate_disk(0.2)
    phi = BoundaryDensity.constant(mesh, 0.3)
    params = ProblemParams(p=3.0, sigma=2.0)
    region = RegionSpec.from_intervals([(0.0, 1.0)], mesh.perimeter)
    start = np.ones(mesh.n_vertices)
    start[mesh.boundary_vertices[len(mesh.boundary_vertices) // 2]] = np.nan
    with pytest.raises(ValueError, match="^field contains non-finite values$"):
        solve_nonlinear(mesh, phi, params, start=start)
    with pytest.raises(ValueError, match="^field contains non-finite values$"):
        solve_dirichlet(mesh, region, params, start=start)
    assert np.isnan(start).sum() == 1 and start.flags.writeable


@pytest.mark.parametrize("h", [0.3, 0.1])
def test_a_trial_whose_boundary_norm_overflows_backtracks(h):
    # at p = 200 some trial's |v|^p overflows to a norm of inf; normalized by
    # it the trial was all zeros and the quotient divided by zero
    mesh = generate_disk(h)
    phi = BoundaryDensity.constant(mesh, 0.5)
    with np.errstate(over="ignore"):
        pair = solve_nonlinear(mesh, phi, ProblemParams(p=200.0, sigma=1.0))
    assert math.isfinite(pair.lam) and np.isfinite(pair.u.values).all()


def test_a_start_whose_boundary_norm_overflows_gives_the_default_eigenpair(disk_coarse):
    # 1e3**200 overflows, so the start is first scaled by a power of two
    phi = BoundaryDensity.constant(disk_coarse, 0.5)
    params = ProblemParams(p=200.0, sigma=1.0)
    start = np.full(disk_coarse.n_vertices, 1e3)
    with np.errstate(over="ignore"):  # the descent's trials overflow at p = 200
        default = solve_nonlinear(disk_coarse, phi, params)
        pair = solve_nonlinear(disk_coarse, phi, params, start=start)
    assert pair.converged == default.converged
    assert pair.lam == pytest.approx(default.lam, rel=1e-14)
    assert np.allclose(pair.u.values, default.u.values, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "p, scale",
    [(2.0, 1e200), (2.0, 1e-200), (3.0, 1e200), (3.0, 1e-200), (3.0, 1e120), (3.0, 1e-120)],
)
def test_the_scale_of_a_start_does_not_change_the_eigenpair(disk_coarse, p, scale):
    # One start rule for both cores: a start whose boundary p-norm is 0 or
    # inf is scaled by a power of two first.  At the parent p = 2 returned
    # nan unconverged for 1e200 and raised for 1e-200, and p = 3 raised for
    # 1e120 and 1e-120.
    phi = BoundaryDensity.constant(disk_coarse, 0.5)
    params = ProblemParams(p=p, sigma=1.0)
    solve = solve_linear if p == 2.0 else solve_nonlinear
    default = solve(disk_coarse, phi, params)
    pair = solve(disk_coarse, phi, params, start=np.full(disk_coarse.n_vertices, scale))
    assert pair.converged and default.converged
    assert pair.lam == pytest.approx(default.lam, rel=1e-14)


def test_a_start_of_ordinary_scale_is_kept_bitwise(disk_coarse):
    # only a start whose norm is 0 or not finite is rescaled
    phi = BoundaryDensity.constant(disk_coarse, 0.5)
    start = np.linspace(1.0, 2.0, disk_coarse.n_vertices)
    for params in (ProblemParams(sigma=1.0), ProblemParams(p=3.0, sigma=1.0)):
        u, norm = eigensolver._start(disk_coarse, start, params.p, np.zeros(len(start), bool))
        assert np.array_equal(u, start)
        assert norm == assembly.boundary_p_norm(disk_coarse, start, params.p)


def test_a_scaled_start_keeps_its_pinned_entries_zero(disk_coarse):
    region = RegionSpec.from_intervals([(0.0, 1.0)], disk_coarse.perimeter)
    params = ProblemParams(sigma=0.0)
    default = solve_dirichlet(disk_coarse, region, params)
    pair = solve_dirichlet(
        disk_coarse, region, params, start=np.full(disk_coarse.n_vertices, 1e200)
    )
    assert pair.converged
    assert pair.lam == pytest.approx(default.lam, rel=1e-14)


@pytest.mark.parametrize(
    "intervals", [[(1.0, math.inf)], [(math.nan, 2.0)]], ids=["inf-end", "nan-begin"]
)
def test_dirichlet_on_a_non_finite_arc_raises_instead_of_pinning_nothing(intervals):
    # the region itself is refused; its arc used to be stored as (1.0, nan),
    # which pins no vertex, so the unpinned eigenvalue came back converged
    mesh = generate_disk(0.3)
    with pytest.raises(ValueError, match="needs a start in"):
        region = RegionSpec.from_intervals(intervals, mesh.perimeter)
        solve_dirichlet(mesh, region, ProblemParams(sigma=0.0))


# --------------------------------------------------------- nonlinear solve


def test_descent_matches_frozen_oracle_values(square_tiny):
    for p, expected in SQUARE_TINY_LAMBDA.items():
        pair = solve_nonlinear(
            square_tiny,
            BoundaryDensity.constant(square_tiny, 0.0),
            ProblemParams(p=p, sigma=0.0),
        )
        assert pair.converged
        assert pair.lam == pytest.approx(expected, abs=5e-10)


def test_descent_agrees_with_inverse_iteration_at_p2(square_tiny, disk_coarse, rng):
    for mesh in (square_tiny, disk_coarse):
        phi = BoundaryDensity.of(mesh, rng.uniform(0, 1, mesh.n_boundary_edges))
        linear = solve_linear(mesh, phi, ProblemParams(sigma=4.0))
        descent = solve_nonlinear(mesh, phi, ProblemParams(p=2.0, sigma=4.0))
        assert descent.converged
        assert descent.lam == pytest.approx(linear.lam, rel=1e-8)


def test_constant_shift_identity(square_tiny):
    # with the filled potential the energy gains exactly sigma*c per unit of
    # normalized boundary mass, so warm-starting from the unshifted
    # eigenfunction reproduces the shift to machine precision
    for p in (1.5, 2.0, 3.0):
        params0 = ProblemParams(p=p, sigma=2.0)
        phi0 = BoundaryDensity.constant(square_tiny, 0.0)
        base = (
            solve_linear(square_tiny, phi0, ProblemParams(sigma=2.0))
            if p == 2.0
            else solve_nonlinear(square_tiny, phi0, params0)
        )
        c = 0.625
        phic = BoundaryDensity.constant(square_tiny, c)
        shifted = (
            solve_linear(square_tiny, phic, ProblemParams(sigma=2.0), start=base.u)
            if p == 2.0
            else solve_nonlinear(square_tiny, phic, params0, start=base.u)
        )
        assert shifted.lam - base.lam == pytest.approx(2.0 * c, rel=1e-12)


# --------------------------------------------------------- pinned boundary


def test_dirichlet_monotone_in_region(disk_fine):
    params = ProblemParams(p=2.0, sigma=0.0)
    base = solve_linear(disk_fine, BoundaryDensity.constant(disk_fine, 0.0), ProblemParams())
    lams = []
    for frac in (0.1, 0.25, 0.5, 0.9):
        region = RegionSpec.from_intervals(
            [(0.0, frac * disk_fine.perimeter)], disk_fine.perimeter
        )
        pair = solve_dirichlet(disk_fine, region, params)
        lams.append(pair.lam)
    assert all(lam > base.lam for lam in lams)
    assert all(b > a for a, b in zip(lams, lams[1:]))


def test_dirichlet_rejects_fully_pinned_boundary(square_tiny):
    half = square_tiny.perimeter / 2.0
    region = RegionSpec.from_intervals(
        [(0.0, half), (half, square_tiny.perimeter)], square_tiny.perimeter
    )
    with pytest.raises(InfeasibleConstraintError):
        solve_dirichlet(square_tiny, region, ProblemParams(p=2.0))


def test_dirichlet_hairline_region_pins_one_vertex(disk_fine):
    params = ProblemParams(p=2.0, sigma=0.0)
    base = solve_linear(disk_fine, BoundaryDensity.constant(disk_fine, 0.0), ProblemParams())
    tiny = RegionSpec.from_intervals([(0.0, 1e-6)], disk_fine.perimeter)
    pair = solve_dirichlet(disk_fine, tiny, params)
    # closed-arc membership captures exactly the vertex at s = 0; a single
    # pinned point still raises the discrete eigenvalue by a visible amount
    # (point constraints relax only logarithmically under refinement), but
    # stays below any genuinely extended pinned arc
    assert pair.diagnostics["constrained_vertices"] == 1
    assert pair.lam > base.lam
    quarter = RegionSpec.from_intervals(
        [(0.0, disk_fine.perimeter / 4.0)], disk_fine.perimeter
    )
    assert pair.lam < solve_dirichlet(disk_fine, quarter, params).lam


def test_dirichlet_solution_vanishes_on_region(square_tiny):
    region = RegionSpec.from_intervals([(0.0, 1.0)], square_tiny.perimeter)
    pair = solve_dirichlet(square_tiny, region, ProblemParams(p=2.0))
    s = square_tiny.cum_arclength
    pinned = [
        square_tiny.boundary_vertices[k]
        for k in range(square_tiny.n_boundary_edges)
        if region.contains(float(s[k]), closed=True)
    ]
    assert pinned
    assert np.all(pair.u.values[pinned] == 0.0)


def test_dirichlet_descent_path_matches_linear_path(square_tiny):
    region = RegionSpec.from_intervals([(0.0, 1.0)], square_tiny.perimeter)
    linear = solve_dirichlet(square_tiny, region, ProblemParams(p=2.0))
    # p slightly off 2 exercises the projected-descent branch
    descent = solve_dirichlet(square_tiny, region, ProblemParams(p=2.000001))
    assert descent.lam == pytest.approx(linear.lam, rel=1e-5)


# ----------------------------------------------- descent regression values
#
# lambda (as float hex), residual and iteration counts of descents on
# generate_disk(0.1) in the reweighted metric.  Any change in the order of
# the floating-point operations of the descent shows up here as a changed
# last bit.
#
# The DELAUNAY_ values are the same descents on the Delaunay triangulation of
# the same vertices (the reference generator in tests/conftest.py), which
# generate_disk was before its rings were zipped by index arithmetic.  The
# two meshes differ in the diagonals of 0.8 % of the triangles, so each
# eigenvalue stays within RETRIANGULATION_RTOL = h^2 / 100 of its Delaunay
# record: a hundredth of the O(h^2) discretization error, which is
# 0.064 h^2 relative against I1(1)/I0(1) at p = 2 on this disk.
#
# The EUCLIDEAN_ values were recorded on the Delaunay disk with the
# Euclidean-step BB descent that the metric replaced.  Both descents stop on
# the same test at the same fixed point along different paths, so every
# Delaunay eigenvalue must agree with its Euclidean record to 1e-9 relative.
#
# Both the zipped and the Delaunay records were re-recorded when the energy
# value came to share its element term |grad u|^2 + eps^2 with the gradient
# and to integrate over u with nodal weights: every eigenvalue moved by at
# most 6.6e-16 relative, with the same iteration counts, and the Delaunay
# values still agree with the Euclidean ones to 1e-9.

DIRICHLET_DESCENT = {
    1.5: ("0x1.ae58723678f22p-1", 27, "0x1.07e5624b72c10p-26"),
    3.0: ("0x1.213fe9c05d459p-1", 46, "0x1.3d172729be525p-26"),
}
OPTIMIZE_P3_LAMBDAS = ("0x1.874a5e1358a15p+0", "0x1.e1ddd84484292p-2", "0x1.e19602ba5886cp-2")
OPTIMIZE_P3_INNER_ITERATIONS = [70, 32, 18]

RETRIANGULATION_RTOL = 0.1**2 / 100

DELAUNAY_DIRICHLET_DESCENT = {
    1.5: ("0x1.ae5861c9f0956p-1", 27, "0x1.06f3aa4287294p-26"),
    3.0: ("0x1.2140ed3d07477p-1", 46, "0x1.bb2749c5b9beep-27"),
}
DELAUNAY_OPTIMIZE_P3_LAMBDAS = (
    "0x1.874a72e74850ep+0",
    "0x1.e1de57d73cf90p-2",
    "0x1.e19680a6abd4bp-2",
)
DELAUNAY_OPTIMIZE_P3_INNER_ITERATIONS = [69, 32, 18]

EUCLIDEAN_DIRICHLET_DESCENT = {
    1.5: ("0x1.ae5861c9f0b41p-1", 352, "0x1.962621d21ac80p-24"),
    3.0: ("0x1.2140ed3d07530p-1", 292, "0x1.a0bc8ebccee4ap-24"),
}
EUCLIDEAN_OPTIMIZE_P3_LAMBDAS = (
    "0x1.874a72e748c71p+0",
    "0x1.e1de57d73cf02p-2",
    "0x1.e19680a6abbc3p-2",
)  # inner iterations [511, 340, 199]


@pytest.fixture(scope="module")
def disk_regression():
    return generate_disk(0.1)


@pytest.fixture(scope="module")
def delaunay_regression(delaunay_disk):
    return delaunay_disk(0.1)


def _pinned_descent(mesh, p):
    """The Dirichlet descent with a quarter of the boundary pinned."""
    region = RegionSpec.from_intervals([(0.0, mesh.perimeter / 4.0)], mesh.perimeter)
    pair = solve_dirichlet(mesh, region, ProblemParams(p=p, sigma=0.0))
    assert pair.converged
    assert pair.diagnostics["constrained_vertices"] == 17
    pinned = mesh.boundary_vertices[
        region.contains_array(mesh.cum_arclength, closed=True)
    ]
    assert np.all(pair.u.values[pinned] == 0.0)
    return pair.lam.hex(), pair.iterations, pair.residual.hex()


@pytest.mark.parametrize("p", sorted(DIRICHLET_DESCENT))
def test_pinned_descent_repeats_its_recorded_iterates(disk_regression, p):
    record = _pinned_descent(disk_regression, p)
    assert record == DIRICHLET_DESCENT[p]
    delaunay = float.fromhex(DELAUNAY_DIRICHLET_DESCENT[p][0])
    assert float.fromhex(record[0]) == pytest.approx(delaunay, rel=RETRIANGULATION_RTOL)


@pytest.mark.parametrize("p", sorted(DELAUNAY_DIRICHLET_DESCENT))
def test_pinned_descent_on_the_delaunay_disk_repeats_its_records(delaunay_regression, p):
    record = _pinned_descent(delaunay_regression, p)
    assert record == DELAUNAY_DIRICHLET_DESCENT[p]
    euclidean = float.fromhex(EUCLIDEAN_DIRICHLET_DESCENT[p][0])
    assert float.fromhex(record[0]) == pytest.approx(euclidean, rel=1e-9)


def _warm_started_p3_optimize(mesh, monkeypatch):
    """Lambdas (as float hex) and inner iteration counts of a p = 3 optimize."""
    inner = []
    solve = rearrange.solve_nonlinear

    def counting(*args, **kwargs):
        eig = solve(*args, **kwargs)
        inner.append(eig.iterations)
        return eig

    monkeypatch.setattr(rearrange, "solve_nonlinear", counting)
    trace = rearrange.optimize_potential(
        mesh,
        ProblemParams(p=3.0, sigma=5.0),
        math.pi / 2,
        phi0=random_admissible(mesh, math.pi / 2, 3),
    )
    assert trace.converged
    return tuple(lam.hex() for lam in trace.lambdas), inner


def test_warm_started_p3_optimize_repeats_its_recorded_iterates(disk_regression, monkeypatch):
    lambdas, inner = _warm_started_p3_optimize(disk_regression, monkeypatch)
    assert lambdas == OPTIMIZE_P3_LAMBDAS
    assert inner == OPTIMIZE_P3_INNER_ITERATIONS
    for lam, delaunay in zip(lambdas, DELAUNAY_OPTIMIZE_P3_LAMBDAS):
        assert float.fromhex(lam) == pytest.approx(
            float.fromhex(delaunay), rel=RETRIANGULATION_RTOL
        )


def test_warm_started_p3_optimize_on_the_delaunay_disk_repeats_its_records(
    delaunay_regression, monkeypatch
):
    lambdas, inner = _warm_started_p3_optimize(delaunay_regression, monkeypatch)
    assert lambdas == DELAUNAY_OPTIMIZE_P3_LAMBDAS
    assert inner == DELAUNAY_OPTIMIZE_P3_INNER_ITERATIONS
    for lam, euclidean in zip(lambdas, EUCLIDEAN_OPTIMIZE_P3_LAMBDAS):
        assert float.fromhex(lam) == pytest.approx(float.fromhex(euclidean), rel=1e-9)


# ------------------------------------------------- mesh-independent descent
#
# sigma = 2 and phi = 0.3 on generate_disk(h), as in the benchmark's
# nonlinear-p workload.

GATE_SIZES = (0.1, 0.07, 0.05)

# lambda of the Euclidean-step descent after all of its 10000 iterations at
# p = 1.2, where it did not converge.
EUCLIDEAN_P12_LAMBDA = {0.1: 1.0990335107452576, 0.07: 1.0993644621843688}

# lambda of the reweighted descent at p = 1.2 on generate_disk(0.07), as float hex.
P12_LAMBDA_H007 = "0x1.196c62f754603p+0"

DESCENT_DIAGNOSTICS = {"method", "stop", "metric_factorizations", "backtracks"}


@pytest.fixture(scope="module")
def gate_disks():
    return {h: generate_disk(h) for h in GATE_SIZES}


def _gate_solve(mesh, p, opts=None):
    phi = BoundaryDensity.constant(mesh, 0.3)
    return solve_nonlinear(mesh, phi, ProblemParams(p=p, sigma=2.0), opts=opts)


def _radial_error_ratio(coarse, fine, radial_lambda, p):
    exact = radial_lambda(p, 2.0 * 0.3)
    e_coarse, e_fine = (_gate_solve(mesh, p).lam - exact for mesh in (coarse, fine))
    return e_coarse / e_fine


@pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 8.0])
def test_descent_converges_at_order_two_to_the_radial_eigenvalue(gate_disks, radial_lambda, p):
    # Halving h divides the error against the radial eigenvalue by about 4.
    # The flag is not asserted: p = 1.2 stops unconverged at the rounding
    # floor of the gradient test, yet its eigenvalue keeps the order.
    ratio = _radial_error_ratio(gate_disks[0.1], gate_disks[0.05], radial_lambda, p)
    assert 3.5 <= ratio <= 4.5


@pytest.fixture(scope="module")
def finest_gate_disk():
    return generate_disk(0.025)


@pytest.mark.slow
@pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 8.0])
def test_descent_keeps_order_two_on_the_finest_disk(
    gate_disks, finest_gate_disk, radial_lambda, p
):
    ratio = _radial_error_ratio(gate_disks[0.05], finest_gate_disk, radial_lambda, p)
    assert 3.5 <= ratio <= 4.5


@pytest.mark.parametrize("p", [1.5, 1.8, 3.0])
def test_descent_iterations_do_not_grow_with_refinement(gate_disks, p):
    counts = []
    for h in GATE_SIZES:
        pair = _gate_solve(gate_disks[h], p)
        assert pair.converged
        assert pair.diagnostics["stop"] == "tolerance"
        assert pair.iterations <= 100
        counts.append(pair.iterations)
    assert max(counts) <= 2.5 * min(counts)


@pytest.mark.parametrize("h", sorted(EUCLIDEAN_P12_LAMBDA))
def test_p12_descent_stops_early_below_the_euclidean_value(gate_disks, h):
    pair = _gate_solve(gate_disks[h], 1.2)
    assert not pair.converged
    assert pair.converged == (pair.diagnostics["stop"] == "tolerance")
    assert pair.iterations <= 1000
    assert pair.diagnostics["stop"] in {"line_search", "stall"}
    assert pair.lam <= EUCLIDEAN_P12_LAMBDA[h]
    # the stop is a rounding floor, not a wrong gradient: the pair is an
    # eigenpair of the regularized energy to a small relative residual
    mesh, params = gate_disks[h], ProblemParams(p=1.2, sigma=2.0)
    grad_e = assembly.energy_gradient(mesh, pair.u, BoundaryDensity.constant(mesh, 0.3), params)
    residual = grad_e - pair.lam * assembly.boundary_power_gradient(mesh, pair.u, params.p)
    assert np.linalg.norm(residual) <= 1e-4 * np.linalg.norm(grad_e)


def test_p12_descent_never_takes_two_gradients_at_one_field(gate_disks, monkeypatch):
    # Near the rounding floor the line search halves the step until u - a z
    # rounds to u; that trial ends the search unaccepted, so every accepted
    # step moves u and no gradient is taken twice at the same field.
    fields, last = [], []
    evaluate, gradient = assembly.EnergyKernel.evaluate, assembly.EnergyKernel.gradient

    def recording_evaluate(self, vals):
        last[:] = [vals.copy()]
        return evaluate(self, vals)

    def recording_gradient(self, r=None):
        fields.append(last[0])
        return gradient(self, r)

    monkeypatch.setattr(assembly.EnergyKernel, "evaluate", recording_evaluate)
    monkeypatch.setattr(assembly.EnergyKernel, "gradient", recording_gradient)
    pair = _gate_solve(gate_disks[0.07], 1.2)
    assert pair.lam.hex() == P12_LAMBDA_H007
    assert not any(np.array_equal(a, b) for a, b in zip(fields, fields[1:]))
    assert pair.diagnostics["stop"] == "line_search"


def test_stalled_descent_stops_unconverged(disk_regression, monkeypatch):
    # A window of 20 steps in which any drop counts as a stall.
    monkeypatch.setattr(eigensolver, "_STALL_STEPS", 20)
    monkeypatch.setattr(eigensolver, "_STALL_DROP", 1.0)
    pair = _gate_solve(disk_regression, 1.2)
    assert (pair.diagnostics["stop"], pair.iterations, pair.converged) == ("stall", 20, False)
    assert pair.converged == (pair.diagnostics["stop"] == "tolerance")


def test_descent_diagnostics_have_a_fixed_key_set(disk_regression):
    mesh = disk_regression
    capped = _gate_solve(mesh, 3.0, opts=SolverOptions(max_iters=5))
    free = _gate_solve(mesh, 3.0)
    warm = solve_nonlinear(
        mesh, BoundaryDensity.constant(mesh, 0.6), ProblemParams(p=3.0, sigma=2.0), start=free.u
    )
    region = RegionSpec.from_intervals([(0.0, mesh.perimeter / 4.0)], mesh.perimeter)
    pinned = solve_dirichlet(mesh, region, ProblemParams(p=1.5))
    assert set(pinned.diagnostics) == DESCENT_DIAGNOSTICS | {"constrained_vertices"}
    assert (capped.iterations, capped.converged) == (5, False)
    for pair in (capped, free, warm):
        assert set(pair.diagnostics) == DESCENT_DIAGNOSTICS
    for pair, stop in (
        (capped, "max_iters"),
        (free, "tolerance"),
        (warm, "tolerance"),
        (pinned, "tolerance"),
    ):
        diagnostics = pair.diagnostics
        assert diagnostics["method"] == "reweighted_descent"
        assert diagnostics["stop"] == stop
        assert pair.converged == (stop == "tolerance")
        # one factorization at the start, one more every 10 accepted steps
        assert diagnostics["metric_factorizations"] == 1 + pair.iterations // 10


def test_descent_warm_started_at_its_own_result_takes_no_step(disk_regression):
    # the gradient test alone decides: a start that passes it is returned as is
    mesh = disk_regression
    free = _gate_solve(mesh, 3.0)
    phi = BoundaryDensity.constant(mesh, 0.3)
    warm = solve_nonlinear(mesh, phi, ProblemParams(p=3.0, sigma=2.0), start=free.u)
    assert (warm.iterations, warm.converged, warm.diagnostics["stop"]) == (0, True, "tolerance")
    assert warm.lam == free.lam


def test_descent_capped_at_its_own_step_count_converges(disk_regression):
    # the gradient test is checked before the step limit, also after the last step
    free = _gate_solve(disk_regression, 3.0)
    capped = _gate_solve(disk_regression, 3.0, opts=SolverOptions(max_iters=free.iterations))
    short = _gate_solve(disk_regression, 3.0, opts=SolverOptions(max_iters=free.iterations - 1))
    assert (capped.iterations, capped.converged, capped.diagnostics["stop"]) == (
        free.iterations,
        True,
        "tolerance",
    )
    assert capped.lam == free.lam
    assert (short.iterations, short.converged, short.diagnostics["stop"]) == (
        free.iterations - 1,
        False,
        "max_iters",
    )


@pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
def test_solver_options_reject_tolerances_that_are_not_finite_and_positive(tol):
    with pytest.raises(ValueError):
        SolverOptions(tol=tol)
