"""End-to-end acceptance checks for the whole toolkit.

Every test prints a single PASS/FAIL verdict line outside pytest's capture
(via ``capfd.disabled()``) so a full run reads as a checklist.  Tolerances
are the contract; they are asserted, never adjusted to fit a run.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from steklov import (
    BoundaryDensity,
    Field,
    ProblemParams,
    RegionSpec,
    SolverOptions,
    TangentField,
    arc_defect,
    bathtub,
    bathtub_objective,
    boundary_p_power,
    cap_indicator,
    energy,
    energy_gradient,
    generate_disk,
    generate_rectangle,
    optimize_potential,
    random_admissible,
    rasterize_region,
    shape_derivative_fd,
    solve_dirichlet,
    solve_linear,
    solve_nonlinear,
    support_region,
)


def _verdict(capfd, name, passed, detail, extra_lines=()):
    with capfd.disabled():
        print(flush=True)  # break out of pytest's in-progress status line
        for line in extra_lines:
            print(f"[acceptance]   {line}", flush=True)
        print(
            f"[acceptance] {name}: {'PASS' if passed else 'FAIL'} ({detail})",
            flush=True,
        )


def _midedge_half_boundary(mesh):
    P = mesh.perimeter
    ell = P / mesh.n_boundary_edges
    return RegionSpec.from_intervals([(ell / 2, (ell / 2 + P / 2) % P)], P)


# -------------------------------------------------------------------------


def test_disk_spectrum_converges_to_the_bessel_ratio(capfd, radial_lambda):
    bessel_quotient = radial_lambda(2.0, 0.0)  # I1(1)/I0(1)
    t0 = time.perf_counter()
    errs = []
    for h in (0.2, 0.1, 0.05):
        mesh = generate_disk(h)
        pair = solve_linear(mesh, BoundaryDensity.constant(mesh, 0.0), 0.0)
        assert pair.converged
        errs.append(abs(pair.lam - bessel_quotient))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    elapsed = time.perf_counter() - t0

    ok = errs[-1] <= 1e-3 and all(1.5 <= q <= 2.7 for q in orders) and elapsed < 10.0
    _verdict(
        capfd,
        "disk spectrum vs modified-Bessel ratio",
        ok,
        f"err(h=0.05)={errs[-1]:.2e}, orders={[round(q, 2) for q in orders]}, "
        f"{elapsed:.1f}s",
    )
    assert errs[-1] <= 1e-3
    assert all(1.5 <= q <= 2.7 for q in orders)
    assert elapsed < 10.0


def test_uniformly_filled_boundary_shifts_the_spectrum_exactly(
    capfd, square_tiny, rect_small, disk_coarse
):
    rng = np.random.default_rng(42)
    meshes = itertools.cycle([square_tiny, rect_small, disk_coarse])
    ps = itertools.cycle([1.5, 2.0, 2.5, 3.0])
    worst = 0.0
    for _ in range(10):
        mesh, p = next(meshes), next(ps)
        sigma = float(rng.uniform(0.5, 8.0))
        c = float(rng.uniform(0.1, 1.0))
        params = ProblemParams(p=p, sigma=sigma)
        opts = SolverOptions() if p == 2.0 else SolverOptions(tol=1e-7)
        phi0 = BoundaryDensity.constant(mesh, 0.0)
        phic = BoundaryDensity.constant(mesh, c)
        if p == 2.0:
            base = solve_linear(mesh, phi0, sigma, opts=opts)
            lifted = solve_linear(mesh, phic, sigma, opts=opts, start=base.u)
        else:
            base = solve_nonlinear(mesh, phi0, params, opts=opts)
            lifted = solve_nonlinear(mesh, phic, params, opts=opts, start=base.u)
        rel = abs((lifted.lam - base.lam) - sigma * c) / max(1.0, sigma * c)
        worst = max(worst, rel)
    ok = worst <= 1e-10
    _verdict(
        capfd,
        "constant potential shifts the eigenvalue by sigma*c",
        ok,
        f"worst relative identity error {worst:.2e} over 10 draws",
    )
    assert worst <= 1e-10


def test_greedy_fill_solves_the_boundary_lp(
    capfd, octagon_boundary_mesh, square_tiny, lp_vertices
):
    rng = np.random.default_rng(7)
    checked = 0
    worst = 0.0
    for mesh in (octagon_boundary_mesh, square_tiny):
        for frac in (0.3, 0.55):
            a = frac * mesh.perimeter
            for _ in range(3):
                values = rng.uniform(0.05, 2.0, mesh.n_vertices)
                phi, level = bathtub(mesh, values, a)
                obj = bathtub_objective(mesh, values, phi)
                best = min(
                    bathtub_objective(mesh, values, cand)
                    for cand in lp_vertices(mesh, a)
                )
                rel = abs(obj - best) / max(abs(best), 1e-300)
                worst = max(worst, rel)

                # sub-level structure of the greedy layout
                loop = mesh.boundary_loop
                w = 0.5 * (
                    np.abs(values[loop[:, 0]]) ** 2 + np.abs(values[loop[:, 1]]) ** 2
                )
                full = phi.edge_values == 1.0
                empty = phi.edge_values == 0.0
                assert (~full & ~empty).sum() <= 1
                assert np.all(w[full] <= level) and np.all(w[empty] >= level)
                assert phi.mass == pytest.approx(a, abs=1e-12 * mesh.perimeter)
                checked += 1
    ok = worst <= 1e-14
    _verdict(
        capfd,
        "greedy boundary fill equals the enumerated LP optimum",
        ok,
        f"worst relative objective gap {worst:.1e} over {checked} instances",
    )
    assert worst <= 1e-14


def test_alternating_minimization_never_increases_the_eigenvalue(capfd):
    meshes = {
        "disk": generate_disk(0.3),
        "wide-rectangle": generate_rectangle(2.0, 1.0, 0.4),
        "square": generate_rectangle(1.0, 1.0, 0.34),
    }
    configs = [
        (g, p, s, 0.3)
        for g in meshes
        for p in (1.5, 2.0, 3.0)
        for s in (1.0, 5.0, 20.0)
    ]
    configs += [("disk", 2.0, s, 0.6) for s in (1.0, 5.0, 20.0)]
    assert len(configs) >= 30

    worst_rise = 0.0
    worst_fix = 0.0
    for g, p, s, frac in configs:
        mesh = meshes[g]
        a = frac * mesh.perimeter
        params = ProblemParams(p=p, sigma=s)
        opts = SolverOptions() if p == 2.0 else SolverOptions(tol=1e-7)
        trace = optimize_potential(mesh, params, a, opts=opts)
        lams = trace.lambdas
        guard = 1e-10 if p == 2.0 else 1e-8
        for x, y in zip(lams, lams[1:]):
            worst_rise = max(worst_rise, (y - x) / abs(x))
            assert y <= x * (1 + guard)

        # re-derive the exchange step at the final density: it must return it
        final = trace.final_potential
        eig = (
            solve_linear(mesh, final, s)
            if p == 2.0
            else solve_nonlinear(mesh, final, params, opts)
        )
        refill, _ = bathtub(mesh, eig.u, a, p)
        diff = float(np.abs(refill.edge_values - final.edge_values).max())
        worst_fix = max(worst_fix, diff)
        assert diff <= 1e-9
    _verdict(
        capfd,
        "alternating minimization monotone with fixed-point finals",
        True,
        f"{len(configs)} runs, worst rise {worst_rise:.1e}, "
        f"worst refill drift {worst_fix:.1e}",
    )


def test_endpoint_derivative_agrees_with_finite_differences(capfd):
    t0 = time.perf_counter()
    params = ProblemParams(p=2.0, sigma=5.0)
    results = []
    table_lines = []
    for h, steps in ((0.03, (1e-2, 5e-3, 2.5e-3)), (0.015, (5e-3, 2.5e-3, 1.25e-3))):
        mesh = generate_disk(h)
        region = _midedge_half_boundary(mesh)
        tangent = TangentField.single_endpoint(region, arc=0, end=True, speed=1.0)
        rep = shape_derivative_fd(mesh, tangent, params, steps=steps)
        table_lines.append(
            f"h={h}: formula={rep.formula_value:.8f} "
            f"fd={rep.fd_value:.8f} rel={rep.relative_error:.2e}"
        )
        for t, diff in rep.fd_table:
            table_lines.append(f"  t={t:.2e}  central_difference={diff:.10f}")
        diffs = [row[1] for row in rep.fd_table]
        ratio = (diffs[0] - diffs[1]) / (diffs[1] - diffs[2])
        results.append((h, rep, ratio))
    elapsed = time.perf_counter() - t0

    ok = all(
        rep.relative_error <= 2e-2
        and rep.sign_consistent
        and not rep.vertex_crossings
        and 3.0 < ratio < 5.0
        for _, rep, ratio in results
    )
    improves = results[1][1].relative_error < results[0][1].relative_error
    _verdict(
        capfd,
        "endpoint movement derivative vs central differences",
        ok and improves and elapsed < 60.0,
        f"rel errors {[f'{r.relative_error:.2e}' for _, r, _ in results]}, "
        f"fd orders {[round(q, 2) for _, _, q in results]}, {elapsed:.1f}s",
        extra_lines=table_lines,
    )
    for _, rep, ratio in results:
        assert rep.relative_error <= 2e-2
        assert rep.sign_consistent and not rep.vertex_crossings
        assert 3.0 < ratio < 5.0
    assert improves
    assert elapsed < 60.0


def test_soft_potentials_stay_below_the_pinned_limit(capfd):
    mesh = generate_disk(0.08)
    a = math.pi / 2
    sigmas = (1.0, 10.0, 100.0, 1000.0)
    params = ProblemParams(p=2.0, sigma=1.0)
    traces = [
        optimize_potential(mesh, replace(params, sigma=s), a) for s in sigmas
    ]
    lams = [tr.final_lambda for tr in traces]

    region = support_region(mesh, traces[-1].final_potential)
    indicator = rasterize_region(mesh, region)
    # the pinned region dominates the optimizer's density edge by edge
    assert np.all(
        indicator.edge_values >= traces[-1].final_potential.edge_values - 1e-12
    )
    ref = solve_dirichlet(mesh, region, params)
    gaps = [ref.lam - lam for lam in lams]

    ok = (
        all(b >= x for x, b in zip(lams, lams[1:]))
        and all(lam <= ref.lam + 1e-8 for lam in lams)
        and gaps[-1] < gaps[1]
    )
    _verdict(
        capfd,
        "soft-coupling optima bounded by the pinned-boundary limit",
        ok,
        f"gaps {[f'{g:.4f}' for g in gaps]} against reference {ref.lam:.6f}",
    )
    assert all(b >= x for x, b in zip(lams, lams[1:]))
    assert all(lam <= ref.lam + 1e-8 for lam in lams)
    assert gaps[-1] < gaps[1]


# p = 2 runs at tol 1e-11; p != 2 at the default tol, because at tol 1e-9 the
# p = 1.5 descent stops at the rounding floor of its gradient test and
# optimize raises at outer iteration 0.  A residual-based stop should let
# these tighten.
@pytest.mark.parametrize("p, tol", [(2.0, 1e-11), (1.5, None), (3.0, None)])
def test_the_optimal_eigenvalues_sigma_derivative_is_its_boundary_term(capfd, p, tol):
    # Envelope theorem: at the optimum phi* of lambda(sigma, phi) over the
    # densities of one mass, d lambda*/d sigma is the coupling term of the
    # energy at phi* over the boundary p-power of the eigenfunction; the
    # oracle is a central difference of optimize in sigma, warm from phi*.
    mesh = generate_disk(0.05)
    a = math.pi / 2
    params = ProblemParams(p=p, sigma=5.0)
    opts = SolverOptions(tol=tol)
    trace = optimize_potential(mesh, params, a, opts=opts, phi0=cap_indicator(mesh, 0.0, a)[1])
    assert trace.converged
    phi = trace.final_potential
    if p == 2.0:
        u = solve_linear(mesh, phi, params.sigma, opts).u
    else:
        u = solve_nonlinear(mesh, phi, params, opts).u
    formula = bathtub_objective(mesh, u, phi, p) / boundary_p_power(mesh, u, p)
    step = 1e-3
    lam_up, lam_down = (
        optimize_potential(mesh, replace(params, sigma=params.sigma + d), a, opts, phi).final_lambda
        for d in (step, -step)
    )
    fd = (lam_up - lam_down) / (2.0 * step)
    gap = abs(formula - fd) / abs(fd)
    _verdict(
        capfd,
        f"d lambda*/d sigma is the boundary term at p = {p}",
        gap <= 1e-6,
        f"formula {formula:.10f}, central difference {fd:.10f}, relative gap {gap:.1e}",
    )
    assert gap <= 1e-6


def test_optimal_caps_ignore_mesh_orientation(capfd):
    mesh = generate_disk(0.03)
    a = math.pi / 2
    params = ProblemParams(p=2.0, sigma=5.0)
    lams, defects = [], []
    for seed in range(5):
        trace = optimize_potential(mesh, params, a, phi0=random_admissible(mesh, a, seed))
        assert trace.converged
        lams.append(trace.final_lambda)
        defects.append(arc_defect(mesh, trace.final_potential))
    spread = (max(lams) - min(lams)) / abs(np.mean(lams))
    budget = 2.0 * mesh.max_boundary_edge_length

    ok = spread <= 1e-6 and all(d <= budget for d in defects)
    _verdict(
        capfd,
        "random multistarts land on one rotated cap",
        ok,
        f"relative eigenvalue spread {spread:.2e}, max arc defect "
        f"{max(defects):.2e} (budget {budget:.2e})",
    )
    assert spread <= 1e-6
    assert all(d <= budget for d in defects)


def test_oscillating_densities_blend_to_their_average(capfd):
    mesh = generate_disk(0.05)
    P = mesh.perimeter
    a = math.pi / 2
    lam_const = solve_linear(mesh, BoundaryDensity.constant(mesh, a / P), 5.0).lam
    diffs = []
    for j in range(2, 7):
        n = 2**j
        seg = P / n
        arc_len = a / n
        region = RegionSpec.from_intervals(
            [(k * seg, k * seg + arc_len) for k in range(n)], P
        )
        lam = solve_linear(mesh, rasterize_region(mesh, region), 5.0).lam
        diffs.append(abs(lam - lam_const))

    strictly_shrinking = all(b < 0.85 * x for x, b in zip(diffs, diffs[1:]))
    ok = strictly_shrinking and diffs[-1] <= 1e-3
    _verdict(
        capfd,
        "finely alternating densities approach the uniform eigenvalue",
        ok,
        f"|difference| per doubling {[f'{d:.2e}' for d in diffs]}",
    )
    assert strictly_shrinking
    assert diffs[-1] <= 1e-3


def test_independent_solvers_agree_at_the_quadratic_exponent(
    capfd, square_tiny, rect_small, disk_coarse, disk_fine
):
    rng = np.random.default_rng(5)
    configs = [
        (disk_coarse, 4.0),
        (rect_small, 1.0),
        (square_tiny, 7.0),
        (disk_fine, 2.5),
        (rect_small, 20.0),
    ]
    worst = 0.0
    for mesh, sigma in configs:
        phi = BoundaryDensity.of(mesh, rng.uniform(0.0, 1.0, mesh.n_boundary_edges))
        direct = solve_linear(mesh, phi, sigma)
        descent = solve_nonlinear(
            mesh, phi, ProblemParams(p=2.0, sigma=sigma), opts=SolverOptions(tol=1e-9)
        )
        worst = max(worst, abs(descent.lam - direct.lam) / abs(direct.lam))
    cross_ok = worst <= 1e-6

    # independent slope check for the descent direction on a non-quadratic
    # exponent: compare the assembled gradient to difference quotients
    grad_ok = True
    grad_worst = {1e-4: 0.0, 1e-5: 0.0}
    for p in (1.5, 2.5):
        params = ProblemParams(p=p, sigma=3.0)
        phi = BoundaryDensity.of(
            square_tiny, rng.uniform(0.0, 1.0, square_tiny.n_boundary_edges)
        )
        u = rng.uniform(0.5, 1.5, square_tiny.n_vertices)
        g = energy_gradient(square_tiny, u, phi, params)
        direction = rng.uniform(-1.0, 1.0, square_tiny.n_vertices)
        for t in (1e-4, 1e-5):
            plus = energy(square_tiny, u + t * direction, phi, params)
            minus = energy(square_tiny, u - t * direction, phi, params)
            fd = (plus - minus) / (2 * t)
            err = abs(fd - float(g @ direction)) / max(1.0, abs(fd))
            grad_worst[t] = max(grad_worst[t], err)
    grad_ok = grad_worst[1e-4] <= 1e-6 and grad_worst[1e-5] <= 1e-7

    _verdict(
        capfd,
        "descent route cross-validates the linear eigensolver",
        cross_ok and grad_ok,
        f"worst eigenvalue disagreement {worst:.2e}; gradient vs difference "
        f"quotients {grad_worst[1e-4]:.1e} @1e-4, {grad_worst[1e-5]:.1e} @1e-5",
    )
    assert cross_ok
    assert grad_ok
