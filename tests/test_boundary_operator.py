"""The cached boundary operator against the plain p = 2 path.

Each mesh is generated inside its test, so no other test can have built an
operator for it: the first solve runs the plain path, and the same solve
after ``boundary_operator(mesh)`` runs the reduced one.
"""

import json
import math
import sys
import threading
import types

import numpy as np
import pytest
import scipy.linalg as sla

from steklov import (
    BoundaryDensity,
    Mesh,
    ProblemParams,
    RegionSpec,
    SolverOptions,
    assemble_linear,
    boundary_operator,
    generate_disk,
    generate_rectangle,
    optimize_potential,
    random_admissible,
    solve_dirichlet,
    solve_linear,
)
from steklov import assembly, eigensolver, rearrange
from steklov.cli import main


def l_shape():
    """File-kind L-shaped mesh: the unit square minus its upper-right quarter."""
    square = generate_rectangle(1.0, 1.0, 0.1)
    centroids = square.vertices[square.triangles].mean(axis=1)
    keep = square.triangles[~((centroids[:, 0] > 0.5) & (centroids[:, 1] > 0.5))]
    used, triangles = np.unique(keep, return_inverse=True)
    return Mesh(square.vertices[used], triangles.reshape(-1, 3))


MESHES = {
    "disk": lambda: generate_disk(0.1),
    "rectangle": lambda: generate_rectangle(2.0, 1.0, 0.15),
    "coarse-disk": lambda: generate_disk(0.524),  # the octagon_boundary_mesh fixture
    "l-shape-file": l_shape,
}
OPTIONS = [SolverOptions(), SolverOptions(max_iters=1)]


def assert_same_pair(plain, reduced):
    assert plain.diagnostics["boundary_operator"] is False
    assert reduced.diagnostics["boundary_operator"] is True
    assert reduced.lam == pytest.approx(plain.lam, rel=1e-12)
    assert reduced.iterations == plain.iterations
    assert reduced.converged == plain.converged
    np.testing.assert_allclose(reduced.u.values, plain.u.values, rtol=0, atol=1e-10)
    assert reduced.residual == pytest.approx(plain.residual, rel=1e-3)


@pytest.mark.parametrize("opts", OPTIONS, ids=["default", "one-step"])
@pytest.mark.parametrize("name", sorted(MESHES))
def test_reduced_path_repeats_the_plain_iteration(name, opts):
    mesh = MESHES[name]()
    mass = 0.3 * mesh.perimeter
    phi_a = random_admissible(mesh, mass, seed=1)
    phi_b = random_admissible(mesh, mass, seed=2)
    region = RegionSpec.from_intervals([(0.1, 0.1 + mass)], mesh.perimeter)

    def solves():
        cold = solve_linear(mesh, phi_a, ProblemParams(sigma=5.0), opts)
        warm = solve_linear(mesh, phi_b, ProblemParams(sigma=5.0), opts, start=cold.u)
        pinned = solve_dirichlet(mesh, region, ProblemParams(), opts)
        return cold, warm, pinned

    plain = solves()
    assert boundary_operator(mesh) is not None
    for p, r in zip(plain, solves()):
        assert_same_pair(p, r)


def schur_complement(mesh, density, sigma):
    """Dense elimination of the interior of A: the boundary Schur complement S."""
    b = mesh.boundary_vertices
    i = np.flatnonzero(~mesh.is_boundary_vertex)
    A = assemble_linear(mesh, density, sigma)[0].toarray()
    return A[np.ix_(b, b)] - A[np.ix_(b, i)] @ np.linalg.solve(A[np.ix_(i, i)], A[np.ix_(i, b)])


@pytest.mark.parametrize(
    "make",
    [lambda: generate_disk(0.3), lambda: generate_rectangle(2.0, 1.0, 0.4)],
    ids=["disk", "rectangle"],
)
def test_both_routes_match_the_dense_boundary_eigenproblem(make):
    # Exact oracle: eliminate the interior of A densely and solve the
    # generalized boundary problem S x = lam diag(mb_b) x on the unpinned
    # boundary positions with LAPACK.
    mesh = make()
    P = mesh.perimeter
    mb = assembly.geometry(mesh).boundary_weights[mesh.boundary_vertices]
    phi = random_admissible(mesh, 0.3 * P, seed=4)
    zero = BoundaryDensity.constant(mesh, 0.0)
    region = RegionSpec.from_intervals([(0.1, 0.1 + 0.3 * P)], P)
    unpinned = ~region.contains_array(mesh.cum_arclength, closed=True)

    def smallest(density, sigma, f):
        S = schur_complement(mesh, density, sigma)
        return sla.eigh(S[np.ix_(f, f)], np.diag(mb[f]), eigvals_only=True)[0]

    expected_free = smallest(phi, 5.0, np.ones(len(mb), dtype=bool))
    expected_pinned = smallest(zero, 0.0, unpinned)
    for reduced in (False, True):
        if reduced:
            assert boundary_operator(mesh) is not None
        free = solve_linear(mesh, phi, ProblemParams(sigma=5.0))
        pinned = solve_dirichlet(mesh, region, ProblemParams())
        assert pinned.diagnostics["constrained_vertices"] == int((~unpinned).sum()) > 0
        for pair, expected in ((free, expected_free), (pinned, expected_pinned)):
            assert pair.diagnostics["boundary_operator"] is reduced
            assert pair.converged
            assert pair.lam == pytest.approx(expected, rel=1e-8)


def test_random_density_eigenvalue_is_within_its_residual_bound_of_the_dense_one():
    # sigma = 4 and the second draw of default_rng(1234) on generate_disk(0.3):
    # the lambda-change stop that the Krylov-Ritz driver replaced reported
    # this pair converged 1.74e-9 relative above the exact discrete eigenvalue.
    mesh = generate_disk(0.3)
    rng = np.random.default_rng(1234)
    rng.uniform(0, 1, 8)  # the first draw, for the 8 edges of the tiny square
    phi = BoundaryDensity.of(mesh, rng.uniform(0, 1, mesh.n_boundary_edges))
    S = schur_complement(mesh, phi, 4.0)
    mb = assembly.geometry(mesh).boundary_weights[mesh.boundary_vertices]
    exact = sla.eigh(S, np.diag(mb), eigvals_only=True)
    for reduced in (False, True):
        if reduced:
            assert boundary_operator(mesh) is not None
        pair = solve_linear(mesh, phi, ProblemParams(sigma=4.0))
        assert pair.diagnostics["boundary_operator"] is reduced
        assert pair.converged
        assert pair.residual <= 1e-9
        # Kato-Temple for the pencil (S, diag(mb)): with x of unit mb-norm and
        # r = S x - lam mb x, lam - lam_1 <= |r|^2_{mb^-1} / (lam_2 - lam), and
        # |r|_{mb^-1} <= |r| / sqrt(min mb).  The floor covers the rounding
        # of LAPACK's eigenvalue.
        x = pair.u.values[mesh.boundary_vertices]
        r = pair.residual * np.linalg.norm(S @ x)
        bound = r**2 / (mb.min() * (exact[1] - pair.lam))
        assert exact[0] * (1 - 1e-14) <= pair.lam <= exact[0] + bound + 1e-13 * exact[0]


def test_dirichlet_solve_without_pins_is_the_free_linear_solve():
    # Both are callers of one p = 2 core; with nothing pinned they must run
    # the same arithmetic on either route.
    mesh = generate_disk(0.1)
    empty = RegionSpec(arcs=(), perimeter=mesh.perimeter)
    zero = BoundaryDensity.constant(mesh, 0.0)
    for reduced in (False, True):
        if reduced:
            assert boundary_operator(mesh) is not None
        pinned = solve_dirichlet(mesh, empty, ProblemParams(sigma=3.0))
        free = solve_linear(mesh, zero, ProblemParams())
        assert pinned.diagnostics["boundary_operator"] is reduced
        assert free.diagnostics["boundary_operator"] is reduced
        assert pinned.diagnostics["constrained_vertices"] == 0
        assert (pinned.lam, pinned.iterations, pinned.residual) == (
            free.lam,
            free.iterations,
            free.residual,
        )
        assert np.array_equal(pinned.u.values, free.u.values)


def test_optimize_takes_the_same_steps_on_both_paths(monkeypatch):
    params = ProblemParams(p=2.0, sigma=5.0)

    def run():
        mesh = generate_disk(0.1)
        return optimize_potential(
            mesh, params, math.pi / 2, phi0=random_admissible(mesh, math.pi / 2, 0)
        )

    with monkeypatch.context() as m:
        m.setattr(rearrange, "prepare_repeated_solves", lambda mesh, params: None)
        plain = run()
    reduced = run()

    assert reduced.outer_iterations == plain.outer_iterations > 1
    np.testing.assert_allclose(reduced.lambdas, plain.lambdas, rtol=1e-12)
    for trace in (plain, reduced):
        assert all(b <= a for a, b in zip(trace.lambdas, trace.lambdas[1:]))


def _stack_walk_dissection(mesh, vertices):
    """Nested dissection of ``vertices`` ordered by a post-order walk of the part heap.

    Every triangle side is an edge here, in both directions for an inner one.
    """
    m = len(vertices)
    xy = mesh.vertices[vertices]
    local = np.full(mesh.n_vertices, -1)
    local[vertices] = np.arange(m)
    t = mesh.triangles
    edges = local[np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])]
    a, b = edges[(edges >= 0).all(axis=1)].T
    part = np.ones(m, dtype=np.int64)
    unplaced = np.ones(m, dtype=bool)
    while True:
        sizes = np.bincount(part[unplaced], minlength=part.max() + 1)
        cut = unplaced & (sizes[part] > eigensolver._DISSECTION_LEAF)
        sel = np.flatnonzero(cut)
        if sel.size == 0:
            break
        k = part[sel]
        lo = np.full((k.max() + 1, 2), np.inf)
        hi = -lo
        np.minimum.at(lo, k, xy[sel])
        np.maximum.at(hi, k, xy[sel])
        coord = xy[sel, np.argmax(hi - lo, axis=1)[k]]
        order = np.lexsort((coord, k))
        rank = np.empty(sel.size, dtype=np.int64)
        rank[order] = np.arange(sel.size) - np.searchsorted(k[order], k[order])
        part[sel] = 2 * k + (rank >= sizes[k] // 2)
        crossing = cut[a] & cut[b] & (part[a] != part[b]) & (part[a] // 2 == part[b] // 2)
        upper = np.where(part[a] % 2 == 1, a, b)[crossing]
        separator = np.unique(upper)
        part[separator] //= 2
        unplaced[separator] = False

    top = int(part.max())
    post = np.empty(top + 1, dtype=np.int64)
    count = 0
    stack = [(1, False)]
    while stack:
        k, halves_done = stack.pop()
        if k > top:
            continue
        if halves_done:
            post[k] = count
            count += 1
        else:
            stack += [(k, True), (2 * k + 1, False), (2 * k, False)]
    return vertices[np.argsort(post[part], kind="stable")]


DISSECTED = {
    **{f"disk-{h}": (generate_disk, h) for h in (0.524, 0.3, 0.1, 0.05, 0.025, 0.0125)},
    "square-0.34": (generate_rectangle, 1.0, 1.0, 0.34),
    "rectangle-0.15": (generate_rectangle, 2.0, 1.0, 0.15),
    "square-0.02": (generate_rectangle, 1.0, 1.0, 0.02),
    "l-shape-file": (l_shape,),
}


@pytest.mark.parametrize("name", list(DISSECTED))
def test_keyed_dissection_order_is_the_stack_walk(name):
    make, *args = DISSECTED[name]
    mesh = make(*args)
    for vertices in (np.flatnonzero(~mesh.is_boundary_vertex), np.arange(mesh.n_vertices)):
        order = eigensolver._nested_dissection(mesh, vertices)
        assert np.array_equal(order, _stack_walk_dissection(mesh, vertices))


def _triangle_and_loop_edges(mesh, vertices):
    """The dissection's graph as it was derived before ``Mesh.edges``: the
    triangles' ascending sides and the descending boundary-loop edges, in
    positions of ``vertices``."""
    local = np.full(mesh.n_vertices, -1, dtype=np.int32)
    local[vertices] = np.arange(len(vertices), dtype=np.int32)
    t = mesh.triangles
    src, dst = local[t.ravel()], local[np.roll(t, -1, axis=1).ravel()]
    b_src, b_dst = local[mesh.boundary_loop.T]
    ascending = (src >= 0) & (src < dst)
    descending = (b_dst >= 0) & (b_dst < b_src)
    a = np.concatenate([src[ascending], b_dst[descending]])
    b = np.concatenate([dst[ascending], b_src[descending]])
    return a, b


@pytest.mark.parametrize("name", list(DISSECTED))
def test_dissection_on_mesh_edges_is_the_dissection_on_the_derived_edges(name):
    make, *args = DISSECTED[name]
    mesh = make(*args)
    rng = np.random.default_rng(5)
    n = mesh.n_vertices
    for vertices in (
        np.flatnonzero(~mesh.is_boundary_vertex),
        np.arange(n),
        rng.permutation(n)[: n // 2],
    ):
        a, b = _triangle_and_loop_edges(mesh, vertices)
        derived = np.sort(np.column_stack((vertices[a], vertices[b])), axis=1)
        derived = derived[np.lexsort(derived.T[::-1])]
        between = mesh.edges[np.isin(mesh.edges, vertices).all(axis=1)]
        assert np.array_equal(derived, between)
        # the old list's order and orientation leave the order bitwise alone
        old = types.SimpleNamespace(
            vertices=mesh.vertices,
            n_vertices=n,
            edges=np.column_stack((vertices[a], vertices[b])),
        )
        order = eigensolver._nested_dissection(mesh, vertices)
        assert np.array_equal(order, eigensolver._nested_dissection(old, vertices))


def test_mesh_without_interior_vertices_keeps_the_plain_path():
    square = Mesh([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], [[0, 1, 2], [0, 2, 3]])
    assert boundary_operator(square) is None
    trace = optimize_potential(square, ProblemParams(p=2.0, sigma=5.0), 1.0)
    assert trace.converged


def test_a_factor_that_moved_the_boundary_block_leaves_no_operator(monkeypatch):
    # S0 is read off the trailing block of the factor, so a factor whose
    # row permutation moved that block gives no operator, and solves take
    # the plain path
    mesh = generate_disk(0.3)
    density = BoundaryDensity.constant(mesh, 0.5)
    plain = solve_linear(mesh, density, ProblemParams(sigma=2.0))
    factor = eigensolver._splu

    def moved(A, dense=0, **options):
        lu = factor(A, dense, **options)
        return types.SimpleNamespace(perm_r=lu.perm_r[::-1], perm_c=lu.perm_c)

    with monkeypatch.context() as m:
        m.setattr(eigensolver, "_splu", moved)
        assert boundary_operator(mesh) is None
    pair = solve_linear(mesh, density, ProblemParams(sigma=2.0))
    assert pair.diagnostics["boundary_operator"] is False
    assert pair.lam == plain.lam


@pytest.fixture
def count_builds(monkeypatch):
    built = []
    build = eigensolver._build_boundary_operator

    def counting(mesh):
        built.append(mesh)
        return build(mesh)

    monkeypatch.setattr(eigensolver, "_build_boundary_operator", counting)
    return built


def test_concurrent_requests_build_once(count_builds):
    mesh = generate_disk(0.1)
    results = []
    threads = [
        threading.Thread(target=lambda: results.append(boundary_operator(mesh)))
        for _ in range(8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8
    assert all(op is results[0] for op in results)
    assert count_builds == [mesh]


def test_parallel_sweep_matches_serial_sweep(tmp_path, count_builds):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "version": 1,
                "geometry": {"type": "disk", "h": 0.1},
                "params": {"p": 2.0, "sigma": 1.0},
                "mass": math.pi / 2,
                "sigma_list": [1.0, 5.0, 25.0, 125.0],
            }
        ),
        encoding="utf-8",
    )
    sweeps = {}
    for jobs in ("1", "3"):
        out = tmp_path / f"jobs{jobs}"
        argv = ["sigma-sweep", "--config", str(config), "--out", str(out), "--jobs", jobs]
        assert main(argv) == 0
        sweeps[jobs] = (out / "sweep.csv").read_text(encoding="utf-8")
    assert sweeps["3"] == sweeps["1"]
    assert len(count_builds) == 2  # each CLI run builds its own mesh, once
    assert count_builds[0] is not count_builds[1]

