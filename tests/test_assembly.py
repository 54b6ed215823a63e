import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov import (
    BoundaryDensity,
    Field,
    Mesh,
    ProblemParams,
    assemble_linear,
    boundary_p_norm,
    boundary_p_power,
    energy,
    energy_gradient,
    generate_disk,
    generate_rectangle,
    solve_linear,
)
from steklov import eigensolver
from steklov.assembly import (
    EnergyKernel,
    WeightedStiffness,
    boundary_power_gradient,
    density_weights,
    geometry,
)
from test_boundary_operator import l_shape


def _random_field(mesh, rng, lo=-1.0, hi=1.0):
    return Field.of(mesh, rng.uniform(lo, hi, mesh.n_vertices))


def _random_density(mesh, rng):
    return BoundaryDensity.of(mesh, rng.uniform(0.0, 1.0, mesh.n_boundary_edges))


# ------------------------------------------------------------- parameters


def test_params_validation():
    with pytest.raises(ValueError):
        ProblemParams(p=1.0)
    with pytest.raises(ValueError):
        ProblemParams(p=2.0, sigma=-1.0)
    assert ProblemParams(p=1.5).eps == 1e-8
    assert ProblemParams(p=2.0).eps == 0.0
    assert ProblemParams(p=3.0, eps_reg=1e-5).eps == 1e-5


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"p": math.inf}, "p"),
        ({"p": math.nan}, "p"),
        ({"sigma": math.inf}, "sigma"),
        ({"sigma": math.nan}, "sigma"),
        ({"eps_reg": math.inf}, "eps_reg"),
        ({"eps_reg": math.nan}, "eps_reg"),
    ],
    ids=["p-inf", "p-nan", "sigma-inf", "sigma-nan", "eps_reg-inf", "eps_reg-nan"],
)
def test_params_must_be_finite(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        ProblemParams(**kwargs)


def test_field_validation(square_tiny):
    with pytest.raises(ValueError):
        Field.of(square_tiny, np.zeros(square_tiny.n_vertices + 1))
    bad = np.zeros(square_tiny.n_vertices)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        Field.of(square_tiny, bad)


def test_density_validation(square_tiny):
    with pytest.raises(ValueError):
        BoundaryDensity.of(square_tiny, np.full(square_tiny.n_boundary_edges, 1.5))
    phi = BoundaryDensity.constant(square_tiny, 0.25)
    assert phi.mass == pytest.approx(0.25 * square_tiny.perimeter, rel=1e-14)


def test_raw_arrays_of_the_wrong_size_are_rejected(square_tiny):
    # a density must be a BoundaryDensity; energy also takes a plain field
    # array, which it checks with Field.of's length message
    mesh = square_tiny
    with pytest.raises(TypeError, match="^phi must be a BoundaryDensity, got ndarray$"):
        density_weights(mesh, np.zeros(mesh.n_boundary_edges + 1))
    phi = BoundaryDensity.constant(mesh, 0.5)
    message = f"^field has \\(1, {mesh.n_vertices}\\) values, mesh has {mesh.n_vertices} vertices$"
    with pytest.raises(ValueError, match=message):
        energy(mesh, np.ones((1, mesh.n_vertices)), phi, ProblemParams())


def test_freezing_copies_leave_the_callers_arrays_writeable(square_tiny):
    # Field, BoundaryDensity and Mesh freeze copies of what they are given
    values = np.ones(square_tiny.n_vertices)
    edges = np.full(square_tiny.n_boundary_edges, 0.5)
    vertices = np.array(square_tiny.vertices)
    field = Field.of(square_tiny, values)
    phi = BoundaryDensity.of(square_tiny, edges)
    mesh = Mesh(vertices, square_tiny.triangles)
    for own, frozen in (
        (values, field.values),
        (edges, phi.edge_values),
        (vertices, mesh.vertices),
    ):
        assert own.flags.writeable and not frozen.flags.writeable
        assert not np.shares_memory(own, frozen)
        assert np.array_equal(own, frozen)


def test_density_json_round_trip(square_tiny, rng, tmp_path, run_cli):
    # a {"edge_values": [...]} file is read back bitwise by the CLI's file potential
    phi = _random_density(square_tiny, rng)
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({"edge_values": phi.edge_values.tolist()}))
    code, out = run_cli(
        "solve",
        geometry={"type": "rectangle", "width": 1.0, "height": 1.0, "target_h": 0.34},
        params={"p": 2.0, "sigma": 2.0},
        potential={"type": "file", "path": str(path)},
    )
    assert code == 0
    record = json.loads((out / "eigenpair.json").read_text())
    pair = solve_linear(square_tiny, phi, 2.0)
    assert (record["lambda"], record["u"]) == (pair.lam, pair.u.values.tolist())

# -------------------------------------------------------------- gradients


def test_linear_field_has_exact_constant_gradient(square_tiny):
    x, y = square_tiny.vertices.T
    u = Field.of(square_tiny, 3.0 * x - 2.0 * y + 0.5)
    gx, gy = EnergyKernel(square_tiny, None, ProblemParams()).element_gradients(u.values)
    assert np.max(np.abs(gx - 3.0)) <= 1e-13
    assert np.max(np.abs(gy + 2.0)) <= 1e-13


def test_geometry_cache_is_per_mesh(square_tiny):
    assert geometry(square_tiny) is geometry(square_tiny)


# ---------------------------------------------------------------- energy


def test_energy_matches_quadratic_form_at_p2(square_tiny, rng):
    params = ProblemParams(p=2.0, sigma=3.0)
    phi = _random_density(square_tiny, rng)
    A, _ = assemble_linear(square_tiny, phi, params.sigma)
    for _ in range(5):
        u = _random_field(square_tiny, rng)
        quad = float(u.values @ (A @ u.values))
        assert energy(square_tiny, u, phi, params) == pytest.approx(quad, rel=1e-13)


def test_matrix_is_bitwise_symmetric(disk_coarse, rng):
    phi = _random_density(disk_coarse, rng)
    A, _ = assemble_linear(disk_coarse, phi, 2.5)
    assert (A - A.T).nnz == 0


def test_boundary_mass_matrix(square_tiny):
    _, Mb = assemble_linear(square_tiny, BoundaryDensity.constant(square_tiny, 0.0), 0.0)
    diag = Mb.diagonal()
    on_boundary = square_tiny.is_boundary_vertex
    assert np.all(diag[on_boundary] > 0)
    assert np.all(diag[~on_boundary] == 0)
    # trapezoid weights tile the boundary
    assert diag.sum() == pytest.approx(square_tiny.perimeter, rel=1e-14)


def test_assembly_matches_plain_loop_reference(square_tiny, rng):
    # same operator, assembled the slow and obvious way
    mesh = square_tiny
    phi = _random_density(mesh, rng)
    sigma = 1.75
    n = mesh.n_vertices
    ref = np.zeros((n, n))
    for tri in mesh.triangles:
        pts = mesh.vertices[tri]
        mat = np.ones((3, 3))
        mat[:, 1:] = pts
        area = 0.5 * abs(np.linalg.det(mat))
        grads = np.linalg.inv(mat)[1:, :]  # rows: d/dx, d/dy of the 3 hats
        ref[np.ix_(tri, tri)] += area * (grads.T @ grads)
        for v in tri:
            ref[v, v] += area / 3.0
    loop = mesh.boundary_vertices
    for k in range(mesh.n_boundary_edges):
        i, j = loop[k], loop[(k + 1) % len(loop)]
        w = sigma * phi.edge_values[k] * mesh.edge_lengths[k] / 2.0
        ref[i, i] += w
        ref[j, j] += w
    A, _ = assemble_linear(mesh, phi, sigma)
    assert np.max(np.abs(A.toarray() - ref)) <= 1e-13 * max(1.0, np.abs(ref).max())


def test_weighted_stiffness_matches_plain_loop_reference(rect_small, rng):
    # sum_T w_T K_T + diag(d) on a vertex subset, the slow and obvious way
    mesh = rect_small
    weights = rng.uniform(0.1, 10.0, len(mesh.triangles))
    keep = np.flatnonzero(rng.uniform(size=mesh.n_vertices) < 0.7)
    diagonal = rng.uniform(0.0, 1.0, mesh.n_vertices)
    ref = np.zeros((mesh.n_vertices, mesh.n_vertices))
    for tri, w in zip(mesh.triangles, weights):
        mat = np.ones((3, 3))
        mat[:, 1:] = mesh.vertices[tri]
        area = 0.5 * abs(np.linalg.det(mat))
        grads = np.linalg.inv(mat)[1:, :]
        ref[np.ix_(tri, tri)] += w * area * (grads.T @ grads)
    ref = ref[np.ix_(keep, keep)] + np.diag(diagonal[keep])
    M = WeightedStiffness(mesh).matrix(weights, diagonal)[keep][:, keep]
    assert M.shape == ref.shape
    assert np.max(np.abs(M.toarray() - ref)) <= 1e-13 * np.abs(ref).max()
    assert (M - M.T).nnz == 0


def _same_arrays(a, b):
    """Equal compressed arrays: index values, and data bit for bit."""
    return (
        np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and a.data.tobytes() == b.data.tobytes()
    )


def _unknown_orders(mesh, rng):
    """Random orders of all vertices and of random unpinned sets, plus the
    orders the solvers assemble on."""
    n = mesh.n_vertices
    pinned = rng.uniform(size=n) < 0.3
    pinned_boundary = mesh.is_boundary_vertex & (rng.uniform(size=n) < 0.5)
    interior = np.flatnonzero(~mesh.is_boundary_vertex)
    return [
        rng.permutation(n),
        rng.permutation(np.flatnonzero(~pinned)),
        np.flatnonzero(~pinned_boundary),
        eigensolver._nested_dissection(mesh, np.flatnonzero(~pinned_boundary)),
        np.concatenate([eigensolver._nested_dissection(mesh, interior), mesh.boundary_vertices]),
    ]


ASSEMBLED = {
    "disk": lambda: generate_disk(0.3),
    "unit-square": lambda: generate_rectangle(1.0, 1.0, 0.34),
    "l-shape-file": l_shape,
}


@pytest.mark.parametrize("name", list(ASSEMBLED))
def test_matrices_on_unknowns_are_the_indexed_full_matrices_bitwise(name, rng):
    # Built on its unknowns, each matrix equals the full matrix indexed by
    # them, with sorted rows; its CSC view is what SuperLU received from the
    # converted index of the full matrix.
    mesh = ASSEMBLED[name]()
    phi = _random_density(mesh, rng)
    weights = rng.uniform(0.1, 10.0, len(mesh.triangles))
    diagonal = rng.uniform(0.0, 1.0, mesh.n_vertices)
    full_A, full_Mb = assemble_linear(mesh, phi, 2.5)
    full_M = WeightedStiffness(mesh).matrix(weights, diagonal)
    if name == "unit-square":
        # the stiffness has exact zeros: kept in M, dropped from A
        assert (full_M.data == 0.0).any() and (full_A.data != 0.0).all()
    for unknowns in _unknown_orders(mesh, rng):
        A, Mb = assemble_linear(mesh, phi, 2.5, unknowns)
        M = WeightedStiffness(mesh, unknowns).matrix(weights, diagonal)
        for got, full in ((A, full_A), (Mb, full_Mb), (M, full_M)):
            indexed = full[unknowns][:, unknowns]
            assert got.format == "csr" and got.shape == indexed.shape
            assert _same_arrays(got, indexed.sorted_indices())
            assert _same_arrays(got.T, indexed.tocsc())


# p alone resolves eps_reg to its default; the gradient and the value share
# one element term, so the gradient is exact for every given eps_reg too.
GRADIENT_CASES = [(p, None) for p in (1.5, 2.0, 2.5, 3.0)] + [
    (p, eps) for eps in (0.1, 1e-3) for p in (1.2, 1.5, 3.0)
]


@pytest.mark.parametrize(
    ("p", "eps_reg"),
    GRADIENT_CASES,
    ids=[str(p) if eps is None else f"{p}-eps{eps}" for p, eps in GRADIENT_CASES],
)
def test_energy_gradient_matches_central_differences(square_tiny, rng, p, eps_reg):
    params = ProblemParams(p=p, sigma=2.0, eps_reg=eps_reg)
    phi = _random_density(square_tiny, rng)
    u = _random_field(square_tiny, rng, lo=0.2, hi=1.0)
    g = energy_gradient(square_tiny, u, phi, params)
    direction = rng.uniform(-1.0, 1.0, square_tiny.n_vertices)
    analytic = float(g @ direction)
    errs = {}
    for t in (1e-4, 1e-5):
        up = Field.of(square_tiny, u.values + t * direction)
        dn = Field.of(square_tiny, u.values - t * direction)
        fd = (energy(square_tiny, up, phi, params) - energy(square_tiny, dn, phi, params)) / (
            2.0 * t
        )
        errs[t] = abs(fd - analytic) / abs(analytic)
    assert errs[1e-4] <= 1e-5
    assert errs[1e-5] <= 1e-7


# ------------------------------------------- element-wise reference forms
#
# The energy and its gradient element by element, transcribed from the
# module docstring: an einsum per contraction and one np.add.at scatter per
# pass.  The kernel must reproduce them bitwise, so that no descent iterate
# moves.


def _reference_density_weights(mesh, phi):
    loop = mesh.boundary_loop
    half = 0.5 * phi.edge_values * mesh.edge_lengths
    bw = np.zeros(mesh.n_vertices)
    np.add.at(bw, loop[:, 0], half)
    np.add.at(bw, loop[:, 1], half)
    return bw


def _reference_lumped_mass(mesh):
    lumped = np.zeros(mesh.n_vertices)
    np.add.at(lumped, mesh.triangles.ravel(), np.repeat(geometry(mesh).areas / 3.0, 3))
    return lumped


def _reference_element_gradients(mesh, vals):
    return np.einsum("ti,tid->td", vals[mesh.triangles], geometry(mesh).basis_grads)


def _reference_energy(mesh, vals, phi, params):
    p = params.p
    eps = params.eps
    g = geometry(mesh)
    grads = _reference_element_gradients(mesh, vals)
    s = grads[:, 0] ** 2 + grads[:, 1] ** 2 + eps * eps
    total = float(np.dot(s ** (p / 2.0), g.areas))
    weights = _reference_lumped_mass(mesh)
    if params.sigma != 0.0:
        weights = weights + params.sigma * _reference_density_weights(mesh, phi)
    total += float(np.dot(weights, np.abs(vals) ** p))
    return total


def _reference_energy_gradient(mesh, vals, phi, params):
    p = params.p
    eps = params.eps
    g = geometry(mesh)
    grads = _reference_element_gradients(mesh, vals)
    gsq = grads[:, 0] ** 2 + grads[:, 1] ** 2
    coef = p * g.areas * (gsq + eps * eps) ** ((p - 2.0) / 2.0)
    out = np.zeros(mesh.n_vertices)
    for v in range(3):
        contrib = coef * np.einsum("td,td->t", grads, g.basis_grads[:, v, :])
        np.add.at(out, mesh.triangles[:, v], contrib)
    out += p * g.lumped_mass * (np.sign(vals) * np.abs(vals) ** (p - 1.0))
    if params.sigma != 0.0:
        bw = _reference_density_weights(mesh, phi)
        out += params.sigma * p * bw * (np.sign(vals) * np.abs(vals) ** (p - 1.0))
    return out


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


@pytest.mark.parametrize("mesh_name", ["disk_fine", "rect_small"])
def test_bincount_scatters_match_add_at_bitwise(request, rng, mesh_name):
    mesh = request.getfixturevalue(mesh_name)
    phi = _random_density(mesh, rng)
    assert _bits(density_weights(mesh, phi)) == _bits(_reference_density_weights(mesh, phi))
    assert _bits(geometry(mesh).lumped_mass) == _bits(_reference_lumped_mass(mesh))


@pytest.mark.parametrize("mesh_name", ["disk_fine", "rect_small"])
@pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0])
def test_kernel_reproduces_the_element_wise_forms_bitwise(request, rng, mesh_name, p):
    mesh = request.getfixturevalue(mesh_name)
    phi = _random_density(mesh, rng)
    kernel = EnergyKernel(mesh, None, ProblemParams())
    for _ in range(3):
        u = _random_field(mesh, rng)
        vals = u.values
        assert _bits(np.column_stack(kernel.element_gradients(vals))) == _bits(
            _reference_element_gradients(mesh, vals)
        )
        for sigma in (0.0, 2.0):
            for eps_reg in (None, 1e-3):
                params = ProblemParams(p=p, sigma=sigma, eps_reg=eps_reg)
                e = energy(mesh, u, phi, params)
                assert e.hex() == _reference_energy(mesh, vals, phi, params).hex()
                assert _bits(energy_gradient(mesh, u, phi, params)) == _bits(
                    _reference_energy_gradient(mesh, vals, phi, params)
                )
                # one evaluation gives the energy and the constraint at once
                kernel = EnergyKernel(mesh, phi, params)
                e_k, b_k = kernel.evaluate(vals)
                assert e_k.hex() == e.hex()
                assert b_k.hex() == boundary_p_power(mesh, u, p).hex()
                # the Rayleigh-numerator gradient, as the descent forms it
                r = e_k / b_k
                expected = energy_gradient(mesh, u, phi, params)
                expected -= r * boundary_power_gradient(mesh, u, p)
                assert _bits(kernel.gradient(r)) == _bits(expected)


# --------------------------------------------------- structural properties


@given(data=st.data())
@settings(max_examples=15)
def test_energy_monotone_in_potential(data):
    mesh = generate_rectangle(1.0, 1.0, 0.34)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    lo = rng.uniform(0.0, 0.5, mesh.n_boundary_edges)
    hi = np.minimum(1.0, lo + rng.uniform(0.0, 0.5, mesh.n_boundary_edges))
    u = _random_field(mesh, rng)
    params = ProblemParams(p=data.draw(st.sampled_from([1.5, 2.0, 3.0])), sigma=4.0)
    e_lo = energy(mesh, u, BoundaryDensity.of(mesh, lo), params)
    e_hi = energy(mesh, u, BoundaryDensity.of(mesh, hi), params)
    assert e_hi >= e_lo - 1e-12 * max(1.0, abs(e_lo))


@given(
    c=st.floats(min_value=-4.0, max_value=4.0).filter(lambda v: abs(v) > 1e-3),
    p=st.sampled_from([1.5, 2.0, 3.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=15)
def test_energy_p_homogeneous(c, p, seed):
    mesh = generate_rectangle(1.0, 1.0, 0.34)
    rng = np.random.default_rng(seed)
    u = _random_field(mesh, rng)
    phi = _random_density(mesh, rng)
    params = ProblemParams(p=p, sigma=2.0, eps_reg=0.0)
    scaled = Field.of(mesh, c * u.values)
    lhs = energy(mesh, scaled, phi, params)
    rhs = abs(c) ** p * energy(mesh, u, phi, params)
    assert lhs == pytest.approx(rhs, rel=1e-11)


@given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([1.5, 2.0, 3.0]))
@settings(max_examples=15)
def test_energy_is_coercive(seed, p):
    mesh = generate_rectangle(1.0, 1.0, 0.34)
    rng = np.random.default_rng(seed)
    u = _random_field(mesh, rng)
    phi = _random_density(mesh, rng)
    value = energy(mesh, u, phi, ProblemParams(p=p, sigma=1.0))
    assert value >= 0.0
    if np.any(u.values != 0.0):
        assert value > 0.0


def test_boundary_norms_on_constant_field(square_tiny):
    ones = Field.of(square_tiny, np.ones(square_tiny.n_vertices))
    assert boundary_p_power(square_tiny, ones, 2.0) == pytest.approx(
        square_tiny.perimeter, rel=1e-14
    )
    assert boundary_p_norm(square_tiny, ones, 2.0) == pytest.approx(
        square_tiny.perimeter ** 0.5, rel=1e-14
    )
