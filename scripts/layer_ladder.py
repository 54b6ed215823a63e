"""Per-layer timings of one p = 2 solve on a ladder of meshes.

For unit disks at each ``--h`` and the unit square at ``--square-h`` the
script times every layer a one-off CLI solve passes through and prints one
row per mesh, each entry the median of ``--repeat`` runs in milliseconds:

    generate   the generator call, Mesh construction included
    mesh       Mesh(vertices, triangles) on the generator's arrays
    loop       the boundary-loop extraction inside that construction
    geometry   the per-mesh P1 geometry (areas, basis gradients, masses)
    order      the nested-dissection order of all vertices
    assemble   assemble_linear on that order, the geometry already built
    splu       unpivoted sparse LU of the assembled matrix, as the plain
               p = 2 route factors it
    solve      one solve_linear from scratch (assembly and LU included)
    bathtub    one bathtub refill from the solve's eigenfunction
    defect     arc_defect of the refilled density

Three more columns describe the timed solve: ``iters``, the number of
linear solves the p = 2 eigensolve took for the eigenpair, ``resid``, its
relative eigen-residual, and ``stop``, why the solve stopped
(``tolerance``, ``max_iters``, ``stagnation`` or ``breakdown``).  The last
two describe the factor: ``nnz``, the entries SuperLU stores for L and U,
and ``MB``, their size at 12 bytes (a value and a row index) per entry, in
units of 2^20 bytes.  The solve uses sigma = 5
and a constant density 0.25; the refill keeps a quarter of the perimeter.
"""

import argparse
import statistics
import time

import numpy as np
import scipy.sparse.linalg as spla

from steklov import (
    BoundaryDensity,
    Mesh,
    arc_defect,
    assemble_linear,
    bathtub,
    generate_disk,
    generate_rectangle,
    solve_linear,
)
from steklov.assembly import _Geometry, geometry
from steklov.eigensolver import _IN_ORDER, _nested_dissection
from steklov.mesh import _extract_boundary_loop

SIGMA = 5.0
LAYERS = (
    "generate",
    "mesh",
    "loop",
    "geometry",
    "order",
    "assemble",
    "splu",
    "solve",
    "bathtub",
    "defect",
)


def median_ms(fn, repeat):
    """Median wall time of ``fn()`` over ``repeat`` calls, and its last result."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times), result


def ladder_row(generate, repeat):
    row = {}
    row["generate"], mesh = median_ms(generate, repeat)
    row["mesh"], _ = median_ms(
        lambda: Mesh(mesh.vertices, mesh.triangles, kind=mesh.kind), repeat
    )
    row["loop"], _ = median_ms(lambda: _extract_boundary_loop(mesh.triangles), repeat)
    row["geometry"], _ = median_ms(lambda: _Geometry(mesh), repeat)
    phi = BoundaryDensity.constant(mesh, 0.25)
    geometry(mesh)
    vertices = np.arange(mesh.n_vertices)
    row["order"], order = median_ms(lambda: _nested_dissection(mesh, vertices), repeat)
    row["assemble"], (A, _) = median_ms(lambda: assemble_linear(mesh, phi, SIGMA, order), repeat)
    row["splu"], lu = median_ms(lambda: spla.splu(A.T, **_IN_ORDER), repeat)
    row["nnz"] = lu.nnz
    row["solve"], pair = median_ms(lambda: solve_linear(mesh, phi, SIGMA), repeat)
    mass = 0.25 * mesh.perimeter
    row["bathtub"], (refill, _) = median_ms(lambda: bathtub(mesh, pair.u, mass), repeat)
    row["defect"], _ = median_ms(lambda: arc_defect(mesh, refill), repeat)
    return mesh, row, pair


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument(
        "--h",
        type=float,
        nargs="*",
        default=[0.05, 0.025, 0.0125],
        help="unit-disk mesh sizes",
    )
    ap.add_argument(
        "--square-h",
        type=float,
        nargs="*",
        default=[0.004],
        help="unit-square mesh sizes",
    )
    ap.add_argument("--repeat", type=int, default=5, help="runs per layer (median)")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")

    ladder = [("disk", h, lambda h=h: generate_disk(h)) for h in args.h]
    ladder += [
        ("square", h, lambda h=h: generate_rectangle(1.0, 1.0, h)) for h in args.square_h
    ]

    print(f"median of {args.repeat} run(s) per layer, milliseconds")
    print(
        f"{'mesh':<6} {'h':>7} {'n':>7} {'B':>5} "
        + " ".join(f"{name:>9}" for name in LAYERS)
        + f" {'iters':>5} {'resid':>8} {'stop':>10} {'nnz':>9} {'MB':>8}"
    )
    for kind, h, generate in ladder:
        mesh, row, pair = ladder_row(generate, args.repeat)
        print(
            f"{kind:<6} {h:7.4f} {mesh.n_vertices:7d} {mesh.n_boundary_edges:5d} "
            + " ".join(f"{row[name]:9.2f}" for name in LAYERS)
            + f" {pair.iterations:5d} {pair.residual:8.1e} {pair.diagnostics['stop']:>10}"
            + f" {row['nnz']:9d} {12 * row['nnz'] / 2**20:8.2f}"
        )


if __name__ == "__main__":
    main()
