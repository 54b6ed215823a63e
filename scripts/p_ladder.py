"""How the descent of ``solve_nonlinear`` ends over a ladder of p and h.

For every ``--p`` and every ``--h`` the script solves the first eigenpair
on ``generate_disk(h)`` with sigma = 2 and the constant density 0.3, from
the default start and with default solver options, and prints one row per
solve:

    iters      descent steps taken
    stop       why the descent ended (``diagnostics["stop"]``)
    converged  whether the gradient test holds at the returned pair
    lambda     the eigenvalue, as float hex
    residual   the final gradient norm, as float hex
    backtracks Armijo step halvings over the whole solve

Every entry is deterministic, so two source trees that print the same rows
took the same descent.  Usage:

    PYTHONPATH=src python scripts/p_ladder.py --p 1.2 3 --h 0.1 0.05
"""

import argparse

from steklov import BoundaryDensity, ProblemParams, generate_disk, solve_nonlinear

SIGMA = 2.0
DENSITY = 0.3


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument(
        "--p",
        type=float,
        nargs="+",
        default=[1.1, 1.2, 1.5, 3.0, 5.0, 8.0, 12.0],
        help="exponents p > 1",
    )
    ap.add_argument(
        "--h",
        type=float,
        nargs="+",
        default=[0.1, 0.07, 0.05, 0.035, 0.025],
        help="unit-disk mesh sizes",
    )
    args = ap.parse_args()

    meshes = {h: generate_disk(h) for h in args.h}
    print(
        f"{'p':>5} {'h':>6} {'n':>6} {'iters':>5} {'stop':<11} {'converged':<9} "
        f"{'lambda':<22} {'residual':<22} {'backtracks':>10}"
    )
    for p in args.p:
        for h, mesh in meshes.items():
            phi = BoundaryDensity.constant(mesh, DENSITY)
            pair = solve_nonlinear(mesh, phi, ProblemParams(p=p, sigma=SIGMA))
            d = pair.diagnostics
            print(
                f"{p:5.2f} {h:6.3f} {mesh.n_vertices:6d} {pair.iterations:5d} "
                f"{d['stop']:<11} {str(pair.converged):<9} {pair.lam.hex():<22} "
                f"{pair.residual.hex():<22} {d['backtracks']:10d}"
            )


if __name__ == "__main__":
    main()
