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
    error      lambda minus the radial eigenvalue ``radial_lambda(p, 0.6)``
    order      log(|e_prev| / |e|) / log(h_prev / h) against the row above

Every entry is deterministic, so two source trees that print the same rows
took the same descent.  ``--p 2`` is the refinement study against the
modified-Bessel quotient I1(1)/I0(1) + 0.6.  Usage:

    PYTHONPATH=src python scripts/p_ladder.py --p 1.2 3 --h 0.1 0.05
"""

import argparse
import math

from steklov import BoundaryDensity, ProblemParams, generate_disk, solve_nonlinear

SIGMA = 2.0
DENSITY = 0.3


def radial_lambda(p, sigma_c, r0=1e-6):
    """First eigenvalue on the unit disk for a constant density c at ``sigma * c = sigma_c``.

    The first eigenfunction is radial.  With ``w = r |u'|^(p-2) u'`` it
    solves ``u' = (w/r)^(1/(p-1))``, ``w' = r u^(p-1)``, ``u(0) = 1``, and
    ``lambda = sigma_c + w(1) / u(1)^(p-1)``; (p-1)-homogeneity makes it an
    initial-value problem.  The integration starts at ``r0`` from the
    series ``u = 1 + 2 (r/2)^(q+1) / (q+1)``, ``w = r^2 / 2`` with
    ``q = 1/(p-1)``.
    """
    from scipy.integrate import solve_ivp

    q = 1.0 / (p - 1.0)
    start = [1.0 + 2.0 * (r0 / 2.0) ** (q + 1.0) / (q + 1.0), 0.5 * r0 * r0]
    sol = solve_ivp(
        lambda r, y: [(y[1] / r) ** q, r * y[0] ** (p - 1.0)],
        (r0, 1.0),
        start,
        method="DOP853",
        rtol=1e-13,
        atol=1e-30,
    )
    u1, w1 = sol.y[:, -1]
    return sigma_c + float(w1 / u1 ** (p - 1.0))


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument(
        "--p",
        type=float,
        nargs="+",
        default=[1.1, 1.2, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0],
        help="exponents p > 1",
    )
    ap.add_argument(
        "--h",
        type=float,
        nargs="+",
        default=[0.1, 0.07, 0.05, 0.035, 0.025],
        help="unit-disk mesh sizes, coarsest first",
    )
    args = ap.parse_args()

    meshes = {h: generate_disk(h) for h in args.h}
    print(
        f"{'p':>5} {'h':>6} {'n':>6} {'iters':>5} {'stop':<11} {'converged':<9} "
        f"{'lambda':<22} {'residual':<22} {'backtracks':>10} {'error':>10} {'order':>6}"
    )
    for p in args.p:
        exact = radial_lambda(p, SIGMA * DENSITY)
        prev = None
        for h, mesh in meshes.items():
            phi = BoundaryDensity.constant(mesh, DENSITY)
            pair = solve_nonlinear(mesh, phi, ProblemParams(p=p, sigma=SIGMA))
            d = pair.diagnostics
            error = pair.lam - exact
            order = ""
            if prev is not None:
                order = f"{math.log(abs(prev[1] / error)) / math.log(prev[0] / h):6.2f}"
            print(
                f"{p:5.2f} {h:6.3f} {mesh.n_vertices:6d} {pair.iterations:5d} "
                f"{d['stop']:<11} {str(pair.converged):<9} {pair.lam.hex():<22} "
                f"{pair.residual.hex():<22} {d['backtracks']:10d} {error:10.3e} {order:>6}"
            )
            prev = (h, error)


if __name__ == "__main__":
    main()
