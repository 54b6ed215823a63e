"""Optimal potential formation on the disk as the coupling grows.

For each coupling strength the alternating minimizer is run from the same
default start; the optimal density collapses onto a single boundary cap
whose eigenvalue climbs toward the hard-constraint (pinned support) limit
from below.  Prints the per-coupling eigenvalues, arc defects, and the gap
to the pinned reference computed on the final support.
"""

import argparse
import math
from dataclasses import replace

from steklov import (
    ProblemParams,
    arc_defect,
    generate_disk,
    optimize_potential,
    solve_dirichlet,
    support_region,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--h", type=float, default=0.08)
    ap.add_argument("--mass", type=float, default=math.pi / 2)
    ap.add_argument(
        "--sigma", type=float, nargs="+", default=[1.0, 10.0, 100.0, 1000.0]
    )
    ap.add_argument("--p", type=float, default=2.0)
    args = ap.parse_args()

    mesh = generate_disk(args.h)
    params = ProblemParams(p=args.p, sigma=1.0)
    print(
        f"disk mesh: {mesh.n_vertices} vertices, {mesh.n_boundary_edges} boundary "
        f"edges, perimeter {mesh.perimeter:.6f}"
    )

    traces = []
    for sigma in args.sigma:
        trace = optimize_potential(mesh, replace(params, sigma=sigma), args.mass)
        traces.append(trace)

    # pin the support of the strongest-coupling optimum (fractional edges
    # included, so the soft densities are dominated by the indicator)
    region = support_region(mesh, traces[-1].final_potential)
    reference = solve_dirichlet(mesh, region, params)
    print(
        f"pinned reference on the final support "
        f"({region.total_mass:.6f} of boundary): {reference.lam:.10f}"
    )

    print(f"{'sigma':>10} {'lambda':>16} {'outer':>6} {'defect':>10} {'gap':>12}")
    for sigma, trace in zip(args.sigma, traces):
        defect = arc_defect(mesh, trace.final_potential)
        gap = reference.lam - trace.final_lambda
        print(
            f"{sigma:10.1f} {trace.final_lambda:16.10f} "
            f"{trace.outer_iterations:6d} {defect:10.2e} {gap:12.4e}"
        )


if __name__ == "__main__":
    main()
