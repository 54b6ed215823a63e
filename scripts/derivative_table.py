"""Endpoint-derivative validation table.

Moves the terminal endpoint of a half-boundary region on the disk and
compares the closed-form derivative of the first eigenvalue against
central differences at a geometric ladder of step sizes, on two mesh
resolutions.  The region's endpoints sit at edge midpoints so no step
crosses a mesh vertex.  For each moving endpoint it prints the arc length
to its nearest mesh vertex (the end located on its edge, as the
finite-difference oracle does) next to ``|v| * t_max``, the farthest any
step moves it: the oracle flags a vertex crossing when the first is the
smaller.

Usage:
    PYTHONPATH=src python scripts/derivative_table.py --p 2
"""

import argparse

from steklov import (
    ProblemParams,
    RegionSpec,
    TangentField,
    generate_disk,
    shape_derivative_fd,
)
from steklov.shapederiv import _vertex_gap


def midedge_half_boundary(mesh):
    P = mesh.perimeter
    ell = P / mesh.n_boundary_edges
    return RegionSpec.from_intervals([(ell / 2, (ell / 2 + P / 2) % P)], P)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sigma", type=float, default=5.0)
    ap.add_argument("--p", type=float, default=2.0)
    args = ap.parse_args()

    params = ProblemParams(p=args.p, sigma=args.sigma)
    for h, steps in ((0.03, (1e-2, 5e-3, 2.5e-3)), (0.015, (5e-3, 2.5e-3, 1.25e-3))):
        mesh = generate_disk(h)
        region = midedge_half_boundary(mesh)
        tangent = TangentField.single_endpoint(region, arc=0, end=True, speed=1.0)
        report = shape_derivative_fd(mesh, tangent, params, steps=steps)

        print(f"h = {h}  ({mesh.n_vertices} vertices)")
        print(f"  formula value          {report.formula_value:.10f}")
        for t, diff in report.fd_table:
            print(f"  central difference t={t:<8.1e} {diff:.10f}")
        print(f"  extrapolated fd value  {report.fd_value:.10f}")
        print(f"  relative error         {report.relative_error:.3e}")
        print(f"  sign consistent        {report.sign_consistent}")
        for s, v in tangent.ends():
            if v != 0.0:
                gap, reach = _vertex_gap(mesh, s), abs(v) * max(steps)
                print(
                    f"  end s={s:.6f} v={v:+g}  nearest vertex {gap:.3e}"
                    f"  |v| t_max {reach:.3e}  crosses {gap < reach}"
                )
        if report.vertex_crossings:
            print("  warning: a step crossed a mesh vertex")
        print()


if __name__ == "__main__":
    main()
