"""Endpoint-derivative validation table.

Moves the terminal endpoint of a half-boundary region on the disk and
compares the closed-form derivative of the first eigenvalue against
central differences at a geometric ladder of step sizes, on two mesh
resolutions.  The region's endpoints sit at edge midpoints so no step
crosses a mesh vertex.
"""

import argparse

from steklov import (
    ProblemParams,
    RegionSpec,
    TangentField,
    generate_disk,
    shape_derivative_fd,
)


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
        if report.vertex_crossings:
            print("  warning: a step crossed a mesh vertex")
        print()


if __name__ == "__main__":
    main()
