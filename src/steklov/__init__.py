"""Numerical toolkit for the first eigenvalue of a p-Laplacian problem with
a weighted spectral boundary condition.

The eigenvalue lambda(sigma, phi) is the minimum of a Rayleigh quotient
whose numerator couples an interior p-Dirichlet energy to a boundary
potential phi in [0, 1], and whose denominator is the boundary p-norm of
the trace.  The package provides:

- triangular meshes of disks and rectangles with an oriented boundary loop
  and exact arc-length bookkeeping (:mod:`steklov.mesh`);
- piecewise-linear finite element energies, gradients, and sparse operators
  (:mod:`steklov.assembly`);
- eigensolvers for the linear case, the general nonlinear case, and the
  hard-constraint limit with the trace pinned on a boundary region
  (:mod:`steklov.eigensolver`);
- mass-constrained rearrangement of the potential and the alternating
  descent loop that minimizes lambda over admissible potentials
  (:mod:`steklov.rearrange`);
- endpoint shape derivatives of lambda under tangential motion of an
  indicator region, with a finite-difference oracle
  (:mod:`steklov.shapederiv`);
- a command-line front end (:mod:`steklov.cli`).
"""

from .assembly import (
    BoundaryDensity,
    Field,
    ProblemParams,
    assemble_linear,
    boundary_p_norm,
    boundary_p_power,
    energy,
    energy_gradient,
)
from .eigensolver import (
    EigenPair,
    SolverOptions,
    boundary_operator,
    rayleigh,
    solve_dirichlet,
    solve_linear,
    solve_nonlinear,
)
from .errors import (
    InfeasibleConstraintError,
    MeshParseError,
    MeshResourceError,
    MeshTopologyError,
    NonConvergenceError,
    RegionCollisionError,
    SteklovError,
)
from .mesh import (
    Mesh,
    RegionSpec,
    generate_disk,
    generate_rectangle,
    load_mesh,
    load_mesh_file,
    locate_arc_point,
    serialize_mesh,
)
from .rearrange import (
    OptimizationTrace,
    arc_defect,
    bathtub,
    bathtub_objective,
    cap_indicator,
    optimize_potential,
    random_admissible,
    rasterize_region,
    support_region,
)
from .shapederiv import (
    DerivativeReport,
    TangentField,
    perturb_region,
    shape_derivative_fd,
    shape_derivative_formula,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryDensity",
    "DerivativeReport",
    "EigenPair",
    "Field",
    "InfeasibleConstraintError",
    "Mesh",
    "MeshParseError",
    "MeshResourceError",
    "MeshTopologyError",
    "NonConvergenceError",
    "OptimizationTrace",
    "ProblemParams",
    "RegionCollisionError",
    "RegionSpec",
    "SolverOptions",
    "SteklovError",
    "TangentField",
    "arc_defect",
    "assemble_linear",
    "bathtub",
    "bathtub_objective",
    "boundary_operator",
    "boundary_p_norm",
    "boundary_p_power",
    "cap_indicator",
    "energy",
    "energy_gradient",
    "generate_disk",
    "generate_rectangle",
    "load_mesh",
    "load_mesh_file",
    "locate_arc_point",
    "optimize_potential",
    "perturb_region",
    "random_admissible",
    "rasterize_region",
    "rayleigh",
    "serialize_mesh",
    "shape_derivative_fd",
    "shape_derivative_formula",
    "solve_dirichlet",
    "solve_linear",
    "solve_nonlinear",
    "support_region",
    "__version__",
]
