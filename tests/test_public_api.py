import dataclasses
import importlib
import inspect

import steklov
from steklov import (
    SolverOptions,
    TangentField,
    generate_disk,
    shape_derivative_fd,
    shape_derivative_formula,
)

MODULES = ("assembly", "cli", "eigensolver", "errors", "mesh", "rearrange", "shapederiv")

# Names that stay out of the package: helpers no workload calls, an error
# nothing raises, a per-edge boundary-trace rule that would duplicate the
# nodal weights every integral over u uses, and the record writers and
# readers, which belong to the command-line front end alone.
DELETED = (
    "eigenpair_from_json",
    "random_positive_start",
    "element_gradients",
    "OpenBoundaryError",
    "trace_weights",
    "eigenpair_to_json",
    "density_to_json",
    "load_density",
    "trace_to_json",
    "report_to_json",
    "binarize",
)


def test_every_exported_name_resolves():
    assert len(set(steklov.__all__)) == len(steklov.__all__)
    for name in steklov.__all__:
        assert hasattr(steklov, name), name


def test_deleted_names_are_gone():
    for owner in [steklov] + [importlib.import_module(f"steklov.{m}") for m in MODULES]:
        for name in DELETED:
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"
        assert not set(DELETED) & set(getattr(owner, "__all__", ()))
    assert not hasattr(TangentField, "translation")
    mesh = generate_disk(0.5)
    assert not hasattr(mesh, "boundary_vertex_arclength")
    assert not hasattr(mesh, "outward_normals")


def test_config_only_knobs_stay_in_the_cli():
    # the start seed and the sign of the endpoint formula are CLI config keys
    assert [f.name for f in dataclasses.fields(SolverOptions)] == ["tol", "max_iters"]
    for fn in (shape_derivative_formula, shape_derivative_fd):
        assert "sign_convention" not in inspect.signature(fn).parameters
