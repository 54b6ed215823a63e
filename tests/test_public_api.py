import importlib

import steklov
from steklov import TangentField, generate_disk

MODULES = ("assembly", "cli", "eigensolver", "errors", "mesh", "rearrange", "shapederiv")

# Names that stay out of the package: helpers no workload calls, an error
# nothing raises, and a per-edge boundary-trace rule that would duplicate
# the nodal weights every integral over u uses.
DELETED = (
    "eigenpair_from_json",
    "random_positive_start",
    "element_gradients",
    "OpenBoundaryError",
    "trace_weights",
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
    assert not hasattr(generate_disk(0.5), "boundary_vertex_arclength")
