"""Span recording around the public functions of each ``steklov`` layer.

``Tracer.install()`` replaces each target below with a wrapper that records
a span, at the name its caller looks up at call time.  Functions imported by
name (``from .assembly import energy``) are wrapped in every importing
module, because patching only the defining module would miss those callers.
``Tracer.uninstall()`` puts the originals back.  Nothing in the package
itself is edited.

A span is a name, a start and an end time, the index of the enclosing span
and an op id, stored in flat typed arrays so that a few hundred thousand
spans stay small.  A span's self time is its duration minus the durations of
its direct children; every wrapper's own overhead therefore lands in the
self time of its parent, and the self times of one op sum to the duration of
its root ``cli.main`` span.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter

import numpy as np

SPANS = (
    "cli.main",
    "mesh.generate",
    "mesh.build",
    "assembly.assemble_linear",
    "assembly.geometry",
    "assembly.energy",
    "assembly.energy_gradient",
    "assembly.boundary",
    "eigensolver.linear",
    "eigensolver.nonlinear",
    "eigensolver.dirichlet",
    "eigensolver.factor",
    "rearrange.optimize",
    "rearrange.bathtub",
    "rearrange.arc_defect",
    "shapederiv.fd",
    "shapederiv.formula",
)
_ID = {name: k for k, name in enumerate(SPANS)}
_SOLVES = ("eigensolver.linear", "eigensolver.nonlinear", "eigensolver.dirichlet")
_BOUNDARY = ("boundary_p_norm", "boundary_p_power", "boundary_power_gradient")

#: (module, dotted attribute, span name) for every wrapped call site.
TARGETS = (
    [
        ("steklov.cli", "generate_disk", "mesh.generate"),
        ("steklov.cli", "generate_rectangle", "mesh.generate"),
        ("steklov.mesh", "Mesh.__init__", "mesh.build"),
        ("steklov.assembly", "assemble_linear", "assembly.assemble_linear"),
        ("steklov.assembly", "geometry", "assembly.geometry"),
        ("steklov.eigensolver", "spla.splu", "eigensolver.factor"),
        ("steklov.cli", "solve_dirichlet", "eigensolver.dirichlet"),
        ("steklov.cli", "optimize_potential", "rearrange.optimize"),
        ("steklov.cli", "arc_defect", "rearrange.arc_defect"),
        ("steklov.rearrange", "bathtub", "rearrange.bathtub"),
        ("steklov.cli", "shape_derivative_fd", "shapederiv.fd"),
        ("steklov.shapederiv", "shape_derivative_formula", "shapederiv.formula"),
        ("steklov.shapederiv", "boundary_p_power", "assembly.boundary"),
    ]
    + [
        (module, fn, span)
        for module in ("steklov.cli", "steklov.rearrange", "steklov.shapederiv")
        for fn, span in (
            ("solve_linear", "eigensolver.linear"),
            ("solve_nonlinear", "eigensolver.nonlinear"),
        )
    ]
    + [
        (module, fn, span)
        for module in ("steklov.assembly", "steklov.eigensolver")
        for fn, span in [
            ("energy", "assembly.energy"),
            ("energy_gradient", "assembly.energy_gradient"),
        ]
        + [(b, "assembly.boundary") for b in _BOUNDARY]
    ]
)


def _resolve(module, dotted):
    owner = importlib.import_module(module)
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans while installed; ``layer_metrics`` summarizes them."""

    def __init__(self):
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts = Counter()
        self.missing = []
        self._stack = [-1]
        self._op = -1
        self._saved = []

    # -- recording -------------------------------------------------------

    def _open(self, span_id):
        idx = len(self.start)
        self.name.append(span_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, span, observe=None):
        span_id = _ID[span]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def run_op(self, op_id, fn, *args):
        """Call ``fn(*args)`` as the root ``cli.main`` span of op ``op_id``."""
        self._op = op_id
        try:
            return self.wrap(fn, "cli.main")(*args)
        finally:
            self._op = -1

    # -- installation ----------------------------------------------------

    def _observer(self, span):
        counts = self.counts
        if span in _SOLVES:

            def observe(pair):
                counts["iterations"] += pair.iterations
                counts["unconverged"] += not pair.converged
                if span == "eigensolver.nonlinear":
                    counts["nonlinear_iterations"] += pair.iterations

            return observe
        if span == "rearrange.optimize":

            def observe(trace):
                counts["outer_iterations"] += trace.outer_iterations

            return observe
        return None

    def install(self):
        for module, dotted, span in TARGETS:
            try:
                owner, attr = _resolve(module, dotted)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{dotted}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, span, self._observer(span)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- summary ---------------------------------------------------------

    def self_times(self):
        """``(name, op, self_s)`` arrays, one entry per span."""
        name = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = (np.asarray(self.end) - np.asarray(self.start)).astype(np.float64)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return name, np.asarray(self.op, dtype=np.int64), (dur - covered) / 1e9

    def layer_metrics(self):
        """Per-layer counts and self times of the spans recorded inside ops."""
        name, op, self_s = self.self_times()
        inside = op >= 0
        calls = np.bincount(name[inside], minlength=len(SPANS))
        busy = np.bincount(name[inside], weights=self_s[inside], minlength=len(SPANS))

        def n(*spans):
            return int(sum(calls[_ID[s]] for s in spans))

        def s(*spans):
            return float(sum(busy[_ID[s]] for s in spans))

        parent = np.asarray(self.parent, dtype=np.int64)
        solve_ids = [_ID[x] for x in _SOLVES]
        in_fd = np.isin(name, solve_ids) & (parent >= 0) & inside
        in_fd[in_fd] = name[parent[in_fd]] == _ID["shapederiv.fd"]

        solves = n(*_SOLVES)
        fd_calls = n("shapederiv.fd")
        c = self.counts
        return {
            "mesh.generate.calls": n("mesh.generate"),
            "mesh.generate.self_s": s("mesh.generate"),
            "mesh.build.self_s": s("mesh.build"),
            "assembly.assemble_linear.calls": n("assembly.assemble_linear"),
            "assembly.assemble_linear.self_s": s("assembly.assemble_linear"),
            "assembly.geometry.self_s": s("assembly.geometry"),
            "assembly.energy.calls": n("assembly.energy"),
            "assembly.energy.self_s": s("assembly.energy"),
            "assembly.energy_gradient.calls": n("assembly.energy_gradient"),
            "assembly.energy_gradient.self_s": s("assembly.energy_gradient"),
            "assembly.boundary.self_s": s("assembly.boundary"),
            "eigensolver.linear.calls": n("eigensolver.linear"),
            "eigensolver.nonlinear.calls": n("eigensolver.nonlinear"),
            "eigensolver.dirichlet.calls": n("eigensolver.dirichlet"),
            "eigensolver.self_s": s(*_SOLVES),
            "eigensolver.factorizations": n("eigensolver.factor"),
            "eigensolver.factor_s": s("eigensolver.factor"),
            "eigensolver.iterations": c["iterations"],
            "eigensolver.iters_per_solve": c["iterations"] / solves if solves else 0.0,
            "eigensolver.unconverged": c["unconverged"],
            "eigensolver.evals_per_iter": (
                n("assembly.energy") / c["nonlinear_iterations"]
                if c["nonlinear_iterations"]
                else 0.0
            ),
            "rearrange.optimize.calls": n("rearrange.optimize"),
            "rearrange.outer_iterations": c["outer_iterations"],
            "rearrange.self_s": s("rearrange.optimize"),
            "rearrange.bathtub.calls": n("rearrange.bathtub"),
            "rearrange.bathtub.self_s": s("rearrange.bathtub"),
            "rearrange.arc_defect.self_s": s("rearrange.arc_defect"),
            "shapederiv.fd.calls": fd_calls,
            "shapederiv.self_s": s("shapederiv.fd", "shapederiv.formula"),
            "shapederiv.solves_per_fd": int(in_fd.sum()) / fd_calls if fd_calls else 0.0,
            "cli.invocations": n("cli.main"),
            "cli.self_s": s("cli.main"),
        }
