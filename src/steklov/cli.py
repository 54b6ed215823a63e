"""Command-line front end for the boundary-potential eigenvalue toolkit.

Subcommands
-----------
``solve``
    Lowest eigenpair for a fixed potential; writes the eigenpair JSON and a
    boundary-trace CSV ``(s, u)``.
``optimize``
    Alternating eigensolve / mass-constrained refill; writes the trace JSON,
    an ``(iter, lambda)`` CSV, and the final potential.
``sigma-sweep``
    Runs ``optimize`` across an ascending list of couplings and compares
    against the hard-constraint (pinned-trace) eigenvalue on the support of
    the strongest-coupling result; writes one CSV and the reference
    eigenpair, and exits 2 if the reference did not converge.
``shape-deriv``
    Endpoint-derivative formula versus its finite-difference oracle.
``symmetry-check``
    Five random-start optimizations on a disk; succeeds when they agree.
    The starts are ``random_admissible(mesh, mass, seed)`` for the seeds
    ``solver.seed + 0 .. 4``.

Every output file format lives here: the eigenpair, trace, density and
derivative records and the ``{"edge_values": [...]}`` potential files that
``optimize`` writes and the ``file`` potential reads.  So does the
``shape-deriv`` key ``sign_convention``.  The library's formula carries the
envelope-theorem sign, under which enlarging the region increases the
eigenvalue for positive coupling; ``sign_convention: -1`` writes the
negated ``formula_value`` and leaves every other key as it is, so
``sign_consistent`` and ``relative_error`` compare the formula with the
oracle in the library's sign and read the same under either convention.

All commands read a single JSON config (``--config``).  Configs are
versioned and validated fail-closed: unknown keys are rejected so typos in
experiment scripts surface immediately.  A run has two phases.  Phase 1,
``_read``, reads each key once and checks it before any mesh exists.  Only
the mesh generators' own size checks, the region's arcs, building the
potential and the library's mass rule (``rearrange._check_mass``: the mass
against the perimeter, the start potential's mass against the mass) wait
for ``main`` to build the mesh with ``build_mesh``; phase 2,
``_with_mesh``, then runs them.  No check runs after a factorization, and
subcommands get the values the two phases read, never the config.

Exit codes are a stable contract: 0 success, 1 usage/config error, 2
numerical failure.  Every usage or config error -- a bad flag, a bad
config value, or an argument the library rejects with ``ValueError`` --
takes one path: ``main`` prints ``config error: <message>`` to stderr and
returns 1.  A run that runs out of memory (``MemoryError``, for instance
from the sparse factorization of a mesh too fine for the machine) prints
one ``resource error:`` line and returns 1 as well.  Output files are
written atomically (temp file + rename) and, seeds being part of the
config, re-runs are byte-identical except for ``timestamp`` fields.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .assembly import BoundaryDensity, ProblemParams
from .eigensolver import (
    EigenPair,
    SolverOptions,
    _check_loop,
    _check_regularization,
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
)
from .mesh import Mesh, generate_disk, generate_rectangle, load_mesh_file
from .rearrange import (
    DEFAULT_MAX_OUTER,
    _check_cap,
    _check_mass,
    arc_defect,
    cap_indicator,
    optimize_potential,
    random_admissible,
    support_region,
)
from .shapederiv import DEFAULT_FD_STEPS, TangentField, _validate_steps, shape_derivative_fd

__all__ = ["main"]

CONFIG_VERSION = 1

#: symmetry-check passes iff all final eigenvalues agree this tightly ...
SYMMETRY_LAMBDA_RTOL = 1e-6
#: ... and every arc defect is at most this many boundary edge lengths.
SYMMETRY_DEFECT_EDGE_FACTOR = 2.0
#: shape-deriv exits 0 iff formula and oracle agree this tightly.
SHAPE_DERIV_MAX_REL_ERROR = 0.05

_EXIT_OK = 0
_EXIT_CONFIG = 1
_EXIT_NUMERICAL = 2


class ConfigError(ValueError):
    """Invalid command line or config file content (exit code 1)."""


# --------------------------------------------------------------------------
# config plumbing


def _check_keys(obj: object, allowed: set[str], context: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) in {context}: {', '.join(unknown)} "
            f"(allowed: {', '.join(sorted(allowed))})"
        )
    return obj


def _is_number(val: object) -> bool:
    return not isinstance(val, bool) and isinstance(val, (int, float))


def _float(val: int | float) -> float:
    """``float(val)``; a JSON integer beyond float range becomes +-inf.

    The finiteness checks of each field then reject it like ``Infinity``.
    """
    try:
        return float(val)
    except OverflowError:
        return math.inf if val > 0 else -math.inf


def _number(obj: dict, key: str, context: str, required: bool = True) -> float | None:
    if key not in obj or obj[key] is None:
        if required:
            raise ConfigError(f"{context} requires a numeric '{key}'")
        return None
    if not _is_number(obj[key]):
        raise ConfigError(f"'{key}' in {context} must be a number")
    return _float(obj[key])


def _integer(obj: dict, key: str, context: str, default: int | None = None) -> int | None:
    if key not in obj or obj[key] is None:
        return default
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"'{key}' in {context} must be an integer")
    return val


def _numbers(val: object, message: str, finite_message: str, width: int | None = None) -> list:
    """``val`` as floats: a list of numbers or, given ``width``, of lists of
    ``width`` numbers, as tuples.  Raises ``message`` for any other
    structure, then ``finite_message`` unless every number is finite."""
    rows = [val] if width is None else val
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and all(map(_is_number, row)) and width in (None, len(row))
        for row in rows
    ):
        raise ConfigError(message)
    floats = [tuple(map(_float, row)) for row in rows]
    if not all(math.isfinite(v) for row in floats for v in row):
        raise ConfigError(finite_message)
    return list(floats[0]) if width is None else floats


def load_config(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    version = data.get("version")
    if type(version) is not int or version != CONFIG_VERSION:  # not True, not 1.0
        raise ConfigError(f"config 'version' must be {CONFIG_VERSION}, got {version!r}")
    return data


# --------------------------------------------------------------------------
# the two phases: the config read whole, then what needs the mesh


def _section(cfg: dict, name: str, allowed: set[str]) -> dict:
    if name not in cfg:
        raise ConfigError(f"config requires a '{name}' object")
    return _check_keys(cfg[name], allowed, name)


def _value(obj: dict, key: str, context: str):
    """``obj[key]`` as a path, a non-negative seed (default 0) or a number."""
    if key == "path":
        if not isinstance(obj.get(key), str):
            raise ConfigError(f"{context} requires a string '{key}'")
        return Path(obj[key])
    if key == "seed":
        seed = _integer(obj, key, context, default=0)
        if seed < 0:  # numpy's message would name neither the key nor the cause
            raise ConfigError(f"'seed' in {context} must be a non-negative integer, got {seed}")
        return seed
    return _number(obj, key, context)


# type: (keys, builder from their values).  The builders are lambdas so that
# each library function is looked up in this module when one runs.
_GEOMETRIES = {
    "disk": (("h",), lambda h: generate_disk(h)),
    "rectangle": (("width", "height", "target_h"), lambda *sizes: generate_rectangle(*sizes)),
    "mesh_file": (("path",), lambda path: load_mesh_file(path)),
}
_POTENTIALS = {
    "file": (("path",), lambda mesh, path: _load_density(mesh, path)),
    "constant": (("value",), lambda mesh, value: BoundaryDensity.constant(mesh, value)),
    "cap": (("angle", "mass"), lambda mesh, angle, mass: cap_indicator(mesh, angle, mass)[1]),
    "random": (("seed", "mass"), lambda mesh, seed, mass: random_admissible(mesh, mass, seed)),
}


def _typed(cfg: dict, name: str, table: dict):
    """Section ``name``'s ``type``, that type's builder and its keys' values."""
    raw = _section(cfg, name, {"type"}.union(*(keys for keys, _ in table.values())))
    kind = raw.get("type")
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(f"{name} 'type' must be one of {', '.join(table)}; got {kind!r}")
    keys, build = table[kind]
    context = f"{kind.replace('_', '-')} {name}"
    _check_keys(raw, {"type", *keys}, context)
    return kind, build, [_value(raw, key, context) for key in keys]


def build_mesh(cfg: dict) -> Mesh:
    """The mesh of the config's ``geometry`` section."""
    _, build, values = _typed(cfg, "geometry", _GEOMETRIES)
    return build(*values)


def build_params(cfg: dict) -> ProblemParams:
    """The ``params`` section; a key left out takes ``ProblemParams``' default."""
    keys = ("p", "sigma", "eps_reg")
    raw = _check_keys(cfg.get("params", {}), set(keys), "params")
    values = {key: _number(raw, key, "params", required=False) for key in keys}
    return ProblemParams(**{key: v for key, v in values.items() if v is not None})


def _solver(cfg: dict) -> tuple[SolverOptions, int]:
    """The solver options and ``seed``, the first of symmetry-check's five seeds."""
    raw = _check_keys(cfg.get("solver", {}), {"tol", "max_iters", "seed"}, "solver")
    tol = _number(raw, "tol", "solver", required=False)
    max_iters = _integer(raw, "max_iters", "solver", default=SolverOptions.max_iters)
    seed = _value(raw, "seed", "solver")
    return SolverOptions(tol=tol, max_iters=max_iters), seed


def _load_density(mesh: Mesh, path: Path) -> BoundaryDensity:
    """Read a ``{"edge_values": [...]}`` JSON file, validating range and length."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "edge_values" not in data:
        raise ValueError(f"{path}: expected a JSON object with an 'edge_values' key")
    values = _numbers(
        data["edge_values"],
        f"{path}: 'edge_values' must be a list of numbers",
        f"{path}: 'edge_values' must hold finite numbers",
    )
    return BoundaryDensity.of(mesh, values)


def _potential(cfg: dict, mesh_kind: str):
    """A function that builds the ``potential`` section on a mesh of kind ``mesh_kind``."""
    kind, build, values = _typed(cfg, "potential", _POTENTIALS)
    if kind == "cap":
        _check_cap(mesh_kind, values[0])
    return lambda mesh: build(mesh, *values)


def build_potential(cfg: dict, mesh: Mesh) -> BoundaryDensity:
    return _potential(cfg, mesh.kind)(mesh)


def _sigmas(cfg: dict) -> list[float]:
    structure = "sigma-sweep requires a non-empty numeric 'sigma_list'"
    sigmas = _numbers(cfg.get("sigma_list"), structure, "'sigma_list' must hold finite numbers")
    if not sigmas:
        raise ConfigError(structure)
    if any(s <= 0 for s in sigmas) or any(b <= a for a, b in zip(sigmas, sigmas[1:])):
        raise ConfigError("'sigma_list' must be strictly ascending and positive")
    return sigmas


def _shape_deriv(cfg: dict) -> dict:
    """The tangent field on the region (a function of the mesh), ``fd_steps``
    and ``sign_convention``."""
    intervals = _section(cfg, "region", {"intervals"}).get("intervals")
    if not isinstance(intervals, list) or not intervals:
        raise ConfigError("region 'intervals' must be a non-empty list")
    intervals = _numbers(
        intervals,
        "each region interval must be a [s_begin, s_end] number pair",
        "region 'intervals' must hold finite numbers",
        width=2,
    )
    speeds = _section(cfg, "tangent", {"speeds"}).get("speeds")
    if not isinstance(speeds, list) or len(speeds) != len(intervals):
        raise ConfigError(
            "tangent 'speeds' must list one [v_begin, v_end] pair per region arc"
        )
    speeds = _numbers(
        speeds,
        "each tangent speed entry must be a [v_begin, v_end] pair",
        "endpoint speeds must be finite",
        width=2,
    )
    steps = _numbers(
        cfg.get("fd_steps", list(DEFAULT_FD_STEPS)),
        "'fd_steps' must be a list of numbers",
        "'fd_steps' must hold finite numbers",
    )
    sign = _number(cfg, "sign_convention", "config", required=False)
    if sign not in (None, 1.0, -1.0):
        raise ConfigError("'sign_convention' must be +1 or -1")
    _validate_steps(steps)

    def tangent(mesh):
        return TangentField.from_intervals(intervals, speeds, mesh.perimeter)

    return {"tangent": tangent, "steps": steps, "sign": sign}


def _read(command: str, cfg: dict) -> dict:
    """Phase 1: the values ``command``'s handler takes, by parameter name.

    Reads geometry, params and solver, then the subcommand's own keys.  A
    value that needs the mesh is left as a function of the mesh.
    """
    geometry = _typed(cfg, "geometry", _GEOMETRIES)[0]
    kind = "file" if geometry == "mesh_file" else geometry  # the mesh's kind tag
    if command == "symmetry-check" and kind != "disk":
        raise ConfigError("symmetry-check requires disk geometry")
    params = build_params(cfg)
    _check_regularization(params)
    opts, seed = _solver(cfg)
    run = {"params": params, "opts": opts}
    if command == "solve":
        run["potential"] = _potential(cfg, kind)
    elif command == "shape-deriv":
        run.update(_shape_deriv(cfg))
    else:
        if command == "sigma-sweep":
            run["sigmas"] = _sigmas(cfg)
        run["outer"] = outer = {  # optimize_potential's keywords
            "mass": _number(cfg, "mass", "config"),
            "max_outer": _integer(cfg, "max_outer", "config", default=DEFAULT_MAX_OUTER),
            "outer_tol": _number(cfg, "outer_tol", "config", required=False),
        }
        _check_loop("max_outer", outer["max_outer"], "outer_tol", outer["outer_tol"])
        if command == "symmetry-check":
            seeds = run["seeds"] = [seed + k for k in range(5)]
            run["starts"] = lambda mesh: [random_admissible(mesh, outer["mass"], s) for s in seeds]
        else:
            run["potential"] = _potential(cfg, kind) if "potential" in cfg else None
    return run


def _with_mesh(run: dict, mesh: Mesh) -> dict:
    """Phase 2: every value that needs the mesh built, then the mass rule; it
    all runs before any factorization."""
    run = {key: value(mesh) if callable(value) else value for key, value in run.items()}
    if "outer" in run:
        _check_mass(mesh, run["outer"]["mass"], run.get("potential"))
    return run


# --------------------------------------------------------------------------
# output plumbing


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _json_text(obj: object, indent: str = "") -> str:
    """``json.dumps(obj, indent=2)`` as it reads ``indent`` deep, byte for byte.

    ``indent`` makes ``json`` take its pure-Python encoder, one call per
    item.  A list of finite floats is joined here from ``float.__repr__``,
    the text that encoder writes for each; lists and string-keyed dicts are
    walked to find such lists at any depth, and everything else goes
    through ``json.dumps``.
    """
    inner = indent + "  "
    if isinstance(obj, list) and obj:
        if all(isinstance(v, float) for v in obj) and math.isfinite(sum(obj)):
            items = map(float.__repr__, obj)
        else:
            items = (_json_text(v, inner) for v in obj)
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        items = (f"{json.dumps(k)}: {_json_text(v, inner)}" for k, v in obj.items())
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    return json.dumps(obj, indent=2).replace("\n", "\n" + indent)


def _write_json(path: Path, obj: object) -> None:
    _write_atomic(path, _json_text(obj) + "\n")


def _write_record(path: Path, record: dict) -> None:
    """Write ``record`` with the run's UTC ``timestamp`` as its last key."""
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    _write_json(path, {**record, "timestamp": stamp})


def _write_csv(path: Path, header: list[str], rows: list[list[object]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_atomic(path, buf.getvalue())


def _eigenpair_record(pair: EigenPair) -> dict:
    return {
        "lambda": pair.lam,
        "iterations": pair.iterations,
        "residual": pair.residual,
        "converged": pair.converged,
        "u": pair.u.values.tolist(),
    }


# --------------------------------------------------------------------------
# subcommands: each gets the mesh, the output directory and, by name, the
# values that ``_read`` and ``_with_mesh`` made (and ``optimize`` the
# ``--binarize`` flag), runs in the calling thread and returns whether it
# succeeded, which ``main`` maps to exit code 0 or 2.


def cmd_solve(mesh, out_dir, params, opts, potential) -> bool:
    pair = (solve_linear if params.p == 2.0 else solve_nonlinear)(
        mesh, potential, params, opts=opts
    )
    _write_record(out_dir / "eigenpair.json", _eigenpair_record(pair))
    loop = mesh.boundary_vertices
    rows = [
        [float(mesh.cum_arclength[k]), float(pair.u.values[loop[k]])]
        for k in range(len(loop))
    ]
    _write_csv(out_dir / "boundary_trace.csv", ["s", "u"], rows)

    print(f"lambda = {pair.lam!r}")
    print(f"converged = {pair.converged} after {pair.iterations} iterations")
    return pair.converged


def cmd_optimize(mesh, out_dir, params, opts, outer, potential, binarize) -> bool:
    trace = optimize_potential(mesh, params, opts=opts, phi0=potential, **outer)

    final = trace.final_potential.edge_values
    if binarize:
        # Rounds each edge at 1/2; the mass is not preserved.
        final = (final >= 0.5).astype(np.float64)

    history = zip(trace.lambdas, trace.levels, trace.potentials)
    _write_json(
        out_dir / "trace.json",
        [
            {"iter": k, "lambda": lam, "level": level, "mass": phi.mass}
            for k, (lam, level, phi) in enumerate(history)
        ],
    )
    rows = [[k, float(lam)] for k, lam in enumerate(trace.lambdas)]
    _write_csv(out_dir / "trace.csv", ["iter", "lambda"], rows)
    _write_json(out_dir / "final_potential.json", {"edge_values": final.tolist()})

    print(
        f"final lambda = {trace.final_lambda!r} after {trace.outer_iterations} "
        f"outer iterations (converged={trace.converged})"
    )
    return trace.converged


def cmd_sigma_sweep(mesh, out_dir, params, opts, sigmas, outer, potential) -> bool:
    traces, failure = [], None
    try:
        for sigma in sigmas:
            coupled = replace(params, sigma=sigma)
            traces.append(optimize_potential(mesh, coupled, opts=opts, phi0=potential, **outer))
        # The reference region must contain the optimizer's full support --
        # fractional end edges included -- so that the final potential is
        # dominated by the region's indicator and the hard-constraint
        # eigenvalue is a true upper bound for every coupling in the sweep.
        e_ref = support_region(mesh, traces[-1].final_potential)
        ref_pair = solve_dirichlet(mesh, e_ref, params, opts)
    except (NonConvergenceError, InfeasibleConstraintError) as exc:
        failure = exc

    # After a failure the rows that completed are flushed with an empty
    # reference, so the sweep is inspectable.
    ref = "" if failure else float(ref_pair.lam)
    rows = [[s, float(tr.final_lambda), ref] for s, tr in zip(sigmas, traces)]
    _write_csv(out_dir / "sweep.csv", ["sigma", "Lambda_sigma", "Lambda_inf_reference"], rows)
    if failure:
        print(f"numerical failure during sweep: {failure}", file=sys.stderr)
        return False

    _write_record(out_dir / "reference_eigenpair.json", _eigenpair_record(ref_pair))
    for s, tr in zip(sigmas, traces):
        print(
            f"sigma={s!r}: Lambda={tr.final_lambda!r} "
            f"gap_to_reference={ref_pair.lam - tr.final_lambda!r}"
        )
    if not ref_pair.converged:
        print("numerical failure: the reference eigensolve did not converge", file=sys.stderr)
    return ref_pair.converged


def cmd_shape_deriv(mesh, out_dir, params, opts, tangent, steps, sign) -> bool:
    report = shape_derivative_fd(mesh, tangent, params, steps=steps, opts=opts)
    if sign == -1.0:
        report = replace(report, formula_value=-report.formula_value)
    _write_record(
        out_dir / "derivative_report.json",
        {
            "formula_value": report.formula_value,
            "fd_value": report.fd_value,
            "fd_table": [{"t": t, "diff": d} for t, d in report.fd_table],
            "sign_consistent": report.sign_consistent,
            "relative_error": report.relative_error,
            "vertex_crossings": report.vertex_crossings,
        },
    )

    print(f"formula_value = {report.formula_value!r}")
    for t, diff in report.fd_table:
        print(f"  t={t!r}: central_difference={diff!r}")
    print(f"fd_value (extrapolated) = {report.fd_value!r}")
    print(f"sign_consistent = {report.sign_consistent}")
    print(f"relative_error = {report.relative_error!r}")
    if report.vertex_crossings:
        print(
            "note: a finite-difference step moved an endpoint across a mesh "
            "vertex; central differences are degraded at this step size",
            file=sys.stderr,
        )
    return report.relative_error <= SHAPE_DERIV_MAX_REL_ERROR


def cmd_symmetry_check(mesh, out_dir, params, opts, outer, seeds, starts) -> bool:
    traces = [optimize_potential(mesh, params, opts=opts, phi0=phi0, **outer) for phi0 in starts]
    lambdas = [float(tr.final_lambda) for tr in traces]
    defects = [float(arc_defect(mesh, tr.final_potential)) for tr in traces]
    converged = [bool(tr.converged) for tr in traces]
    spread = (max(lambdas) - min(lambdas)) / max(abs(sum(lambdas) / len(lambdas)), 1e-300)
    defect_budget = SYMMETRY_DEFECT_EDGE_FACTOR * mesh.max_boundary_edge_length
    passed = spread <= SYMMETRY_LAMBDA_RTOL and all(d <= defect_budget for d in defects)

    record = {
        "seeds": seeds,
        "lambdas": lambdas,
        "arc_defects": defects,
        "converged": converged,
        "lambda_relative_spread": spread,
        "defect_budget": defect_budget,
        "passed": passed,
    }
    _write_record(out_dir / "symmetry_report.json", record)

    for seed, lam, defect, conv in zip(seeds, lambdas, defects, converged):
        print(f"seed={seed}: lambda={lam!r} arc_defect={defect!r} converged={conv}")
    print(f"lambda relative spread = {spread!r} (tolerance {SYMMETRY_LAMBDA_RTOL!r})")
    print(f"max arc defect = {max(defects)!r} (budget {defect_budget!r})")
    print("PASS" if passed else "FAIL")
    return passed


# --------------------------------------------------------------------------
# entry point

_BASE_KEYS = frozenset({"version", "geometry", "params", "solver", "output_dir"})
_OPTIMIZE_KEYS = _BASE_KEYS | {"mass", "max_outer", "outer_tol"}

_COMMANDS = {
    "solve": (cmd_solve, _BASE_KEYS | {"potential"}),
    "optimize": (cmd_optimize, _OPTIMIZE_KEYS | {"potential"}),
    "sigma-sweep": (cmd_sigma_sweep, _OPTIMIZE_KEYS | {"potential", "sigma_list"}),
    "shape-deriv": (
        cmd_shape_deriv,
        _BASE_KEYS | {"region", "tangent", "fd_steps", "sign_convention"},
    ),
    "symmetry-check": (cmd_symmetry_check, _OPTIMIZE_KEYS),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="steklov",
        description="First eigenvalue of a boundary-weighted p-Laplacian "
        "problem: solve, optimize the potential, and validate derivatives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to the JSON run config")
        cmd.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="has no effect: every command runs in the calling thread",
        )
        cmd.add_argument(
            "--out", default=None, help="output directory (overrides config)"
        )
        if name == "optimize":
            cmd.add_argument(
                "--binarize",
                action="store_true",
                help="write the final potential as a 0/1 indicator",
            )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler, allowed = _COMMANDS[args.command]
        if args.jobs < 1:
            raise ConfigError("--jobs must be at least 1")

        cfg = load_config(Path(args.config))
        _check_keys(cfg, allowed, "config")

        if "output_dir" in cfg and not isinstance(cfg["output_dir"], str):
            raise ConfigError("'output_dir' must be a string")
        out_dir = Path(args.out) if args.out else Path(cfg.get("output_dir", "."))
        out_dir.mkdir(parents=True, exist_ok=True)
        run = _read(args.command, cfg)
        if args.command == "optimize":
            run["binarize"] = args.binarize
        mesh = build_mesh(cfg)
        succeeded = handler(mesh, out_dir, **_with_mesh(run, mesh))
        return _EXIT_OK if succeeded else _EXIT_NUMERICAL
    except (MeshParseError, MeshTopologyError, MeshResourceError) as exc:
        print(f"mesh error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except MemoryError as exc:
        detail = " ".join(str(exc).split())
        detail = f" ({detail})" if detail else ""
        print(f"resource error: out of memory{detail}", file=sys.stderr)
        return _EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except ValueError as exc:
        # ConfigError and the library's argument validation (bad p, masses,
        # ranges, steps, ...), which is config-driven here.
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except (NonConvergenceError, InfeasibleConstraintError, RegionCollisionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
