import importlib.util
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from steklov import Mesh, cli, generate_disk, generate_rectangle

# Numerics per example are not cheap; keep hypothesis off the default 100
# and disable deadlines (sparse factorizations have noisy timing).
settings.register_profile(
    "default",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def _delaunay_disk(target_h):
    """The disk generator as it was before its rings were zipped by index
    arithmetic: the same points, triangulated by ``scipy.spatial.Delaunay``
    with qhull's zero-area hull slivers dropped.  Tests keep it as the
    reference for vertices, mesh quality and the recorded eigenvalues."""
    from scipy.spatial import Delaunay

    n_bnd = int(math.ceil(2.0 * math.pi / target_h))
    if n_bnd % 2:
        n_bnd += 1
    n_rings = max(2, int(math.ceil(1.0 / target_h)))
    theta = 2.0 * math.pi * np.arange(n_bnd) / n_bnd
    pts = [np.column_stack((np.cos(theta), np.sin(theta)))]
    for j in range(n_rings - 1, 0, -1):
        r = j / n_rings
        nj = n_bnd if r >= 0.55 else max(6, int(round(n_bnd * r)))
        off = (j % 2) * math.pi / nj
        ang = 2.0 * math.pi * np.arange(nj) / nj + off
        pts.append(np.column_stack((r * np.cos(ang), r * np.sin(ang))))
    pts.append(np.zeros((1, 2)))
    points = np.vstack(pts)

    simplices = Delaunay(points).simplices
    p0, p1, p2 = (points[simplices[:, k]] for k in range(3))
    area2 = np.abs(
        (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
        - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1])
    )
    return Mesh(points, simplices[area2 > 1e-12 * area2.max()], kind="disk")


@pytest.fixture(scope="session")
def delaunay_disk():
    return _delaunay_disk


P_LADDER = Path(__file__).resolve().parents[1] / "scripts" / "p_ladder.py"


@pytest.fixture(scope="session")
def radial_lambda():
    """``radial_lambda(p, sigma_c, r0=1e-6)`` of ``scripts/p_ladder.py``: the
    first eigenvalue on the unit disk for a constant density, by the radial ODE."""
    spec = importlib.util.spec_from_file_location("p_ladder", P_LADDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.radial_lambda


def _lp_vertices(mesh, a):
    """All extreme points of {0 <= phi <= 1, sum phi_e len_e = a}.

    Each vertex has at most one fractional coordinate: a set of fully
    filled edges plus one partial edge absorbing the remainder.
    """
    lens = mesh.edge_lengths
    B = len(lens)
    out = []
    for r in range(B + 1):
        for subset in itertools.combinations(range(B), r):
            filled = sum(float(lens[e]) for e in subset)
            remaining = a - filled
            if remaining <= 0.0:
                if abs(remaining) <= 1e-12:
                    phi = np.zeros(B)
                    phi[list(subset)] = 1.0
                    out.append(phi)
                continue
            for f in range(B):
                if f in subset or remaining > lens[f]:
                    continue
                phi = np.zeros(B)
                phi[list(subset)] = 1.0
                phi[f] = remaining / lens[f]
                out.append(phi)
    return out


@pytest.fixture(scope="session")
def lp_vertices():
    """``lp_vertices(mesh, a)``: every vertex of the boundary LP that the
    bathtub refill solves at mass ``a``, by exhaustive enumeration."""
    return _lp_vertices


@pytest.fixture(scope="session")
def disk_coarse():
    return generate_disk(0.3)


@pytest.fixture(scope="session")
def disk_fine():
    return generate_disk(0.1)


@pytest.fixture(scope="session")
def square_tiny():
    # 16 vertices, 8 boundary edges: small enough for brute-force oracles.
    return generate_rectangle(1.0, 1.0, 0.34)


@pytest.fixture(scope="session")
def rect_small():
    return generate_rectangle(2.0, 1.0, 0.4)


@pytest.fixture(scope="session")
def octagon_boundary_mesh():
    # Tiny disk-kind mesh whose 12-edge boundary keeps LP enumeration exact.
    return generate_disk(0.524)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def run_cli(tmp_path):
    """``run_cli(command, *flags, **config)`` runs one ``steklov`` subcommand.

    The config gets ``"version": 1``; returns the exit code and the run's
    fresh output directory.
    """
    runs = itertools.count()

    def run(command, *flags, **config):
        k = next(runs)
        path = tmp_path / f"config{k}.json"
        path.write_text(json.dumps({"version": 1, **config}), encoding="utf-8")
        out = tmp_path / f"out{k}"
        return cli.main([command, "--config", str(path), "--out", str(out), *flags]), out

    return run
