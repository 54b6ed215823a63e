import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from steklov import Mesh, generate_disk, generate_rectangle

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


def pytest_addoption(parser):
    parser.addoption(
        "--skip-slow",
        action="store_true",
        default=False,
        help="skip the acceptance-scale tests",
    )


def pytest_collection_modifyitems(config, items):
    if not config.getoption("--skip-slow"):
        return
    marker = pytest.mark.skip(reason="--skip-slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(marker)


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: acceptance-scale runtime")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
