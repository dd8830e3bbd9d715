"""Shared fixtures and independent numerical oracles.

The finite-difference helpers below differentiate function VALUES only, so
they stay independent of the analytic derivative code they are used to
check.
"""

import numpy as np
import pytest


def fd_gradient(func, x, h):
    """Central-difference gradient of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        grad[i] = (func(x + e) - func(x - e)) / (2.0 * h)
    return grad


def fd_hessian(func, x, h):
    """Second-order central-difference Hessian from values only."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    hess = np.zeros((n, n))
    eye = np.eye(n)
    for i in range(n):
        for j in range(i, n):
            vpp = func(x + h * eye[i] + h * eye[j])
            vpm = func(x + h * eye[i] - h * eye[j])
            vmp = func(x - h * eye[i] + h * eye[j])
            vmm = func(x - h * eye[i] - h * eye[j])
            hess[i, j] = hess[j, i] = (vpp - vpm - vmp + vmm) / (4.0 * h * h)
    return hess


def barrier_grad_hess(qd, gamma: float):
    """Gradient and Hessian of the barrier I for one element from its QualityDiff.

    The per-element reference for the patch assembly, built from the
    element's full quality gradient and Hessian.
    """
    from tetforge.errors import BarrierViolationError

    if qd.q <= gamma:
        raise BarrierViolationError(f"quality {qd.q} at or below barrier {gamma}")
    c1 = qd.q / (1.0 - gamma) - 1.0 / (qd.q - gamma)
    c2 = 1.0 / (1.0 - gamma) + 1.0 / (qd.q - gamma) ** 2
    grad = c1 * qd.grad
    hess = c2 * np.outer(qd.grad, qd.grad) + c1 * qd.hess
    return grad, hess


def patch_objective(mesh, patch, gamma: float) -> float:
    """Sum of barrier values over the patch ring; +inf on any violation."""
    from tetforge.barrier import barrier_values_batch
    from tetforge.quality import quality_batch

    q = quality_batch(mesh.tet_points(patch.ring_tets))
    return float(barrier_values_batch(q, gamma).sum())


def resultant_normal(mesh, tri_ids):
    """Sum of the area-weighted normals (cross / 2) of the given surface triangles."""
    p = mesh.vertices[mesh.surface_tris[tri_ids]]
    return 0.5 * np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]).sum(axis=0)


def random_tet(rng, min_volume=1e-3):
    """A uniformly random tet in the unit cube with volume bounded away from 0."""
    from tetforge.mesh import tet_signed_volume

    while True:
        p = rng.random((4, 3))
        if abs(tet_signed_volume(*p)) >= min_volume:
            return p


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


@pytest.fixture
def regular_tet():
    return np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.5, np.sqrt(3.0) / 2.0, 0.0],
        [0.5, np.sqrt(3.0) / 6.0, np.sqrt(6.0) / 3.0],
    ])


@pytest.fixture
def corner_tet():
    return np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ])
