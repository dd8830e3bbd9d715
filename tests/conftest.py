"""Shared fixtures and independent numerical oracles.

The finite-difference helpers below differentiate function VALUES only, so
they stay independent of the analytic derivative code they are used to
check.
"""

import os

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


def _permutation_sign(p) -> int:
    """Sign of a permutation of 0..k-1 given as a sequence, 0 if an index repeats."""
    if len(set(p)) < len(p):
        return 0
    inversions = sum(a > b for n, a in enumerate(p) for b in p[n + 1:])
    return -1 if inversions % 2 else 1


def element_hessian(points, c1: float, c2: float):
    """Dense gradient and Hessian of f(q) for one tet, f' = c1 and f'' = c2.

    Built from the definitions alone: 6 V = det [1 p_i] is the trilinear
    form V = (1/36) eps_abc T_jkl p_j^a p_k^b p_l^c, with eps the 3-index
    Levi-Civita symbol and T_jkl the 4-index one summed over its first
    index, so H_V = (1/6) eps_abc T_jkl p_l^c; S, the sum of squared edge
    lengths, is 4 sum |p_i|^2 - |sum p_i|^2.  Then grad V = H_V p / 2,
    grad S = H_S p, q = C V S^(-3/2) with C = 6 sqrt(2) 6^(3/2), and
    Hess f = G^T M G + c1 (A H_V + B H_S), M = c1 N + c2 (A, B)^T (A, B).
    """
    from itertools import product

    p = np.asarray(points, dtype=np.float64).reshape(4, 3)
    eps = np.zeros((3, 3, 3))
    for a, b, c in product(range(3), repeat=3):
        eps[a, b, c] = _permutation_sign((a, b, c))
    levi4 = np.zeros((4, 4, 4, 4))
    for i, j, k, l in product(range(4), repeat=4):
        levi4[i, j, k, l] = _permutation_sign((i, j, k, l))
    hess_v = np.einsum("abc,jkl,lc->jakb", eps, levi4.sum(axis=0), p).reshape(12, 12) / 6.0
    hess_s = np.kron(2.0 * (4.0 * np.eye(4) - np.ones((4, 4))), np.eye(3))
    x = p.reshape(12)
    volume, ssum = x @ hess_v @ x / 6.0, x @ hess_s @ x / 2.0
    G = np.array([hess_v @ x / 2.0, hess_s @ x])
    C = 6.0 * np.sqrt(2.0) * 6.0 ** 1.5
    A, B = C * ssum ** -1.5, -1.5 * C * volume * ssum ** -2.5
    n01, n11 = -1.5 * C * ssum ** -2.5, 3.75 * C * volume * ssum ** -3.5
    M = c1 * np.array([[0.0, n01], [n01, n11]]) + c2 * np.outer([A, B], [A, B])
    grad = c1 * np.array([A, B]) @ G
    return grad, G.T @ M @ G + c1 * (A * hess_v + B * hess_s)


def cluster_triangles(adjacency, v):
    """Triangle ids of each normal cluster of vertex v, from the tri_cluster labels of its vertex_tris slots."""
    slots = slice(adjacency.vertex_tris.indptr[v], adjacency.vertex_tris.indptr[v + 1])
    tris, labels = adjacency.vertex_tris.indices[slots], adjacency.tri_cluster[slots]
    return [tris[labels == g] for g in range(labels.max(initial=-1) + 1)]


def reference_constraints(patch, mesh, adjacency):
    """The tangent frames of `build_constraints`, one free vertex at a time.

    A smooth or crease vertex sums the area normals of each of its normal
    clusters (`cluster_triangles`) and takes the SVD of its unit
    cluster normals; one with no cluster, or with a cluster normal no longer
    than 1e-14 times the summed lengths of that cluster's area normals, is
    demoted to a corner in place.  Returns (frames, keep, demoted).
    """
    from tetforge.constraints import tangent_frame
    from tetforge.mesh import VertexClass, triangle_area_normals

    def cluster_normals(v):
        normals = []
        for tris in cluster_triangles(adjacency, v):
            areas = triangle_area_normals(mesh.vertices, mesh.surface_tris[tris])
            n = areas.sum(axis=0)
            norm = float(np.linalg.norm(n))
            if norm <= 1e-14 * np.linalg.norm(areas, axis=1).sum():
                return None
            normals.append(n / norm)
        return normals or None

    free = patch.free_vertices
    frames = np.tile(np.eye(3), (len(free), 1, 1))
    keep = np.ones((len(free), 3), dtype=bool)
    demoted = []
    for i, v in enumerate(free):
        cls = int(mesh.vertex_class[v])
        if cls == VertexClass.INTERIOR:
            continue
        if cls == VertexClass.SURFACE_SMOOTH or cls == VertexClass.FEATURE_EDGE:
            normals = cluster_normals(v)
            if normals is not None:
                frames[i], keep[i] = tangent_frame(normals)
                continue
            mesh.vertex_class[v] = VertexClass.CORNER
            demoted.append(int(v))
        keep[i] = False  # corner or user-fixed
    return frames, keep, demoted


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
    from tetforge.mesh import tet_volumes

    while True:
        p = rng.random((4, 3))
        if abs(tet_volumes(p[None])[0]) >= min_volume:
            return p


@pytest.fixture
def umask_022():
    """The umask most systems start with, for the duration of one test."""
    old = os.umask(0o022)
    yield
    os.umask(old)


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
