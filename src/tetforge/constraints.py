"""Surface motion constraints as per-vertex tangent frames.

A surface vertex may only move tangentially to the surface the mesh itself
defines: its displacement must be orthogonal to the unit resultant normal
of each of its normal clusters, the groups of incident surface triangles
that set-up found (the `AdjacencyIndex.tri_cluster` labels over the
vertex's `vertex_tris` slots).  A smooth vertex has one cluster, which
leaves its tangent plane free; a crease vertex has two, which leave only
the crease direction free; corners do not move at all.  A vertex whose
cluster normal vanishes is demoted to a corner.

Every such condition touches the three DOFs of one vertex, so the
constraint null space is block-diagonal.  Each free vertex gets an
orthonormal 3x3 frame B_v whose first columns span its normals and whose
remaining, kept columns span its admissible motion: all three for an
interior vertex, two on a smooth surface, one on a crease, none at a
corner or a user-fixed vertex.  The frame comes from the SVD of the
vertex's unit normals with rank tolerance PIVOT_TOL, so dependent normals
simply add no rank.  A patch's frames are built at once: one gather of the
cluster triangles of all its surface vertices, one sum of area normals per
(vertex, cluster), and one stacked SVD per cluster count.

The constrained Newton step is the null-space step (Nocedal & Wright,
Numerical Optimization, 16.2): with T the kept columns of the block
diagonal B,

    (T^T S T) y = -T^T f,    dX = T y,

so that every step is tangential by construction and the reduced system is
smaller than S.  `projector` keeps the dense formulation as a reference.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from tetforge.mesh import TetMesh, VertexClass, triangle_area_normals
from tetforge.topology import AdjacencyIndex

logger = logging.getLogger("tetforge")

PIVOT_TOL = 1e-10

# vertex class codes, compared as plain ints: an array compare against an IntEnum member is slower
_INTERIOR, _SMOOTH, _CREASE = int(VertexClass.INTERIOR), int(VertexClass.SURFACE_SMOOTH), int(VertexClass.FEATURE_EDGE)


@dataclass
class ConstraintSystem:
    """Orthonormal frames of a patch's free vertices and their tangent columns.

    frames : (nv, 3, 3), frames[i] for the i-th free vertex of the patch
    keep : (nv, 3) bool, the columns of each frame along which it may move
    """

    frames: np.ndarray
    keep: np.ndarray

    @property
    def num_rows(self) -> int:
        """Number of independent normal conditions over the patch."""
        return int(self.keep.size - self.keep.sum())

    def lift(self, reduced: np.ndarray) -> np.ndarray:
        """Map a step in the kept frame coordinates back to the patch DOFs."""
        y = np.zeros(self.keep.shape)
        y[self.keep] = reduced
        return np.einsum("iab,ib->ia", self.frames, y).reshape(-1)


def tangent_frame(normals):
    """Orthonormal frame whose leading columns span the given unit normals.

    normals is (c, 3), or a stack (..., c, 3) of such sets.  Returns (frame,
    keep): the columns of each 3x3 frame with keep True span the directions
    orthogonal to every normal of its set.  Singular values below PIVOT_TOL
    relative to the largest count as dependent and add no rank.
    """
    _, s, vt = np.linalg.svd(np.atleast_2d(normals))
    rank = (s > PIVOT_TOL * s[..., :1]).sum(axis=-1)
    return np.swapaxes(vt, -1, -2), np.arange(3) >= rank[..., None]


def build_constraints(patch, mesh: TetMesh, adjacency: AdjacencyIndex):
    """Tangent frames for the free vertices of a patch, from their current classes.

    These frames alone decide how far each free vertex may move: an interior
    vertex keeps all three columns, a smooth surface or crease vertex its
    tangent columns, and a corner or user-fixed vertex none, so a vertex
    demoted after the patch was selected stays where it is.  A surface
    vertex's cluster count is read from its class: set-up classed a vertex
    with one normal cluster smooth and one with two a crease.  A vertex
    with a cluster whose resultant is no longer than a floor (opposing
    faces cancelling) is reclassified as a corner in place and keeps no
    column.  The floor of a cluster is 1e-14 times the summed lengths of
    its own area normals, so it depends neither on where the mesh sits nor
    on how far the rest of the mesh reaches, and a cluster whose normals
    are all zero is demoted.  Returns
    (ConstraintSystem, demoted), demoted listing the vertices reclassified
    by this call, in free-vertex order.
    """
    free = np.asarray(patch.free_vertices, dtype=np.int64)
    cls = mesh.vertex_class[free]
    frames = np.tile(np.eye(3), (len(free), 1, 1))
    keep = np.repeat((cls == _INTERIOR)[:, None], 3, axis=1)
    surface = np.flatnonzero((cls == _SMOOTH) | (cls == _CREASE))
    if len(surface) == 0:
        return ConstraintSystem(frames=frames, keep=keep), []

    # the vertex_tris slots of every surface vertex, and the cluster each slot's triangle joined
    incidence = adjacency.vertex_tris
    lo = incidence.indptr[free[surface]]
    count = incidence.indptr[free[surface] + 1] - lo
    owner = np.repeat(np.arange(len(surface)), count)
    slot = np.arange(len(owner)) + np.repeat(lo - np.cumsum(count) + count, count)
    label = adjacency.tri_cluster[slot]
    joined = label >= 0
    owner, slot, label = owner[joined], slot[joined], label[joined]
    # a smooth vertex's code is its cluster count, 1, and a crease vertex's, 2:
    # set-up classed each by the clusters it found, labelled 0 and 1
    clusters = cls[surface]
    # one sum of area normals per (vertex, cluster), each in slot order
    area = triangle_area_normals(mesh.vertices, adjacency.tris[incidence.indices[slot]])
    key = 3 * (2 * owner + label)[:, None] + np.arange(3)
    resultant = np.bincount(key.reshape(-1), weights=area.reshape(-1),
                            minlength=6 * len(surface)).reshape(len(surface), 2, 3)
    # the norm as 1x3 times 3x1 products, which round like np.linalg.norm of one vector
    norm = np.sqrt((resultant[:, :, None, :] @ resultant[:, :, :, None])[:, :, 0, 0])
    floor = 1e-14 * np.bincount(2 * owner + label, weights=np.sqrt(np.einsum("ij,ij->i", area, area)),
                                minlength=2 * len(surface)).reshape(len(surface), 2)

    degenerate = ((norm <= floor) & (np.arange(2) < clusters[:, None])).any(axis=1)
    for c in (_SMOOTH, _CREASE):
        rows = np.flatnonzero(~degenerate & (clusters == c))
        at = surface[rows]
        frames[at], keep[at] = tangent_frame(resultant[rows, :c] / norm[rows, :c, None])
    demoted = free[surface[degenerate]]
    mesh.vertex_class[demoted] = VertexClass.CORNER
    for v in demoted.tolist():
        logger.debug("vertex %d demoted to corner: degenerate normal", v)
    return ConstraintSystem(frames=frames, keep=keep), demoted.tolist()


def projector(C: np.ndarray):
    """Null-space projector Q and right inverse R for a constraint matrix.

    Dense reference for the frame reduction: dependent rows (pivoted-QR
    pivot below PIVOT_TOL relative to the largest) are dropped first.
    Returns (Q, R, C_kept, g_keep_indices, dropped_count).
    """
    m, n = C.shape
    if m == 0:
        return np.eye(n), np.zeros((n, 0)), C, np.zeros(0, dtype=np.int64), 0
    _, r, piv = scipy.linalg.qr(C.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = PIVOT_TOL * (diag[0] if diag.size and diag[0] > 0 else 1.0)
    rank = int((diag > tol).sum())
    keep = np.sort(piv[:rank])
    dropped = m - rank
    if dropped:
        logger.debug("projector: dropped %d dependent constraint rows", dropped)
    Ck = C[keep]
    M = Ck @ Ck.T
    cho = scipy.linalg.cho_factor(M, check_finite=False)
    R = scipy.linalg.cho_solve(cho, Ck, check_finite=False).T  # C^T (C C^T)^-1
    Q = np.eye(n) - R @ Ck
    return Q, R, Ck, keep, dropped


def project_system(S: np.ndarray, f: np.ndarray, frames: np.ndarray, keep: np.ndarray):
    """Reduce S dX = -f to the kept frame columns: ((B^T S B)[k, k], (B^T f)[k]).

    B is block-diagonal with the (nv, 3, 3) frames on its diagonal, so only
    the rows and columns of vertices whose frame is not the identity are
    rotated, block by block, in one copy of S, and the kept rows and
    columns are then gathered with one take each.
    """
    nv = len(frames)
    n = 3 * nv
    rot = np.flatnonzero((frames != np.eye(3)).any(axis=(1, 2)))
    F = frames[rot]
    S_b = S.copy()
    rows = S_b.reshape(nv, 3, n)
    rows[rot] = np.matmul(F.transpose(0, 2, 1), rows[rot])
    cols = S_b.reshape(n, nv, 3)
    cols[:, rot] = np.matmul(cols[:, rot].transpose(1, 0, 2), F).transpose(1, 0, 2)
    f_b = f.reshape(nv, 3).copy()
    f_b[rot] = np.einsum("iab,ia->ib", F, f_b[rot])
    k = np.flatnonzero(keep)
    return S_b.take(k, axis=0).take(k, axis=1), f_b.reshape(-1).take(k)
