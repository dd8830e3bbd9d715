"""Volume-length element quality and its analytic derivatives.

The quality of a tet is q = 6*sqrt(2) * V / l_rms^3 where V is the signed
volume and l_rms the root mean square of the six edge lengths.  It is 1 for
a regular tet, 0 for a degenerate one and negative for an inverted one, and
is smooth in the vertex positions wherever at least one edge has nonzero
length.

Derivatives are exact closed forms built from the volume (a trilinear
polynomial) and the edge-length sum of squares S (a quadratic), written in
batch form over (m, 4, 3) point arrays.  The 12 derivative slots are the
x,y,z coordinates of p0..p3 in order.  With q = c V S^(-3/2),

    grad q = A grad V + B grad S,
    Hess q = A H_V + B H_S + [grad V  grad S] N [grad V  grad S]^T,

where A = c S^(-3/2) and B = -3/2 c V S^(-5/2) are per-element scalars and
N is a symmetric 2x2 per element.  H_V's diagonal 3x3 blocks vanish and its
block (i, j) is the cross-product matrix of the edge p_k - p_l over 6, for
(i, j, k, l) an even permutation of (0, 1, 2, 3); H_S is the constant
2 (4 I - 1) (x) I_3.  `HessianFactors` keeps this form (w = (A, B), n = N),
so a caller can build only the 3x3 blocks it needs; `expand` gives the full
12x12 matrix, the one formula the finite-difference tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tetforge.errors import DegenerateTetError
from tetforge.mesh import _cross_rows as _cross

# q = QCOEF * V / S^(3/2) with S the sum of squared edge lengths:
# 6*sqrt(2) * V / (S/6)^(3/2) = 6^(5/2)*sqrt(2) * V * S^(-3/2).
QCOEF = 72.0 * np.sqrt(3.0)

# H_V block (i, j) is skew(p[_EDGE_HEAD[i, j]] - p[_EDGE_TAIL[i, j]]) / 6;
# the diagonal entries pick p0 - p0, the vanishing diagonal blocks.
_EDGE_HEAD = np.array([[0, 2, 3, 1], [3, 0, 0, 2], [1, 3, 0, 0], [2, 0, 1, 0]])
_EDGE_TAIL = np.array([[0, 3, 1, 2], [2, 0, 3, 0], [3, 0, 0, 1], [1, 2, 0, 0]])

# H_S block (i, j) is this scalar times I_3: each vertex pairs with the other three.
_HESS_S_BLOCK = 2.0 * (4.0 * np.eye(4) - 1.0)

# The block skew(e) / 6 + h I_3, flattened row-major, is
# _BLOCK_SIGN * z[_BLOCK_TAKE] for z = (e0, e1, e2, h).
_BLOCK_TAKE = np.array([3, 2, 1, 2, 3, 0, 1, 0, 3])
_BLOCK_SIGN = np.array([1.0, -1 / 6, 1 / 6, 1 / 6, 1.0, -1 / 6, -1 / 6, 1 / 6, 1.0])


@dataclass
class QualityDiff:
    """Quality with its 12-gradient and symmetric 12x12 Hessian."""

    q: float
    grad: np.ndarray
    hess: np.ndarray


@dataclass(frozen=True)
class SlotPairs:
    """Selected 3x3 blocks (element e, slot i, slot j) as flat gather indices.

    row, col : e*4 + i and e*4 + j, rows of per-slot arrays shaped (m*4, ...)
    edge_head, edge_tail : e*4 + k and e*4 + l, the edge of H_V's block
    elem : e
    hess_s : H_S's block scale for (i, j)
    """

    row: np.ndarray
    col: np.ndarray
    edge_head: np.ndarray
    edge_tail: np.ndarray
    elem: np.ndarray
    hess_s: np.ndarray


def slot_pairs(elem: np.ndarray, i: np.ndarray, j: np.ndarray) -> SlotPairs:
    """Index the blocks (elem[p], i[p], j[p]) for `HessianFactors.blocks`."""
    base = 4 * elem
    return SlotPairs(row=base + i, col=base + j,
                     edge_head=base + _EDGE_HEAD[i, j], edge_tail=base + _EDGE_TAIL[i, j],
                     elem=elem, hess_s=_HESS_S_BLOCK[i, j])


@dataclass
class HessianFactors:
    """Per-element Hessians w0 H_V + w1 H_S + G n G^T, G = [grad V  grad S].

    points : (m, 4, 3) element vertices, from which H_V's blocks are built
    grads : (m, 4, 2, 3) per vertex slot i, G_i^T: the slot's part of
        grad V and of grad S
    w : (m, 2) scales of H_V and H_S
    n : (m, 2, 2) symmetric
    """

    points: np.ndarray
    grads: np.ndarray
    w: np.ndarray
    n: np.ndarray

    def chain(self, c1: np.ndarray, c2: np.ndarray) -> "HessianFactors":
        """Factors of the Hessian of f(q) with f'(q) = c1, f''(q) = c2 per element.

        That Hessian is c2 grad q grad q^T + c1 Hess q.  Valid for the
        factors of q itself, whose w is also its gradient coefficients
        (grad q = G w), so grad q grad q^T = G w w^T G^T.
        """
        w = self.w
        n = c2[:, None, None] * (w[:, :, None] * w[:, None, :]) + c1[:, None, None] * self.n
        return HessianFactors(points=self.points, grads=self.grads, w=c1[:, None] * w, n=n)

    def blocks(self, pairs: SlotPairs) -> np.ndarray:
        """The selected 3x3 blocks, shaped (len(pairs.row), 3, 3)."""
        # G_i n G_j^T = (n G_i^T)^T G_j^T, n being symmetric
        left = np.matmul(self.n[:, None], self.grads).reshape(-1, 2, 3)[pairs.row]
        out = np.matmul(left.transpose(0, 2, 1), self.grads.reshape(-1, 2, 3)[pairs.col])
        p = self.points.reshape(-1, 3)
        z = np.empty((len(pairs.row), 4))
        z[:, :3] = p[pairs.edge_head] - p[pairs.edge_tail]
        z[:, :3] *= self.w[pairs.elem, :1]
        z[:, 3] = self.w[pairs.elem, 1] * pairs.hess_s
        flat = out.reshape(-1, 9)
        flat += z[:, _BLOCK_TAKE] * _BLOCK_SIGN
        return out

    def expand(self) -> np.ndarray:
        """The full symmetric Hessians, (m, 12, 12)."""
        m = len(self.w)
        elem = np.repeat(np.arange(m), 16)
        i = np.tile(np.repeat(np.arange(4), 4), m)
        j = np.tile(np.arange(4), 4 * m)
        blk = self.blocks(slot_pairs(elem, i, j)).reshape(m, 4, 4, 3, 3)
        return blk.transpose(0, 1, 3, 2, 4).reshape(m, 12, 12)


def _edge_vectors(points: np.ndarray):
    return points[:, 1] - points[:, 0], points[:, 2] - points[:, 0], points[:, 3] - points[:, 0]


def _edge_sq_sum(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sum of the six squared edge lengths from the three edges at p0."""
    uv = v - u
    uw = w - u
    vw = w - v
    return (
        np.einsum("ij,ij->i", u, u) + np.einsum("ij,ij->i", v, v)
        + np.einsum("ij,ij->i", w, w) + np.einsum("ij,ij->i", uv, uv)
        + np.einsum("ij,ij->i", uw, uw) + np.einsum("ij,ij->i", vw, vw)
    )


def quality_batch(points: np.ndarray) -> np.ndarray:
    """Volume-length quality for each tet in an (m, 4, 3) array.

    Rows with all vertices coincident produce NaN.
    """
    points = np.asarray(points, dtype=np.float64)
    u, v, w = _edge_vectors(points)
    vol = np.einsum("ij,ij->i", u, _cross(v, w)) / 6.0
    ssum = _edge_sq_sum(u, v, w)
    with np.errstate(invalid="ignore", divide="ignore"):
        return QCOEF * vol / np.power(ssum, 1.5)


def quality_diff_batch(points: np.ndarray):
    """Quality (m,), gradient (m, 12) and factored Hessian per tet.

    The Hessian comes back as `HessianFactors`; nothing is built per 3x3
    block until a caller asks for the blocks it needs.
    """
    points = np.asarray(points, dtype=np.float64)
    m = len(points)
    u, v, w = _edge_vectors(points)
    gv = np.empty((m, 4, 3))
    gv[:, 1] = _cross(v, w) / 6.0
    gv[:, 2] = _cross(w, u) / 6.0
    gv[:, 3] = _cross(u, v) / 6.0
    gv[:, 0] = -(gv[:, 1] + gv[:, 2] + gv[:, 3])
    gs = 2.0 * (4.0 * points - points.sum(axis=1, keepdims=True))
    grads = np.empty((m, 4, 2, 3))
    grads[:, :, 0] = gv
    grads[:, :, 1] = gs
    vol = np.einsum("ij,ij->i", u, gv[:, 1])
    ssum = _edge_sq_sum(u, v, w)
    coef = np.empty((m, 2))
    n = np.empty((m, 2, 2))
    with np.errstate(invalid="ignore", divide="ignore"):
        s32 = np.power(ssum, -1.5)
        s52 = s32 / ssum
        coef[:, 0] = QCOEF * s32
        coef[:, 1] = -1.5 * QCOEF * vol * s52
        n[:, 0, 0] = 0.0
        n[:, 0, 1] = n[:, 1, 0] = -1.5 * QCOEF * s52
        n[:, 1, 1] = 3.75 * QCOEF * vol * (s52 / ssum)
        q = coef[:, 0] * vol
        grad = (coef[:, 0, None, None] * gv + coef[:, 1, None, None] * gs).reshape(m, 12)
    return q, grad, HessianFactors(points=points, grads=grads, w=coef, n=n)


def volume_length_quality(p0, p1, p2, p3) -> float:
    """Quality of one tet; raises DegenerateTetError if all vertices coincide."""
    points = np.asarray([p0, p1, p2, p3], dtype=np.float64)[None]
    q = quality_batch(points)[0]
    if not np.isfinite(q):
        raise DegenerateTetError("quality undefined: all vertices coincident")
    return float(q)


def volume_length_diff(p0, p1, p2, p3) -> QualityDiff:
    """Quality with analytic first and second derivatives for one tet."""
    points = np.asarray([p0, p1, p2, p3], dtype=np.float64)[None]
    q, grad, hess = quality_diff_batch(points)
    if not np.isfinite(q[0]):
        raise DegenerateTetError("quality undefined: all vertices coincident")
    return QualityDiff(q=float(q[0]), grad=grad[0], hess=hess.expand()[0])
