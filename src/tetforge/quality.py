"""Volume-length element quality and its analytic derivatives.

The quality of a tet is q = 6*sqrt(2) * V / l_rms^3 where V is the signed
volume and l_rms the root mean square of the six edge lengths.  It is 1 for
a regular tet, 0 for a degenerate one and negative for an inverted one, and
is smooth in the vertex positions wherever at least one edge has nonzero
length.

Elements are (m, 12) rows, x, y, z of p0..p3, or (m, 4, 3) arrays.  All is
computed from the six edge vectors p_j - p_i, so nothing depends on where
an element sits, and `quality_batch` shares its steps with the kernel
`quality_diff_batch`, so both give the same q to the bit.  S^(3/2) is
S sqrt(S): sqrt is correctly rounded and pow(S, 1.5) is not, so a run on
2^k X is exactly 2^k times the run on X.  With S the sum of squared edge
lengths and q = c V S^(-3/2), the kernel returns q, the edges,
G = [grad V; grad S] (2 x 12) and the scalars A = c S^(-3/2),
B = -3/2 c V S^(-5/2) and the entries n01, n11 of
N = [[0, n01], [n01, n11]]:

    grad q = (A, B) G,    Hess q = A H_V + B H_S + G^T N G.

H_V is linear in the points: each entry is +-(P_s - P_t)/6 for two
same-axis coordinates of distinct vertices, or 0; H_S = 2 (4 I - 1) (x) I_3.
For f(q) with f' = c1 and f'' = c2 per element, one 2 x 2 weight
M = c1 N + c2 (A, B)^T (A, B) gives

    grad f = c1 (A, B) G,    Hess f = G^T M G + c1 (A H_V + B H_S).

`derivatives` evaluates the Hessian entries asked for: the barrier assembly
those between free coordinates of elements with two or more free vertices
(barrier.py reads the same M for the closed form of one),
`volume_length_diff` (c1 = 1, c2 = 0, so M = N) all 144 of one element,
which the finite-difference tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from tetforge.errors import DegenerateTetError
from tetforge.mesh import TET_EDGES

# q = QCOEF * V / S^(3/2) with S the sum of squared edge lengths:
# 6*sqrt(2) * V / (S/6)^(3/2) = 6^(5/2)*sqrt(2) * V * S^(-3/2).
QCOEF = 72.0 * np.sqrt(3.0)

# Edge k of TET_EDGES, (i, j), is p_j - p_i: columns 3k..3k+2 of the (m, 18) edges.
_ENDPOINTS = np.array([[3 * j + c for _, j in TET_EDGES for c in range(3)],
                       [3 * i + c for i, _ in TET_EDGES for c in range(3)]])

# grad V at p0..p3 is, over 6, the cross product of edges (p3-p1, p2-p1),
# (p2-p0, p3-p0), (p3-p0, p1-p0) and (p1-p0, p2-p0); with f = edges[:, _CROSS],
# cross(a, b)_c = a_(c+1) b_(c+2) - a_(c+2) b_(c+1) is f[:, 0] f[:, 1] - f[:, 2] f[:, 3].
_CROSS = np.array([[3 * a + (c + 1) % 3, 3 * b + (c + 2) % 3, 3 * a + (c + 2) % 3, 3 * b + (c + 1) % 3]
                   for a, b in ((4, 3), (1, 2), (2, 0), (0, 1)) for c in range(3)]).T

# grad S at p_i is 2 sum_j (p_i - p_j), a linear map of the edges
_GRAD_S = np.kron(np.array([np.eye(4)[j] - np.eye(4)[i] for i, j in TET_EDGES]) * 2.0, np.eye(3))


def _curvature_columns() -> np.ndarray:
    """Column of each entry of a H_V + b H_S in the (m, 39) curvature table of `derivatives`.

    Columns 3k + g and 18 + 3k + g hold +-a (p_j - p_i)_g / 6 for edge
    k = (i, j); 36, 37 and 38 hold 6 b, -2 b and 0.  Block (i, j) of H_V is
    the cross-product matrix of p_k - p_l over 6, for (i, j, k, l) an even
    permutation of 0..3; it lies off the diagonal of the block, H_S on it.
    """
    column = np.full((12, 12), 38, dtype=np.int32)
    for i, j, k, l in permutations(range(4)):
        if sum(p > t for n, p in enumerate((i, j, k, l)) for t in (i, j, k, l)[n + 1:]) % 2 == 0:
            plus = 3 * TET_EDGES.index((min(k, l), max(k, l))) + 18 * (k < l)  # +(p_k - p_l)
            for a, b, g in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                column[3 * i + b, 3 * j + a], column[3 * i + a, 3 * j + b] = plus + g, (plus + 18) % 36 + g
    hess_s = np.kron(4.0 * np.eye(4) - 1.0, np.eye(3))
    column[hess_s > 0], column[hess_s < 0] = 36, 37
    return column


CURVATURE_COLUMN = _curvature_columns()
_HESS_S_VALUES = np.array([6.0, -2.0, 0.0])

# Elements per pass of quality_batch over a whole mesh: bounds its temporaries.
_BLOCK = 1024


@dataclass
class QualityDiff:
    """Quality with its 12-gradient and symmetric 12x12 Hessian."""

    q: float
    grad: np.ndarray
    hess: np.ndarray


@dataclass
class QualityTerms:
    """Per-element q (m,), grads (m, 2, 12) = (grad V, grad S), coef (m, 4) = (A, B, n01, n11), edges (m, 18)."""

    q: np.ndarray
    grads: np.ndarray
    coef: np.ndarray
    edges: np.ndarray


def _edges(points: np.ndarray) -> np.ndarray:
    x = np.asarray(points, dtype=np.float64).reshape(-1, 12)
    edges = x[:, _ENDPOINTS[0]]
    edges -= x[:, _ENDPOINTS[1]]
    return edges


def _cross(edges: np.ndarray, columns: slice) -> np.ndarray:
    """6 grad V at the given columns of the 12."""
    f = edges[:, _CROSS[:, columns]]
    return f[:, 0] * f[:, 1] - f[:, 2] * f[:, 3]


def _volume_quality(edges: np.ndarray, cross1: np.ndarray):
    """V, S, S^(3/2) and q: the one path to q (S sums per edge: one 18-term sum is less accurate)."""
    vol = (edges[:, :3] * cross1).sum(axis=1) / 6.0
    by_edge = edges.reshape(-1, 6, 3)
    ssum = np.einsum("ijk,ijk->ij", by_edge, by_edge).sum(axis=1)
    s32 = ssum * np.sqrt(ssum)
    return vol, ssum, s32, QCOEF * vol / s32


def quality_batch(points: np.ndarray) -> np.ndarray:
    """Volume-length quality for each tet of an (m, 12) or (m, 4, 3) array.

    Rows with all vertices coincident produce NaN.
    """
    x = np.asarray(points, dtype=np.float64).reshape(-1, 12)
    if len(x) > _BLOCK:
        return np.concatenate([quality_batch(x[i:i + _BLOCK]) for i in range(0, len(x), _BLOCK)])
    edges = _edges(x)
    with np.errstate(invalid="ignore", divide="ignore"):
        return _volume_quality(edges, _cross(edges, slice(3, 6)))[3]


def quality_diff_batch(points: np.ndarray) -> QualityTerms:
    """Quality, grad V, grad S, the coefficients A, B, n01, n11 and the edges per tet."""
    edges = _edges(points)
    cross = _cross(edges, slice(None))
    grads = np.empty((len(edges), 2, 12))
    np.divide(cross, 6.0, out=grads[:, 0])
    np.matmul(edges, _GRAD_S, out=grads[:, 1])
    coef = np.empty((len(edges), 4))
    with np.errstate(invalid="ignore", divide="ignore"):
        vol, ssum, s32, q = _volume_quality(edges, cross[:, 3:6])
        np.divide(QCOEF, s32, out=coef[:, 0])
        np.multiply(-1.5 / ssum, coef[:, 0], out=coef[:, 2])
        np.multiply(coef[:, 2], vol, out=coef[:, 1])
        np.multiply(-2.5 / ssum, coef[:, 1], out=coef[:, 3])
    return QualityTerms(q=q, grads=grads, coef=coef, edges=edges)


def derivatives(grads: np.ndarray, edges: np.ndarray, ab: np.ndarray, weights: np.ndarray,
                entry: np.ndarray, curv: np.ndarray) -> np.ndarray:
    """Hessian entries G^T M G + a H_V + b H_S of f(q) per element.

    grads and edges are the kernel's, ab (m, 2) is c1 (A, B) and weights
    (m, 2, 2) is M, as in the module docstring.  The entries are those at
    entry = 144 e + 12 r + c, in any order, with curv = 39 e + CURVATURE_COLUMN[r, c].
    One (m, 12, 12) table serves all m elements: a wave of `select_patches`
    holds at most 64 free vertices, which bounds m.
    """
    m = len(ab)
    products = np.matmul(grads.transpose(0, 2, 1), np.matmul(weights, grads)).take(entry)
    curvature = np.empty((m, 39))
    np.multiply(edges, ab[:, :1] / 6.0, out=curvature[:, :18])
    np.negative(curvature[:, :18], out=curvature[:, 18:36])
    np.multiply(ab[:, 1:], _HESS_S_VALUES, out=curvature[:, 36:])
    products += curvature.take(curv)
    return products


def volume_length_quality(p0, p1, p2, p3) -> float:
    """Quality of one tet; raises DegenerateTetError if all vertices coincide."""
    q = quality_batch(np.asarray([p0, p1, p2, p3], dtype=np.float64))[0]
    if not np.isfinite(q):
        raise DegenerateTetError("quality undefined: all vertices coincident")
    return float(q)


def volume_length_diff(p0, p1, p2, p3) -> QualityDiff:
    """Quality with analytic first and second derivatives for one tet."""
    points = np.asarray([p0, p1, p2, p3], dtype=np.float64).reshape(1, 12)
    terms = quality_diff_batch(points)
    if not np.isfinite(terms.q[0]):
        raise DegenerateTetError("quality undefined: all vertices coincident")
    _, _, n01, n11 = terms.coef[0]
    ab = terms.coef[:, :2]
    hess = derivatives(terms.grads, terms.edges, ab, np.array([[[0.0, n01], [n01, n11]]]),
                       np.arange(144), CURVATURE_COLUMN.reshape(-1))
    return QualityDiff(q=float(terms.q[0]), grad=ab[0] @ terms.grads[0], hess=hess.reshape(12, 12))
