"""Volume-length element quality and its analytic derivatives.

The quality of a tet is q = 6*sqrt(2) * V / l_rms^3 where V is the signed
volume and l_rms the root mean square of the six edge lengths.  It is 1 for
a regular tet, 0 for a degenerate one and negative for an inverted one, and
is smooth in the vertex positions wherever at least one edge has nonzero
length.

Elements come as (m, 12) rows, x, y, z of p0..p3, or (m, 4, 3) arrays.  The
work runs on their (12, m) transpose, one row per coordinate, as in
`mesh.dihedral_angles_batch`, viewed as (4, 3, m); an F-ordered (m, 12)
array, the transpose of contiguous rows, is read without a copy.  Every step is elementwise across
the columns, so an element's results do not depend on its column or on the
other elements of the batch.  All is computed from the six edge vectors
p_j - p_i, so nothing depends on where an element sits, and `quality_batch`
shares its steps with the kernel `quality_diff_batch`, so both give the same
q to the bit.  S^(3/2) is S sqrt(S): sqrt is correctly rounded and
pow(S, 1.5) is not, so a run on 2^k X is exactly 2^k times the run on X.
With S the sum of squared edge lengths and q = c V S^(-3/2), the kernel
returns q, the edges, G = [grad V; grad S] (2 x 12) and the scalars
A = c S^(-3/2), B = -3/2 c V S^(-5/2) and the entries n01, n11 of
N = [[0, n01], [n01, n11]]:

    grad q = (A, B) G,    Hess q = A H_V + B H_S + G^T N G.

H_V is linear in the points: each entry is +-(P_s - P_t)/6 for two
same-axis coordinates of distinct vertices, or 0; H_S = 2 (4 I - 1) (x) I_3.
For f(q) with f' = c1 and f'' = c2 per element, one 2 x 2 weight
M = c1 N + c2 (A, B)^T (A, B) gives

    grad f = c1 (A, B) G,    Hess f = G^T M G + c1 (A H_V + B H_S).

`derivatives` evaluates that Hessian one 3 x 3 block per pair (i, j) of
vertex slots, G_i^T (M G_j) plus the curvature entries, with G_i the
2 x 3 columns of slot i: the barrier assembly asks for the pairs of free
slots of each ring element, `volume_length_diff` (c1 = 1, c2 = 0, so
M = N) for all 16 pairs of one element, which the finite-difference tests
pin.
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

# Edge k of TET_EDGES, (i, j), is e_ij = p_j - p_i, in rows 3k..3k+2 of the
# (18, m) edges: e01, e02, e03, e12, e13, e23, as `_edges` forms them.

# grad V at p0..p3 is, over 6, the cross product of edges (e13, e12),
# (e02, e03), (e03, e01) and (e01, e02); with rows a, b, c, d of _CROSS,
# cross(u, v)_g = u_(g+1) v_(g+2) - u_(g+2) v_(g+1) is
# edges[a] edges[b] - edges[c] edges[d].
_CROSS = np.array([[3 * u + (g + 1) % 3, 3 * v + (g + 2) % 3, 3 * u + (g + 2) % 3, 3 * v + (g + 1) % 3]
                   for u, v in ((4, 3), (1, 2), (2, 0), (0, 1)) for g in range(3)]).T

# grad S at p_i is 2 sum_j (p_i - p_j), from the three edges at p_i:
# -2 (e01 + e02 + e03), 2 (e01 - e12 - e13), 2 (e02 + e12 - e23) and
# 2 (e03 + e13 + e23), as (factor, edge, op, edge, op, edge).
_GRAD_S = ((-2.0, 0, np.add, 1, np.add, 2), (2.0, 0, np.subtract, 3, np.subtract, 4),
           (2.0, 1, np.add, 3, np.subtract, 5), (2.0, 2, np.add, 4, np.add, 5))


def _curvature_columns() -> np.ndarray:
    """Row of each entry of a H_V + b H_S in the (39, m) curvature table of `derivatives`.

    Rows 3k + g and 18 + 3k + g hold +-a (p_j - p_i)_g / 6 for edge
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

# Pair 4 i + j of vertex slots: coordinates 3i + r and 3j + c of its block,
# r, c = 0..2, and the CURVATURE_COLUMN entry of each of its 9 entries.
_PAIR_COORDS = 3 * np.array([np.arange(16) // 4, np.arange(16) % 4])[:, None] + np.arange(3)[:, None]
_PAIR_CURVATURE = CURVATURE_COLUMN[_PAIR_COORDS[0][:, None], _PAIR_COORDS[1][None]]
_HESS_S_VALUES = np.array([6.0, -2.0, 0.0])[:, None]

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
    """Per-element q (m,), grads (2, 12, m) = (grad V, grad S), coef (4, m) = (A, B, n01, n11), edges (18, m)."""

    q: np.ndarray
    grads: np.ndarray
    coef: np.ndarray
    edges: np.ndarray


def _rows(points: np.ndarray) -> np.ndarray:
    """The coordinate rows of an (m, 12) or (m, 4, 3) array as a (4, 3, m) view: slot, axis, element."""
    return np.asarray(points, dtype=np.float64).reshape(-1, 4, 3).transpose(1, 2, 0)


def _edges(p: np.ndarray) -> np.ndarray:
    """The (18, m) edges of (4, 3, m) coordinate rows, read in place, strided or not."""
    edges = np.empty((18, p.shape[2]))
    e = edges.reshape(6, 3, -1)
    np.subtract(p[1:], p[0], out=e[:3])
    np.subtract(p[2:], p[1], out=e[3:5])
    np.subtract(p[3], p[2], out=e[5])
    return edges


def _cross(edges: np.ndarray, rows: slice) -> np.ndarray:
    """6 grad V at the given rows of the 12."""
    a, b, c, d = (edges.take(k, axis=0) for k in _CROSS[:, rows])
    return a * b - c * d


def _volume_quality(edges: np.ndarray, cross1: np.ndarray):
    """V, S, S^(3/2) and q: the one path to q (S sums per edge: one 18-term sum is less accurate).

    Each sum adds its terms in a fixed order, the same in every column.
    """
    terms, squares = edges[:3] * cross1, edges * edges
    vol = (terms[0] + terms[1] + terms[2]) / 6.0
    by_edge = squares[0::3] + squares[1::3] + squares[2::3]
    pairs = by_edge[:3] + by_edge[3:]
    ssum = pairs[0] + pairs[1] + pairs[2]
    s32 = ssum * np.sqrt(ssum)
    return vol, ssum, s32, QCOEF * vol / s32


def quality_batch(points: np.ndarray) -> np.ndarray:
    """Volume-length quality for each tet of an (m, 12) or (m, 4, 3) array.

    Rows with all vertices coincident produce NaN.
    """
    x = _rows(points)
    q = np.empty(x.shape[2])
    with np.errstate(invalid="ignore", divide="ignore"):
        for i in range(0, len(q), _BLOCK):
            edges = _edges(np.ascontiguousarray(x[..., i:i + _BLOCK]))
            q[i:i + _BLOCK] = _volume_quality(edges, _cross(edges, slice(3, 6)))[3]
    return q


def quality_diff_batch(points: np.ndarray) -> QualityTerms:
    """Quality, grad V, grad S, the coefficients A, B, n01, n11 and the edges of each tet, as rows."""
    edges = _edges(_rows(points))
    m = edges.shape[1]
    cross = _cross(edges, slice(None))
    grads = np.empty((2, 12, m))
    np.divide(cross, 6.0, out=grads[0])
    e = edges.reshape(6, 3, m)
    for out, (factor, a, op_b, b, op_c, c) in zip(grads[1].reshape(4, 3, m), _GRAD_S):
        op_c(op_b(e[a], e[b], out=out), e[c], out=out)
        out *= factor
    coef = np.empty((4, m))
    with np.errstate(invalid="ignore", divide="ignore"):
        vol, ssum, s32, q = _volume_quality(edges, cross[3:6])
        np.divide(QCOEF, s32, out=coef[0])
        np.multiply(-1.5 / ssum, coef[0], out=coef[2])
        np.multiply(coef[2], vol, out=coef[1])
        np.multiply(-2.5 / ssum, coef[1], out=coef[3])
    return QualityTerms(q=q, grads=grads, coef=coef, edges=edges)


def slot_pairs(elem: np.ndarray, pair: np.ndarray, m: int) -> tuple:
    """The indices `derivatives` reads for pairs 4 i + j of vertex slots of elements elem of m.

    row[r, p] and col[c, p] are the flat positions in (12, m) rows of
    coordinates 3i + r and 3j + c of element elem[p], r, c = 0..2, and
    curv[r, c, p] that of their curvature entry in the (39, m) table.
    """
    row, col = _PAIR_COORDS.take(pair, axis=2) * m + elem
    return row, col, _PAIR_CURVATURE.take(pair, axis=2) * m + elem


def derivatives(grads: np.ndarray, edges: np.ndarray, ab: np.ndarray, weights: np.ndarray,
                row: np.ndarray, col: np.ndarray, curv: np.ndarray) -> np.ndarray:
    """3 x 3 blocks G_i^T (M G_j) + a H_V + b H_S of the Hessian of f(q), (3, 3, pairs).

    grads and edges are the kernel's, ab (2, m) is c1 (A, B) and weights
    (2, 2, m) is M, as in the module docstring; row, col and
    curv locate the pairs of vertex slots, as `slot_pairs` gives them.
    Block [:, :, p] holds entries (3i + r, 3j + c) of pair p's element.
    """
    scaled = edges * (ab[0] / 6.0)
    blocks = np.concatenate([scaled, -scaled, _HESS_S_VALUES * ab[1]]).take(curv)
    mg = weights[:, :1] * grads[0] + weights[:, 1:] * grads[1]  # M G
    g, mg = grads.reshape(2, -1).take(row, axis=1), mg.reshape(2, -1).take(col, axis=1)
    blocks += g[0, :, None] * mg[0, None]
    blocks += g[1, :, None] * mg[1, None]
    return blocks


def volume_length_diff(p0, p1, p2, p3) -> QualityDiff:
    """Quality with analytic first and second derivatives for one tet."""
    terms = quality_diff_batch(np.asarray([p0, p1, p2, p3], dtype=np.float64))
    if not np.isfinite(terms.q[0]):
        raise DegenerateTetError("quality undefined: all vertices coincident")
    a, b, n01, n11 = terms.coef
    blocks = derivatives(terms.grads, terms.edges, terms.coef[:2], np.array([[[0.0], n01], [n01, n11]]), *slot_pairs(0, np.arange(16), 1))
    hess = blocks.reshape(3, 3, 4, 4).transpose(2, 0, 3, 1).reshape(12, 12)
    return QualityDiff(q=float(terms.q[0]), grad=(a * terms.grads[0] + b * terms.grads[1])[:, 0], hess=hess)
