"""Log-barrier objective over a mesh patch.

Each element contributes I(q) = q^2 / (2 (1 - gamma)) - ln(q - gamma), which
blows up as q drops toward the barrier level gamma and has its minimum at
q = 1, so minimizing the sum pushes the worst elements hardest while never
letting any element cross gamma.  gamma is derived from the current worst
quality q_min scaled by the barrier constant b and always sits strictly
below q_min, which is what makes untangling (q_min < 0) possible.

The per-element Hessian of I is the true second derivative,
  (1/(1-gamma) + 1/(q-gamma)^2) grad q grad q^T + I'(q) hess q;
note the plus sign on the rank-one term, which is what differentiating the
gradient forces and what the finite-difference checks in the test suite pin
down.  With c1 = I'(q) and c2 = I''(q) it is quality.py's one formula

    G^T M G + c1 (A H_V + B H_S),    M = c1 N + c2 (A, B)^T (A, B),

with G = [grad V; grad S] (2 x 12), and the gradient is c1 (A, B) G, all
read off the kernel's grads and coef.  The assembly forms M once for the
whole ring and the gradient as one (12, m) array.

Patch assembly sums only the 3 x 3 blocks whose two vertex slots are
free.  A `PatchPlan`, built once per patch solve from connectivity alone,
lists every pair (i, j) of free slots of every ring element, picked by the
element's 4-bit free-slot mask off a constant 16 x 16 table, and one path
serves them all: `quality.derivatives` gives each pair's block
G_i^T (M G_j) + c1 (A H_V + B H_S)_ij, and one scatter-add each sums the
blocks into S and the free coordinates of c1 (A, B) G into f.  The kernel,
the assembly and the line search work on (12, m) coordinate rows, and the
plan's one index of the free coordinates in those rows serves f and the
trial step alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tetforge.errors import BarrierViolationError
from tetforge.quality import derivatives, quality_diff_batch, slot_pairs

_XYZ4 = np.tile(np.arange(3), 4)[:, None]


def compute_gamma(q_min: float, b: float) -> float:
    """Barrier level for worst quality q_min and barrier constant b in (0,1).

    Scales toward zero for positive q_min and away from zero for negative
    q_min so that gamma < q_min holds in every regime; at q_min == 0 it
    returns -(1-b), keeping the map continuous in b and strictly below 0.
    """
    if not 0.0 < b < 1.0:
        raise ValueError(f"barrier constant b must lie in (0,1), got {b}")
    gamma = b * q_min if q_min > 0.0 else q_min / b
    if not gamma < q_min:
        # q_min of 0 or NaN, or a subnormal one that the product rounds back onto
        gamma = -(1.0 - b)
    return gamma


@dataclass
class BarrierParams:
    """Barrier constant, the worst quality it was derived from, and gamma."""

    b: float
    q_min: float
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.b < 1.0:
            raise ValueError(f"barrier constant b must lie in (0,1), got {self.b}")
        if not self.gamma < self.q_min:
            raise ValueError(f"gamma {self.gamma} must be strictly below q_min {self.q_min}")

    @classmethod
    def from_quality(cls, q_min: float, b: float) -> "BarrierParams":
        return cls(b=b, q_min=q_min, gamma=compute_gamma(q_min, b))


def barrier_value(q: float, gamma: float) -> float:
    """I = q^2 / (2 (1 - gamma)) - ln(q - gamma); requires q > gamma."""
    if q <= gamma:
        raise BarrierViolationError(f"quality {q} at or below barrier {gamma}")
    return float(barrier_values_batch(q, gamma))


def barrier_values_batch(q: np.ndarray, gamma: float) -> np.ndarray:
    """Batch barrier values; entries with q <= gamma or NaN come back as +inf."""
    with np.errstate(invalid="ignore", divide="ignore"):
        values = q * q / (2.0 * (1.0 - gamma)) - np.log(q - gamma)
    return np.where(q > gamma, values, np.inf)


# For each of the 16 masks (bit i set: vertex slot i is free), its pairs
# (i, j) of free slots, as 4 i + j.
_SLOT_BITS = 1 << np.arange(4)
_FREE_SLOTS = (np.arange(16)[:, None] & _SLOT_BITS) > 0
_FREE_PAIRS = (_FREE_SLOTS[:, :, None] & _FREE_SLOTS[:, None, :]).reshape(16, 16)


@dataclass
class PatchPlan:
    """Connectivity-only index arrays for assembling one patch.

    ring, free : ring element ids in patch order; free vertex ids, free[i]
        owning DOFs 3i..3i+2
    coords : (12, m) index into mesh.vertices.reshape(-1) of the coordinate
        rows of the m ring elements, read by the assembly and the line search
    row, col, curv : every pair (i, j) of free slots of every ring element,
        count^2 for an element with count free slots, element by element, as
        `quality.slot_pairs` locates them: row and col are (3, pairs) flat
        indices into the coordinate rows, curv (3, 3, pairs)
    free_coords, free_dofs : the flat index into the coordinate rows of each
        free coordinate, 3 per free slot (the rows of the pairs (i, i)), and
        its DOF; f and the line search's step both read them
    scatter : flat row-major index into S of the 9 entries of each pair's
        block, in the (3, 3, pairs) order of `quality.derivatives`; it and
        curv, the plan's largest arrays, are int32, which holds n * n for any
        S that fits in memory
    """

    ring: np.ndarray
    free: np.ndarray
    coords: np.ndarray
    free_coords: np.ndarray
    free_dofs: np.ndarray
    row: np.ndarray
    col: np.ndarray
    curv: np.ndarray
    scatter: np.ndarray

    @property
    def ndof(self) -> int:
        return 3 * len(self.free)


def plan_patch(mesh, patch) -> PatchPlan:
    """Index arrays for the free-slot assembly of `patch` on `mesh`'s connectivity."""
    free = np.asarray(patch.free_vertices, dtype=np.int64)
    ring = np.asarray(patch.ring_tets, dtype=np.int64)
    tets = mesh.tets[ring].T
    m, n = len(ring), 3 * len(free)
    vertex_dof = np.full(len(mesh.vertices), -3)  # first DOF of each free vertex; -3 + 0..2 < 0 on fixed ones
    vertex_dof[free] = np.arange(0, n, 3)
    slot_dof = vertex_dof[tets]
    coord_dof = slot_dof.repeat(3, axis=0) + _XYZ4  # of each of the (12, m) ring coordinates
    elem, pair = np.divmod(np.flatnonzero(_FREE_PAIRS.take(_SLOT_BITS @ (slot_dof >= 0), axis=0)), 16)
    row, col, curv = slot_pairs(elem, pair, m)
    # the rows of the pairs (i, i) are the free coordinates
    free_coords = row[:, pair % 5 == 0].reshape(-1)
    scatter = coord_dof.take(row)[:, None] * n + coord_dof.take(col)[None]
    return PatchPlan(ring=ring, free=free, coords=3 * tets.repeat(3, axis=0) + _XYZ4,
                     free_coords=free_coords, free_dofs=coord_dof.take(free_coords),
                     row=row, col=col, curv=curv.astype(np.int32), scatter=scatter.astype(np.int32).reshape(-1))


@dataclass
class PatchSystem:
    """Assembled Newton system for a patch: S dX = -f over the free DOFs.

    DOFs 3i..3i+2 belong to plan.free[i]; plan is the index set the system
    was assembled with.
    """

    S: np.ndarray
    f: np.ndarray
    objective: float
    plan: PatchPlan

    @property
    def ndof(self) -> int:
        return len(self.f)


def assemble_patch_system(mesh, patch, params: BarrierParams, plan: PatchPlan | None = None) -> PatchSystem:
    """Assemble the barrier objective, gradient and Hessian over a patch.

    Sums the free-slot parts of every ring element's gradient and Hessian
    into the DOFs of the patch's free vertices; `plan` (built from the
    patch when not given) says which parts and where.  Raises
    BarrierViolationError naming the first offending element if any ring
    quality is at or below gamma.
    """
    if plan is None:
        plan = plan_patch(mesh, patch)
    n = plan.ndof
    if len(plan.ring) == 0 or n == 0:
        return PatchSystem(S=np.zeros((n, n)), f=np.zeros(n), objective=0.0, plan=plan)

    terms = quality_diff_batch(mesh.vertices.take(plan.coords).T)
    q, gamma = terms.q, params.gamma
    if not q.min() > gamma:
        k = int(np.argmin(q > gamma))  # the first element at or below gamma, or NaN
        tid = int(plan.ring[k])
        raise BarrierViolationError(
            f"element {tid} quality {q[k]:.6g} at or below barrier {gamma:.6g}",
            tet_id=tid,
        )
    val = barrier_values_batch(q, gamma)
    inv = 1.0 / (q - gamma)
    c1, c2 = q / (1.0 - gamma) - inv, 1.0 / (1.0 - gamma) + inv * inv

    # M = c1 N + c2 (A, B)^T (A, B) and c1 (A, B) for the whole ring
    a, b, n01, n11 = terms.coef
    off = c1 * n01 + c2 * a * b
    weights = np.array([[c2 * a * a, off], [off, c1 * n11 + c2 * b * b]])
    ab = c1 * terms.coef[:2]
    grad = ab[0] * terms.grads[0] + ab[1] * terms.grads[1]
    hess = derivatives(terms.grads, terms.edges, ab, weights, plan.row, plan.col, plan.curv)
    f = np.bincount(plan.free_dofs, weights=grad.take(plan.free_coords), minlength=n)
    S = np.bincount(plan.scatter, weights=hess.reshape(-1), minlength=n * n).reshape(n, n)
    return PatchSystem(S=S, f=f, objective=float(val.sum()), plan=plan)
