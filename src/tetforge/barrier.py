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
whole ring and the gradient as one (m, 12) array.

Patch assembly sums only the entries whose vertex slots are free.  A
`PatchPlan`, built once per patch solve from connectivity alone, splits the
ring into two groups by the number of free slots of each element, those
with exactly one first.  Such an element, free in slot i only, needs the
one 3x3 block (i, i), where H_V is 0 and H_S is 6 I_3 (quality.py), so its
block is G_i^T (M G_i) + 6 c1 B I_3 with G_i the 2 x 3 columns of slot i.
Every other element goes through `quality.derivatives`, which builds its
12 x 12 table G^T (M G): its 4-bit mask of free slots picks its free
coordinates and Hessian entries off constant tables for the 16 masks.
Both groups end in one scatter-add each for f and S.  The plan keeps its
indices as int32 flat arrays, with the (m, 12) index of the ring
coordinates that the assembly and the line search both read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tetforge.errors import BarrierViolationError
from tetforge.quality import CURVATURE_COLUMN, derivatives, quality_diff_batch

_XYZ4 = np.tile(np.arange(3, dtype=np.int32), 4)


def compute_gamma(q_min: float, b: float) -> float:
    """Barrier level for worst quality q_min and barrier constant b in (0,1).

    Scales toward zero for positive q_min and away from zero for negative
    q_min so that gamma < q_min holds in every regime; at q_min == 0 it
    returns -(1-b), keeping the map continuous in b and strictly below 0.
    """
    if not 0.0 < b < 1.0:
        raise ValueError(f"barrier constant b must lie in (0,1), got {b}")
    if q_min > 0.0:
        gamma = b * q_min
    elif q_min < 0.0:
        gamma = q_min / b
    else:
        gamma = -(1.0 - b)
    if gamma >= q_min:
        # subnormal q_min can round the product back onto q_min
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


# For each of the 16 masks (bit i set: vertex slot i is free), the free
# coordinates 3i..3i+2 and the Hessian entries (r, c) between them.
_SLOT_BITS = 1 << np.arange(4)
_FREE_COORDS = np.repeat((np.arange(16)[:, None] & _SLOT_BITS) > 0, 3, axis=1)
_FREE_ENTRIES = (_FREE_COORDS[:, :, None] & _FREE_COORDS[:, None, :]).reshape(16, 144)


# The masks with one free slot; (grad V, grad S) of slot 0 in an element's
# (2, 12) grads; the 9 entries of a 3x3 block as (row, column) offsets from
# its first DOF.
_ONE_SLOT = _FREE_COORDS[:, ::3].sum(axis=1) == 1
_SLOT0_GRADS = np.array([0, 1, 2, 12, 13, 14], dtype=np.int32)
_BLOCK_ROW, _BLOCK_COL = np.divmod(np.arange(9, dtype=np.int32), 3)


@dataclass
class PatchPlan:
    """Connectivity-only index arrays for assembling one patch.

    ring, free : ring element ids, the len(single) with one free slot
        first, each group in patch order; free vertex ids, free[i] owning
        DOFs 3i..3i+2
    coords : (m, 12) index into mesh.vertices.reshape(-1) of each ring
        element's coordinates, read by the assembly and the line search
    grad_index, grad_dof : flat (m*12) gradient entries of free slots, in
        order, and the DOF each lands in; the first 3 len(single) are the
        gradient DOFs of the one-slot elements
    single : (k, 6) flat index into the kernel's (m, 2, 12) grads of
        (grad_i V, grad_i S) for the free slot i of each one-slot element
    entry, curv : the Hessian entries (e, r, c) between free coordinates of
        the other elements, e counted from the first of them, as
        `quality.derivatives` takes them
    scatter : flat row-major index into S of the 9 block entries of each
        one-slot element, then of each entry; all are int32, which holds
        n * n for any S that fits in memory
    """

    ring: np.ndarray
    free: np.ndarray
    coords: np.ndarray
    grad_index: np.ndarray
    grad_dof: np.ndarray
    single: np.ndarray
    entry: np.ndarray
    curv: np.ndarray
    scatter: np.ndarray

    @property
    def ndof(self) -> int:
        return 3 * len(self.free)


def plan_patch(mesh, patch) -> PatchPlan:
    """Index arrays for the free-slot assembly of `patch` on `mesh`'s connectivity."""
    free = np.asarray(patch.free_vertices, dtype=np.int64)
    ring = np.asarray(patch.ring_tets, dtype=np.int64)
    tets = mesh.tets[ring]
    n = 3 * len(free)
    # first DOF of each slot's vertex, negative on fixed ones
    slot_dof = np.full(len(mesh.vertices), -1, dtype=np.int32)
    slot_dof[free] = np.arange(0, n, 3, dtype=np.int32)
    slot_dof = slot_dof[tets]
    mask = (slot_dof >= 0) @ _SLOT_BITS
    one_slot = _ONE_SLOT[mask]
    order = np.argsort(~one_slot, kind="stable")
    ring, tets, slot_dof, mask = ring[order], tets[order], slot_dof[order], mask[order]
    k = int(np.count_nonzero(one_slot))
    dof = (slot_dof.repeat(3, axis=1) + _XYZ4).reshape(-1)  # of each of the 12 m coordinates, where free
    grad_index = np.flatnonzero(_FREE_COORDS[mask]).astype(np.int32)
    grad_dof = dof[grad_index]

    start = grad_index[:3 * k:3]  # 12 e + 3 i for one-slot element e, free in slot i
    single = (start + 12 * np.arange(k, dtype=np.int32))[:, None] + _SLOT0_GRADS
    first = grad_dof[:3 * k:3, None]
    block = (first + _BLOCK_ROW) * n + first + _BLOCK_COL

    entry = np.flatnonzero(_FREE_ENTRIES[mask[k:]]).astype(np.int32)  # 144 e + 12 r + c
    row, elem = entry // 12, entry // 144  # 12 e + r and e
    col = entry - 12 * row + 12 * elem  # 12 e + c
    many = dof[12 * k:]
    return PatchPlan(ring=ring, free=free, coords=(3 * tets).astype(np.int32).repeat(3, axis=1) + _XYZ4,
                     grad_index=grad_index, grad_dof=grad_dof, single=single, entry=entry,
                     curv=39 * elem + CURVATURE_COLUMN.take(entry - 144 * elem),
                     scatter=np.concatenate([block.reshape(-1), many[row] * n + many[col]]))


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

    x = mesh.vertices.take(plan.coords)
    terms = quality_diff_batch(x)
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
    a, b, n01, n11 = terms.coef.T
    off = c1 * n01 + c2 * a * b
    weights = np.stack([c2 * a * a, off, off, c1 * n11 + c2 * b * b], axis=1).reshape(-1, 2, 2)
    ab = c1[:, None] * terms.coef[:, :2]
    grad = np.matmul(ab[:, None], terms.grads)

    k = len(plan.single)
    g = terms.grads.take(plan.single).reshape(k, 2, 3)
    blocks = np.matmul(g.transpose(0, 2, 1), np.matmul(weights[:k], g)).reshape(k, 9)
    blocks[:, ::4] += 6.0 * ab[:k, 1:]
    hess = derivatives(terms.grads[k:], terms.edges[k:], ab[k:], weights[k:], plan.entry, plan.curv)
    f = np.bincount(plan.grad_dof, weights=grad.take(plan.grad_index), minlength=n)
    S = np.bincount(plan.scatter, weights=np.concatenate([blocks.reshape(-1), hess]), minlength=n * n).reshape(n, n)
    return PatchSystem(S=S, f=f, objective=float(val.sum()), plan=plan)
