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
down.  It keeps the factored form of the quality Hessian (quality.py) with
a different 2x2 per element.

Patch assembly builds only the 3x3 blocks whose two vertex slots are both
free; blocks touching a fixed vertex never reach the system.  The index
arrays that pick and scatter those blocks depend on connectivity alone, so
a `PatchPlan` is built once per patch solve and reused by every assembly
and line search of that solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tetforge.errors import BarrierViolationError
from tetforge.quality import SlotPairs, quality_batch, quality_diff_batch, slot_pairs


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
    return q * q / (2.0 * (1.0 - gamma)) - np.log(q - gamma)


def barrier_values_batch(q: np.ndarray, gamma: float) -> np.ndarray:
    """Batch barrier values; entries with q <= gamma come back as +inf."""
    out = np.full(q.shape, np.inf)
    ok = np.isfinite(q) & (q > gamma)
    qa = q[ok]
    out[ok] = qa * qa / (2.0 * (1.0 - gamma)) - np.log(qa - gamma)
    return out


def barrier_grad_hess(qd, gamma: float):
    """Gradient and Hessian of I for one element from its QualityDiff."""
    if qd.q <= gamma:
        raise BarrierViolationError(f"quality {qd.q} at or below barrier {gamma}")
    c1 = qd.q / (1.0 - gamma) - 1.0 / (qd.q - gamma)
    c2 = 1.0 / (1.0 - gamma) + 1.0 / (qd.q - gamma) ** 2
    grad = c1 * qd.grad
    hess = c2 * np.outer(qd.grad, qd.grad) + c1 * qd.hess
    return grad, hess


@dataclass
class PatchPlan:
    """Connectivity-only index arrays for assembling one patch.

    ring, tets : ids of the ring elements and their (m, 4) vertex ids
    free : free vertex ids; free[i] owns DOFs 3i..3i+2
    grad_index, grad_dof : flat (m*12) gradient entries of free slots and
        the DOF each lands in
    pairs : the (element, slot, slot) blocks with both slots free
    scatter : (len(pairs.row) * 9,) flat row-major index into S of each
        entry of those blocks
    """

    ring: np.ndarray
    tets: np.ndarray
    free: np.ndarray
    grad_index: np.ndarray
    grad_dof: np.ndarray
    pairs: SlotPairs
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
    hit = np.zeros(tets.shape, dtype=bool)
    dof = np.zeros(tets.shape, dtype=np.int64)  # first DOF of each slot's vertex, read only where hit
    if len(free):
        order = np.argsort(free)
        sorted_free = free[order]
        pos = np.searchsorted(sorted_free, tets)
        pos[pos >= len(free)] = 0
        hit = sorted_free[pos] == tets
        dof = 3 * order[pos]

    xyz = np.arange(3)
    e, i = np.nonzero(hit)
    grad_index = ((4 * e + i)[:, None] * 3 + xyz).reshape(-1)
    grad_dof = (dof[e, i][:, None] + xyz).reshape(-1)

    e, i, j = np.nonzero(hit[:, :, None] & hit[:, None, :])
    rows = dof[e, i][:, None, None] + xyz[None, :, None]
    cols = dof[e, j][:, None, None] + xyz[None, None, :]
    return PatchPlan(ring=ring, tets=tets, free=free, grad_index=grad_index, grad_dof=grad_dof,
                     pairs=slot_pairs(e, i, j), scatter=(rows * n + cols).reshape(-1))


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


def patch_objective(mesh, patch, gamma: float) -> float:
    """Sum of barrier values over the patch ring; +inf on any violation."""
    q = quality_batch(mesh.tet_points(patch.ring_tets))
    return float(barrier_values_batch(q, gamma).sum())


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
    if len(plan.tets) == 0 or n == 0:
        return PatchSystem(S=np.zeros((n, n)), f=np.zeros(n), objective=0.0, plan=plan)

    q, grad, hess = quality_diff_batch(mesh.vertices[plan.tets])
    bad = ~(np.isfinite(q) & (q > params.gamma))
    if np.any(bad):
        k = int(np.argmax(bad))
        tid = int(plan.ring[k])
        raise BarrierViolationError(
            f"element {tid} quality {q[k]:.6g} at or below barrier {params.gamma:.6g}",
            tet_id=tid,
        )
    gamma = params.gamma
    val = q * q / (2.0 * (1.0 - gamma)) - np.log(q - gamma)
    c1 = q / (1.0 - gamma) - 1.0 / (q - gamma)
    c2 = 1.0 / (1.0 - gamma) + 1.0 / (q - gamma) ** 2

    f = np.bincount(plan.grad_dof, weights=(c1[:, None] * grad).reshape(-1)[plan.grad_index], minlength=n)
    blocks = hess.chain(c1, c2).blocks(plan.pairs)
    S = np.bincount(plan.scatter, weights=blocks.reshape(-1), minlength=n * n).reshape(n, n)
    return PatchSystem(S=S, f=f, objective=float(val.sum()), plan=plan)
