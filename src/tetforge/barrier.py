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
down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from tetforge.errors import BarrierViolationError
from tetforge.quality import quality_batch, quality_diff_batch


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


def _element_barrier_batch(q, grad, hess, gamma: float):
    """Per-element barrier value/gradient/Hessian from quality derivatives."""
    val = q * q / (2.0 * (1.0 - gamma)) - np.log(q - gamma)
    c1 = q / (1.0 - gamma) - 1.0 / (q - gamma)
    c2 = 1.0 / (1.0 - gamma) + 1.0 / (q - gamma) ** 2
    g = c1[:, None] * grad
    h = c2[:, None, None] * np.einsum("mi,mj->mij", grad, grad) + c1[:, None, None] * hess
    return val, g, h


@dataclass
class PatchSystem:
    """Assembled Newton system for a patch: S dX = -f over the free DOFs.

    dof_map maps each free vertex id to the index of its x DOF (y, z follow).
    """

    dof_map: dict[int, int]
    S: np.ndarray
    f: np.ndarray
    objective: float
    element_qualities: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def ndof(self) -> int:
        return len(self.f)


def patch_objective(mesh, patch, gamma: float) -> float:
    """Sum of barrier values over the patch ring; +inf on any violation."""
    q = quality_batch(mesh.tet_points(patch.ring_tets))
    return float(barrier_values_batch(q, gamma).sum())


def assemble_patch_system(mesh, patch, params: BarrierParams) -> PatchSystem:
    """Assemble the barrier objective, gradient and Hessian over a patch.

    Sums per-element 12-vector / 12x12 contributions of every ring element
    into the free DOFs given by the patch's free vertices; fixed vertices
    simply do not scatter.  Raises BarrierViolationError naming the first
    offending element if any ring quality is at or below gamma.
    """
    free = np.asarray(patch.free_vertices, dtype=np.int64)
    dof_map = {int(v): 3 * i for i, v in enumerate(free)}
    n = 3 * len(free)
    ring = np.asarray(patch.ring_tets, dtype=np.int64)
    if len(ring) == 0 or n == 0:
        return PatchSystem(dof_map=dof_map, S=np.zeros((n, n)), f=np.zeros(n), objective=0.0)

    tets = mesh.tets[ring]
    q, grad, hess = quality_diff_batch(mesh.vertices[tets])
    bad = ~(np.isfinite(q) & (q > params.gamma))
    if np.any(bad):
        tid = int(ring[np.argmax(bad)])
        raise BarrierViolationError(
            f"element {tid} quality {q[np.argmax(bad)]:.6g} at or below barrier {params.gamma:.6g}",
            tet_id=tid,
        )
    val, g, h = _element_barrier_batch(q, grad, hess, params.gamma)

    # Map each tet's 12 local slots to global DOFs (-1 for fixed slots).
    order = np.argsort(free)
    sorted_free = free[order]
    pos = np.searchsorted(sorted_free, tets)
    pos[pos >= len(free)] = 0
    hit = sorted_free[pos] == tets
    base = 3 * order[pos]
    slot_dof = np.where(hit[:, :, None], base[:, :, None] + np.arange(3), -1).reshape(-1, 12)
    live = slot_dof >= 0

    f = np.bincount(slot_dof[live], weights=g[live], minlength=n)

    pair_live = live[:, :, None] & live[:, None, :]
    rows = np.broadcast_to(slot_dof[:, :, None], h.shape)[pair_live]
    cols = np.broadcast_to(slot_dof[:, None, :], h.shape)[pair_live]
    S = np.bincount(rows * n + cols, weights=h[pair_live], minlength=n * n).reshape(n, n)

    return PatchSystem(dof_map=dof_map, S=S, f=f, objective=float(val.sum()), element_qualities=q)
