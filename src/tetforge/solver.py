"""Damped Newton solve of a patch system with a barrier-safe line search.

The search direction comes from a Cholesky solve of (S + tau I) dX = -f,
where tau is the smallest rung of a ladder of powers of ten times the
largest diagonal entry at which the factorization succeeds and gives a
descent step (quality is non-convex, so raw Newton can point uphill); the
rung is found by bisection, a few factorizations instead of one per rung.
A wave's system is block-diagonal over its seed chunks, whose DOFs are
contiguous: the wave keeps one ladder, one tau and one step length, and each
rung factors only the chunk blocks on the diagonal, one LAPACK `dpotrf` per
block, so no factorization is larger than one chunk's block.
The backtracking line search accepts the first step that keeps every ring
element strictly above the barrier and achieves an Armijo decrease of the
patch objective.  A solve ends in one of three ways, none of which depends
on the unit of length: converged, when a step's predicted decrease |f . dX|
is at most eps * m * max(1, |objective|) for m ring elements (the Armijo
test compares two sums of m terms, each rounded to within about m ulps of
the objective, so it cannot tell such a decrease from round-off; the step
is not searched); stalled, when no shift gives a descent step or the search
accepts none; or after DEFAULT_MAX_INNER iterations.  Because no accepted
step may cross the barrier, a mesh that starts valid can never acquire an
inverted element while gamma >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from tetforge.barrier import BarrierParams, PatchSystem, assemble_patch_system, barrier_values_batch, plan_patch
from tetforge.constraints import ConstraintSystem, project_system
from tetforge.errors import NoProgressError
from tetforge.quality import quality_batch

ARMIJO_C = 1e-4
MIN_ALPHA = 2.0 ** -20
MAX_SHIFT_EXP = 4
DEFAULT_MAX_INNER = 3


@dataclass
class SolveReport:
    """Outcome of optimizing one patch."""

    iterations: int = 0
    objective: float = np.nan
    shifted_solves: int = 0  # Newton directions that needed tau > 0, accepted or not
    barrier_violations: int = 0
    stalled: bool = False
    min_quality: float = np.inf  # worst ring quality seen right after accepted steps


def _factor(block: np.ndarray, tau: float):
    """Upper Cholesky factor of block + tau I, or None when it is not numerically positive definite.

    The LAPACK call scipy.linalg.cho_factor makes, without its wrapper:
    the factor is in the upper triangle, the lower one is left as it was.
    """
    if tau:
        block = block + tau * np.eye(len(block))
    factor, info = dpotrf(block, lower=0, clean=0)
    return None if info else factor


def _factor_blocks(S: np.ndarray, blocks: list, tau: float):
    """Factors of every diagonal block S[a:b, a:b] + tau I, or None at the first that fails."""
    factors = []
    for a, b in blocks:
        factor = _factor(S[a:b, a:b], tau)
        if factor is None:
            return None
        factors.append(factor)
    return factors


def _descent_step(factors: list, blocks: list, f: np.ndarray):
    """The step solving the factored blocks for -f, or None if it is not finite or not downhill."""
    dx = -f
    for factor, (a, b) in zip(factors, blocks):
        dx[a:b] = dpotrs(factor, dx[a:b], lower=0, overwrite_b=1)[0]
    return dx if np.isfinite(dx).all() and float(f @ dx) <= 0.0 else None


def newton_direction(S: np.ndarray, f: np.ndarray, sizes=None):
    """Solve (S + tau I) dX = -f with the smallest workable shift tau.

    S is block-diagonal with contiguous diagonal blocks of the given sizes
    (one block when sizes is None); entries outside those blocks are never
    read.  tau is the first entry of the ladder 0, 1e-12 s, 1e-11 s, ...,
    1e4 s (s = max|diag S| over the whole system) at which every block of
    S + tau I factors and the step, the blocks' solutions side by side, is
    finite and downhill over the whole system; NoProgressError is raised
    when none is.  Returns (dX, tau), the pair a walk up the ladder one
    entry at a time would give.

    One walk finds it.  The blocks are factored unshifted first; only if
    one fails is the lowest shifted entry at which all factor found by
    bisection, which assumes that once S + tau I factors so does every
    larger shift (true in exact arithmetic, as the shift raises every
    eigenvalue).  The walk then goes up the ladder from that entry, reusing
    its factors, so no entry is factored twice, and returns the first step
    that passes the finiteness and descent check.
    """
    if len(f) == 0:
        return np.zeros(0), 0.0
    ends = np.cumsum(sizes).tolist() if sizes is not None else [len(f)]
    blocks = [(a, b) for a, b in zip([0] + ends[:-1], ends) if b > a]
    scale = float(np.abs(S.diagonal()).max()) or 1.0
    shifts = [0.0] + [10.0 ** k * scale for k in range(-12, MAX_SHIFT_EXP + 1)]
    found, factors = 0, _factor_blocks(S, blocks, 0.0)  # the lowest entry that factors, and its factors
    if factors is None:
        lo, hi = 1, len(shifts)
        while lo < hi:
            mid = (lo + hi) // 2
            trial = _factor_blocks(S, blocks, shifts[mid])
            if trial is None:
                lo = mid + 1
            else:
                hi, factors = mid, trial
        found = hi
    for k in range(found, len(shifts)):
        trial = factors if k == found else _factor_blocks(S, blocks, shifts[k])
        dx = None if trial is None else _descent_step(trial, blocks, f)
        if dx is not None:
            return dx, shifts[k]
    raise NoProgressError(f"system singular or ascent-only up to shift {shifts[-1]:.3g}")


def line_search(mesh, patch, system: PatchSystem, direction: np.ndarray,
                params: BarrierParams) -> tuple:
    """Backtracking step along `direction`; moves the mesh on acceptance.

    Halves alpha from 1 until every ring element stays strictly above gamma
    and the patch objective satisfies the Armijo decrease; the free vertices
    and ring elements are those of system.plan.  Returns
    (alpha, violations, new_objective, min_ring_quality); alpha == 0.0 means
    the step was rejected below 2^-20 and the mesh is untouched.
    """
    plan = system.plan
    # trials move the ring's (12, m) coordinate rows (step 0 where fixed); acceptance writes the same bits to the mesh
    start = mesh.vertices.take(plan.coords)
    step = np.zeros_like(start)
    step.reshape(-1)[plan.free_coords] = direction[plan.free_dofs]
    slope = float(system.f @ direction)
    violations = 0
    alpha = 1.0
    while alpha >= MIN_ALPHA:
        q = quality_batch((start + alpha * step).T)
        q_min = q.min()
        if not q_min > params.gamma:  # also when some q is NaN
            violations += 1
            alpha *= 0.5
            continue
        obj = float(barrier_values_batch(q, params.gamma).sum())
        if obj <= system.objective + ARMIJO_C * alpha * slope:
            mesh.vertices[plan.free] += alpha * direction.reshape(-1, 3)
            return alpha, violations, obj, float(q_min)
        alpha *= 0.5
    return 0.0, violations, system.objective, np.inf


def optimize_patch(mesh, patch, params: BarrierParams,
                   constraints: ConstraintSystem | None = None) -> SolveReport:
    """Run up to DEFAULT_MAX_INNER Newton iterations on one patch at fixed gamma.

    Constraint frames, when given, are frozen for the whole solve and each
    Newton system is reduced to their tangent columns; either way it is
    solved block by block, one diagonal block per seed chunk of the patch.
    The free vertices of the patch move in place, and one assembly plan
    serves every iteration.
    The solve ends converged (a predicted decrease at the rounding floor,
    never searched), stalled (reported, not raised) or at the iteration cap.
    """
    report = SolveReport()
    plan = plan_patch(mesh, patch)
    # the diagonal block of each chunk in the (reduced) system: the kept frame
    # columns of its free vertices, or their 3 DOFs each
    kept = constraints.keep.sum(axis=1) if constraints is not None else np.full(len(plan.free), 3)
    sizes = np.diff(np.concatenate(([0], np.cumsum(kept)))[np.cumsum(patch.chunk_sizes)], prepend=0)
    for _ in range(DEFAULT_MAX_INNER):
        system = assemble_patch_system(mesh, patch, params, plan)
        report.objective = system.objective
        if constraints is not None:
            S_eff, f_eff = project_system(system.S, system.f, constraints.frames, constraints.keep)
        else:
            S_eff, f_eff = system.S, system.f
        try:
            dx, tau = newton_direction(S_eff, f_eff, sizes)
        except NoProgressError:
            report.stalled = True
            break
        report.shifted_solves += int(tau != 0.0)
        # a predicted decrease at the objective's rounding floor: converged, not searched
        if abs(float(f_eff @ dx)) <= np.finfo(float).eps * len(plan.ring) * max(1.0, abs(system.objective)):
            break
        if constraints is not None:
            dx = constraints.lift(dx)
        alpha, violations, obj, min_q = line_search(mesh, patch, system, dx, params)
        report.barrier_violations += violations
        if alpha == 0.0:
            report.stalled = True
            break
        report.iterations += 1
        report.objective = obj
        report.min_quality = min(report.min_quality, min_q)
    return report
