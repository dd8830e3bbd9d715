"""Spans and counts around tetforge's layers, recorded from outside.

`instrument` replaces module attributes with timing wrappers for the
duration of a `with` block and puts every original back on exit.  A
wrapper is installed in the namespace the caller looks the name up in
(`tetforge.solver.line_search` is what `optimize_patch` calls), so each
span sits exactly at one layer boundary.  Spans are kept in memory; the
tracer turns them into per-layer totals, and self times that subtract the
child spans, once a repetition ends.

Flop counts are computed from matrix sizes, not measured.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from contextlib import contextmanager

import scipy.linalg

import tetforge.barrier
import tetforge.driver
import tetforge.solver

# Spans whose self time is reported next to their total.
SELF_TIMED = ("driver.improve", "solver.patch", "barrier.assemble", "solver.line_search")


class Tracer:
    """In-memory spans (name, parent index, start, end) plus integer counts."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []

    def begin(self, name: str) -> list:
        record = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def end(self, record: list) -> None:
        record[3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        record = self.begin(name)
        try:
            yield
        finally:
            self.end(record)

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def layer_times(self) -> dict:
        """Total and self seconds per span name."""
        total: Counter = Counter()
        children: Counter = Counter()
        for name, parent, start, end in self.spans:
            total[name] += end - start
            if parent >= 0:
                children[parent] += end - start
        self_time: Counter = Counter()
        for i, (name, _, start, end) in enumerate(self.spans):
            self_time[name] += end - start - children[i]
        return {"total": total, "self": self_time}


def _cholesky_flops(n: int) -> float:
    return n ** 3 / 3.0


def _project_flops(n: int, m: int) -> float:
    """Dense work of one project_system call on n DOFs and m constraint rows.

    Pivoted QR of C^T, C C^T, its Cholesky and solve, Q = I - R C, C^T C and
    the two n x n x n products of Q^T S Q; vector terms are left out.
    """
    return (2.0 * n * m * m - 2.0 * m ** 3 / 3.0) + 2.0 * m * m * n + m ** 3 / 3.0 \
        + 2.0 * m * m * n + 2.0 * n * n * m + 2.0 * n * n * m + 4.0 * n ** 3


def _wrapper(tracer: Tracer, original, name: str, before=None, after=None):
    def traced(*args, **kwargs):
        if before is not None:
            before(tracer, args)
        record = tracer.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(record)
        if after is not None:
            after(tracer, args, result)
        return result
    return traced


def _count_patch(tracer, args, report):
    tracer.counts["solver.iterations"] += report.iterations
    tracer.counts["solver.stalled_patches"] += int(report.stalled)


def _count_constraints(tracer, args, result):
    tracer.counts["constraints.rows"] += result[0].num_rows


def _count_assembly(tracer, args, system):
    tracer.counts["barrier.assemble_calls"] += 1
    tracer.counts["barrier.dofs"] += system.ndof
    tracer.counts["driver.max_patch_dofs"] = max(tracer.counts["driver.max_patch_dofs"], system.ndof)


def _count_kernel(tracer, args):
    tracer.counts["quality.kernel_elements"] += len(args[0])


def _count_trial(tracer, args):
    tracer.counts["quality.trial_elements"] += len(args[0])
    if tracer.inside("solver.line_search"):
        tracer.counts["solver.trial_steps"] += 1


def _count_line_search(tracer, args, result):
    alpha, violations = result[0], result[1]
    tracer.counts["solver.accepted_steps"] += int(alpha > 0.0)
    tracer.counts["solver.barrier_rejections"] += violations


def _count_newton(tracer, args, result):
    n = len(args[1])
    tracer.counts["solver.shifted_solves"] += int(result[1] != 0.0)
    tracer.counts["solver.cholesky_flops_computed"] += 2 * n * n


def _count_factorization(tracer, args):
    if tracer.inside("solver.newton"):
        n = len(args[0])
        tracer.counts["solver.factorizations"] += 1
        tracer.counts["solver.cholesky_flops_computed"] += _cholesky_flops(n)


def _count_projection(tracer, args, result):
    tracer.counts["constraints.project_calls"] += 1
    n, m = len(args[1]), args[2].shape[0]
    tracer.counts["constraints.project_flops_computed"] += _project_flops(n, m)


# (module, attribute, span name, count before the call, count after it)
_PASS_METRICS = ("quality_batch", "dihedral_angles_batch", "tet_volumes", "surface_enclosed_volume")
WRAPPED = (
    [(tetforge.driver, attr, "driver.pass_metrics", None, None) for attr in _PASS_METRICS]
    + [
        (tetforge.driver, "global_metrics", "metrics.global", None, None),
        (tetforge.driver, "select_patches", "driver.select", None, None),
        (tetforge.driver, "build_constraints", "constraints.build", None, _count_constraints),
        (tetforge.driver, "optimize_patch", "solver.patch", None, _count_patch),
        (tetforge.solver, "assemble_patch_system", "barrier.assemble", None, _count_assembly),
        (tetforge.barrier, "quality_diff_batch", "quality.kernel", _count_kernel, None),
        (tetforge.solver, "project_system", "constraints.project", None, _count_projection),
        (tetforge.solver, "newton_direction", "solver.newton", None, _count_newton),
        (scipy.linalg, "cho_factor", "linalg.cho_factor", _count_factorization, None),
        (tetforge.solver, "line_search", "solver.line_search", None, _count_line_search),
        (tetforge.solver, "quality_batch", "quality.trial", _count_trial, None),
    ]
)


@contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers in WRAPPED; restore every original on exit."""
    originals = [(module, attr, getattr(module, attr)) for module, attr, *_ in WRAPPED]
    try:
        for (module, attr, name, before, after), (_, _, original) in zip(WRAPPED, originals):
            setattr(module, attr, _wrapper(tracer, original, name, before, after))
        yield tracer
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer, report) -> dict:
    """Per-layer figures of the improve step of one traced repetition, keyed by metric name.

    Set-up and save are timed by the caller, outside the wrapped calls.
    """
    times = tracer.layer_times()
    counts = tracer.counts
    out = {}
    for name in ("driver.improve", "driver.pass_metrics", "metrics.global", "driver.select",
                 "constraints.build", "solver.patch", "barrier.assemble", "quality.kernel",
                 "constraints.project", "solver.newton", "solver.line_search", "quality.trial"):
        out[f"{name}_s"] = times["total"][name]
    for name in SELF_TIMED:
        out[f"{name}_self_s"] = times["self"][name]
    for name in ("barrier.assemble_calls", "barrier.dofs", "quality.kernel_elements", "quality.trial_elements",
                 "solver.factorizations", "solver.shifted_solves", "solver.cholesky_flops_computed",
                 "constraints.project_calls", "constraints.project_flops_computed", "constraints.rows",
                 "driver.max_patch_dofs", "solver.iterations", "solver.trial_steps",
                 "solver.barrier_rejections", "solver.stalled_patches"):
        out[name] = counts[name]
    out["driver.passes"] = len(report.passes)
    out["driver.patches"] = sum(p.patches for p in report.passes)
    out["solver.rejected_steps"] = counts["solver.trial_steps"] - counts["solver.accepted_steps"]
    out["solver.accepted_step_ratio"] = (
        counts["solver.accepted_steps"] / counts["solver.trial_steps"] if counts["solver.trial_steps"] else 1.0)
    return out


def median_metrics(samples: list) -> dict:
    """Lower median of each per-layer figure over the traced repetitions."""
    return {name: statistics.median_low(s[name] for s in samples) for name in samples[0]}
