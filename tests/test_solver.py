import numpy as np
import pytest
import scipy.linalg

import tetforge.barrier
import tetforge.solver
from tetforge.barrier import BarrierParams, assemble_patch_system, plan_patch
from tetforge.constraints import build_constraints
from tetforge.driver import Patch, RunConfig, optimize_mesh, select_patches
from tetforge.errors import NoProgressError
from tetforge.fixtures import generate_test_mesh
from tetforge.mesh import TetMesh, VertexClass
from tetforge.quality import quality_batch
from tetforge.solver import MAX_SHIFT_EXP, line_search, newton_direction, optimize_patch
from tetforge.topology import build_topology

from conftest import resultant_normal


# --- newton_direction --------------------------------------------------------

def test_identity_system():
    dx, tau = newton_direction(np.eye(3), np.array([1.0, 0.0, 0.0]))
    assert tau == 0.0
    assert np.allclose(dx, [-1.0, 0.0, 0.0])


def test_indefinite_system_regularized_to_descent():
    S = np.diag([-1.0, 1.0, 1.0])
    f = np.array([1.0, 1.0, 1.0])
    dx, tau = newton_direction(S, f)
    assert tau > 0.0
    assert f @ dx < 0.0


def test_newton_exact_on_quadratic(rng):
    A = rng.normal(size=(6, 6))
    S = A @ A.T + 0.5 * np.eye(6)
    x_star = rng.normal(size=6)
    x0 = rng.normal(size=6)
    f = S @ (x0 - x_star)  # gradient of 0.5 (x-x*)^T S (x-x*) at x0
    dx, tau = newton_direction(S, f)
    assert tau == 0.0
    assert np.linalg.norm(x0 + dx - x_star) < 1e-12


def test_empty_system():
    dx, tau = newton_direction(np.zeros((0, 0)), np.zeros(0))
    assert dx.size == 0


def test_hopeless_system_raises():
    f = np.array([1.0, 0.0])
    with pytest.raises(NoProgressError):
        # force failure: NaN poisons every factorization
        newton_direction(np.full((2, 2), np.nan), f)


def _blocks(n, sizes):
    """(start, end) of each non-empty diagonal block; one block of n when sizes is None."""
    ends = np.cumsum(sizes if sizes is not None else [n]).tolist()
    return [(a, b) for a, b in zip([0] + ends[:-1], ends) if b > a]


def walk_newton_direction(S, f, sizes=None):
    """Reference: try every shift of the ladder from 0 upward, each diagonal block factored with cho_factor."""
    n = len(f)
    if n == 0:
        return np.zeros(0), 0.0
    scale = float(np.abs(np.diag(S)).max()) or 1.0
    shifts = [0.0] + [10.0 ** k * scale for k in range(-12, MAX_SHIFT_EXP + 1)]
    blocks = _blocks(n, sizes)
    for tau in shifts:
        try:
            factors = []
            for a, b in blocks:
                if tau:
                    shifted = np.array(S[a:b, a:b], order="F")
                    shifted[np.diag_indices(b - a)] += tau
                    factors.append(scipy.linalg.cho_factor(shifted, overwrite_a=True, check_finite=False))
                else:
                    factors.append(scipy.linalg.cho_factor(S[a:b, a:b], check_finite=False))
        except scipy.linalg.LinAlgError:
            continue
        dx = np.concatenate([scipy.linalg.cho_solve(cho, -f[a:b], check_finite=False)
                             for cho, (a, b) in zip(factors, blocks)])
        if not np.all(np.isfinite(dx)):
            continue
        if float(f @ dx) <= 0.0:
            return dx, tau
    raise NoProgressError(f"system singular or ascent-only up to shift {shifts[-1]:.3g}")


def assert_same_as_walk(S, f, sizes=None):
    """newton_direction returns the walk's tau and a bit-identical step, or raises where it does."""
    try:
        expected = walk_newton_direction(S, f, sizes)
    except NoProgressError:
        with pytest.raises(NoProgressError):
            newton_direction(S, f, sizes)
        return None
    dx, tau = newton_direction(S, f, sizes)
    assert tau == expected[1]
    assert np.array_equal(dx, expected[0])
    return tau


def _system_with_ratio(rng, n, ratio):
    """Random symmetric S with a constant diagonal s and lowest eigenvalue ratio * s, for ratio < 1."""
    if n == 1:
        return np.array([[np.sign(ratio)]])
    B = rng.normal(size=(n, n))
    B = B + B.T
    np.fill_diagonal(B, 0.0)
    s = -float(np.linalg.eigvalsh(B)[0]) / (1.0 - ratio)  # trace 0, so B has a negative eigenvalue
    return 10.0 ** rng.uniform(-3.0, 3.0) * (B + s * np.eye(n))


def test_bisection_matches_walk_on_random_systems(rng):
    ladder = [-(10.0 ** k) for k in range(-12, 2)]
    ratios = [0.99, 0.5, 1e-3, 0.0, -1e-13, -3e-6, -0.01, -0.03, -0.05, -0.5, -2.0, -10.0]
    ratios += [r * (1.0 + d) for r in ladder for d in (-1e-9, 1e-9)]
    shifted = 0
    for n in range(1, 61):
        for ratio in ratios:
            S = _system_with_ratio(rng, n, ratio)
            tau = assert_same_as_walk(S, rng.normal(size=n))
            shifted += int(bool(tau))
    assert shifted > 0


def test_bisection_matches_walk_on_sphere_patch_systems(monkeypatch):
    calls = []

    def checked(S, f, sizes):
        calls.append((assert_same_as_walk(S, f, sizes), len(sizes)))
        return newton_direction(S, f, sizes)

    monkeypatch.setattr(tetforge.solver, "newton_direction", checked)
    optimize_mesh(generate_test_mesh("sphere", 4, seed=1, jitter=0.2), RunConfig(max_passes=3))
    assert len(calls) > 50
    assert sum(1 for tau, _ in calls if tau) > 10
    # the walk went block by block on waves of several chunks, shifted ones among them
    assert sum(1 for tau, chunks in calls if tau and chunks > 1) > 0


def _block_diagonal(rng, sizes, ratios):
    """Block-diagonal S of _system_with_ratio blocks, one ratio each, every diagonal entry +-1.

    The common scale keeps each shifted system well conditioned, so that
    a dense factorization and a block one agree to a few ulps.
    """
    n = sum(sizes)
    S = np.zeros((n, n))
    for (a, b), ratio in zip(_blocks(n, sizes), ratios):
        block = _system_with_ratio(rng, b - a, ratio)
        S[a:b, a:b] = block / abs(block[0, 0])
    return S


def test_block_solve_matches_dense_walk_on_random_block_systems(rng):
    # every block factors unshifted, or one indefinite block makes every block
    # share a tau > 0, or one block needs more than the ladder's top shift
    shifted = 0
    for trial in range(60):
        sizes = rng.integers(1, 13, size=rng.integers(2, 7)).tolist()
        ratios = [0.5] * len(sizes)
        if trial % 3:
            ratios[int(rng.integers(len(sizes)))] = [-0.2, -0.03, -0.5, -2.0][trial % 4]
        S = _block_diagonal(rng, sizes, ratios)
        f = rng.normal(size=len(S))
        try:
            expected = walk_newton_direction(S, f)
        except NoProgressError:
            with pytest.raises(NoProgressError):
                newton_direction(S, f, sizes)
            continue
        tau = assert_same_as_walk(S, f, sizes)
        assert tau == expected[1]
        assert (tau > 0.0) == (trial % 3 != 0)
        dx, _ = newton_direction(S, f, sizes)
        assert np.linalg.norm(dx - expected[0]) <= 1e-12 * np.linalg.norm(expected[0])
        # the blocks off the diagonal are never read
        poisoned = np.full_like(S, np.nan)
        for a, b in _blocks(len(S), sizes):
            poisoned[a:b, a:b] = S[a:b, a:b]
        dx_poisoned, tau_poisoned = newton_direction(poisoned, f, sizes)
        assert tau_poisoned == tau and np.array_equal(dx_poisoned, dx)
        shifted += int(tau > 0.0)
    assert shifted > 20

    # max|diag S| = 1 over the system, and the second block has eigenvalue -3e5 + 1: no rung works
    S = np.zeros((4, 4))
    S[:2, :2] = np.eye(2)
    S[2:, 2:] = [[1.0, 3e5], [3e5, 1.0]]
    f = np.ones(4)
    for sizes in (None, [2, 2]):
        with pytest.raises(NoProgressError):
            walk_newton_direction(S, f, sizes)
        with pytest.raises(NoProgressError):
            newton_direction(S, f, sizes)


def test_multi_chunk_waves_factor_one_chunk_block_at_a_time(monkeypatch):
    solves = []  # (block sizes, orders factored) of each Newton system
    factor = tetforge.solver.dpotrf
    direction = tetforge.solver.newton_direction

    def recorded(a, **kwargs):
        solves[-1][1].append(len(a))
        return factor(a, **kwargs)

    def solve(S, f, sizes):
        solves.append(([int(n) for n in sizes], []))
        return direction(S, f, sizes)

    monkeypatch.setattr(tetforge.solver, "dpotrf", recorded)
    monkeypatch.setattr(tetforge.solver, "newton_direction", solve)
    optimize_mesh(generate_test_mesh("sphere", 4, seed=1, jitter=0.2), RunConfig(max_passes=3))
    multi = [(sizes, orders) for sizes, orders in solves if sum(n > 0 for n in sizes) > 1]
    assert len(multi) > 10
    for sizes, orders in solves:
        assert orders and max(orders) <= max(sizes)
        assert set(orders) <= set(sizes)
    assert all(max(orders) < sum(sizes) for sizes, orders in multi)


def test_bisection_matches_walk_at_top_of_ladder():
    # max|diag S| = 1 and eigenvalues 3001 and -2999: only the 1e4 shift factors
    S = np.array([[1.0, 3000.0], [3000.0, 1.0]])
    f = np.array([1.0, -2.0])
    assert assert_same_as_walk(S, f) == 10.0 ** MAX_SHIFT_EXP
    # one decade beyond the ladder, both give up
    assert assert_same_as_walk(S * [[1.0, 100.0], [100.0, 1.0]], f) is None


def test_failed_descent_check_walks_up_from_the_bisected_shift(monkeypatch):
    # the first solve of each search comes back non-finite; both searches must
    # then move on to the shift above the first one that factors
    solve, lapack_solve = scipy.linalg.cho_solve, tetforge.solver.dpotrs
    calls = []

    def first_solve_poisoned(cho, b, **kwargs):
        calls.append(None)
        dx = solve(cho, b, **kwargs)
        return np.full_like(dx, np.nan) if len(calls) == 1 else dx

    def first_lapack_solve_poisoned(c, b, **kwargs):
        calls.append(None)
        dx, info = lapack_solve(c, b, **kwargs)
        return (np.full_like(dx, np.nan) if len(calls) == 1 else dx), info

    monkeypatch.setattr(scipy.linalg, "cho_solve", first_solve_poisoned)
    monkeypatch.setattr(tetforge.solver, "dpotrs", first_lapack_solve_poisoned)
    S = np.diag([1.0, -0.03])
    f = np.array([1.0, 1.0])
    expected_dx, expected_tau = walk_newton_direction(S, f)
    calls.clear()
    dx, tau = newton_direction(S, f)
    assert tau == expected_tau == 1.0
    assert np.array_equal(dx, expected_dx)


def test_bisection_factors_about_five_times_where_walk_factors_thirteen(monkeypatch):
    factor, lapack_factor = scipy.linalg.cho_factor, tetforge.solver.dpotrf
    count = [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return factor(*args, **kwargs)

    def lapack_counted(*args, **kwargs):
        count[0] += 1
        return lapack_factor(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", counted)
    monkeypatch.setattr(tetforge.solver, "dpotrf", lapack_counted)
    # max|diag S| = 1 and lowest eigenvalue -0.03: the first shift that factors is 1e-1
    S = np.diag([1.0, -0.03])
    f = np.array([1.0, 1.0])
    _, tau = newton_direction(S, f)
    assert tau == 0.1
    assert count[0] <= 6
    count[0] = 0
    assert walk_newton_direction(S, f)[1] == 0.1
    assert count[0] == 13


# --- line_search --------------------------------------------------------------

def _single_tet_patch(apex):
    vertices = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        apex,
    ])
    mesh = TetMesh(vertices=vertices, tets=np.array([[0, 1, 2, 3]]))
    patch = Patch(seed_tets=np.array([0]), free_vertices=np.array([3]),
                  ring_tets=np.array([0]))
    return mesh, patch


def test_line_search_halves_past_inversion():
    # apex starts high; the step overshoots through the base plane at
    # alpha=1 but lands at a better position at alpha=1/2
    mesh, patch = _single_tet_patch([0.25, 0.25, 3.0])
    q0 = quality_batch(mesh.tet_points())[0]
    params = BarrierParams.from_quality(q0, 0.8)
    system = assemble_patch_system(mesh, patch, params)
    direction = np.array([0.0, 0.0, -5.4])
    assert system.f @ direction < 0.0  # descent
    alpha, violations, obj, min_q = line_search(mesh, patch, system, direction, params)
    assert alpha == 0.5
    assert violations == 1
    assert mesh.vertices[3][2] == pytest.approx(3.0 - 2.7)
    assert obj < system.objective
    assert min_q > params.gamma


def test_line_search_zero_direction_trivially_accepted():
    mesh, patch = _single_tet_patch([0.3, 0.3, 1.0])
    params = BarrierParams.from_quality(quality_batch(mesh.tet_points())[0], 0.8)
    system = assemble_patch_system(mesh, patch, params)
    before = mesh.vertices.copy()
    alpha, violations, obj, _ = line_search(mesh, patch, system, np.zeros(3), params)
    assert alpha == 1.0
    assert violations == 0
    assert obj == system.objective
    assert np.array_equal(mesh.vertices, before)


def test_full_step_accepted_near_optimum():
    # near the quality optimum the Newton step is small and accepted whole
    mesh = generate_test_mesh("grid", 2, seed=3, jitter=0.05)
    adjacency = build_topology(mesh)
    center = int(np.flatnonzero(mesh.vertex_class == VertexClass.INTERIOR)[0])
    star = adjacency.vertex_tets[center]
    patch = Patch(seed_tets=star, free_vertices=np.array([center]), ring_tets=star)
    q_min = float(quality_batch(mesh.tet_points(star)).min())
    params = BarrierParams.from_quality(q_min, 0.8)
    system = assemble_patch_system(mesh, patch, params)
    dx, _ = newton_direction(system.S, system.f)
    alpha, _, obj, _ = line_search(mesh, patch, system, dx, params)
    assert alpha == 1.0
    assert obj <= system.objective


def test_rejected_step_leaves_mesh_unchanged():
    mesh, patch = _single_tet_patch([0.25, 0.25, 1.0])
    q0 = quality_batch(mesh.tet_points())[0]
    params = BarrierParams.from_quality(q0, 0.8)
    system = assemble_patch_system(mesh, patch, params)
    before = mesh.vertices.copy()
    # ascent direction: no alpha can satisfy Armijo, so the step is rejected
    direction = np.asarray(system.f) * 1e3
    alpha, violations, obj, _ = line_search(mesh, patch, system, direction, params)
    assert alpha == 0.0
    assert np.array_equal(mesh.vertices, before)


# --- optimize_patch ------------------------------------------------------------

def test_spoke_vertex_moves_toward_optimum(monkeypatch):
    mesh = generate_test_mesh("grid", 2, seed=8, jitter=0.0)
    adjacency = build_topology(mesh)
    center = int(np.flatnonzero(mesh.vertex_class == VertexClass.INTERIOR)[0])
    start = mesh.vertices[center] + np.array([0.17, -0.12, 0.21])
    mesh.vertices[center] = start
    star = adjacency.vertex_tets[center]
    patch = Patch(seed_tets=star, free_vertices=np.array([center]), ring_tets=star)
    q_before = quality_batch(mesh.tet_points(star)).min()

    # brute-force oracle: grid-search the best position for the free vertex
    best_pos, best_q = None, -np.inf
    span = np.linspace(-0.3, 0.3, 13)
    for dx in span:
        for dy in span:
            for dz in span:
                mesh.vertices[center] = start + [dx, dy, dz]
                q = quality_batch(mesh.tet_points(star)).min()
                if q > best_q:
                    best_pos, best_q = mesh.vertices[center].copy(), q
    mesh.vertices[center] = start

    params = BarrierParams.from_quality(float(q_before), 0.8)
    monkeypatch.setattr(tetforge.solver, "DEFAULT_MAX_INNER", 10)
    report = optimize_patch(mesh, patch, params)
    q_after = quality_batch(mesh.tet_points(star)).min()
    assert q_after > q_before
    # closer to the brute-force optimum than where it started
    assert np.linalg.norm(mesh.vertices[center] - best_pos) < np.linalg.norm(start - best_pos)
    assert report.iterations >= 1


def test_already_optimal_patch_does_not_move(regular_tet):
    mesh = TetMesh(vertices=regular_tet, tets=np.array([[0, 1, 2, 3]]))
    build_topology(mesh)
    # free the apex anyway: the gradient vanishes at q = 1
    patch = Patch(seed_tets=np.array([0]), free_vertices=np.array([3]), ring_tets=np.array([0]))
    params = BarrierParams.from_quality(1.0, 0.8)
    before = mesh.vertices.copy()
    optimize_patch(mesh, patch, params)
    assert np.abs(mesh.vertices - before).max() < 1e-10


def test_patch_without_unknowns_ends_converged():
    # an empty system gives an empty step, whose predicted decrease 0 is at the rounding floor
    mesh = generate_test_mesh("grid", 2)
    adjacency = build_topology(mesh)
    patch = Patch(seed_tets=np.array([0]), free_vertices=np.zeros(0, dtype=np.int64),
                  ring_tets=np.zeros(0, dtype=np.int64))
    params = BarrierParams.from_quality(0.5, 0.8)
    for constraints in (None, build_constraints(patch, mesh, adjacency)[0]):
        report = optimize_patch(mesh, patch, params, constraints)
        assert report.iterations == 0 and not report.stalled
        assert report.objective == 0.0


def test_no_workable_shift_ends_the_solve_stalled_with_the_mesh_untouched(monkeypatch):
    mesh = generate_test_mesh("with-slivers", 3, seed=1, k=2, jitter=0.05)
    adjacency = build_topology(mesh)
    patch = select_patches(mesh, adjacency, target_quality=0.3, surface_motion=False)[0]
    params = BarrierParams.from_quality(float(np.nanmin(quality_batch(mesh.tet_points()))), 0.75)

    def newton_direction(S, f, sizes):
        raise NoProgressError("system singular or ascent-only")

    monkeypatch.setattr(tetforge.solver, "newton_direction", newton_direction)
    before = mesh.vertices.copy()
    report = optimize_patch(mesh, patch, params)
    assert report.stalled
    assert report.iterations == 0 and report.shifted_solves == 0
    assert np.array_equal(mesh.vertices, before)


def test_step_below_the_rounding_floor_ends_the_solve_unsearched(monkeypatch):
    # a Newton step scaled far below round-off predicts a decrease that the
    # Armijo test cannot resolve: the solve ends as converged, and no trial
    # point is evaluated
    mesh = generate_test_mesh("with-slivers", 3, seed=1, k=2, jitter=0.05)
    adjacency = build_topology(mesh)
    patch = select_patches(mesh, adjacency, target_quality=0.3, surface_motion=False)[0]
    params = BarrierParams.from_quality(float(np.nanmin(quality_batch(mesh.tet_points()))), 0.75)
    newton_direction = tetforge.solver.newton_direction
    monkeypatch.setattr(tetforge.solver, "newton_direction", lambda S, f, sizes: (1e-100 * newton_direction(S, f, sizes)[0], 0.0))
    trials = []
    trial_quality = tetforge.solver.quality_batch
    monkeypatch.setattr(tetforge.solver, "quality_batch", lambda points: trials.append(len(points)) or trial_quality(points))
    before = mesh.vertices.copy()
    report = optimize_patch(mesh, patch, params)
    assert trials == []
    assert np.array_equal(mesh.vertices, before)
    assert not report.stalled
    assert report.iterations == 0 and report.barrier_violations == 0


def test_kernel_and_trial_seams_see_one_row_per_ring_element(monkeypatch):
    # the kernel and the line search run on (12, m) coordinate rows, but both
    # module-level seams still take one entry per ring element, which is how
    # a wrapper of them counts elements
    mesh = generate_test_mesh("with-slivers", 3, seed=1, k=2, jitter=0.05)
    adjacency = build_topology(mesh)
    patch = select_patches(mesh, adjacency, target_quality=0.3, surface_motion=False)[0]
    params = BarrierParams.from_quality(float(np.nanmin(quality_batch(mesh.tet_points()))), 0.75)
    seen = {"kernel": [], "trial": []}
    kernel, trial = tetforge.barrier.quality_diff_batch, tetforge.solver.quality_batch
    monkeypatch.setattr(tetforge.barrier, "quality_diff_batch",
                        lambda points: seen["kernel"].append(np.shape(points)) or kernel(points))
    monkeypatch.setattr(tetforge.solver, "quality_batch",
                        lambda points: seen["trial"].append(np.shape(points)) or trial(points))
    m = len(plan_patch(mesh, patch).ring)
    report = optimize_patch(mesh, patch, params)
    assert report.iterations > 0
    assert len(seen["kernel"]) >= report.iterations and len(seen["trial"]) >= report.iterations
    assert set(seen["kernel"]) == set(seen["trial"]) == {(m, 12)}


def test_untangles_inverted_patch(monkeypatch):
    mesh = generate_test_mesh("with-inverted", 3, seed=4, k=1)
    adjacency = build_topology(mesh)
    q = quality_batch(mesh.tet_points())
    q_min = float(np.nanmin(q))
    assert q_min < 0.0
    patches = select_patches(mesh, adjacency, target_quality=0.3, surface_motion=False)
    params = BarrierParams.from_quality(q_min, 0.8)
    monkeypatch.setattr(tetforge.solver, "DEFAULT_MAX_INNER", 10)
    for patch in patches:
        optimize_patch(mesh, patch, params)
    q_after = float(np.nanmin(quality_batch(mesh.tet_points())))
    assert q_after > q_min


def test_constrained_patch_displacement_stays_tangential():
    mesh = generate_test_mesh("sphere", 4, seed=6, jitter=0.1)
    adjacency = build_topology(mesh)
    patches = select_patches(mesh, adjacency, target_quality=0.3, surface_motion=True)
    assert patches

    patch = max(patches, key=lambda p: len(p.free_vertices))
    constraints, demoted = build_constraints(patch, mesh, adjacency)
    assert not demoted and constraints.num_rows > 0
    surface = [i for i, v in enumerate(patch.free_vertices) if mesh.vertex_class[v] != VertexClass.INTERIOR]
    normals = np.array([resultant_normal(mesh, adjacency.vertex_tris[int(patch.free_vertices[i])]) for i in surface])
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    before = mesh.vertices[patch.free_vertices].copy()
    q_min = float(np.nanmin(quality_batch(mesh.tet_points())))
    params = BarrierParams.from_quality(q_min, 0.8)
    report = optimize_patch(mesh, patch, params, constraints=constraints)
    displacement = mesh.vertices[patch.free_vertices] - before
    moved = float(np.linalg.norm(displacement))
    assert report.iterations >= 1 and moved > 0.0
    # every accepted step lay in the same frozen tangent frames, so the
    # summed displacement of each surface vertex stays orthogonal to the
    # normal it had when the frames were built
    normal_motion = np.einsum("ij,ij->i", displacement[surface], normals)
    assert np.linalg.norm(normal_motion) <= 1e-8 * moved


def test_objective_monotone_over_iterations(monkeypatch):
    mesh = generate_test_mesh("grid", 3, seed=5, jitter=0.25)
    adjacency = build_topology(mesh)
    patches = select_patches(mesh, adjacency, target_quality=0.5, surface_motion=False)
    q_min = float(np.nanmin(quality_batch(mesh.tet_points())))
    params = BarrierParams.from_quality(q_min, 0.8)
    monkeypatch.setattr(tetforge.solver, "DEFAULT_MAX_INNER", 1)
    for patch in patches[:3]:
        # one Newton iteration per call: each iteration assembles from the
        # current coordinates alone, so the calls take the iterates of one
        # longer solve
        history, min_quality = [], np.inf
        for _ in range(5):
            report = optimize_patch(mesh, patch, params)
            history.append(report.objective)
            min_quality = min(min_quality, report.min_quality)
        assert all(b < a + 1e-12 for a, b in zip(history, history[1:]))
        assert history[-1] < history[0]
        assert min_quality > params.gamma
