import numpy as np
import pytest

from tetforge.barrier import BarrierParams, assemble_patch_system
from tetforge.constraints import build_constraints, vertex_normal
from tetforge.driver import Patch, select_patches
from tetforge.errors import NoProgressError
from tetforge.fixtures import generate_test_mesh
from tetforge.mesh import TetMesh, VertexClass
from tetforge.quality import quality_batch, volume_length_quality
from tetforge.solver import line_search, newton_direction, optimize_patch
from tetforge.topology import build_topology


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
    S = np.zeros((2, 2))
    f = np.array([1.0, 0.0])
    with pytest.raises(NoProgressError):
        # force failure: NaN poisons every factorization
        newton_direction(np.full((2, 2), np.nan), f)


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
    q0 = volume_length_quality(*mesh.vertices)
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
    params = BarrierParams.from_quality(volume_length_quality(*mesh.vertices), 0.8)
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
    q0 = volume_length_quality(*mesh.vertices)
    params = BarrierParams.from_quality(q0, 0.8)
    system = assemble_patch_system(mesh, patch, params)
    before = mesh.vertices.copy()
    # ascent direction: no alpha can satisfy Armijo, so the step is rejected
    direction = np.asarray(system.f) * 1e3
    alpha, violations, obj, _ = line_search(mesh, patch, system, direction, params)
    assert alpha == 0.0
    assert np.array_equal(mesh.vertices, before)


# --- optimize_patch ------------------------------------------------------------

def test_spoke_vertex_moves_toward_optimum():
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
    report = optimize_patch(mesh, patch, params, max_inner=10)
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


def test_untangles_inverted_patch():
    mesh = generate_test_mesh("with-inverted", 3, seed=4, k=1)
    adjacency = build_topology(mesh)
    q = quality_batch(mesh.tet_points())
    q_min = float(np.nanmin(q))
    assert q_min < 0.0
    patches = select_patches(mesh, adjacency, target_quality=0.3, surface_motion=False)
    params = BarrierParams.from_quality(q_min, 0.8)
    for patch in patches:
        optimize_patch(mesh, patch, params, max_inner=10)
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
    normals = np.array([vertex_normal(int(patch.free_vertices[i]), mesh, adjacency).unit_n for i in surface])
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


def test_objective_monotone_over_iterations():
    mesh = generate_test_mesh("grid", 3, seed=5, jitter=0.25)
    adjacency = build_topology(mesh)
    patches = select_patches(mesh, adjacency, target_quality=0.5, surface_motion=False)
    q_min = float(np.nanmin(quality_batch(mesh.tet_points())))
    params = BarrierParams.from_quality(q_min, 0.8)
    for patch in patches[:3]:
        report = optimize_patch(mesh, patch, params, max_inner=5)
        history = report.objective_history
        assert all(b < a + 1e-12 for a, b in zip(history, history[1:]))
        assert report.min_quality > params.gamma
