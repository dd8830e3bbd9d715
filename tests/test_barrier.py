import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetforge.barrier import (
    BarrierParams,
    assemble_patch_system,
    barrier_value,
    barrier_values_batch,
    compute_gamma,
    plan_patch,
)
from tetforge.driver import Patch, select_patches
from tetforge.errors import BarrierViolationError
from tetforge.fixtures import generate_test_mesh
from tetforge.mesh import TetMesh, VertexClass
from tetforge.quality import quality_batch, volume_length_diff
from tetforge.topology import build_topology

from conftest import barrier_grad_hess, element_hessian, fd_gradient, fd_hessian, patch_objective, random_tet


# --- gamma -----------------------------------------------------------------

def test_gamma_positive_branch():
    assert compute_gamma(0.3, 0.8) == pytest.approx(0.24, rel=1e-15)


def test_gamma_zero_branch():
    gamma = compute_gamma(0.0, 0.8)
    assert gamma == pytest.approx(-0.2, rel=1e-15)
    assert gamma < 0.0


def test_gamma_negative_branch():
    assert compute_gamma(-0.5, 0.8) == pytest.approx(-0.625, rel=1e-15)


def test_gamma_rejects_bad_b():
    for b in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            compute_gamma(0.5, b)


@settings(max_examples=200, deadline=None)
@given(st.floats(-1.0, 1.0), st.floats(0.01, 0.99))
def test_gamma_always_below_q_min(q_min, b):
    assert compute_gamma(q_min, b) < q_min


# --- barrier value ---------------------------------------------------------

def test_barrier_value_hand_evaluations():
    # I = q^2 / (2 (1 - gamma)) - ln(q - gamma)
    assert barrier_value(1.0, 0.8) == pytest.approx(2.5 - np.log(0.2), rel=1e-12)
    assert barrier_value(0.9, 0.72) == pytest.approx(0.81 / 0.56 - np.log(0.18), rel=1e-12)


def test_barrier_blows_up_at_gamma():
    previous = -np.inf
    for k in range(1, 9):
        value = barrier_value(0.5 + 10.0 ** -k, 0.5)
        assert value > previous
        previous = value
    assert previous > barrier_value(1.0, 0.5)


def test_barrier_rejects_violation():
    with pytest.raises(BarrierViolationError):
        barrier_value(0.5, 0.5)
    with pytest.raises(BarrierViolationError):
        barrier_value(0.4, 0.5)


def test_barrier_monotone_decreasing_up_to_one():
    # on (gamma, 1] the barrier strictly decreases: its minimum sits at q = 1
    gamma = 0.8
    grid = np.linspace(gamma + 1e-6, 1.0, 500)
    values = barrier_values_batch(grid, gamma)
    assert np.all(np.diff(values) < 0.0)
    beyond = barrier_values_batch(np.linspace(1.0, 2.0, 100), gamma)
    assert np.all(np.diff(beyond) > 0.0)


# --- gradient and Hessian ---------------------------------------------------

def test_barrier_gradient_vanishes_at_quality_one(regular_tet):
    qd = volume_length_diff(*regular_tet)
    grad, _ = barrier_grad_hess(qd, 0.8)
    # q/(1-gamma) - 1/(q-gamma) = 5 - 5 = 0 at q=1, gamma=0.8
    assert np.linalg.norm(grad) < 1e-10


def test_barrier_gradient_parallel_to_quality_gradient(rng):
    p = random_tet(rng)
    qd = volume_length_diff(*p)
    gamma = compute_gamma(qd.q, 0.9)
    grad, _ = barrier_grad_hess(qd, gamma)
    coefficient = qd.q / (1.0 - gamma) - 1.0 / (qd.q - gamma)
    assert np.allclose(grad, coefficient * qd.grad, rtol=1e-13)


def test_barrier_grad_hess_match_fd(rng):
    from tetforge.quality import quality_batch

    for _ in range(8):
        p = random_tet(rng)
        qd = volume_length_diff(*p)
        gamma = compute_gamma(min(qd.q, 0.9), 0.8)

        def barrier_of_flat(x):
            return barrier_value(float(quality_batch(x.reshape(1, 4, 3))[0]), gamma)

        grad, hess = barrier_grad_hess(qd, gamma)
        x = p.reshape(12)
        g_fd = fd_gradient(barrier_of_flat, x, 1e-6)
        assert np.linalg.norm(grad - g_fd) <= 1e-6 * np.linalg.norm(g_fd)
        h_fd = fd_hessian(barrier_of_flat, x, 1e-5)
        assert np.linalg.norm(hess - h_fd) <= 1e-4 * np.linalg.norm(h_fd)


# --- patch assembly ----------------------------------------------------------

def _interior_patch(mesh, adjacency, surface_motion=True):
    patches = select_patches(mesh, adjacency, target_quality=2.0, surface_motion=surface_motion)
    assert patches
    return patches[0]


def test_all_fixed_patch_is_empty():
    mesh = generate_test_mesh("grid", 2)
    build_topology(mesh)
    patch = Patch(seed_tets=np.array([0]), free_vertices=np.zeros(0, dtype=np.int64),
                  ring_tets=np.zeros(0, dtype=np.int64))
    params = BarrierParams.from_quality(0.5, 0.8)
    system = assemble_patch_system(mesh, patch, params)
    assert system.ndof == 0
    assert system.objective == 0.0


def test_one_free_vertex_system_is_sum_of_blocks():
    mesh = generate_test_mesh("grid", 2, seed=9, jitter=0.25)
    adjacency = build_topology(mesh)
    center = int(np.flatnonzero(mesh.vertex_class == VertexClass.INTERIOR)[0])
    star = adjacency.vertex_tets[center]
    patch = Patch(seed_tets=star, free_vertices=np.array([center]), ring_tets=star)
    params = BarrierParams.from_quality(0.1, 0.8)
    system = assemble_patch_system(mesh, patch, params)
    assert system.S.shape == (3, 3)

    # direct summation oracle over that vertex's 3x3 blocks
    expected_S = np.zeros((3, 3))
    expected_f = np.zeros(3)
    for t in star:
        slot = int(np.flatnonzero(mesh.tets[t] == center)[0])
        qd = volume_length_diff(*mesh.vertices[mesh.tets[t]])
        grad, hess = barrier_grad_hess(qd, params.gamma)
        expected_f += grad[3 * slot:3 * slot + 3]
        expected_S += hess[3 * slot:3 * slot + 3, 3 * slot:3 * slot + 3]
    assert np.allclose(system.f, expected_f, rtol=1e-12)
    assert np.allclose(system.S, expected_S, rtol=1e-12)


def test_assembled_gradient_matches_fd_of_objective():
    mesh = generate_test_mesh("grid", 2, seed=4, jitter=0.25)
    adjacency = build_topology(mesh)
    patch = _interior_patch(mesh, adjacency)
    params = BarrierParams.from_quality(0.05, 0.8)
    system = assemble_patch_system(mesh, patch, params)

    free = np.asarray(patch.free_vertices)

    def objective_of(x):
        saved = mesh.vertices[free].copy()
        mesh.vertices[free] = x.reshape(-1, 3)
        try:
            return patch_objective(mesh, patch, params.gamma)
        finally:
            mesh.vertices[free] = saved

    x0 = mesh.vertices[free].reshape(-1).copy()
    g_fd = fd_gradient(objective_of, x0, 1e-7)
    assert np.linalg.norm(system.f - g_fd) <= 1e-6 * np.linalg.norm(g_fd)


def test_assembly_reports_offending_tet():
    mesh = generate_test_mesh("grid", 2, seed=4, jitter=0.25)
    adjacency = build_topology(mesh)
    patch = _interior_patch(mesh, adjacency)
    params = BarrierParams(b=0.8, q_min=2.0, gamma=1.5)  # unreachable barrier
    with pytest.raises(BarrierViolationError) as err:
        assemble_patch_system(mesh, patch, params)
    assert err.value.tet_id is not None


def test_system_symmetric():
    mesh = generate_test_mesh("grid", 3, seed=11, jitter=0.2)
    adjacency = build_topology(mesh)
    patch = _interior_patch(mesh, adjacency)
    params = BarrierParams.from_quality(0.05, 0.75)
    system = assemble_patch_system(mesh, patch, params)
    scale = max(1.0, np.abs(system.S).max())
    assert np.abs(system.S - system.S.T).max() <= 1e-12 * scale


# Free-slot assembly against the dense sum of every ring element's full
# 12x12 barrier Hessian, on coordinates away from the origin.
SHIFT = np.array([0.7, -0.4, 0.9])


def _dense_patch_system(mesh, patch, gamma):
    slot = {int(v): i for i, v in enumerate(patch.free_vertices)}
    n = 3 * len(slot)
    S, f = np.zeros((n, n)), np.zeros(n)
    for t in patch.ring_tets:
        tet = mesh.tets[t]
        grad, hess = barrier_grad_hess(volume_length_diff(*mesh.vertices[tet]), gamma)
        for a, va in enumerate(tet):
            if int(va) not in slot:
                continue
            ra = 3 * slot[int(va)]
            f[ra:ra + 3] += grad[3 * a:3 * a + 3]
            for b, vb in enumerate(tet):
                if int(vb) in slot:
                    rb = 3 * slot[int(vb)]
                    S[ra:ra + 3, rb:rb + 3] += hess[3 * a:3 * a + 3, 3 * b:3 * b + 3]
    return S, f


def _one_tet_patches():
    mesh = generate_test_mesh("grid", 3, seed=5, jitter=0.25)
    mesh.vertices += SHIFT
    adjacency = build_topology(mesh)
    patches = select_patches(mesh, adjacency, 0.3, mode="all-patches", surface_motion=False)
    by_size = {len(p.free_vertices): p for p in patches}
    assert set(by_size) >= {1, 2, 3}
    return mesh, list(by_size.values())


def _merged_patch():
    mesh = generate_test_mesh("grid", 3, seed=3, jitter=0.3)
    mesh.vertices += SHIFT
    adjacency = build_topology(mesh)
    patch = max(select_patches(mesh, adjacency, 0.5), key=lambda p: len(p.seed_tets))
    assert len(patch.seed_tets) > 1
    return mesh, [patch]


def _sphere_patch():
    mesh = generate_test_mesh("sphere", 4, seed=6, jitter=0.1)
    mesh.vertices += SHIFT
    adjacency = build_topology(mesh)
    patch = max(select_patches(mesh, adjacency, 0.3), key=lambda p: len(p.free_vertices))
    assert (mesh.vertex_class[patch.free_vertices] == VertexClass.SURFACE_SMOOTH).any()
    return mesh, [patch]


@pytest.mark.parametrize("make_patches", [_one_tet_patches, _merged_patch, _sphere_patch],
                         ids=["one-tet", "merged", "sphere"])
def test_free_slot_assembly_matches_dense_sum(make_patches):
    mesh, patches = make_patches()
    params = BarrierParams.from_quality(float(quality_batch(mesh.tet_points()).min()), 0.8)
    for patch in patches:
        system = assemble_patch_system(mesh, patch, params)
        S, f = _dense_patch_system(mesh, patch, params.gamma)
        assert np.linalg.norm(system.S - S) <= 1e-12 * np.linalg.norm(S)
        assert np.linalg.norm(system.f - f) <= 1e-12 * np.linalg.norm(f)


@pytest.mark.parametrize("make_patches", [_one_tet_patches, _merged_patch, _sphere_patch],
                         ids=["one-tet", "merged", "sphere"])
def test_plan_lists_the_free_slot_pairs_of_every_ring_element(make_patches):
    mesh, patches = make_patches()
    for patch in patches:
        plan = plan_patch(mesh, patch)
        m = len(plan.ring)
        # each ring element once, in patch order
        assert np.array_equal(plan.ring, patch.ring_tets)
        slots = np.isin(mesh.tets[plan.ring], patch.free_vertices)
        count = slots.sum(axis=1)
        # every pair (i, j) of an element's free slots, count^2 of them, element by element
        elem, i, j = plan.row[0] % m, plan.row[0] // m // 3, plan.col[0] // m // 3
        assert np.all(np.diff(elem) >= 0)
        assert np.array_equal(np.bincount(elem, minlength=m), count ** 2)
        assert slots[elem, i].all() and slots[elem, j].all()
        assert len(set(zip(elem.tolist(), i.tolist(), j.tolist()))) == len(elem)
        # 9 scatter entries per pair, 3 coordinate entries per free slot
        assert len(plan.scatter) == 9 * len(elem)
        assert np.array_equal(np.bincount(plan.free_coords % m, minlength=m), 3 * count)
        assert len(plan.free_dofs) == len(plan.free_coords) == 3 * int(count.sum())


def test_barrier_params_validation():
    with pytest.raises(ValueError):
        BarrierParams(b=0.8, q_min=0.5, gamma=0.5)
    with pytest.raises(ValueError):
        BarrierParams(b=1.5, q_min=0.5, gamma=0.1)


@pytest.mark.parametrize("mask", range(16))
def test_every_free_slot_pattern_of_one_tet_matches_dense_sum(mask):
    rng = np.random.default_rng(mask)
    mesh = TetMesh(vertices=random_tet(rng, min_volume=1e-2) + SHIFT, tets=np.array([[0, 1, 2, 3]]))
    free = np.flatnonzero((mask >> np.arange(4)) & 1)
    patch = Patch(seed_tets=np.array([0]), free_vertices=free, ring_tets=np.array([0]))
    params = BarrierParams.from_quality(float(quality_batch(mesh.tet_points()).min()), 0.8)
    system = assemble_patch_system(mesh, patch, params)
    S, f = _dense_patch_system(mesh, patch, params.gamma)
    assert system.S.shape == S.shape == (3 * len(free), 3 * len(free))
    assert np.linalg.norm(system.S - S) <= 1e-13 * np.linalg.norm(S)
    assert np.linalg.norm(system.f - f) <= 1e-13 * np.linalg.norm(f)


@pytest.mark.parametrize("mask", range(16))
def test_element_hessians_match_the_independent_formula(mask):
    # volume_length_diff, the one-slot blocks (one bit set) and the
    # multi-slot tables against the dense Hessian built from the Levi-Civita
    # form of the volume, on tets of both orientations
    rng = np.random.default_rng(100 + mask)
    free = np.flatnonzero((mask >> np.arange(4)) & 1)
    coords = (3 * free[:, None] + np.arange(3)).reshape(-1)
    for orientation in (0, 1, 2, 3):
        p = random_tet(rng, min_volume=1e-2)[[1, 0, 2, 3] if orientation % 2 else [0, 1, 2, 3]] + SHIFT
        qd = volume_length_diff(*p)
        grad, hess = element_hessian(p, 1.0, 0.0)
        assert np.linalg.norm(qd.grad - grad) <= 1e-13 * np.linalg.norm(grad)
        assert np.linalg.norm(qd.hess - hess) <= 1e-13 * np.linalg.norm(hess)

        mesh = TetMesh(vertices=p, tets=np.array([[0, 1, 2, 3]]))
        patch = Patch(seed_tets=np.array([0]), free_vertices=free, ring_tets=np.array([0]))
        params = BarrierParams.from_quality(qd.q, 0.8)
        inv = 1.0 / (qd.q - params.gamma)
        c1, c2 = qd.q / (1.0 - params.gamma) - inv, 1.0 / (1.0 - params.gamma) + inv * inv
        grad, hess = element_hessian(p, c1, c2)
        system = assemble_patch_system(mesh, patch, params)
        block, part = hess[np.ix_(coords, coords)], grad[coords]
        assert np.linalg.norm(system.S - block) <= 1e-13 * np.linalg.norm(block)
        assert np.linalg.norm(system.f - part) <= 1e-13 * np.linalg.norm(part)
