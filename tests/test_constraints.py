import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tetforge.constraints
import tetforge.mesh
from tetforge.barrier import BarrierParams, assemble_patch_system
from tetforge.constraints import (
    ConstraintSystem,
    build_constraints,
    project_system,
    projector,
    tangent_frame,
)
from tetforge.driver import Patch, RunConfig, optimize_mesh, select_patches
from tetforge.fixtures import generate_test_mesh
from tetforge.mesh import TetMesh, VertexClass
from tetforge.quality import quality_batch
from tetforge.topology import build_topology

from conftest import cluster_triangles, reference_constraints, resultant_normal


def _patch_of_all_movable(mesh, adjacency):
    patches = select_patches(mesh, adjacency, target_quality=2.0, surface_motion=True)
    assert len(patches) == 1
    return patches[0]


def _unit_resultant(v, mesh, adjacency):
    """Unit resultant of all the surface triangles at vertex v."""
    n = resultant_normal(mesh, adjacency.vertex_tris[int(v)])
    return n / np.linalg.norm(n)


def _vertex_normals(v, mesh, adjacency):
    """Unit constraint normals of a free vertex, computed independently:
    the resultant normal on a smooth surface, one per cluster on a crease."""
    cls = mesh.vertex_class[v]
    if cls == VertexClass.SURFACE_SMOOTH:
        return [_unit_resultant(v, mesh, adjacency)]
    if cls == VertexClass.FEATURE_EDGE:
        out = []
        for tri_ids in cluster_triangles(adjacency, int(v)):
            n = resultant_normal(mesh, tri_ids)
            out.append(n / np.linalg.norm(n))
        return out
    return []


def _normal_column(system, i):
    """The first frame column of free vertex i that it may not move along."""
    return system.frames[i][:, ~system.keep[i]][:, 0]


def _dense_rows(patch, mesh, adjacency):
    """The constraint matrix C over all patch DOFs, one row per normal."""
    n = 3 * len(patch.free_vertices)
    rows = []
    for i, v in enumerate(patch.free_vertices):
        for unit in _vertex_normals(v, mesh, adjacency):
            row = np.zeros(n)
            row[3 * i:3 * i + 3] = unit
            rows.append(row)
    return np.array(rows).reshape(-1, n)


# --- vertex normals ----------------------------------------------------------

def test_planar_face_vertex_normal():
    mesh = generate_test_mesh("grid", 2)
    adjacency = build_topology(mesh)
    # face centers are the smooth vertices of the 2-cube; find the one on z=1
    smooth = np.flatnonzero(mesh.vertex_class == VertexClass.SURFACE_SMOOTH)
    top = [v for v in smooth if mesh.vertices[v][2] == 1.0]
    assert len(top) == 1
    patch = _patch_of_all_movable(mesh, adjacency)
    system, _ = build_constraints(patch, mesh, adjacency)
    (i,) = np.flatnonzero(patch.free_vertices == top[0])
    assert system.keep[i].sum() == 2
    assert np.allclose(np.abs(_normal_column(system, i)), [0.0, 0.0, 1.0], atol=1e-12)


def test_cube_edge_vertex_resultant_normal():
    mesh = generate_test_mesh("grid", 2)
    adjacency = build_topology(mesh)
    # edge midpoint between faces z=1 and x=1: resultant of two equal-area
    # orthogonal fans is the diagonal
    edges = np.flatnonzero(mesh.vertex_class == VertexClass.FEATURE_EDGE)
    target = [v for v in edges
              if mesh.vertices[v][2] == 1.0 and mesh.vertices[v][0] == 1.0]
    assert len(target) == 1
    resultant = _unit_resultant(target[0], mesh, adjacency)
    assert np.allclose(resultant, np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0), atol=1e-12)
    # the crease direction is orthogonal to both cluster normals, so to their resultant too
    patch = _patch_of_all_movable(mesh, adjacency)
    system, _ = build_constraints(patch, mesh, adjacency)
    (i,) = np.flatnonzero(patch.free_vertices == target[0])
    crease = system.frames[i][:, system.keep[i]]
    assert crease.shape == (3, 1)
    assert abs(resultant @ crease[:, 0]) <= 1e-12


def test_sphere_vertex_normals_near_radial():
    mesh = generate_test_mesh("sphere", 5)
    adjacency = build_topology(mesh, feature_angle_deg=30.0)
    radius = np.linalg.norm(mesh.vertices, axis=1)
    on_sphere = np.flatnonzero(radius > 1.0 - 1e-9)
    patch = Patch(seed_tets=np.zeros(0, dtype=np.int64), free_vertices=on_sphere,
                  ring_tets=adjacency.ring_tets(on_sphere))
    system, demoted = build_constraints(patch, mesh, adjacency)
    assert not demoted
    worst = 0.0
    for i, v in enumerate(on_sphere):
        exact = mesh.vertices[v] / radius[v]
        # the frame fixes a column's line, not its sign
        angle = np.degrees(np.arccos(np.clip(abs(_normal_column(system, i) @ exact), -1.0, 1.0)))
        worst = max(worst, angle)
    assert worst < 15.0


# --- tangent frames -----------------------------------------------------------

def test_surface_vertices_get_orthonormal_tangent_frames():
    mesh = generate_test_mesh("grid", 2)
    adjacency = build_topology(mesh)
    patch = _patch_of_all_movable(mesh, adjacency)
    system, demoted = build_constraints(patch, mesh, adjacency)
    assert not demoted
    assert system.frames.shape == (len(patch.free_vertices), 3, 3)
    eye = np.broadcast_to(np.eye(3), system.frames.shape)
    assert np.allclose(np.swapaxes(system.frames, 1, 2) @ system.frames, eye, atol=1e-12)
    # interior vertices keep all three columns, smooth two, crease one
    expected = {VertexClass.INTERIOR: 3, VertexClass.SURFACE_SMOOTH: 2, VertexClass.FEATURE_EDGE: 1}
    for i, v in enumerate(patch.free_vertices):
        assert system.keep[i].sum() == expected[VertexClass(mesh.vertex_class[v])]
        if mesh.vertex_class[v] == VertexClass.SURFACE_SMOOTH:
            normal_col = _normal_column(system, i)
            assert abs(normal_col @ _unit_resultant(v, mesh, adjacency)) == pytest.approx(1.0, abs=1e-12)
    smooth = sum(mesh.vertex_class[v] == VertexClass.SURFACE_SMOOTH for v in patch.free_vertices)
    crease = sum(mesh.vertex_class[v] == VertexClass.FEATURE_EDGE for v in patch.free_vertices)
    assert system.num_rows == smooth + 2 * crease > 0


def test_feature_edge_null_space_is_crease_direction():
    mesh = generate_test_mesh("grid", 2)
    adjacency = build_topology(mesh)
    patch = _patch_of_all_movable(mesh, adjacency)
    system, _ = build_constraints(patch, mesh, adjacency)
    edges = [i for i, v in enumerate(patch.free_vertices)
             if mesh.vertex_class[v] == VertexClass.FEATURE_EDGE]
    assert edges
    for i in edges:
        assert system.keep[i].sum() == 1  # admissible motion spans exactly the crease line
        crease = system.frames[i][:, system.keep[i]][:, 0]
        for unit in _vertex_normals(patch.free_vertices[i], mesh, adjacency):
            assert abs(crease @ unit) <= 1e-12
        # on the cube, a crease runs along a coordinate axis
        assert np.sort(np.abs(crease))[-1] == pytest.approx(1.0, abs=1e-10)


def test_patch_without_surface_vertices_has_no_rows():
    mesh = generate_test_mesh("grid", 4, seed=0, jitter=0.1)
    adjacency = build_topology(mesh)
    interior = np.flatnonzero(mesh.vertex_class == VertexClass.INTERIOR)
    center = int(interior[len(interior) // 2])
    patch = Patch(seed_tets=adjacency.vertex_tets[center],
                  free_vertices=np.array([center]),
                  ring_tets=adjacency.vertex_tets[center])
    system, demoted = build_constraints(patch, mesh, adjacency)
    assert system.num_rows == 0
    assert not demoted
    assert np.array_equal(system.frames, np.eye(3)[None])
    S = np.eye(3)
    f = np.array([1.0, 2.0, 3.0])
    S2, f2 = project_system(S, f, system.frames, system.keep)
    assert np.array_equal(S2, S)
    assert np.array_equal(f2, f)


def test_degenerate_normal_demotes_vertex_to_a_fixed_corner(monkeypatch):
    mesh = generate_test_mesh("sphere", 3, seed=6, jitter=0.1)
    adjacency = build_topology(mesh)
    patch = select_patches(mesh, adjacency, target_quality=0.3)[0]
    i, vertex = next((i, int(v)) for i, v in enumerate(patch.free_vertices)
                     if mesh.vertex_class[v] == VertexClass.SURFACE_SMOOTH)
    area_normals = tetforge.constraints.triangle_area_normals

    def degenerate_at_vertex(vertices, tris):
        # zero the area normal of every triangle that holds the vertex, so its one cluster sums to 0
        normals = area_normals(vertices, tris)
        normals[(tris == vertex).any(axis=1)] = 0.0
        return normals

    monkeypatch.setattr(tetforge.constraints, "triangle_area_normals", degenerate_at_vertex)
    built = mesh.copy()
    system, demoted = build_constraints(patch, built, adjacency)
    assert demoted == [vertex]
    assert not system.keep[i].any()
    assert built.vertex_class[vertex] == VertexClass.CORNER
    assert system.keep.any()

    # a run that meets the degenerate normal leaves the demoted vertex in place
    before = mesh.vertices.copy()
    report = optimize_mesh(mesh, RunConfig(max_passes=2), adjacency)
    assert report.passes
    assert mesh.vertex_class[vertex] == VertexClass.CORNER
    assert np.array_equal(mesh.vertices[vertex], before[vertex])
    assert not np.array_equal(mesh.vertices, before)


def test_demotion_floor_does_not_depend_on_where_the_mesh_sits():
    # each cluster's floor scales with its own area normals, which a shift
    # leaves as they are; a floor from max|x| would demote 142 of the 314
    # surface vertices here
    runs = []
    for shift in (0.0, 1e7):
        mesh = generate_test_mesh("sphere", 5, seed=3, jitter=0.15)
        mesh.vertices += shift
        adjacency = build_topology(mesh)
        before, classes = mesh.vertices.copy(), mesh.vertex_class.copy()
        report = optimize_mesh(mesh, RunConfig(target_quality=0.5), adjacency)
        assert np.array_equal(mesh.vertex_class, classes)
        moved = (classes != VertexClass.INTERIOR) & (mesh.vertices != before).any(axis=1)
        runs.append((np.flatnonzero(moved), report.final_metrics.q_min))
    (moved, q_min), (moved_shifted, q_min_shifted) = runs
    assert len(moved) > 100
    assert np.array_equal(moved_shifted, moved)
    assert q_min_shifted == pytest.approx(q_min, abs=1e-6)


def test_demotion_floor_does_not_depend_on_a_far_part_of_the_mesh():
    # one regular tet 1e7 away leaves the sphere's run as it is, bit for bit;
    # a floor from the mesh's extent demoted 142 of the 314 surface vertices
    sphere = generate_test_mesh("sphere", 5, seed=3, jitter=0.15)
    nv = len(sphere.vertices)
    far = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, np.sqrt(3.0) / 2.0, 0.0],
                    [0.5, np.sqrt(3.0) / 6.0, np.sqrt(6.0) / 3.0]]) + [1e7, 0.0, 0.0]
    mesh = TetMesh(vertices=np.vstack([sphere.vertices, far]),
                   tets=np.vstack([sphere.tets, nv + np.arange(4)]))
    before = sphere.vertices.copy()
    runs = [optimize_mesh(m, RunConfig(target_quality=0.5)) for m in (sphere, mesh)]
    surface = sphere.vertex_class != VertexClass.INTERIOR
    assert (sphere.vertices[surface] != before[surface]).any(axis=1).sum() > 100
    assert np.array_equal(mesh.vertices[:nv], sphere.vertices)
    assert np.array_equal(mesh.vertex_class[:nv], sphere.vertex_class)
    assert np.array_equal(mesh.vertices[nv:], far)
    assert [p.q_min for p in runs[1].passes] == [p.q_min for p in runs[0].passes]
    assert runs[1].final_metrics.q_min == runs[0].final_metrics.q_min


def _sphere_patches():
    mesh = generate_test_mesh("sphere", 4, seed=6, jitter=0.1)
    adjacency = build_topology(mesh)
    return mesh, adjacency, select_patches(mesh, adjacency, target_quality=0.5, surface_motion=True)


def _crease_patches():
    mesh = generate_test_mesh("grid", 3, seed=0, jitter=0.25)
    adjacency = build_topology(mesh)
    return mesh, adjacency, select_patches(mesh, adjacency, target_quality=2.0, surface_motion=True)


def _inject_demotions(mesh, adjacency, patch, monkeypatch):
    """Zero the area normals at one smooth free vertex of the patch and drop
    another's triangles from every cluster; returns the adjacency to use."""
    smooth = [int(v) for v in patch.free_vertices if mesh.vertex_class[v] == VertexClass.SURFACE_SMOOTH]
    cancelled, unclustered = smooth[0], smooth[-1]
    area_normals = tetforge.mesh.triangle_area_normals

    def cancelled_at_vertex(vertices, tris):
        normals = area_normals(vertices, tris)
        normals[(tris == cancelled).any(axis=1)] = 0.0
        return normals

    monkeypatch.setattr(tetforge.mesh, "triangle_area_normals", cancelled_at_vertex)
    monkeypatch.setattr(tetforge.constraints, "triangle_area_normals", cancelled_at_vertex)
    tri_cluster = adjacency.tri_cluster.copy()
    tri_cluster[adjacency.vertex_tris.indptr[unclustered]:adjacency.vertex_tris.indptr[unclustered + 1]] = -1
    return dataclasses.replace(adjacency, tri_cluster=tri_cluster)


@pytest.mark.parametrize("case", ["sphere", "crease", "demotion"])
def test_batched_frames_match_the_vertex_loop(case, monkeypatch):
    mesh, adjacency, patches = _crease_patches() if case == "crease" else _sphere_patches()
    if case == "demotion":
        adjacency = _inject_demotions(mesh, adjacency, patches[0], monkeypatch)
    classes = set()
    demoted_in_all = []
    for patch in patches:
        classes.update(mesh.vertex_class[patch.free_vertices].tolist())
        reference = mesh.copy()
        frames, keep, expected = reference_constraints(patch, reference, adjacency)
        system, demoted = build_constraints(patch, mesh, adjacency)
        assert np.abs(system.frames - frames).max() <= 1e-15
        assert np.array_equal(system.keep, keep)
        assert demoted == expected
        assert np.array_equal(mesh.vertex_class, reference.vertex_class)
        demoted_in_all += demoted
    assert {int(VertexClass.INTERIOR), int(VertexClass.SURFACE_SMOOTH)} <= classes
    if case == "crease":
        assert int(VertexClass.FEATURE_EDGE) in classes
    assert len(demoted_in_all) == (2 if case == "demotion" else 0)


# --- null-space step -------------------------------------------------------------

def test_axis_constraint_blocks_x_motion():
    C = np.array([[1.0, 0.0, 0.0]])
    S = np.diag([2.0, 3.0, 4.0])
    f = np.array([1.0, 1.0, 1.0])
    Q, *_ = projector(C)
    assert np.allclose(Q, np.diag([0.0, 1.0, 1.0]), atol=1e-14)
    frame, keep = tangent_frame(C)
    S2, f2 = project_system(S, f, frame[None], keep[None])
    assert S2.shape == (2, 2)
    dx = frame[:, keep] @ np.linalg.solve(S2, -f2)
    assert abs(dx[0]) < 1e-12
    assert np.allclose(dx, [0.0, -1.0 / 3.0, -1.0 / 4.0], atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(13, 60))
def test_projector_identities_random(seed, m, n):
    rng = np.random.default_rng(seed)
    C = rng.normal(size=(m, n))
    g = rng.normal(size=m)
    Q, R, Ck, keep, dropped = projector(C)
    assert dropped == 0
    assert np.linalg.norm(Q @ Ck.T) <= 1e-10
    assert np.linalg.norm(Q @ Q - Q) <= 1e-10
    assert np.linalg.norm(Q - Q.T) <= 1e-12
    assert np.linalg.norm(Ck @ (R @ g) - g) <= 1e-10 * max(1.0, np.linalg.norm(g))


def test_projector_without_rows_is_the_identity():
    Q, R, Ck, keep, dropped = projector(np.zeros((0, 5)))
    assert np.array_equal(Q, np.eye(5))
    assert R.shape == (5, 0) and Ck.shape == (0, 5) and keep.size == 0 and dropped == 0


def test_rank_deficient_rows_dropped():
    C = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [1.0, 1.0, 0.0, 0.0],   # dependent
    ])
    Q, R, Ck, keep, dropped = projector(C)
    assert dropped == 1
    assert Ck.shape[0] == 2
    assert np.linalg.norm(Q @ C.T) <= 1e-10


def test_duplicate_normals_add_no_rank():
    frame, keep = tangent_frame(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]))
    assert keep.tolist() == [False, True, True]
    S2, f2 = project_system(np.eye(3), np.ones(3), frame[None], keep[None])
    dx = frame[:, keep] @ np.linalg.solve(S2, -f2)
    assert abs(dx[2]) < 1e-12
    # a normal in the span of two others adds no rank either
    n1, n2 = np.array([1.0, 0.0, 0.0]), np.array([0.6, 0.8, 0.0])
    n3 = (n1 + n2) / np.linalg.norm(n1 + n2)
    frame, keep = tangent_frame(np.array([n1, n2, n3]))
    assert keep.tolist() == [False, False, True]
    assert np.allclose(np.abs(frame[:, 2]), [0.0, 0.0, 1.0], atol=1e-12)


def test_solved_step_is_tangential():
    # random per-vertex normals: every lifted step is orthogonal to all of them
    rng = np.random.default_rng(7)
    for _ in range(20):
        nv = 4
        normals = [rng.normal(size=(int(rng.integers(0, 3)), 3)) for _ in range(nv)]
        frames = np.tile(np.eye(3), (nv, 1, 1))
        keep = np.ones((nv, 3), dtype=bool)
        for i, ns in enumerate(normals):
            if len(ns):
                frames[i], keep[i] = tangent_frame(ns / np.linalg.norm(ns, axis=1)[:, None])
        A = rng.normal(size=(3 * nv, 3 * nv))
        S = A @ A.T + 0.1 * np.eye(3 * nv)
        f = rng.normal(size=3 * nv)
        S2, f2 = project_system(S, f, frames, keep)
        dx = ConstraintSystem(frames, keep).lift(np.linalg.solve(S2, -f2)).reshape(nv, 3)
        for i, ns in enumerate(normals):
            for n in ns:
                assert abs(n @ dx[i]) <= 1e-10 * max(1.0, np.linalg.norm(dx))


def test_projection_of_mixed_frames_matches_full_rotation():
    # interior (identity), smooth and crease frames side by side: only the
    # non-identity blocks are rotated, and the result is still (B^T S B)[k, k]
    rng = np.random.default_rng(12)
    kinds = [0, 1, 0, 2, 1, 0, 0, 2, 1, 0]  # normals per vertex
    nv = len(kinds)
    frames = np.tile(np.eye(3), (nv, 1, 1))
    keep = np.ones((nv, 3), dtype=bool)
    for i, count in enumerate(kinds):
        if count:
            normals = rng.normal(size=(count, 3))
            frames[i], keep[i] = tangent_frame(normals / np.linalg.norm(normals, axis=1)[:, None])
    A = rng.normal(size=(3 * nv, 3 * nv))
    S = A @ A.T
    f = rng.normal(size=3 * nv)
    S_in, f_in = S.copy(), f.copy()
    B = np.zeros((3 * nv, 3 * nv))
    for i in range(nv):
        B[3 * i:3 * i + 3, 3 * i:3 * i + 3] = frames[i]
    k = keep.reshape(-1)

    S_r, f_r = project_system(S, f, frames, keep)
    expected_S = (B.T @ S @ B)[np.ix_(k, k)]
    expected_f = (B.T @ f)[k]
    assert np.abs(S_r - expected_S).max() <= 1e-13 * np.abs(expected_S).max()
    assert np.abs(f_r - expected_f).max() <= 1e-13 * np.abs(expected_f).max()
    assert np.array_equal(S, S_in) and np.array_equal(f, f_in)


def test_first_order_volume_preservation_single_vertex():
    # a smooth surface vertex's admissible motion is orthogonal to its
    # area-weighted normal, so the first-order enclosed-volume change
    # (1/3) dx . N vanishes
    mesh = generate_test_mesh("sphere", 4, seed=2, jitter=0.05)
    adjacency = build_topology(mesh)
    patch = select_patches(mesh, adjacency, target_quality=2.0, surface_motion=True)[0]
    system, _ = build_constraints(patch, mesh, adjacency)
    rng = np.random.default_rng(0)
    n = 3 * len(patch.free_vertices)
    f = rng.normal(size=n)
    S2, f2 = project_system(np.eye(n), f, system.frames, system.keep)
    dx = system.lift(np.linalg.solve(S2, -f2)).reshape(-1, 3)
    checked = 0
    for i, v in enumerate(patch.free_vertices):
        if mesh.vertex_class[v] != VertexClass.SURFACE_SMOOTH:
            continue
        n = resultant_normal(mesh, adjacency.vertex_tris[int(v)])
        local_volume = abs(np.dot(mesh.vertices[v], n))
        assert abs(dx[i] @ n) / 3.0 <= 1e-8 * max(local_volume, 1e-6)
        checked += 1
    assert checked > 0


def _sphere_patch():
    mesh = generate_test_mesh("sphere", 4, seed=6, jitter=0.1)
    adjacency = build_topology(mesh)
    patches = select_patches(mesh, adjacency, target_quality=0.3, surface_motion=True)
    return mesh, adjacency, max(patches, key=lambda p: len(p.free_vertices))


def _crease_grid_patch():
    mesh = generate_test_mesh("grid", 3, seed=0, jitter=0.25)
    adjacency = build_topology(mesh)
    patch = _patch_of_all_movable(mesh, adjacency)
    assert (mesh.vertex_class[patch.free_vertices] == VertexClass.FEATURE_EDGE).any()
    return mesh, adjacency, patch


@pytest.mark.parametrize("shifted", [False, True], ids=["tau0", "shifted"])
@pytest.mark.parametrize("make_patch", [_sphere_patch, _crease_grid_patch], ids=["sphere", "crease-grid"])
def test_frame_step_matches_projector_step(make_patch, shifted):
    mesh, adjacency, patch = make_patch()
    params = BarrierParams.from_quality(float(quality_batch(mesh.tet_points()).min()), 0.8)
    system = assemble_patch_system(mesh, patch, params)
    S, f = system.S, system.f
    tau = 1e-2 * float(np.abs(np.diag(S)).max()) if shifted else 0.0

    # reference: the dense null-space system S' = C^T C + Q^T S Q, f' = Q^T f
    Q, _, Ck, _, dropped = projector(_dense_rows(patch, mesh, adjacency))
    assert dropped == 0
    S_p = Ck.T @ Ck + Q.T @ S @ Q
    expected = np.linalg.solve(S_p + tau * np.eye(len(f)), -(Q.T @ f))

    constraints, demoted = build_constraints(patch, mesh, adjacency)
    assert not demoted and constraints.num_rows > 0
    S_r, f_r = project_system(S, f, constraints.frames, constraints.keep)
    assert len(f_r) == len(f) - Ck.shape[0]
    step = constraints.lift(np.linalg.solve(S_r + tau * np.eye(len(f_r)), -f_r))
    assert np.linalg.norm(step - expected) <= 1e-10 * np.linalg.norm(expected)
