"""Vertex classification against the per-vertex clustering loop it replaced."""

import numpy as np
import pytest

from tetforge.fixtures import KINDS, generate_test_mesh
from tetforge.mesh import TetMesh, VertexClass, triangle_area_normals
from tetforge.topology import build_topology, extract_boundary_faces

from conftest import cluster_triangles


def reference_cluster_normals(normals, tri_ids, cos_threshold):
    """Greedy angular grouping of unit normals, one vertex at a time."""
    groups, means = [], []
    for n, tid in zip(normals, tri_ids):
        for gi, mean in enumerate(means):
            if float(np.dot(n, mean)) >= cos_threshold:
                acc = mean * len(groups[gi]) + n
                groups[gi].append(int(tid))
                norm = np.linalg.norm(acc)
                if norm > 0.0:
                    means[gi] = acc / norm
                break
        else:
            groups.append([int(tid)])
            means.append(n.copy())
    return [np.asarray(g, dtype=np.int64) for g in groups]


def reference_classify(mesh, feature_angle_deg):
    """(classes, groups) from the vertex-by-vertex loop; groups[v] lists v's clusters."""
    tri_normals = triangle_area_normals(mesh.vertices, mesh.surface_tris)
    norms = np.linalg.norm(tri_normals, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        unit_normals = tri_normals / norms[:, None]
    cos_threshold = float(np.cos(np.radians(feature_angle_deg)))
    classes = np.full(mesh.num_vertices, VertexClass.INTERIOR, dtype=np.uint8)
    groups = {}
    for v in range(mesh.num_vertices):
        tris = np.flatnonzero((mesh.surface_tris == v).any(axis=1))
        if len(tris) == 0:
            continue
        usable = tris[norms[tris] > 0.0]
        if len(usable) == 0:
            classes[v] = VertexClass.CORNER
            continue
        groups[v] = reference_cluster_normals(unit_normals[usable], usable, cos_threshold)
        classes[v] = (VertexClass.SURFACE_SMOOTH, VertexClass.FEATURE_EDGE)[len(groups[v]) - 1] \
            if len(groups[v]) < 3 else VertexClass.CORNER
    return classes, groups


def assert_matches_reference(mesh, feature_angle_deg):
    adjacency = build_topology(mesh, feature_angle_deg)
    classes, groups = reference_classify(mesh, feature_angle_deg)
    assert np.array_equal(mesh.vertex_class, classes)
    for v in range(mesh.num_vertices):
        found = cluster_triangles(adjacency, v)
        expected = groups.get(v, [])
        assert len(found) == len(expected), v
        for a, b in zip(found, expected):
            assert np.array_equal(a, b), v
    return adjacency


@pytest.mark.parametrize("angle", [1.0, 30.0, 89.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", KINDS)
def test_classification_matches_vertex_loop(kind, seed, angle):
    mesh = generate_test_mesh(kind, 3, seed=seed, jitter=0.2, k=2)
    # move the surface too, so that grids get curved faces and mixed creases
    rng = np.random.default_rng(seed)
    mesh.vertices += rng.normal(scale=0.03, size=mesh.vertices.shape) * (seed % 2)
    adjacency = assert_matches_reference(mesh, angle)
    # build_constraints reads a vertex's cluster count from its class: a smooth
    # vertex's slots are labelled 0 (or -1, zero area), a crease vertex's 0 and 1
    for cls, labels in ((VertexClass.SURFACE_SMOOTH, {0}), (VertexClass.FEATURE_EDGE, {0, 1})):
        for v in np.flatnonzero(mesh.vertex_class == cls):
            slots = slice(adjacency.vertex_tris.indptr[v], adjacency.vertex_tris.indptr[v + 1])
            assert set(adjacency.tri_cluster[slots].tolist()) - {-1} == labels, v


def test_zero_area_triangles_are_skipped_or_pin_a_corner():
    mesh = generate_test_mesh("grid", 2)
    vid = {tuple(p): i for i, p in enumerate((mesh.vertices * 2).astype(int).tolist())}
    center, bottom, top = vid[(1, 1, 1)], vid[(1, 1, 0)], vid[(1, 1, 2)]
    # three collinear vertices: the interior center is on no other surface
    # triangle, the bottom and top face centers are on coplanar ones
    degenerate = np.array([[bottom, center, top]])
    mesh = TetMesh(vertices=mesh.vertices, tets=mesh.tets,
                   surface_tris=np.concatenate([degenerate, extract_boundary_faces(mesh)]))
    adjacency = assert_matches_reference(mesh, 30.0)
    assert mesh.vertex_class[center] == VertexClass.CORNER
    assert cluster_triangles(adjacency, center) == []
    for v in (bottom, top):
        assert mesh.vertex_class[v] == VertexClass.SURFACE_SMOOTH
        (group,) = cluster_triangles(adjacency, v)
        assert len(group) == adjacency.vertex_tris.degrees()[v] - 1 and 0 not in group
        lo = adjacency.vertex_tris.indptr[v]
        assert adjacency.vertex_tris.indices[lo] == 0 and adjacency.tri_cluster[lo] == -1


def test_incidence_slices_are_sorted_and_gather_concatenates():
    mesh = generate_test_mesh("sphere", 3, seed=1)
    adjacency = build_topology(mesh)
    star = adjacency.vertex_tets
    assert len(star) == mesh.num_vertices
    for v in range(mesh.num_vertices):
        assert np.array_equal(star[v], np.flatnonzero((mesh.tets == v).any(axis=1)))
    picked = [5, 0, 5, mesh.num_vertices - 1]
    assert np.array_equal(star.gather(picked), np.concatenate([star[v] for v in picked]))
    assert star.gather([]).shape == (0,)
    assert np.array_equal(adjacency.ring_tets(picked), np.unique(star.gather(picked)))


def test_mesh_without_tets_has_no_boundary_faces():
    faces = extract_boundary_faces(TetMesh(vertices=np.eye(3), tets=np.zeros((0, 4), dtype=np.int64)))
    assert faces.shape == (0, 3) and faces.dtype == np.int64


@pytest.mark.parametrize("scale", [1e-70, 1e-90, 2.0 ** -300])
def test_tiny_tet_beside_a_unit_one_is_classed_as_at_unit_scale(corner_tet, scale):
    # the squared area normals of the tiny tet's faces underflow unless their edges are scaled first
    flat = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.3, 0.3, 0.05]])

    def classes(s):
        mesh = TetMesh(vertices=np.concatenate([corner_tet, flat * s - 10.0 * s]),
                       tets=np.array([[0, 1, 2, 3], [4, 5, 6, 7]]))
        mesh.validate()
        build_topology(mesh)
        return mesh.vertex_class

    assert np.array_equal(classes(scale), classes(1.0))
