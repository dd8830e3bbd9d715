from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetforge.errors import MeshFormatError, MeshStructureError
from tetforge.fixtures import generate_test_mesh
from tetforge.io import load_mesh, save_mesh
from tetforge.mesh import (
    TET_EDGE_OPPOSITE,
    TET_EDGES,
    TET_FACES,
    TetMesh,
    VertexClass,
    dihedral_angles_batch,
    group_faces,
    surface_enclosed_volume,
    tet_volumes,
    triangle_area_normals,
)
from tetforge.metrics import global_metrics
from tetforge.topology import build_topology, extract_boundary_faces

from conftest import random_tet


# --- signed volume ---------------------------------------------------------

def test_unit_corner_tet_volume(corner_tet):
    assert tet_volumes(corner_tet[None])[0] == pytest.approx(1.0 / 6.0, rel=1e-15)


def test_orientation_flip(corner_tet):
    assert tet_volumes(corner_tet[None, [0, 1, 3, 2]])[0] == pytest.approx(-1.0 / 6.0, rel=1e-15)


def test_regular_tet_volume(regular_tet):
    # analytic: V = edge^3 / (6 sqrt(2))
    assert tet_volumes(regular_tet[None])[0] == pytest.approx(np.sqrt(2.0) / 12.0, rel=1e-12)


# identity, the three double transpositions, two 3-cycles / all six transpositions
_EVEN = [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0), (0, 2, 3, 1), (1, 2, 0, 3)]
_ODD = [(1, 0, 2, 3), (2, 1, 0, 3), (3, 1, 2, 0), (0, 2, 1, 3), (0, 3, 2, 1), (0, 1, 3, 2)]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 5), st.booleans())
def test_volume_permutation_parity(seed, perm_idx, odd):
    rng = np.random.default_rng(seed)
    p = rng.random((4, 3))
    base = tet_volumes(p[None])[0]
    perm = (_ODD if odd else _EVEN)[perm_idx]
    permuted = tet_volumes(p[None, list(perm)])[0]
    expected = -base if odd else base
    assert permuted == pytest.approx(expected, abs=1e-15)


# --- dihedral angles -------------------------------------------------------

def test_regular_tet_dihedrals(regular_tet):
    angles = dihedral_angles_batch(regular_tet[None])[0]
    assert np.allclose(angles, np.degrees(np.arccos(1.0 / 3.0)), atol=1e-9)


def test_corner_tet_dihedrals(corner_tet):
    angles = np.sort(dihedral_angles_batch(corner_tet[None])[0])
    # three right angles between the coordinate planes, three times
    # arccos(1/sqrt(3)) between each coordinate plane and the slanted face
    assert np.allclose(angles[3:], 90.0, atol=1e-9)
    assert np.allclose(angles[:3], np.degrees(np.arccos(1.0 / np.sqrt(3.0))), atol=1e-9)


def test_sliver_dihedrals():
    # nearly flat: apex just above the base plane, inside the base triangle
    p = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.3, 0.3, 0.004]], dtype=float)
    angles = dihedral_angles_batch(p[None])[0]
    assert angles.min() < 5.0
    assert angles.max() > 175.0


def per_edge_dihedral_angles(points):
    """Reference angles: per edge, the angle between the two other vertices projected off the edge."""
    out = np.empty((len(points), 6))
    for k, ((i, j), (a, b)) in enumerate(zip(TET_EDGES, TET_EDGE_OPPOSITE)):
        e = points[:, j] - points[:, i]
        elen = np.linalg.norm(e, axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            ehat = e / elen[:, None]
            va = points[:, a] - points[:, i]
            vb = points[:, b] - points[:, i]
            va = va - np.einsum("ij,ij->i", va, ehat)[:, None] * ehat
            vb = vb - np.einsum("ij,ij->i", vb, ehat)[:, None] * ehat
            ang = np.degrees(np.arctan2(np.linalg.norm(np.cross(va, vb), axis=1), np.einsum("ij,ij->i", va, vb)))
        bad = (np.linalg.norm(va, axis=1) == 0.0) | (np.linalg.norm(vb, axis=1) == 0.0) | (elen == 0.0)
        out[:, k] = np.where(bad, np.nan, ang)
    return out


def test_dihedral_batch_matches_per_edge_formula():
    # random tets of both orientations, away from the origin, some nearly flat
    rng = np.random.default_rng(17)
    points = rng.random((4000, 4, 3)) + np.array([3.0, -2.0, 5.0])
    points[:200, 3] = points[:200, :3].mean(axis=1) + 1e-6 * rng.standard_normal((200, 3))
    assert (tet_volumes(points) < 0).any() and (tet_volumes(points) > 0).any()
    angles = dihedral_angles_batch(points)
    assert angles.shape == (4000, 6)
    assert np.abs(angles - per_edge_dihedral_angles(points)).max() <= 1e-10


def test_dihedral_batch_degenerate_face_is_nan():
    # p3 on edge p0-p1: face (0, 1, 3) has zero area, so the angles along its edges are undefined
    p = np.array([[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.5, 0, 0]],
                  [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]], dtype=float)
    angles = dihedral_angles_batch(p)
    along_face = [TET_EDGES.index(e) for e in ((0, 1), (0, 3), (1, 3))]
    assert np.isnan(angles[0, along_face]).all()
    assert not np.isnan(np.delete(angles, along_face, axis=1)).any()
    assert np.array_equal(np.isnan(per_edge_dihedral_angles(p)), np.isnan(angles))
    finite = np.isfinite(angles)
    assert np.abs(angles[finite] - per_edge_dihedral_angles(p)[finite]).max() <= 1e-10


@pytest.mark.parametrize("scale", [1e-70, 1e-90, 2.0 ** -300])
def test_tiny_tet_gets_the_angles_of_its_unscaled_shape(corner_tet, scale):
    # the products of such a tet's face normals underflow unless its edges are scaled first
    angles = dihedral_angles_batch(corner_tet[None] * scale)
    assert np.array_equal(angles, dihedral_angles_batch(corner_tet[None]))


def test_tiny_tet_in_a_mesh_counts_in_the_dihedral_range(corner_tet):
    # a flat tet 1e-70 across beside the unit corner tet: its extreme angles are the mesh's
    flat = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.3, 0.3, 0.05]])
    mesh = TetMesh(vertices=np.concatenate([corner_tet, flat * 1e-70 - 1e-69]),
                   tets=np.array([[0, 1, 2, 3], [4, 5, 6, 7]]))
    mesh.validate()
    expected = dihedral_angles_batch(flat[None])[0]
    assert expected.max() > 150.0 and expected.min() < 10.0
    metrics = global_metrics(mesh, build_topology(mesh))
    assert metrics.max_dihedral_deg == pytest.approx(expected.max(), abs=1e-9)
    assert metrics.min_dihedral_deg == pytest.approx(expected.min(), abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.permutations(range(4)))
def test_dihedral_permutation_consistency(seed, perm):
    rng = np.random.default_rng(seed)
    p = random_tet(rng, min_volume=1e-2)
    base = np.sort(dihedral_angles_batch(p[None])[0])
    permuted = np.sort(dihedral_angles_batch(p[None, list(perm)])[0])
    assert np.allclose(base, permuted, atol=1e-8)


# --- file I/O --------------------------------------------------------------

SINGLE_TET_MEDIT = """MeshVersionFormatted 2
Dimension 3
Vertices
4
0 0 0 1
1 0 0 1
0 1 0 1
0 0 1 2
Tetrahedra
1
1 2 3 4 0
End
"""


def test_load_single_tet_medit(tmp_path):
    path = tmp_path / "single.mesh"
    path.write_text(SINGLE_TET_MEDIT)
    mesh = load_mesh(path)
    assert mesh.num_vertices == 4
    assert mesh.num_tets == 1
    assert np.array_equal(mesh.tets[0], [0, 1, 2, 3])
    assert mesh.vertex_refs.tolist() == [1, 1, 1, 2]


def test_load_out_of_range_index_names_line(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text(SINGLE_TET_MEDIT.replace("1 2 3 4 0", "1 2 3 5 0"))
    with pytest.raises(MeshFormatError, match="line 11"):
        load_mesh(path)


def test_malformed_header(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text("NotAMeshFile\n")
    with pytest.raises(MeshFormatError):
        load_mesh(path)


def test_save_single_tet_sections(tmp_path, corner_tet):
    mesh = TetMesh(vertices=corner_tet, tets=np.array([[0, 1, 2, 3]]))
    path = tmp_path / "out.mesh"
    save_mesh(mesh, path)
    text = path.read_text()
    assert "Vertices\n4" in text
    assert "Tetrahedra\n1" in text
    assert "Triangles" not in text  # empty surface emits no section


@pytest.mark.parametrize("fmt,ext", [("medit", ".mesh"), ("vtk", ".vtk")])
def test_round_trip_cube(tmp_path, fmt, ext):
    mesh = generate_test_mesh("grid", 2, seed=5, jitter=0.3)
    build_topology(mesh)
    path = tmp_path / f"cube{ext}"
    save_mesh(mesh, path, fmt)
    back = load_mesh(path, fmt)
    assert np.array_equal(mesh.tets, back.tets)
    assert np.array_equal(mesh.surface_tris, back.surface_tris)
    assert np.array_equal(mesh.vertices, back.vertices)  # 17 sig digits round-trip exactly


def test_vtk_rejects_unknown_cell(tmp_path):
    path = tmp_path / "bad.vtk"
    path.write_text(
        "# vtk DataFile Version 3.0\nt\nASCII\nDATASET UNSTRUCTURED_GRID\n"
        "POINTS 2 double\n0 0 0\n1 0 0\nCELLS 1 3\n2 0 1\nCELL_TYPES 1\n3\n"
    )
    with pytest.raises(MeshFormatError):
        load_mesh(path)


# --- topology and classification -------------------------------------------

def test_single_tet_all_corners(corner_tet):
    mesh = TetMesh(vertices=corner_tet, tets=np.array([[0, 1, 2, 3]]))
    build_topology(mesh, feature_angle_deg=30.0)
    assert all(c == VertexClass.CORNER for c in mesh.vertex_class)
    assert len(mesh.surface_tris) == 4


def test_cube_classification():
    mesh = generate_test_mesh("grid", 2)
    adjacency = build_topology(mesh, feature_angle_deg=30.0)
    classes = np.asarray(mesh.vertex_class)
    counts = {c: int((classes == c).sum()) for c in VertexClass}
    # 2x2x2 cube: 8 corners, 12 edge midpoints, 6 face centers, 1 interior
    assert counts[VertexClass.CORNER] == 8
    assert counts[VertexClass.FEATURE_EDGE] == 12
    assert counts[VertexClass.SURFACE_SMOOTH] == 6
    assert counts[VertexClass.INTERIOR] == 1
    interior = int(np.flatnonzero(classes == VertexClass.INTERIOR)[0])
    assert len(adjacency.vertex_tris[interior]) == 0


def test_adjacency_inverse_consistency():
    mesh = generate_test_mesh("grid", 3, seed=1, jitter=0.2)
    adjacency = build_topology(mesh)
    for v in range(mesh.num_vertices):
        for t in adjacency.vertex_tets[v]:
            assert v in mesh.tets[t]
    for t, tet in enumerate(mesh.tets):
        for v in tet:
            assert t in adjacency.vertex_tets[v]


def test_non_manifold_face_rejected():
    mesh = _non_manifold_mesh()
    with pytest.raises(MeshStructureError, match="non-manifold"):
        build_topology(mesh)


def test_surface_extraction_unique_and_closed():
    mesh = generate_test_mesh("grid", 3, seed=2, jitter=0.15)
    boundary = extract_boundary_faces(mesh)
    keys = {tuple(sorted(tri)) for tri in boundary.tolist()}
    assert len(keys) == len(boundary)
    # each boundary face belongs to exactly one tet: grouped with the tet
    # faces, its group holds itself and one tet face
    num_tet_faces = 4 * mesh.num_tets
    order, starts, counts = group_faces(np.concatenate([mesh.tets[:, TET_FACES].reshape(-1, 3), boundary]))
    boundary_groups = 0
    for start, count in zip(starts, counts):
        members = order[start:start + count]
        if (members >= num_tet_faces).any():
            assert count == 2 and (members < num_tet_faces).sum() == 1
            boundary_groups += 1
    assert boundary_groups == len(boundary)
    # closed outward surface: area-weighted normals cancel
    normals = triangle_area_normals(mesh.vertices, boundary)
    total_area = np.linalg.norm(normals, axis=1).sum()
    assert np.linalg.norm(normals.sum(axis=0)) <= 1e-10 * total_area


@pytest.mark.parametrize("kind,n,jitter", [("grid", 3, 0.25), ("sphere", 4, 0.1)])
def test_divergence_theorem_volume(kind, n, jitter):
    mesh = generate_test_mesh(kind, n, seed=7, jitter=jitter)
    adjacency = build_topology(mesh)
    v_surface = surface_enclosed_volume(mesh.vertices, adjacency.boundary_faces)
    v_tets = float(tet_volumes(mesh.tet_points()).sum())
    assert v_surface == pytest.approx(v_tets, rel=1e-10)


# --- global metrics --------------------------------------------------------

def test_empty_surface_has_no_area_and_encloses_nothing(corner_tet):
    # numpy's empty reductions give these without a warning; no special case is needed
    none = np.zeros((0, 3), dtype=np.int64)
    assert triangle_area_normals(corner_tet, none).shape == (0, 3)
    assert surface_enclosed_volume(corner_tet, none) == 0.0


def test_cube_metrics():
    mesh = generate_test_mesh("grid", 2)
    adjacency = build_topology(mesh)
    metrics = global_metrics(mesh, adjacency)
    assert metrics.total_volume == pytest.approx(1.0, rel=1e-12)
    assert metrics.total_surface_area == pytest.approx(6.0, rel=1e-12)


def test_surface_area_is_the_domain_boundary_whatever_the_file_lists():
    # a file that lists half its boundary, or lists a face inside the domain
    # as well, reports the area of the domain boundary, as listing none does
    sphere = generate_test_mesh("sphere", 5, seed=3, jitter=0.15)
    faces = extract_boundary_faces(sphere)
    boundary = {tuple(face) for face in np.sort(faces, axis=1).tolist()}
    inner = next(face for face in sphere.tets[:, [0, 1, 2]] if tuple(sorted(face.tolist())) not in boundary)
    areas = []
    for listed in (np.zeros((0, 3), dtype=np.int64), faces[:len(faces) // 2], np.vstack([faces, inner])):
        mesh = TetMesh(vertices=sphere.vertices, tets=sphere.tets, surface_tris=listed)
        areas.append(global_metrics(mesh, build_topology(mesh)).total_surface_area)
    assert areas[0] == pytest.approx(12.4419, abs=1e-4)
    assert areas[1] == areas[2] == areas[0]


def test_single_regular_tet_histogram(regular_tet):
    mesh = TetMesh(vertices=regular_tet, tets=np.array([[0, 1, 2, 3]]))
    adjacency = build_topology(mesh)
    metrics = global_metrics(mesh, adjacency)
    assert metrics.dihedral_histogram[7] == 6  # all six angles in [70, 80)
    assert sum(metrics.dihedral_histogram) == 6


def test_inverted_tet_gives_negative_q_min():
    mesh = generate_test_mesh("with-inverted", 3, seed=0, k=1)
    adjacency = build_topology(mesh)
    metrics = global_metrics(mesh, adjacency)
    assert metrics.q_min < 0.0
    assert tet_volumes(mesh.tet_points())[metrics.worst_tet_id] < 0.0


def test_validate_catches_bad_indices(corner_tet):
    mesh = TetMesh(vertices=corner_tet, tets=np.array([[0, 1, 2, 3]]))
    mesh.tets = np.array([[0, 1, 2, 9]])
    with pytest.raises(MeshStructureError):
        mesh.validate()


@pytest.mark.parametrize("x0,tris,message", [
    (np.nan, [], "non-finite vertex coordinates"),
    (-np.inf, [], "non-finite vertex coordinates"),
    (0.0, [[0, 1, 4]], "surface triangle index out of range"),
    (0.0, [[0, -1, 2]], "surface triangle index out of range"),
], ids=["nan", "inf", "triangle-index-high", "triangle-index-negative"])
def test_validate_rejects_bad_coordinates_and_triangle_indices(corner_tet, x0, tris, message):
    vertices = corner_tet.copy()
    vertices[0, 0] = x0  # 0.0 keeps the corner tet
    mesh = TetMesh(vertices=vertices, tets=np.array([[0, 1, 2, 3]]), surface_tris=np.array(tris, dtype=np.int64))
    with pytest.raises(MeshStructureError, match=message):
        mesh.validate()


def _non_manifold_mesh():
    # three tets sharing the face (0, 1, 2)
    vertices = np.array([
        [0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1], [1, 1, 1],
    ], dtype=float)
    return TetMesh(vertices=vertices, tets=np.array([[0, 1, 2, 3], [0, 2, 1, 4], [0, 1, 2, 5]]))


def test_validate_rejects_triangle_that_is_no_tet_face():
    mesh = generate_test_mesh("grid", 2)
    build_topology(mesh)
    # corner, centre and opposite corner of the cube are collinear: no tet has that face
    stray = [0, 13, 26]
    assert np.allclose(mesh.vertices[stray], [[0, 0, 0], [0.5, 0.5, 0.5], [1, 1, 1]])
    tris = mesh.surface_tris
    mesh.surface_tris = np.concatenate([tris[:5], [stray], tris[5:], [stray]])
    with pytest.raises(MeshStructureError, match="^surface triangle 5 is not a face of any tet$"):
        mesh.validate()


def test_validate_rejects_listed_face_of_three_tets():
    mesh = _non_manifold_mesh()
    mesh.surface_tris = np.array([[0, 1, 3], [1, 0, 2], [0, 2, 1]])
    with pytest.raises(MeshStructureError, match="^surface triangle 1 is shared by 3 tets$"):
        mesh.validate()


def test_validate_accepts_listed_internal_face():
    mesh = generate_test_mesh("grid", 2)
    build_topology(mesh)
    faces = mesh.tets[:, TET_FACES].reshape(-1, 3)
    order, starts, counts = group_faces(faces)
    internal = faces[order[starts[np.argmax(counts == 2)]]]
    assert sum(set(internal.tolist()) <= set(tet.tolist()) for tet in mesh.tets) == 2
    mesh.surface_tris = np.concatenate([mesh.surface_tris, [internal]])
    mesh.validate()


@st.composite
def listed_triangles(draw):
    """Distinct triangles over a few vertex ids, three or more of them past
    2**21, each listed one to three times in a random vertex order, all
    shuffled.

    Few ids give many triangles sharing their two smallest ids; triangles of
    large ids take (k0 * nv + k1) * nv + k2 past the int64 range.
    """
    ids = draw(st.lists(st.integers(0, 2 ** 21 - 1), max_size=5, unique=True))
    ids += draw(st.lists(st.integers(2 ** 21, 3 * 10 ** 6), min_size=3, max_size=5, unique=True))
    triangles = draw(st.lists(st.sampled_from(list(combinations(ids, 3))), min_size=1, max_size=30, unique=True))
    faces = [[tri[k] for k in draw(st.permutations(range(3)))]
             for tri in triangles for _ in range(draw(st.integers(1, 3)))]
    return np.array(draw(st.permutations(faces)), dtype=np.int64)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(listed_triangles())
def test_group_faces_matches_lexsort(faces):
    keys = np.sort(faces, axis=1)
    lex = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    lex_starts = np.flatnonzero(np.r_[True, (keys[lex][1:] != keys[lex][:-1]).any(axis=1)])
    order, starts, counts = group_faces(faces)
    assert np.array_equal(np.sort(order), np.arange(len(faces)))
    assert np.array_equal(starts, lex_starts)
    assert np.array_equal(counts, np.diff(np.r_[lex_starts, len(faces)]))
    for start, count in zip(starts, counts):
        # every group holds the copies of one triangle, in the lexsort's group order
        assert (keys[order[start:start + count]] == keys[lex[start]]).all()


@pytest.mark.parametrize("i,j", TET_EDGES)
def test_validate_rejects_repeated_vertex_in_any_slot_pair(i, j):
    mesh = generate_test_mesh("grid", 2)
    mesh.tets[7, j] = mesh.tets[7, i]
    with pytest.raises(MeshStructureError, match="^tet with repeated vertex$"):
        mesh.validate()


def collapsed_tet_mesh():
    """A grid whose tet 100 has all four vertices moved to its centroid."""
    mesh = generate_test_mesh("grid", 4, seed=0, jitter=0.2)
    corners = mesh.tets[100]
    mesh.vertices[corners] = mesh.vertices[corners].mean(axis=0)
    return mesh


def out_of_range_mesh(case):
    """A mesh whose coordinates leave the range `validate` accepts."""
    mesh = generate_test_mesh("sphere", 3, seed=1, jitter=0.1)
    if case == "huge":
        mesh.vertices[0] = [1e200, 0.0, 0.0]
    else:
        mesh.vertices *= 1e-120  # well shaped, but S^(3/2) underflows to 0
    return mesh


@pytest.mark.parametrize("case", ["huge", "tiny"])
def test_validate_rejects_coordinates_out_of_range(case):
    with pytest.raises(MeshStructureError, match="out of range.*2\\^100.*2\\^-100"):
        out_of_range_mesh(case).validate()


def test_validate_accepts_the_ends_of_the_coordinate_range():
    mesh = generate_test_mesh("grid", 2)  # coordinates from 0 to 1 exactly
    for factor, outside in ((2.0 ** 100, np.nextafter(1.0, 2.0)), (2.0 ** -100, np.nextafter(1.0, 0.0))):
        at_end = mesh.copy()
        at_end.vertices *= factor
        at_end.validate()
        at_end.vertices *= outside
        with pytest.raises(MeshStructureError, match="out of range"):
            at_end.validate()


def test_validate_rejects_collapsed_tet_but_not_inverted():
    with pytest.raises(MeshStructureError, match="tet 100 "):
        collapsed_tet_mesh().validate()
    mesh = generate_test_mesh("with-inverted", 3, seed=0, k=1)
    assert tet_volumes(mesh.tet_points()).min() < 0.0
    mesh.validate()
