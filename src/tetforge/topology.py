"""Mesh adjacency, surface extraction and vertex classification.

The surface of the volume mesh is recovered as the set of tet faces with
exactly one incident element, wound outward using the owning tet (the
remaining vertex lies on the negative side of the face).  Surface vertices
are then classified by greedily clustering the normals of their incident
surface triangles: one cluster means the vertex sits on a smooth patch, two
mean it rides a crease, three or more pin it as a corner.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from tetforge.errors import MeshStructureError
from tetforge.mesh import TET_FACES, TetMesh, VertexClass, group_faces, triangle_area_normals

logger = logging.getLogger("tetforge")


@dataclass
class AdjacencyIndex:
    """Vertex incidence maps plus surface classification artifacts.

    vertex_tets / vertex_tris : per-vertex arrays of incident tet ids and
        incident surface-triangle ids (inverse-consistent with the mesh).
    normal_groups : for each surface vertex, the incident triangle ids split
        into the clusters found at classification time; smooth vertices have
        one group, crease vertices two.
    boundary_faces : outward-oriented faces with exactly one incident tet
        (the true domain boundary, excluding any internal surfaces listed in
        the file).
    """

    vertex_tets: list
    vertex_tris: list
    normal_groups: dict[int, list] = field(default_factory=dict)
    boundary_faces: np.ndarray = field(default_factory=lambda: np.zeros((0, 3), dtype=np.int64))

    def ring_tets(self, vertices) -> np.ndarray:
        """Ids of all tets incident to any vertex in the given set."""
        if len(vertices) == 0:
            return np.zeros(0, dtype=np.int64)
        return np.unique(np.concatenate([self.vertex_tets[v] for v in vertices]))


def _invert_incidence(n_vertices: int, elements: np.ndarray) -> list:
    """Per-vertex arrays of element ids for an (m, k) connectivity array."""
    if len(elements) == 0:
        return [np.zeros(0, dtype=np.int64) for _ in range(n_vertices)]
    k = elements.shape[1]
    flat = elements.reshape(-1)
    eids = np.repeat(np.arange(len(elements), dtype=np.int64), k)
    order = np.argsort(flat, kind="stable")
    flat, eids = flat[order], eids[order]
    starts = np.searchsorted(flat, np.arange(n_vertices + 1))
    return [eids[starts[v]:starts[v + 1]] for v in range(n_vertices)]


def extract_boundary_faces(mesh: TetMesh) -> np.ndarray:
    """Outward-oriented faces owned by exactly one tet.

    Raises MeshStructureError if any face is shared by more than two tets.
    """
    if mesh.num_tets == 0:
        return np.zeros((0, 3), dtype=np.int64)
    faces = mesh.tets[:, TET_FACES].reshape(-1, 3)
    order, starts, counts = group_faces(faces)
    if counts.max(initial=0) > 2:
        bad = np.argmax(counts)
        face = np.sort(faces[order[starts[bad]]])
        raise MeshStructureError(f"non-manifold face {tuple(face)} shared by {counts[bad]} tets")
    single = np.zeros(len(faces), dtype=bool)
    single[order[starts[counts == 1]]] = True
    return faces[single]


def _cluster_normals(normals: np.ndarray, tri_ids: np.ndarray, cos_threshold: float):
    """Greedy angular grouping of unit normals; returns list of id arrays."""
    groups: list[list[int]] = []
    means: list[np.ndarray] = []
    for n, tid in zip(normals, tri_ids):
        placed = False
        for gi, mean in enumerate(means):
            if float(np.dot(n, mean)) >= cos_threshold:
                acc = mean * len(groups[gi]) + n  # rough running mean, renormalized
                groups[gi].append(int(tid))
                norm = np.linalg.norm(acc)
                if norm > 0.0:
                    means[gi] = acc / norm
                placed = True
                break
        if not placed:
            groups.append([int(tid)])
            means.append(n.copy())
    return [np.asarray(g, dtype=np.int64) for g in groups]


def build_topology(mesh: TetMesh, feature_angle_deg: float = 30.0) -> AdjacencyIndex:
    """Build adjacency, extract the surface if absent, classify vertices.

    Fills mesh.surface_tris (when empty) and mesh.vertex_class in place and
    returns the adjacency index.  Vertices already marked USER_FIXED keep
    that mark.
    """
    boundary = extract_boundary_faces(mesh)
    if len(mesh.surface_tris) == 0:
        mesh.surface_tris = boundary
        mesh.tri_refs = np.zeros(len(boundary), dtype=np.int64)

    vertex_tets = _invert_incidence(mesh.num_vertices, mesh.tets)
    vertex_tris = _invert_incidence(mesh.num_vertices, mesh.surface_tris)

    keep_fixed = (
        mesh.vertex_class == VertexClass.USER_FIXED
        if mesh.vertex_class is not None
        else np.zeros(mesh.num_vertices, dtype=bool)
    )
    classes = np.full(mesh.num_vertices, VertexClass.INTERIOR, dtype=np.uint8)
    groups_by_vertex: dict[int, list] = {}

    tri_normals = triangle_area_normals(mesh.vertices, mesh.surface_tris) if len(mesh.surface_tris) else np.zeros((0, 3))
    norms = np.linalg.norm(tri_normals, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        unit_normals = tri_normals / norms[:, None]
    cos_threshold = float(np.cos(np.radians(feature_angle_deg)))

    for v in range(mesh.num_vertices):
        tris = vertex_tris[v]
        if len(tris) == 0:
            continue
        usable = tris[norms[tris] > 0.0]
        if len(usable) == 0:
            classes[v] = VertexClass.CORNER  # every incident triangle degenerate
            continue
        groups = _cluster_normals(unit_normals[usable], usable, cos_threshold)
        groups_by_vertex[v] = groups
        if len(groups) == 1:
            classes[v] = VertexClass.SURFACE_SMOOTH
        elif len(groups) == 2:
            classes[v] = VertexClass.FEATURE_EDGE
        else:
            classes[v] = VertexClass.CORNER

    classes[keep_fixed] = VertexClass.USER_FIXED
    mesh.vertex_class = classes
    logger.debug(
        "topology: %d boundary faces, classes interior=%d smooth=%d crease=%d corner=%d fixed=%d",
        len(boundary),
        int((classes == VertexClass.INTERIOR).sum()),
        int((classes == VertexClass.SURFACE_SMOOTH).sum()),
        int((classes == VertexClass.FEATURE_EDGE).sum()),
        int((classes == VertexClass.CORNER).sum()),
        int((classes == VertexClass.USER_FIXED).sum()),
    )
    return AdjacencyIndex(
        vertex_tets=vertex_tets,
        vertex_tris=vertex_tris,
        normal_groups=groups_by_vertex,
        boundary_faces=boundary,
    )
