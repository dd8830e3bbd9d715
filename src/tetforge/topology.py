"""Mesh adjacency, surface extraction and vertex classification.

The surface of the volume mesh is recovered as the set of tet faces with
exactly one incident element, wound outward using the owning tet (the
remaining vertex lies on the negative side of the face).  Surface vertices
are then classified by greedily clustering the normals of their incident
surface triangles, the listed ones and the boundary faces the file does not
list: one cluster means the vertex sits on a smooth patch, two mean it rides
a crease, three or more pin it as a corner.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from tetforge.errors import MeshStructureError
from tetforge.mesh import TET_FACES, TetMesh, VertexClass, group_faces, triangle_unit_normals

logger = logging.getLogger("tetforge")


@dataclass(frozen=True)
class Incidence:
    """The elements incident to each vertex, as CSR arrays.

    indices[indptr[v]:indptr[v + 1]] holds the ids of the elements that use
    vertex v, in ascending order; incidence[v] returns that slice.
    """

    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_elements(cls, n_vertices: int, elements: np.ndarray) -> "Incidence":
        """Invert an (m, k) connectivity array over n_vertices vertices."""
        flat = elements.reshape(-1)
        # the keys are unique, so any sort orders each vertex's slots by
        # element id, as a stable sort of flat would, about four times faster
        # on a renumbered 44k-tet sphere.  Exact while n_vertices * flat.size
        # < 2**63, far past any mesh that fits in memory.
        order = np.argsort(flat * flat.size + np.arange(flat.size))
        indptr = np.searchsorted(flat[order], np.arange(n_vertices + 1))
        return cls(indptr=indptr, indices=order // elements.shape[1])

    def __getitem__(self, v) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def gather(self, vertices) -> np.ndarray:
        """The slices of the given vertices, concatenated in order."""
        indptr, indices = self.indptr, self.indices
        # a patch has a few free vertices, too few for a vectorised gather
        # (repeat, cumsum, arange) to beat slicing one vertex at a time
        slices = [indices[indptr[v]:indptr[v + 1]] for v in np.asarray(vertices, dtype=np.int64).tolist()]
        return np.concatenate(slices or [indices[:0]])


@dataclass
class AdjacencyIndex:
    """Vertex incidence plus surface classification artifacts.

    vertex_tets / vertex_tris : Incidence (CSR arrays) of the tets and of
        the classified surface triangles (rows of tris) at each vertex;
        vertex_tets[v] is the sorted array of the tets incident to v.
    tris : (k, 3) the classified surface: the triangles the file lists,
        followed by the boundary faces it does not list, so that every
        boundary vertex is a surface vertex; the boundary faces alone when
        the file lists none.  mesh.surface_tris keeps the listed ones.
    tri_cluster : one label per vertex_tris slot, the normal cluster that
        triangle joined at that vertex during classification, or -1 for a
        zero-area triangle, which joins none.  Cluster g of vertex v is
        the triangles vertex_tris[v] whose slots are labelled g; clusters
        are numbered 0, 1, ... in the order found.
    boundary_faces : outward-oriented faces with exactly one incident tet
        (the true domain boundary, excluding any internal surfaces listed in
        the file).
    """

    vertex_tets: Incidence
    vertex_tris: Incidence
    tris: np.ndarray
    tri_cluster: np.ndarray
    boundary_faces: np.ndarray = field(default_factory=lambda: np.zeros((0, 3), dtype=np.int64))

    def ring_tets(self, vertices) -> np.ndarray:
        """Ids of all tets incident to any vertex in the given set, ascending."""
        ids = np.sort(self.vertex_tets.gather(vertices))
        # sort and compare: np.unique hashes integers, several times slower here
        keep = np.ones(len(ids), dtype=bool)
        keep[1:] = ids[1:] != ids[:-1]
        return ids[keep]


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


def _cluster_slot_normals(vertex_tris: Incidence, unit_normals: np.ndarray, usable: np.ndarray,
                          cos_threshold: float):
    """Greedy angular clustering of every vertex's incident triangle normals.

    Each vertex visits its usable (non-zero-area) triangles in slot order.
    A triangle joins the first cluster whose mean normal lies within the
    threshold, and the mean becomes the renormalized running mean of the
    members; otherwise the triangle opens a new cluster.  All vertices
    advance one slot per step.  Returns (labels, clusters): the cluster of
    every vertex_tris slot, -1 for an unusable triangle, and the number of
    clusters of every vertex.
    """
    degree = vertex_tris.degrees()
    rows = np.argsort(-degree, kind="stable")  # by falling degree, so each step's vertices are a prefix
    rows = rows[degree[rows] > 0]
    starts, degree = vertex_tris.indptr[rows], degree[rows]
    labels = np.full(len(vertex_tris.indices), -1, dtype=np.int64)
    means = np.zeros((len(rows), 1, 3))
    sizes = np.zeros((len(rows), 1))
    found = np.zeros(len(rows), dtype=np.int64)
    for k in range(int(degree.max(initial=0))):
        m = int(np.searchsorted(-degree, -k))  # rows with more than k triangles
        slot = starts[:m] + k
        tri = vertex_tris.indices[slot]
        n = unit_normals[tri]
        ok = usable[tri]
        # n . mean as 1x3 times 3x1 products, which round like np.dot
        dots = (n[:, None, None, :] @ means[:m, :, :, None])[:, :, 0, 0]
        match = (dots >= cos_threshold) & (np.arange(means.shape[1]) < found[:m, None]) & ok[:, None]
        joins = match.any(axis=1)
        j = np.flatnonzero(joins)
        g = match[j].argmax(axis=1)
        acc = means[j, g] * sizes[j, g, None] + n[j]
        norm = np.sqrt((acc[:, None, :] @ acc[:, :, None])[:, 0, 0])
        grew = norm > 0.0
        means[j[grew], g[grew]] = acc[grew] / norm[grew, None]
        sizes[j, g] += 1.0
        labels[slot[j]] = g
        j = np.flatnonzero(ok & ~joins)
        g = found[j]
        if len(j) and g.max() == means.shape[1]:
            means = np.concatenate([means, np.zeros((len(rows), 1, 3))], axis=1)
            sizes = np.concatenate([sizes, np.zeros((len(rows), 1))], axis=1)
        means[j, g] = n[j]
        sizes[j, g] = 1.0
        found[j] += 1
        labels[slot[j]] = g
    clusters = np.zeros(len(vertex_tris), dtype=np.int64)
    clusters[rows] = found
    return labels, clusters


def build_topology(mesh: TetMesh, feature_angle_deg: float = 30.0) -> AdjacencyIndex:
    """Build adjacency, extract the surface if absent, classify vertices.

    Fills mesh.surface_tris (when empty) and mesh.vertex_class in place and
    returns the adjacency index.  Vertices are classified over the listed
    triangles and the boundary faces the file leaves out, so a boundary
    vertex that no listed triangle touches is still a surface vertex.
    Vertices already marked USER_FIXED keep that mark.
    """
    boundary = tris = extract_boundary_faces(mesh)
    if len(mesh.surface_tris) == 0:
        mesh.surface_tris = boundary
        mesh.tri_refs = np.zeros(len(boundary), dtype=np.int64)
    else:
        # a boundary face is unlisted when its group holds no listed triangle
        listed = len(mesh.surface_tris)
        order, starts, counts = group_faces(np.concatenate([mesh.surface_tris, boundary]))
        alone = np.sort(order[starts[counts == 1]])
        tris = np.concatenate([mesh.surface_tris, boundary[alone[alone >= listed] - listed]])

    vertex_tets = Incidence.from_elements(mesh.num_vertices, mesh.tets)
    vertex_tris = Incidence.from_elements(mesh.num_vertices, tris)

    keep_fixed = (
        mesh.vertex_class == VertexClass.USER_FIXED
        if mesh.vertex_class is not None
        else np.zeros(mesh.num_vertices, dtype=bool)
    )
    unit_normals = triangle_unit_normals(mesh.vertices, tris)
    cos_threshold = float(np.cos(np.radians(feature_angle_deg)))
    tri_cluster, clusters = _cluster_slot_normals(vertex_tris, unit_normals, ~np.isnan(unit_normals[:, 0]),
                                                  cos_threshold)

    # one cluster is a smooth surface, two a crease; three or more, or none
    # on the surface (every incident triangle degenerate), pin a corner
    by_count = np.array([VertexClass.CORNER, VertexClass.SURFACE_SMOOTH, VertexClass.FEATURE_EDGE,
                         VertexClass.CORNER], dtype=np.uint8)
    classes = by_count[np.minimum(clusters, 3)]
    classes[vertex_tris.degrees() == 0] = VertexClass.INTERIOR
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
        tris=tris,
        tri_cluster=tri_cluster,
        boundary_faces=boundary,
    )
