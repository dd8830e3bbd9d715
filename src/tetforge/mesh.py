"""Tetrahedral mesh data model and geometric primitives.

Coordinates are float64 Cartesian, connectivity is 0-based.  Signed volumes
follow the right-hand rule: a tet (p0, p1, p2, p3) is positively oriented
when p3 lies on the positive side of the oriented face (p0, p1, p2).
Negative volumes are representable on purpose so that tangled meshes can be
loaded and untangled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from tetforge.errors import MeshStructureError


class VertexClass(IntEnum):
    INTERIOR = 0
    SURFACE_SMOOTH = 1
    FEATURE_EDGE = 2
    CORNER = 3
    USER_FIXED = 4


# Vertex-slot order of the six edges of a tet, and the two remaining slots
# opposite each edge.  dihedral_angles_batch reports angles in this edge order.
TET_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
TET_EDGE_OPPOSITE = ((2, 3), (1, 3), (1, 2), (0, 3), (0, 2), (0, 1))

# Faces of a positively oriented tet, wound so their normals point outward.
TET_FACES = ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))


@dataclass
class TetMesh:
    """A tetrahedral mesh with an optional oriented surface triangulation.

    vertices : (nv, 3) float64
    tets : (nt, 4) int64, four distinct vertex ids per element
    surface_tris : (ns, 3) int64, outward-oriented by the right-hand rule
    vertex_class : (nv,) uint8 VertexClass codes, filled by build_topology
    vertex_refs / tet_refs / tri_refs : integer tags carried through file I/O
    """

    vertices: np.ndarray
    tets: np.ndarray
    surface_tris: np.ndarray = field(default_factory=lambda: np.zeros((0, 3), dtype=np.int64))
    vertex_class: np.ndarray | None = None
    vertex_refs: np.ndarray | None = None
    tet_refs: np.ndarray | None = None
    tri_refs: np.ndarray | None = None

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3))
        self.tets = np.ascontiguousarray(np.asarray(self.tets, dtype=np.int64).reshape(-1, 4))
        self.surface_tris = np.ascontiguousarray(np.asarray(self.surface_tris, dtype=np.int64).reshape(-1, 3))
        if self.vertex_refs is None:
            self.vertex_refs = np.zeros(len(self.vertices), dtype=np.int64)
        if self.tet_refs is None:
            self.tet_refs = np.zeros(len(self.tets), dtype=np.int64)
        if self.tri_refs is None:
            self.tri_refs = np.zeros(len(self.surface_tris), dtype=np.int64)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_tets(self) -> int:
        return len(self.tets)

    def tet_points(self, ids=None) -> np.ndarray:
        """Coordinates of tets as an (m, 4, 3) array."""
        tets = self.tets if ids is None else self.tets[ids]
        return self.vertices[tets]

    def copy(self) -> "TetMesh":
        return TetMesh(
            vertices=self.vertices.copy(),
            tets=self.tets.copy(),
            surface_tris=self.surface_tris.copy(),
            vertex_class=None if self.vertex_class is None else self.vertex_class.copy(),
            vertex_refs=self.vertex_refs.copy(),
            tet_refs=self.tet_refs.copy(),
            tri_refs=self.tri_refs.copy(),
        )

    def validate(self) -> None:
        """Check structural invariants, raising MeshStructureError on failure.

        A listed surface triangle must be a face of one tet, or of two for an
        internal surface such as a crack face; one matching no tet face, or
        shared by more, is rejected.  Inverted tets are valid input, but a
        tet whose quality is not finite (all four vertices at one point) is
        not, and neither is a mesh without tets: there is nothing to improve
        or measure.  Nor is one with |x| > 2^100 or an extent below 2^-100:
        the Newton weights scale as length^-6 and must stay normal floats.
        """
        nv = self.num_vertices
        if not np.all(np.isfinite(self.vertices)):
            raise MeshStructureError("non-finite vertex coordinates")
        if not self.num_tets:
            raise MeshStructureError("mesh has no tetrahedra")
        if self.tets.min() < 0 or self.tets.max() >= nv:
            raise MeshStructureError("tet vertex index out of range")
        if any(np.any(self.tets[:, i] == self.tets[:, j]) for i, j in TET_EDGES):
            raise MeshStructureError("tet with repeated vertex")
        if np.abs(self.vertices).max() > 2.0 ** 100 or extent(self.vertices) < 2.0 ** -100:
            raise MeshStructureError("vertex coordinates out of range: need |x| <= 2^100 and extent >= 2^-100")
        from tetforge.quality import quality_batch  # quality imports this module

        # the points as a view of their coordinate rows, which quality_batch reads without a transpose
        bad = ~np.isfinite(quality_batch(self.vertices.T.take(self.tets.T, axis=1).T))
        if np.any(bad):
            raise MeshStructureError(f"tet {int(np.argmax(bad))} is degenerate: its quality is not finite")
        if len(self.surface_tris):
            if self.surface_tris.min() < 0 or self.surface_tris.max() >= nv:
                raise MeshStructureError("surface triangle index out of range")
            # group the tet faces together with the listed triangles; a
            # triangle's owners are the tet faces in its group
            num_tet_faces = 4 * self.num_tets
            faces = np.concatenate([self.tets[:, TET_FACES].reshape(-1, 3), self.surface_tris])
            order, starts, counts = group_faces(faces)
            from_tets = np.add.reduceat((order < num_tet_faces).astype(np.int64), starts)
            owners = np.empty(len(faces), dtype=np.int64)
            owners[order] = np.repeat(from_tets, counts)
            owners = owners[num_tet_faces:]
            bad = (owners == 0) | (owners > 2)
            if np.any(bad):
                i = int(np.argmax(bad))
                if owners[i] == 0:
                    raise MeshStructureError(f"surface triangle {i} is not a face of any tet")
                raise MeshStructureError(f"surface triangle {i} is shared by {owners[i]} tets")


def extent(points: np.ndarray) -> float:
    """Largest coordinate range of (n, 3) points, taken over rows of the transpose (axis 0 is slower)."""
    return float(np.ptp(np.ascontiguousarray(points.T), axis=1).max())


def group_faces(faces: np.ndarray) -> tuple:
    """Group triangles made of the same three vertices, in any order.

    Returns (order, starts, counts): faces[order] lists the copies of each
    distinct triangle next to each other, the copies of group g being
    faces[order[starts[g]:starts[g] + counts[g]]].  Groups come in the
    lexicographic order of their sorted vertex ids; the order of the copies
    inside a group is unspecified.  faces must not be empty.

    Each face gets one int64 key.  With its ids ordered k0 <= k1 <= k2 and
    nv the largest id plus one, the key is rank * nv + k2, where rank numbers
    the distinct (k0, k1) pairs in increasing order of k0 * nv + k1.  Keys
    order faces as their sorted ids do and are exact while nv**2 and
    len(faces) * nv stay below 2**63, far past any mesh that fits in memory.
    """
    a, b, c = np.ascontiguousarray(faces.T)
    k0 = np.minimum(np.minimum(a, b), c)
    k2 = np.maximum(np.maximum(a, b), c)
    k1 = a + b + c - k0 - k2
    nv = int(k2.max()) + 1
    pair = k0 * nv + k1
    by_pair = np.argsort(pair)
    pair = pair[by_pair]
    rank = np.empty_like(pair)
    rank[by_pair] = np.cumsum(np.r_[True, pair[1:] != pair[:-1]]) - 1
    key = rank * nv + k2
    order = np.argsort(key)
    key = key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    return order, starts, np.diff(np.r_[starts, len(order)])


def _cross_columns(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """Column-wise cross product of (3, m) arrays into out."""
    np.subtract(a[1] * b[2], a[2] * b[1], out=out[0])
    np.subtract(a[2] * b[0], a[0] * b[2], out=out[1])
    np.subtract(a[0] * b[1], a[1] * b[0], out=out[2])


def tet_volumes(points: np.ndarray) -> np.ndarray:
    """Signed volumes for a batch of tets, points shaped (m, 4, 3)."""
    e1 = points[:, 1] - points[:, 0]
    e2 = points[:, 2] - points[:, 0]
    e3 = points[:, 3] - points[:, 0]
    cross = np.empty_like(e1)
    _cross_columns(e2.T, e3.T, cross.T)
    return np.einsum("ij,ij->i", e1, cross) / 6.0


# The two faces along each edge of TET_EDGES: those opposite its two opposite slots.
_EDGE_FACES = np.array(TET_EDGE_OPPOSITE).T


def dihedral_angles_batch(points: np.ndarray) -> np.ndarray:
    """Six interior dihedral angles in degrees for each tet in (m, 4, 3).

    Angle k lies along TET_EDGES[k], between the faces opposite slots a and
    b of TET_EDGE_OPPOSITE[k]: with N_a, N_b their normals both pointing in
    (or both out) it is atan2(|N_a x N_b|, -N_a . N_b), for either
    orientation of the tet.  The work runs on the (12, m) transpose of the
    coordinates, one contiguous row per coordinate.  Each tet's edges are
    first scaled by a power of two, which is exact and changes no angle
    whose arithmetic neither underflows nor overflows, so that tiny and huge
    tets get their angles too.  An angle along a degenerate face (zero
    normal, also when an edge of it has zero length) is NaN rather than
    raising.
    """
    x = np.ascontiguousarray(np.asarray(points, dtype=np.float64).reshape(-1, 12).T)
    m = x.shape[1]
    # the edges from p_0, each tet's scaled by the power of two that brings its
    # largest component into [1/2, 1): exact, and the normals and their products
    # then neither underflow on a tiny tet nor overflow on a huge one
    d = (x[3:].reshape(3, 3, m) - x[:3]).reshape(9, m)
    np.ldexp(d, -np.frexp(np.abs(d).max(axis=0))[1], out=d)
    d1, d2, d3 = d[:3], d[3:6], d[6:]
    # the normal of the face opposite slot l is 6 grad V at p_l
    normals = np.empty((4, 3, m))
    _cross_columns(d3 - d1, d2 - d1, normals[0])
    _cross_columns(d2, d3, normals[1])
    _cross_columns(d3, d1, normals[2])
    _cross_columns(d1, d2, normals[3])
    flat = np.einsum("fcm,fcm->fm", normals, normals) == 0.0

    out = np.empty((6, m))
    cross = np.empty((3, m))
    for k, (a, b) in enumerate(TET_EDGE_OPPOSITE):
        _cross_columns(normals[a], normals[b], cross)
        sin = np.sqrt(np.einsum("cm,cm->m", cross, cross))
        np.arctan2(sin, -np.einsum("cm,cm->m", normals[a], normals[b]), out=out[k])
    np.degrees(out, out=out)
    out[flat[_EDGE_FACES[0]] | flat[_EDGE_FACES[1]]] = np.nan
    return out.T


def triangle_area_normals(vertices: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Area-weighted normals (cross/2) of oriented triangles, (ns, 3)."""
    p = vertices[tris]
    normals = np.empty((len(tris), 3))
    _cross_columns((p[:, 1] - p[:, 0]).T, (p[:, 2] - p[:, 0]).T, normals.T)
    return 0.5 * normals


def triangle_unit_normals(vertices: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Unit normals of oriented triangles, (ns, 3); NaN for a zero-area one.

    Each triangle's two edges are first scaled by the power of two that
    brings their largest component into [1/2, 1), as in
    dihedral_angles_batch: exact, so an ordinary normal keeps its bits, and
    the cross product of a tiny or huge triangle neither underflows nor
    overflows.
    """
    p = vertices[tris]
    d = (p[:, 1:] - p[:, :1]).reshape(-1, 6).T.copy()  # the two edges, a row per coordinate
    np.ldexp(d, -np.frexp(np.abs(d).max(axis=0))[1], out=d)
    normals = np.empty((len(tris), 3))
    _cross_columns(d[:3], d[3:], normals.T)
    with np.errstate(invalid="ignore", divide="ignore"):
        return normals / np.linalg.norm(normals, axis=1)[:, None]


def surface_enclosed_volume(vertices: np.ndarray, tris: np.ndarray) -> float:
    """Volume enclosed by an outward-oriented closed triangulation.

    Discrete divergence theorem: V = (1/3) sum over triangles of
    (centroid . area-weighted normal).  Exact for flat triangles.
    """
    p = vertices[tris]
    centroids = p.mean(axis=1)
    n = triangle_area_normals(vertices, tris)
    return float(np.einsum("ij,ij->i", centroids, n).sum() / 3.0)
