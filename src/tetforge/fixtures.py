"""Deterministic synthetic meshes for tests, benchmarks and demos.

Kinds:
  grid          unit cube, n^3 cells split into 6 tets each, optional
                bounded random perturbation of interior vertices
  sphere        unit ball: Delaunay tetrahedralization of n concentric
                Fibonacci-spiral shells, outermost exactly on the sphere
  with-slivers  grid with k elements squashed nearly flat (min dihedral
                below 10 degrees) by moving an interior vertex toward the
                plane of an opposite face
  with-inverted grid with exactly k elements pushed through that plane so
                their signed volume is negative

All randomness flows from the seed argument; a fixed call signature always
reproduces the same mesh bit for bit.  Interior perturbations are halved
per vertex until no incident element degenerates, so grid and sphere
fixtures are always valid (all volumes positive) regardless of jitter.
"""

from __future__ import annotations

import itertools

import numpy as np

from tetforge.mesh import TetMesh, dihedral_angles_batch, tet_volumes
from tetforge.topology import Incidence

KINDS = ("grid", "sphere", "with-slivers", "with-inverted")

_EVEN_PERMS = {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
SLIVER_DIHEDRAL_DEG = 10.0


def generate_test_mesh(kind: str, n: int = 4, seed: int = 0,
                       jitter: float = 0.0, k: int = 1) -> TetMesh:
    """Build one of the synthetic fixtures; deterministic in all arguments."""
    if kind not in KINDS:
        raise ValueError(f"unknown fixture kind {kind!r}, expected one of {KINDS}")
    if n < 2:
        raise ValueError(f"grid resolution n must be at least 2, got {n}")
    rng = np.random.default_rng(seed)
    if kind == "sphere":
        vertices, tets, interior = _ball(n)
    else:
        vertices, tets, interior = _grid(n)
    if kind == "with-inverted" and jitter <= 0.0:
        # The regular lattice has coplanar opposite faces, so a vertex can
        # never cross exactly one of them; break the symmetry first.
        jitter = 0.05
    if jitter > 0.0:
        _perturb_interior(vertices, tets, interior, rng, jitter / n)
    mesh = TetMesh(vertices=vertices, tets=tets)
    if kind in ("with-slivers", "with-inverted"):
        if k > mesh.num_tets:
            raise ValueError(f"cannot seed {k} bad elements into {mesh.num_tets} tets")
        if kind == "with-slivers":
            _seed_slivers(mesh, interior, rng, k)
        else:
            _seed_inverted(mesh, interior, rng, k)
    return mesh


def _grid(n: int):
    """Freudenthal 6-tets-per-cell subdivision of the unit cube."""
    axis = np.linspace(0.0, 1.0, n + 1)
    ii, jj, kk = np.meshgrid(axis, axis, axis, indexing="ij")
    vertices = np.column_stack([ii.ravel(), jj.ravel(), kk.ravel()])

    def vid(i, j, k):
        return (i * (n + 1) + j) * (n + 1) + k

    tets = []
    basis = np.eye(3, dtype=np.int64)
    for ci, cj, ck in itertools.product(range(n), repeat=3):
        origin = np.array([ci, cj, ck], dtype=np.int64)
        for perm in itertools.permutations(range(3)):
            path = [origin]
            for axis_id in perm:
                path.append(path[-1] + basis[axis_id])
            ids = [vid(*p) for p in path]
            if perm not in _EVEN_PERMS:
                ids[2], ids[3] = ids[3], ids[2]  # restore positive orientation
            tets.append(ids)
    tets = np.asarray(tets, dtype=np.int64)

    idx = np.stack(np.meshgrid(range(n + 1), range(n + 1), range(n + 1), indexing="ij"), axis=-1).reshape(-1, 3)
    interior = np.all((idx > 0) & (idx < n), axis=1)
    return vertices, tets, interior


def _fibonacci_shell(count: int, radius: float) -> np.ndarray:
    i = np.arange(count) + 0.5
    z = 1.0 - 2.0 * i / count
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    s = np.sqrt(1.0 - z * z)
    return radius * np.column_stack([s * np.cos(phi), s * np.sin(phi), z])


def _ball(n: int):
    """Unit ball meshed by Delaunay over n concentric Fibonacci shells.

    Shell point counts track the shell area so spacing stays near 1/n in
    every direction, which keeps Delaunay from producing hull slivers with
    all four vertices on the sphere.
    """
    from scipy.spatial import Delaunay

    h = 1.0 / n
    shells = [np.zeros((1, 3))]
    for s in range(1, n + 1):
        r = s * h
        count = max(6, int(round(4.0 * np.pi * r * r / (h * h))))
        shells.append(_fibonacci_shell(count, r))
    vertices = np.vstack(shells)
    tets = Delaunay(vertices).simplices.astype(np.int64)
    flip = tet_volumes(vertices[tets]) < 0.0
    tets[flip, 2], tets[flip, 3] = tets[flip, 3].copy(), tets[flip, 2].copy()
    interior = np.linalg.norm(vertices, axis=1) < 1.0 - 1e-9
    return vertices, tets, interior


def _perturb_interior(vertices, tets, interior, rng, amplitude: float) -> None:
    """Displace interior vertices randomly, halving any move that would
    push an incident element to non-positive volume."""
    star = Incidence.from_elements(len(vertices), tets)
    offsets = rng.uniform(-amplitude, amplitude, size=(len(vertices), 3))
    floor = 1e-12
    for v in np.flatnonzero(interior):
        base = vertices[v].copy()
        delta = offsets[v]
        for _ in range(40):
            vertices[v] = base + delta
            if tet_volumes(vertices[tets[star[v]]]).min() > floor:
                break
            delta = 0.5 * delta
        else:
            vertices[v] = base


def _opposite_face_foot(points: np.ndarray, slot: int) -> np.ndarray:
    """Orthogonal projection of vertex `slot` onto its opposite face plane."""
    others = [s for s in range(4) if s != slot]
    a, b, c = points[others]
    normal = np.cross(b - a, c - a)
    normal = normal / np.linalg.norm(normal)
    p = points[slot]
    return p - np.dot(p - a, normal) * normal


def _candidate_moves(mesh, interior, rng):
    """Yield (vertex, star_tets, tet, slot) move candidates in seeded order."""
    star = Incidence.from_elements(mesh.num_vertices, mesh.tets)
    victims = np.flatnonzero(interior)
    rng.shuffle(victims)
    for v in victims:
        incident = star[v]
        if len(incident) == 0:
            continue
        for t in incident:
            slot = int(np.flatnonzero(mesh.tets[t] == v)[0])
            yield int(v), incident, int(t), slot


def _seed_slivers(mesh, interior, rng, k: int) -> None:
    squash = 0.97
    used_vertices: set = set()
    seeded = 0
    for v, incident, t, slot in _candidate_moves(mesh, interior, rng):
        if seeded >= k:
            return
        if v in used_vertices:
            continue
        points = mesh.vertices[mesh.tets[t]]
        foot = _opposite_face_foot(points, slot)
        old = mesh.vertices[v].copy()
        mesh.vertices[v] = old + squash * (foot - old)
        vols = tet_volumes(mesh.vertices[mesh.tets[incident]])
        target_angles = dihedral_angles_batch(mesh.vertices[mesh.tets[[t]]])[0]
        ok = (
            vols.min() > 0.0
            and np.all(np.isfinite(target_angles))
            and target_angles.min() < SLIVER_DIHEDRAL_DEG
        )
        if ok:
            used_vertices.add(v)
            seeded += 1
        else:
            mesh.vertices[v] = old
    if _sliver_count(mesh) < k:
        raise ValueError(f"could not seed {k} slivers into this grid")


def _sliver_count(mesh) -> int:
    angles = dihedral_angles_batch(mesh.tet_points())
    with np.errstate(invalid="ignore"):
        return int(np.sum(np.nanmin(angles, axis=1) < SLIVER_DIHEDRAL_DEG))


def _seed_inverted(mesh, interior, rng, k: int) -> None:
    inverted = 0
    used_vertices: set = set()
    for v, incident, t, slot in _candidate_moves(mesh, interior, rng):
        if inverted >= k:
            return
        if v in used_vertices:
            continue
        points = mesh.vertices[mesh.tets[t]]
        foot = _opposite_face_foot(points, slot)
        old = mesh.vertices[v].copy()
        # Star volumes are linear along the ray old -> foot; tet i flips sign
        # at parameter s_i.  The target flips at s=1; accept the candidate
        # only if every other flip happens measurably later, then stop
        # halfway between the two crossings.
        v0 = tet_volumes(mesh.vertices[mesh.tets[incident]])
        mesh.vertices[v] = foot
        v1 = tet_volumes(mesh.vertices[mesh.tets[incident]])
        mesh.vertices[v] = old
        with np.errstate(divide="ignore", invalid="ignore"):
            crossings = v0 / (v0 - v1)
        others = crossings[(incident != t) & (crossings > 0.0)]
        s_next = float(others.min()) if len(others) else np.inf
        if s_next <= 1.0 + 1e-3:
            continue
        s_star = min(1.0 + 0.5 * (s_next - 1.0), 1.2)
        mesh.vertices[v] = old + s_star * (foot - old)
        all_vols = tet_volumes(mesh.tet_points())
        if int(np.sum(all_vols < 0.0)) == inverted + 1 and all_vols[t] < 0.0:
            inverted += 1
            used_vertices.add(v)
        else:
            mesh.vertices[v] = old
    if inverted < k:
        raise ValueError(f"could not seed {k} inverted elements into this grid")
