"""Correctness checks on one optimized mesh, from the benchmark's own formulas.

Nothing here calls tetforge's geometry code: volumes come from a 3x3
determinant, quality from the six edge lengths, dihedral angles from the
outward normals of the two faces that meet at an edge, and the enclosed
volume from the scalar triple products of the boundary triangles.  Each
check raises CheckFailed with a message naming what went wrong.
"""

from __future__ import annotations

import numpy as np

DRIFT_LIMIT_PERCENT = 0.01
REPORT_TOLERANCE = 1e-9

# Faces of a positively oriented tet, wound so their normals point outward;
# face k is the one opposite vertex slot k.
_OUTWARD_FACES = ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))
_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class CheckFailed(Exception):
    """An output of the program is wrong."""


def signed_volumes(points: np.ndarray) -> np.ndarray:
    """det[p1-p0, p2-p0, p3-p0] / 6 for (m, 4, 3) points."""
    edges = points[:, 1:] - points[:, :1]
    return np.linalg.det(edges) / 6.0


def qualities(points: np.ndarray) -> np.ndarray:
    """6*sqrt(2) V / l_rms^3, with l_rms the RMS of the six edge lengths."""
    lengths = np.stack([np.linalg.norm(points[:, j] - points[:, i], axis=1) for i, j in _EDGES], axis=1)
    l_rms = np.sqrt(np.mean(lengths ** 2, axis=1))
    with np.errstate(invalid="ignore", divide="ignore"):
        return 6.0 * np.sqrt(2.0) * signed_volumes(points) / l_rms ** 3


def dihedral_angles(points: np.ndarray) -> np.ndarray:
    """Interior dihedral angles in degrees, (m, 6), one per edge.

    The faces meeting at edge (i, j) are the ones opposite the other two
    slots a, b; the interior angle is 180 degrees minus the angle between
    their outward normals.
    """
    normals = []
    for face in _OUTWARD_FACES:
        p = points[:, face]
        normals.append(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]))
    out = np.empty((points.shape[0], 6))
    for k, (i, j) in enumerate(_EDGES):
        a, b = (s for s in range(4) if s not in (i, j))
        na, nb = normals[a], normals[b]
        between = np.arctan2(np.linalg.norm(np.cross(na, nb), axis=1), np.einsum("ij,ij->i", na, nb))
        out[:, k] = 180.0 - np.degrees(between)
    return out


def boundary_faces(tets: np.ndarray) -> np.ndarray:
    """Faces owned by exactly one tet, wound as in that tet."""
    faces = tets[:, _OUTWARD_FACES].reshape(-1, 3)
    _, inverse, counts = np.unique(np.sort(faces, axis=1), axis=0, return_inverse=True, return_counts=True)
    return faces[counts[inverse.reshape(-1)] == 1]


def enclosed_volume(vertices: np.ndarray, faces: np.ndarray) -> float:
    """Divergence theorem: sum of p0 . (p1 x p2) / 6 over outward triangles."""
    p = vertices[faces]
    return float(np.einsum("ij,ij->i", p[:, 0], np.cross(p[:, 1], p[:, 2])).sum() / 6.0)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_positive_volumes(vertices: np.ndarray, tets: np.ndarray) -> None:
    vols = signed_volumes(vertices[tets])
    bad = np.flatnonzero(~(vols > 0.0))
    _require(len(bad) == 0, f"{len(bad)} tets with non-positive volume, first {bad[:1].tolist()}")


def check_improved(q_min_initial: float, q_min_final: float) -> None:
    _require(q_min_final > q_min_initial, f"q_min did not rise: {q_min_initial!r} -> {q_min_final!r}")


def check_passes_valid(pass_vertices: list, tets: np.ndarray) -> None:
    """The worst quality stays above 0 after every pass (valid inputs only)."""
    for i, vertices in enumerate(pass_vertices):
        q_min = float(np.min(qualities(vertices[tets])))
        _require(q_min > 0.0, f"pass {i} left q_min {q_min!r}")


def check_connectivity(tets_in: np.ndarray, tets_out: np.ndarray) -> None:
    _require(tets_in.shape == tets_out.shape and np.array_equal(tets_in, tets_out), "connectivity changed")


def check_report(vertices: np.ndarray, tets: np.ndarray, final_metrics) -> tuple:
    """The program's final q_min and dihedral range match ours to 1e-9.

    Returns (q_min, min_dihedral_deg, max_dihedral_deg) as computed here.
    """
    points = vertices[tets]
    q_min = float(np.min(qualities(points)))
    angles = dihedral_angles(points)
    ours = (q_min, float(angles.min()), float(angles.max()))
    theirs = (final_metrics.q_min, final_metrics.min_dihedral_deg, final_metrics.max_dihedral_deg)
    for name, a, b in zip(("q_min", "min_dihedral_deg", "max_dihedral_deg"), ours, theirs):
        _require(abs(a - b) <= REPORT_TOLERANCE * max(1.0, abs(a)),
                 f"report {name} {b!r} differs from recomputed {a!r}")
    return ours


def check_vertices_fixed(vertices_in: np.ndarray, vertices_out: np.ndarray, ids: np.ndarray, what: str) -> None:
    """The given vertices are bit-identical before and after."""
    moved = np.flatnonzero(np.any(vertices_in[ids].view(np.uint64) != vertices_out[ids].view(np.uint64), axis=1))
    _require(len(moved) == 0, f"{len(moved)} {what} vertices moved, first {ids[moved[:1]].tolist()}")


def check_volume_drift(vertices_in: np.ndarray, vertices_out: np.ndarray, faces: np.ndarray) -> float:
    """Boundary-enclosed volume drifts at most DRIFT_LIMIT_PERCENT; returns the drift in %."""
    v0 = enclosed_volume(vertices_in, faces)
    v1 = enclosed_volume(vertices_out, faces)
    drift = abs(v1 - v0) / abs(v0) * 100.0
    _require(drift <= DRIFT_LIMIT_PERCENT, f"enclosed volume drifted {drift:.6g}%")
    return drift


def check_round_trip(reloaded, mesh) -> None:
    """A saved-then-loaded mesh has bit-identical coordinates and connectivity."""
    _require(reloaded.vertices.shape == mesh.vertices.shape
             and np.array_equal(reloaded.vertices.view(np.uint64), mesh.vertices.view(np.uint64)),
             "saved coordinates do not reload bit for bit")
    check_connectivity(mesh.tets, reloaded.tets)
