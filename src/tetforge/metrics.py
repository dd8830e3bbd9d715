"""Whole-mesh quality metrics: volume, area, worst quality, dihedral stats."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from tetforge.mesh import TetMesh, dihedral_angles_batch, tet_volumes, triangle_area_normals
from tetforge.quality import quality_batch
from tetforge.topology import AdjacencyIndex

HISTOGRAM_BINS = 18  # fixed 10-degree bins covering (0, 180)


@dataclass
class GlobalMetrics:
    total_volume: float
    total_surface_area: float
    q_min: float
    worst_tet_id: int
    min_dihedral_deg: float
    max_dihedral_deg: float
    dihedral_histogram: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def dihedral_histogram(angles: np.ndarray) -> list:
    """Counts of angles in 18 fixed 10-degree bins; 180 lands in the last."""
    flat = np.asarray(angles).reshape(-1)
    flat = flat[np.isfinite(flat)]
    idx = np.clip((flat // 10.0).astype(int), 0, HISTOGRAM_BINS - 1)
    return np.bincount(idx, minlength=HISTOGRAM_BINS).tolist()


def dihedral_range(angles: np.ndarray) -> tuple:
    """Smallest and largest angle, skipping NaN ones; NaN if all are or there are none."""
    return (float(np.fmin.reduce(angles, axis=None, initial=np.nan)),
            float(np.fmax.reduce(angles, axis=None, initial=np.nan)))


def global_metrics(mesh: TetMesh, adjacency: AdjacencyIndex,
                   tet_arrays: tuple | None = None) -> GlobalMetrics:
    """Aggregate metrics over all elements; requires built topology.

    tet_arrays, when given, is (volumes, qualities, dihedral angles) of every
    tet at the current coordinates, as tet_volumes, quality_batch and
    dihedral_angles_batch return them; the mesh is then not evaluated again.
    """
    if tet_arrays is None:
        points = mesh.tet_points()
        tet_arrays = tet_volumes(points), quality_batch(points), dihedral_angles_batch(points)
    volumes, qualities, angles = tet_arrays
    worst = int(np.nanargmin(qualities)) if len(qualities) else -1
    area = float(np.linalg.norm(triangle_area_normals(mesh.vertices, mesh.surface_tris), axis=1).sum()) \
        if len(mesh.surface_tris) else 0.0
    min_dihedral, max_dihedral = dihedral_range(angles)
    return GlobalMetrics(
        total_volume=float(volumes.sum()),
        total_surface_area=area,
        q_min=float(qualities[worst]) if worst >= 0 else np.nan,
        worst_tet_id=worst,
        min_dihedral_deg=min_dihedral,
        max_dihedral_deg=max_dihedral,
        dihedral_histogram=dihedral_histogram(angles),
    )
