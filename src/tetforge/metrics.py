"""Whole-mesh quality metrics: volume, area, worst quality, dihedral stats."""

from __future__ import annotations

from dataclasses import dataclass, field

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
        return {
            "total_volume": self.total_volume,
            "total_surface_area": self.total_surface_area,
            "q_min": self.q_min,
            "worst_tet_id": self.worst_tet_id,
            "min_dihedral_deg": self.min_dihedral_deg,
            "max_dihedral_deg": self.max_dihedral_deg,
            "dihedral_histogram": list(self.dihedral_histogram),
        }


def dihedral_histogram(angles: np.ndarray) -> list:
    """Counts of angles in 18 fixed 10-degree bins; 180 lands in the last."""
    flat = np.asarray(angles).reshape(-1)
    flat = flat[np.isfinite(flat)]
    idx = np.clip((flat // 10.0).astype(int), 0, HISTOGRAM_BINS - 1)
    return np.bincount(idx, minlength=HISTOGRAM_BINS).tolist()


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
    finite = angles[np.isfinite(angles)]
    return GlobalMetrics(
        total_volume=float(volumes.sum()),
        total_surface_area=area,
        q_min=float(qualities[worst]) if worst >= 0 else np.nan,
        worst_tet_id=worst,
        min_dihedral_deg=float(finite.min()) if finite.size else np.nan,
        max_dihedral_deg=float(finite.max()) if finite.size else np.nan,
        dihedral_histogram=dihedral_histogram(angles),
    )
