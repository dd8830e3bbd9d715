"""Outer optimization loop: patch selection, barrier schedule, reporting.

Each pass re-measures the worst quality, re-derives the barrier level from
the current barrier constant, selects the patches seeded by below-target
elements (or every element in all-patches mode) and runs a short Newton
solve on each.  The schedule sweeps the barrier constant upward so early
passes spread improvement while later ones bear down on the worst element.

Selection groups the seeds into chunks and packs the chunks, worst seed
first, into waves: chunks whose rings share no tet move in one Newton solve
(the independent-set scheme of Freitag, Jones and Plassmann, IMR 1995).
A wave lists its free vertices chunk by chunk, so its system is
block-diagonal with one contiguous block per chunk, which the solver factors
block by block; the chunks share the wave's step length, shift and
iteration budget.  Chunks whose rings share a tet are solved in separate
waves, in the order of their worst seeds.

Selection fixes each patch's free vertices once; with surface motion the
tangent frames built from the vertex classes at solve time then decide how
far each of them may move, so a vertex demoted to a corner by an earlier
patch of the same pass stays where it is.

Volume drift is reported from the divergence-theorem volume of the domain
boundary, so runs that never move a surface vertex report exactly zero
drift.

The per-pass figures and the final metrics come from per-tet arrays of
signed volume, quality and dihedral angles that are evaluated over the
whole mesh once per run (the same evaluation gives the initial metrics) and
afterwards only over the ring elements of each pass's patches, the only
elements a pass can change.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from dataclasses import asdict, dataclass, field

import numpy as np

from tetforge.barrier import BarrierParams
from tetforge.constraints import build_constraints
from tetforge.mesh import TetMesh, VertexClass, dihedral_angles_batch, surface_enclosed_volume, tet_volumes
from tetforge.metrics import GlobalMetrics, dihedral_range, global_metrics
from tetforge.quality import quality_batch
from tetforge.solver import optimize_patch
from tetforge.topology import AdjacencyIndex, build_topology

logger = logging.getLogger("tetforge")

MODES = ("selective", "all-patches")

# Most free vertices in one selective patch (3x as many Newton DOFs).  Seeds
# that share free vertices would otherwise merge without limit, and above a
# moderate target they percolate into one patch spanning the mesh, whose
# dense system costs O(n^2) memory and O(n^3) time.
MAX_PATCH_VERTICES = 64

# A barrier constant's passes stop once a pass raises the worst quality by
# less than this.
CONVERGENCE_TOL = 1e-4


@dataclass
class Patch:
    """A local optimization unit: bad seed elements plus their surroundings.

    ring_tets covers every element incident to a free vertex, so the patch
    objective sees all elements any free vertex can affect.  The patch holds
    seed chunks whose rings are disjoint; free_vertices lists them chunk by
    chunk, and chunk_sizes gives the number of free vertices of each, so
    that each chunk's DOFs form one diagonal block of the Newton system.  A
    patch built without chunk_sizes is one chunk.
    """

    seed_tets: np.ndarray
    free_vertices: np.ndarray
    ring_tets: np.ndarray
    chunk_sizes: list | None = None

    def __post_init__(self):
        if self.chunk_sizes is None:
            self.chunk_sizes = [len(self.free_vertices)]


@dataclass
class RunConfig:
    """Knobs for a full optimization run."""

    b_schedule: tuple = (0.75, 0.85, 0.95)
    target_quality: float = 0.3
    max_passes: int = 30
    mode: str = "selective"
    surface_motion: bool = True
    feature_angle_deg: float = 30.0

    def validate(self) -> None:
        sched = tuple(self.b_schedule)
        if not sched or any(not 0.0 < b < 1.0 for b in sched):
            raise ValueError("barrier schedule values must lie in (0,1)")
        if any(b2 < b1 for b1, b2 in zip(sched, sched[1:])):
            raise ValueError("barrier schedule must be nondecreasing")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.max_passes < 1:
            raise ValueError("max_passes must be positive")
        # no element lies below a NaN target, so the run would do nothing
        if np.isnan(self.target_quality):
            raise ValueError("target quality must be a number")
        # at or below 0 degrees every surface vertex is a corner and none moves
        if not 0.0 < self.feature_angle_deg <= 180.0:
            raise ValueError("feature angle must lie in (0, 180] degrees")


@dataclass
class PassRecord:
    b: float
    pass_index: int
    gamma: float
    q_min_before: float
    q_min: float
    min_dihedral_deg: float
    max_dihedral_deg: float
    volume: float
    drift_percent: float
    elapsed_s: float
    patches: int  # waves solved
    chunks: int  # seed chunks in those waves
    stalled: int
    newton_iterations: int
    shifted_solves: int
    barrier_rejections: int
    max_patch_dofs: int
    stalled_seeds: list  # seed tet ids of the stalled waves, wave by wave


@dataclass
class OptimizationReport:
    passes: list = field(default_factory=list)
    initial_metrics: GlobalMetrics | None = None
    final_metrics: GlobalMetrics | None = None
    volume_drift_percent: float = 0.0
    min_quality_seen: float = np.inf
    elapsed_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "passes": [asdict(p) for p in self.passes],
            "initial": self.initial_metrics.to_dict() if self.initial_metrics else None,
            "final": self.final_metrics.to_dict() if self.final_metrics else None,
            "volume_drift_percent": self.volume_drift_percent,
            "min_quality_seen": self.min_quality_seen,
            "elapsed_s": self.elapsed_s,
        }


def _movable(classes: np.ndarray, surface_motion: bool) -> np.ndarray:
    """Which of the given vertex classes may move.

    The movable classes have the lowest codes: INTERIOR, and with surface
    motion SURFACE_SMOOTH and FEATURE_EDGE too.
    """
    return classes <= int(VertexClass.FEATURE_EDGE if surface_motion else VertexClass.INTERIOR)


def _seed_chunks(seed_free: list, cap: int) -> list:
    """Group seeds that share a free vertex into connected chunks of at most cap free vertices.

    seed_free[i] is the set of free vertices of seed i, with the seeds in
    worst-first order.  Each chunk starts at the worst seed not yet taken
    and grows seed by seed in breadth-first order over the seeds not yet
    taken, neighbours worst first; it closes when the next seed would take
    it past cap.  A connected group of at most cap free vertices is
    therefore one chunk, and the split does not depend on vertex or tet
    numbering.  Returns lists of seed indices.
    """
    seeds_at: dict[int, list] = {}
    for i, vertices in enumerate(seed_free):
        for v in vertices:
            seeds_at.setdefault(v, []).append(i)
    taken = [False] * len(seed_free)
    chunks = []
    for start in range(len(seed_free)):
        if taken[start]:
            continue
        chunk, free, queue, queued = [], set(), deque([start]), {start}
        while queue:
            i = queue.popleft()
            grown = free | seed_free[i]
            if len(grown) > cap:
                break
            chunk.append(i)
            free, taken[i] = grown, True
            for j in sorted({j for v in seed_free[i] for j in seeds_at[v]} - queued):
                if not taken[j]:
                    queued.add(j)
                    queue.append(j)
        chunks.append(chunk)
    return chunks


def _pack_waves(rings: list, sizes: list, num_tets: int, cap: int) -> list:
    """Pack chunks, in order, into waves whose rings share no tet.

    Chunk i, with ring tets rings[i] and sizes[i] free vertices, goes to the
    first wave after every wave holding a ring tet of it that still has room
    for it under cap free vertices.  So two chunks whose rings share a tet
    keep their order, and each chunk sees the coordinates it would see if
    the chunks were solved one by one.  Returns lists of chunk indices.
    """
    last = np.full(num_tets, -1, dtype=np.int64)  # the latest wave holding each tet
    waves, room = [], []
    for i, (ring, size) in enumerate(zip(rings, sizes)):
        u = int(last[ring].max()) + 1
        while u < len(waves) and room[u] < size:
            u += 1
        if u == len(waves):
            waves.append([])
            room.append(cap)
        waves[u].append(i)
        room[u] -= size
        last[ring] = u
    return waves


def select_patches(mesh: TetMesh, adjacency: AdjacencyIndex, target_quality: float,
                   mode: str = "selective", surface_motion: bool = True,
                   qualities: np.ndarray | None = None) -> list:
    """Build the waves for one pass, worst seed first, one patch each.

    Both modes order their seeds by (quality, id) once.  Selective mode
    seeds every element below the target.  Seeds sharing a movable vertex
    are grouped, and each connected group is split into chunks of at most
    MAX_PATCH_VERTICES free vertices grown breadth first from its worst
    seed (`_seed_chunks`); every seed lies in exactly one chunk.
    Free-vertex sets of different groups are disjoint, while chunks of one
    group may share free vertices.  All-patches mode seeds every element
    and makes each seed a chunk of its own: the sweep visits every element
    the way a classic smoother does.  Chunks with no movable vertex are
    dropped.

    The chunks, in the order of their worst seeds, are then packed into
    waves (`_pack_waves`): the chunks of one wave have pairwise disjoint
    rings and at most MAX_PATCH_VERTICES free vertices in all, and two
    chunks whose rings share a tet lie in different waves, the one with
    the worse seed first.  Each wave is one patch, its seeds and ring tets
    those of its chunks, sorted, and its free vertices those of its chunks
    laid out chunk by chunk, each chunk's sorted and the chunks in the order
    they joined the wave.  Its Newton system is thus block-diagonal with one
    contiguous block per chunk, and the chunks share one step length, shift
    and iteration budget.  The waves come out in the order of their worst
    seeds.
    """
    if qualities is None:
        qualities = quality_batch(mesh.tet_points())
    movable = _movable(mesh.vertex_class, surface_motion)
    if mode == "all-patches":
        seeds = np.arange(mesh.num_tets, dtype=np.int64)
    else:
        seeds = np.flatnonzero(qualities < target_quality).astype(np.int64)
    seeds = seeds[np.lexsort((seeds, qualities[seeds]))]
    if mode == "all-patches":
        chunks = seeds[:, None]
    else:
        seed_free = [set(tet[movable[tet]].tolist()) for tet in mesh.tets[seeds]]
        # a chunk starts at the worst seed not yet taken, so chunks come out worst seed first
        chunks = [seeds[c] for c in _seed_chunks(seed_free, MAX_PATCH_VERTICES)]

    kept, frees, rings = [], [], []
    for seed_ids in chunks:
        free = np.unique(mesh.tets[seed_ids])
        free = free[movable[free]]
        if len(free):
            kept.append(seed_ids)
            frees.append(free)
            rings.append(adjacency.ring_tets(free))
    waves = _pack_waves(rings, [len(free) for free in frees], mesh.num_tets, MAX_PATCH_VERTICES)
    return [Patch(seed_tets=np.sort(np.concatenate([kept[i] for i in wave])),
                  free_vertices=np.concatenate([frees[i] for i in wave]),
                  ring_tets=np.sort(np.concatenate([rings[i] for i in wave])),
                  chunk_sizes=[len(frees[i]) for i in wave])
            for wave in waves]


class _TetMeasures:
    """Per-tet signed volume, quality and dihedral angles.

    Aggregating these arrays gives the same figures, bit for bit, as
    evaluating the whole mesh again: each entry depends on its own tet only.
    """

    def __init__(self, num_tets: int):
        self.volume = np.empty(num_tets)
        self.quality = np.empty(num_tets)
        self.angles = np.empty((num_tets, 6))

    def update(self, mesh: TetMesh, ids: np.ndarray) -> None:
        """Re-evaluate tets `ids` at the current coordinates."""
        points = mesh.tet_points(ids)
        self.volume[ids] = tet_volumes(points)
        self.quality[ids] = quality_batch(points)
        self.angles[ids] = dihedral_angles_batch(points)

    def arrays(self) -> tuple:
        """(volumes, qualities, dihedral angles) of every tet, as global_metrics takes them."""
        return self.volume, self.quality, self.angles


def optimize_mesh(mesh: TetMesh, config: RunConfig,
                  adjacency: AdjacencyIndex | None = None,
                  on_pass=None) -> OptimizationReport:
    """Improve the mesh in place and return the run report.

    For every barrier constant in the schedule, passes run until the worst
    quality stops improving by more than CONVERGENCE_TOL or max_passes is
    reached.  on_pass, when given, receives each PassRecord as it completes.
    """
    config.validate()
    t0 = time.perf_counter()
    if adjacency is None:
        adjacency = build_topology(mesh, config.feature_angle_deg)
    report = OptimizationReport()
    measures = _TetMeasures(mesh.num_tets)
    measures.update(mesh, np.arange(mesh.num_tets))
    report.initial_metrics = global_metrics(mesh, adjacency, measures.arrays())
    report.min_quality_seen = report.initial_metrics.q_min
    boundary_volume_0 = surface_enclosed_volume(mesh.vertices, adjacency.boundary_faces)

    for b in config.b_schedule:
        for pass_index in range(config.max_passes):
            t_pass = time.perf_counter()
            q_min_before = float(np.nanmin(measures.quality))
            params = BarrierParams.from_quality(q_min_before, b)
            patches = select_patches(
                mesh, adjacency, config.target_quality,
                mode=config.mode, surface_motion=config.surface_motion,
                qualities=measures.quality,
            )
            if not patches:
                break
            counts = dict(stalled=0, newton_iterations=0, shifted_solves=0, barrier_rejections=0)
            stalled_seeds = []
            touched = np.zeros(mesh.num_tets, dtype=bool)
            for patch in patches:
                # the tangent frames, built from the current vertex classes, alone
                # restrict the step: a free vertex that is now a corner, demoted by an
                # earlier patch or by this build, keeps no frame column and does not move;
                # a wave without surface vertices gets identity frames and no constraint
                constraints, _ = build_constraints(patch, mesh, adjacency)
                solve = optimize_patch(mesh, patch, params,
                                       constraints=constraints if constraints.num_rows else None)
                touched[patch.ring_tets] = True
                counts["newton_iterations"] += solve.iterations
                counts["shifted_solves"] += solve.shifted_solves
                counts["barrier_rejections"] += solve.barrier_violations
                if solve.stalled:
                    counts["stalled"] += 1
                    stalled_seeds.extend(int(t) for t in patch.seed_tets)
                report.min_quality_seen = min(report.min_quality_seen, solve.min_quality)

            measures.update(mesh, np.flatnonzero(touched))
            q_min_after = float(np.nanmin(measures.quality))
            min_dihedral, max_dihedral = dihedral_range(measures.angles)
            boundary_now = surface_enclosed_volume(mesh.vertices, adjacency.boundary_faces)
            drift = abs(boundary_now - boundary_volume_0) / abs(boundary_volume_0) * 100.0 \
                if boundary_volume_0 else 0.0
            record = PassRecord(
                b=b,
                pass_index=pass_index,
                gamma=params.gamma,
                q_min_before=q_min_before,
                q_min=q_min_after,
                min_dihedral_deg=min_dihedral,
                max_dihedral_deg=max_dihedral,
                volume=float(measures.volume.sum()),
                drift_percent=drift,
                elapsed_s=time.perf_counter() - t_pass,
                patches=len(patches),
                chunks=sum(len(p.chunk_sizes) for p in patches),
                max_patch_dofs=max(3 * len(p.free_vertices) for p in patches),
                stalled_seeds=stalled_seeds,
                **counts,
            )
            report.passes.append(record)
            report.min_quality_seen = min(report.min_quality_seen, q_min_after)
            if on_pass is not None:
                on_pass(record)
            logger.info(
                "pass %d (b=%.2f): q_min %.4f -> %.4f, %d waves of %d chunks, %d stalled, %.3fs",
                pass_index, b, q_min_before, q_min_after, record.patches, record.chunks, record.stalled,
                record.elapsed_s,
            )
            if q_min_after - q_min_before < CONVERGENCE_TOL:
                break

    report.final_metrics = global_metrics(mesh, adjacency, measures.arrays())
    # no vertex moves after the last pass record is taken
    report.volume_drift_percent = report.passes[-1].drift_percent if report.passes else 0.0
    report.elapsed_s = time.perf_counter() - t0
    return report
