import numpy as np
import pytest

import tetforge.driver
import tetforge.solver
from tetforge.barrier import BarrierParams, assemble_patch_system, compute_gamma
from tetforge.driver import MAX_PATCH_VERTICES, Patch, RunConfig, _seed_chunks, optimize_mesh, select_patches
from tetforge.fixtures import generate_test_mesh
from tetforge.mesh import TetMesh, VertexClass, dihedral_angles_batch, tet_volumes
from tetforge.metrics import dihedral_range, global_metrics
from tetforge.quality import quality_batch
from tetforge.solver import newton_direction
from tetforge.topology import build_topology


# --- fixtures ----------------------------------------------------------------

def test_grid_counts_and_volume():
    mesh = generate_test_mesh("grid", 2)
    assert mesh.num_tets == 48
    assert tet_volumes(mesh.tet_points()).sum() == pytest.approx(1.0, rel=1e-12)


def test_grid_deterministic():
    a = generate_test_mesh("grid", 3, seed=12, jitter=0.2)
    b = generate_test_mesh("grid", 3, seed=12, jitter=0.2)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.tets, b.tets)
    c = generate_test_mesh("grid", 3, seed=13, jitter=0.2)
    assert not np.array_equal(a.vertices, c.vertices)


def test_perturbed_grid_stays_valid():
    for seed in range(8):
        mesh = generate_test_mesh("grid", 4, seed=seed, jitter=0.35)
        assert tet_volumes(mesh.tet_points()).min() > 0.0


def test_sphere_fixture():
    mesh = generate_test_mesh("sphere", 4)
    vols = tet_volumes(mesh.tet_points())
    assert vols.min() > 0.0
    radius = np.linalg.norm(mesh.vertices, axis=1)
    assert radius.max() == pytest.approx(1.0, abs=1e-12)
    assert vols.sum() == pytest.approx(4.0 / 3.0 * np.pi, rel=0.12)


def test_with_inverted_exact_count():
    mesh = generate_test_mesh("with-inverted", 4, seed=0, k=1)
    assert int((tet_volumes(mesh.tet_points()) < 0.0).sum()) == 1
    mesh = generate_test_mesh("with-inverted", 4, seed=1, k=3, jitter=0.05)
    assert int((tet_volumes(mesh.tet_points()) < 0.0).sum()) == 3


def test_with_slivers_dihedral_bound():
    mesh = generate_test_mesh("with-slivers", 4, seed=2, k=3, jitter=0.08)
    angles = dihedral_angles_batch(mesh.tet_points())
    assert int((np.nanmin(angles, axis=1) < 10.0).sum()) >= 3
    assert tet_volumes(mesh.tet_points()).min() > 0.0


def test_infeasible_fixture_spec():
    with pytest.raises(ValueError):
        generate_test_mesh("with-slivers", 2, k=1000)
    with pytest.raises(ValueError):
        generate_test_mesh("grid", 1)
    with pytest.raises(ValueError):
        generate_test_mesh("moebius", 3)


# --- patch selection -----------------------------------------------------------

def test_no_bad_tets_no_patches():
    mesh = generate_test_mesh("grid", 2)
    adjacency = build_topology(mesh)
    assert select_patches(mesh, adjacency, target_quality=0.1) == []


def test_single_sliver_patch_ring():
    # craft a sliver, then select with a threshold that only the very worst
    # element falls under
    mesh = generate_test_mesh("grid", 4)
    adjacency = build_topology(mesh)
    interior_tets = [
        t for t, tet in enumerate(mesh.tets)
        if all(mesh.vertex_class[v] == VertexClass.INTERIOR for v in tet)
    ]
    assert interior_tets
    moved = mesh.tets[interior_tets[0]][0]
    others = mesh.vertices[mesh.tets[interior_tets[0]][1:]]
    mesh.vertices[moved] += 0.9 * (others.mean(axis=0) - mesh.vertices[moved])

    qualities = quality_batch(mesh.tet_points())
    worst = int(np.argmin(qualities))
    assert all(mesh.vertex_class[v] != VertexClass.CORNER for v in mesh.tets[worst])
    target = float(qualities[worst]) + 1e-9  # only the worst falls below
    patches = select_patches(mesh, adjacency, target, surface_motion=True)
    assert len(patches) == 1
    patch = patches[0]
    assert patch.seed_tets.tolist() == [worst]
    assert sorted(patch.free_vertices.tolist()) == sorted(mesh.tets[worst].tolist())
    # oracle: ring = every tet sharing a vertex with the sliver
    expected_ring = {
        t for t, tet in enumerate(mesh.tets)
        if set(tet) & set(mesh.tets[worst].tolist())
    }
    assert set(patch.ring_tets.tolist()) == expected_ring


def test_adjacent_seeds_merge():
    mesh = generate_test_mesh("grid", 3, seed=3, jitter=0.3)
    adjacency = build_topology(mesh)
    patches = select_patches(mesh, adjacency, target_quality=0.5, surface_motion=True)
    assert patches
    # free-vertex sets are pairwise disjoint
    seen = set()
    for patch in patches:
        assert not (seen & set(patch.free_vertices.tolist()))
        seen |= set(patch.free_vertices.tolist())
    # oracle: any two seeds sharing a movable vertex are in the same patch
    movable = {
        int(v) for v in range(mesh.num_vertices)
        if mesh.vertex_class[v] in (VertexClass.INTERIOR, VertexClass.SURFACE_SMOOTH, VertexClass.FEATURE_EDGE)
    }
    patch_of = {}
    for i, patch in enumerate(patches):
        for t in patch.seed_tets:
            patch_of[int(t)] = i
    seeds = list(patch_of)
    for a in seeds:
        for b in seeds:
            if a < b and (set(mesh.tets[a]) & set(mesh.tets[b]) & movable):
                assert patch_of[a] == patch_of[b]


def _movable_set(mesh):
    classes = (VertexClass.INTERIOR, VertexClass.SURFACE_SMOOTH, VertexClass.FEATURE_EDGE)
    return {int(v) for v in range(mesh.num_vertices) if mesh.vertex_class[v] in classes}


def _groups_of_seeds(mesh, seeds, movable):
    """Seeds split into groups connected through shared movable vertices (reference union-find)."""
    parent = {int(t): int(t) for t in seeds}

    def find(t):
        while parent[t] != t:
            t = parent[t]
        return t

    owner = {}
    for t in parent:
        for v in set(mesh.tets[t].tolist()) & movable:
            if v in owner:
                parent[find(t)] = find(owner[v])
            else:
                owner[v] = t
    groups = {}
    for t in parent:
        groups.setdefault(find(t), set()).add(t)
    return list(groups.values())


def _merged_grid():
    # at target 0.5 every below-target seed of this grid lies in one group of 964 free vertices
    mesh = generate_test_mesh("grid", 10, seed=0, jitter=0.25)
    return mesh, build_topology(mesh)


def _chunks(mesh, adjacency, target, mode="selective"):
    """(seeds, free vertices, ring tets) of every seed chunk, worst seed first, as selection builds them."""
    movable = _movable_set(mesh)
    qualities = quality_batch(mesh.tet_points())
    seeds = np.arange(mesh.num_tets) if mode == "all-patches" else np.flatnonzero(qualities < target)
    seeds = seeds[np.lexsort((seeds, qualities[seeds]))]
    if mode == "all-patches":
        groups = [[i] for i in range(len(seeds))]
    else:
        groups = _seed_chunks([set(mesh.tets[t].tolist()) & movable for t in seeds], MAX_PATCH_VERTICES)
    out = []
    for group in groups:
        free = sorted({v for t in seeds[group] for v in mesh.tets[t].tolist()} & movable)
        if free:
            out.append((set(seeds[group].tolist()), set(free), set(adjacency.ring_tets(free).tolist())))
    return out


def test_large_seed_groups_split_into_connected_capped_chunks():
    mesh, adjacency = _merged_grid()
    movable = _movable_set(mesh)
    qualities = quality_batch(mesh.tet_points())
    seeds = np.flatnonzero(qualities < 0.5)
    groups = _groups_of_seeds(mesh, seeds, movable)
    group_free = [{v for t in g for v in mesh.tets[t].tolist()} & movable for g in groups]
    assert max(len(free) for free in group_free) == 964
    chunks = _chunks(mesh, adjacency, 0.5)
    assert max(len(free) for _, free, _ in chunks) <= MAX_PATCH_VERTICES
    # every seed is in exactly one chunk
    assert sorted(t for chunk, _, _ in chunks for t in chunk) == sorted(seeds.tolist())
    worst = [qualities[list(chunk)].min() for chunk, _, _ in chunks]
    assert worst == sorted(worst)
    for chunk, free, _ in chunks:
        # the seeds of a chunk are connected, and its free vertices are theirs
        assert len(_groups_of_seeds(mesh, list(chunk), movable)) == 1
        assert free == {v for t in chunk for v in mesh.tets[t].tolist()} & movable
        # a chunk lies in one group; free vertices of different groups are disjoint
        (group,) = [i for i, g in enumerate(groups) if g & chunk]
        assert chunk <= groups[group]
        assert free <= group_free[group]
    for i, a in enumerate(group_free):
        for b in group_free[i + 1:]:
            assert not a & b


@pytest.mark.parametrize("mode", ["selective", "all-patches"])
def test_waves_pack_disjoint_rings_in_dependency_order(mode):
    if mode == "selective":
        mesh, adjacency = _merged_grid()
        target = 0.5
    else:
        mesh = generate_test_mesh("with-slivers", 4, seed=2, k=3, jitter=0.08)
        adjacency = build_topology(mesh)
        target = 0.3
    qualities = quality_batch(mesh.tet_points())
    chunks = _chunks(mesh, adjacency, target, mode)
    waves = select_patches(mesh, adjacency, target, mode=mode)
    assert 1 < len(waves) < len(chunks)
    assert all(len(wave.free_vertices) <= MAX_PATCH_VERTICES for wave in waves)
    # every seed is in exactly one wave, and every chunk whole in one wave
    wave_of = {t: w for w, wave in enumerate(waves) for t in wave.seed_tets.tolist()}
    assert sum(len(wave.seed_tets) for wave in waves) == len(wave_of) == sum(len(c) for c, _, _ in chunks)
    chunk_wave = []
    for seeds, _, _ in chunks:
        (w,) = {wave_of[t] for t in seeds}
        chunk_wave.append(w)
    worst = [qualities[wave.seed_tets].min() for wave in waves]
    assert worst == sorted(worst)
    for w, wave in enumerate(waves):
        held = [chunk for chunk, cw in zip(chunks, chunk_wave) if cw == w]
        assert len(wave.chunk_sizes) == len(held)
        for name, k in (("seed_tets", 0), ("ring_tets", 2)):
            assert getattr(wave, name).tolist() == sorted(v for chunk in held for v in chunk[k]), name
        # free vertices chunk by chunk, each chunk's sorted, the chunks in the order they joined the wave
        assert wave.free_vertices.tolist() == [v for _, free, _ in held for v in sorted(free)]
        assert wave.chunk_sizes == [len(free) for _, free, _ in held]
        assert sum(wave.chunk_sizes) == len(wave.free_vertices)
        # the chunks of one wave have pairwise disjoint rings
        assert len(set(wave.ring_tets.tolist())) == sum(len(ring) for _, _, ring in held)
    # two chunks whose rings share a tet are solved in the order of their worst seeds
    dependent = 0
    for i, (_, _, ring_i) in enumerate(chunks):
        for j in range(i + 1, len(chunks)):
            if ring_i & chunks[j][2]:
                assert chunk_wave[i] < chunk_wave[j]
                dependent += 1
    assert dependent > 0


def test_wave_system_is_block_diagonal_over_its_chunks():
    mesh = generate_test_mesh("grid", 4, seed=3, jitter=0.2)
    adjacency = build_topology(mesh)
    params = BarrierParams.from_quality(float(quality_batch(mesh.tet_points()).min()), 0.75)
    chunks = _chunks(mesh, adjacency, 0.3, "all-patches")
    checked = 0
    for wave in select_patches(mesh, adjacency, 0.3, mode="all-patches"):
        system = assemble_patch_system(mesh, wave, params)
        dx, tau = newton_direction(system.S, system.f, 3 * np.asarray(wave.chunk_sizes))
        dofs, steps = [], []  # of each chunk of the wave
        for seeds, free, ring in chunks:
            if not seeds <= set(wave.seed_tets.tolist()):
                continue
            free = sorted(free)
            own = assemble_patch_system(
                mesh, Patch(seed_tets=np.array(sorted(seeds)), free_vertices=np.array(free),
                            ring_tets=np.array(sorted(ring))), params)
            position = {int(v): i for i, v in enumerate(wave.free_vertices)}
            dofs.append((3 * np.array([position[v] for v in free])[:, None] + np.arange(3)).reshape(-1))
            steps.append(newton_direction(own.S, own.f))
        if len(dofs) < 2 or tau != 0.0 or any(t != 0.0 for _, t in steps):
            continue
        # each chunk's DOFs are one contiguous block, the blocks in wave order
        assert np.array_equal(np.concatenate(dofs), np.arange(len(system.f)))
        block = np.full(len(system.f), -1)
        for k, d in enumerate(dofs):
            block[d] = k
        assert (block >= 0).all()
        # S vanishes between chunks, and the wave's block solve gives each chunk its own step, bit for bit
        assert not system.S[block[:, None] != block[None, :]].any()
        for d, (step, _) in zip(dofs, steps):
            assert np.array_equal(dx[d], step)
        checked += 1
    assert checked > 0


def test_chunks_do_not_depend_on_numbering():
    mesh, adjacency = _merged_grid()
    rng = np.random.default_rng(7)
    vertex_label = rng.permutation(mesh.num_vertices)
    tet_order = rng.permutation(mesh.num_tets)
    vertices = np.empty_like(mesh.vertices)
    vertices[vertex_label] = mesh.vertices
    relabelled = TetMesh(vertices=vertices, tets=vertex_label[mesh.tets][tet_order])
    relabelled_adjacency = build_topology(relabelled)
    patches = select_patches(mesh, adjacency, target_quality=0.5)
    relabelled_patches = select_patches(relabelled, relabelled_adjacency, target_quality=0.5)
    sizes = sorted(len(p.free_vertices) for p in patches)
    assert sorted(len(p.free_vertices) for p in relabelled_patches) == sizes
    assert sizes[-1] > MAX_PATCH_VERTICES - 4  # chunks close near the cap
    # the same chunks of seeds, in the same order
    assert [sorted(tet_order[p.seed_tets].tolist()) for p in relabelled_patches] == \
        [p.seed_tets.tolist() for p in patches]


def test_merged_run_keeps_every_patch_under_the_cap():
    mesh, adjacency = _merged_grid()
    report = optimize_mesh(mesh, RunConfig(target_quality=0.5), adjacency)
    assert report.passes
    assert all(0 < record.max_patch_dofs <= 3 * MAX_PATCH_VERTICES for record in report.passes)
    assert report.final_metrics.q_min > report.initial_metrics.q_min
    assert report.min_quality_seen > 0.0


@pytest.mark.parametrize("mode", ["selective", "all-patches"])
def test_vertex_demoted_after_selection_does_not_move(monkeypatch, mode):
    # an earlier patch of a pass may demote a vertex that a later patch also
    # frees; the later patch must leave it where it is
    if mode == "selective":
        mesh, adjacency = _merged_grid()
        config = RunConfig(target_quality=0.5, max_passes=1, b_schedule=(0.75,))
    else:
        mesh = generate_test_mesh("with-slivers", 3, seed=1, k=1, jitter=0.05)
        adjacency = build_topology(mesh)
        config = RunConfig(mode=mode, max_passes=1, b_schedule=(0.75,))
    select = tetforge.driver.select_patches
    demoted = []

    def select_then_demote(*args, **kwargs):
        patches = select(*args, **kwargs)
        later = {v for p in patches[1:] for v in p.free_vertices.tolist()}
        vertex = next(v for v in patches[0].free_vertices.tolist() if v in later)
        mesh.vertex_class[vertex] = VertexClass.CORNER
        demoted.append(vertex)
        return patches

    monkeypatch.setattr(tetforge.driver, "select_patches", select_then_demote)
    before = mesh.vertices.copy()
    optimize_mesh(mesh, config, adjacency)
    (vertex,) = demoted
    assert np.array_equal(mesh.vertices[vertex], before[vertex])
    assert not np.array_equal(mesh.vertices, before)


def test_all_patches_mode_covers_every_tet():
    mesh = generate_test_mesh("grid", 2, seed=1, jitter=0.1)
    adjacency = build_topology(mesh)
    patches = select_patches(mesh, adjacency, target_quality=0.3, mode="all-patches")
    seeded = {int(t) for p in patches for t in p.seed_tets}
    has_movable = {
        t for t, tet in enumerate(mesh.tets)
        if any(mesh.vertex_class[v] != VertexClass.CORNER for v in tet)
    }
    assert seeded == has_movable


def test_patches_sorted_worst_first():
    mesh = generate_test_mesh("grid", 4, seed=5, jitter=0.3)
    adjacency = build_topology(mesh)
    patches = select_patches(mesh, adjacency, target_quality=0.4)
    qualities = quality_batch(mesh.tet_points())
    quals = [qualities[p.seed_tets].min() for p in patches]
    assert quals == sorted(quals)


# --- optimize_mesh ---------------------------------------------------------------

def test_regular_mesh_converges_immediately():
    mesh = generate_test_mesh("grid", 2)
    before = mesh.vertices.copy()
    report = optimize_mesh(mesh, RunConfig())
    assert len(report.passes) <= 1
    assert report.volume_drift_percent == 0.0
    assert np.abs(mesh.vertices - before).max() < 1e-9


def test_perturbed_grid_improves_and_preserves_volume():
    mesh = generate_test_mesh("with-slivers", 4, seed=6, k=2, jitter=0.08)
    initial_min = np.nanmin(dihedral_angles_batch(mesh.tet_points()))
    report = optimize_mesh(mesh, RunConfig(target_quality=0.5))
    final_min = np.nanmin(dihedral_angles_batch(mesh.tet_points()))
    assert final_min > initial_min
    assert report.volume_drift_percent <= 0.01
    assert report.min_quality_seen > 0.0


def test_gamma_tracks_q_min_between_passes():
    mesh = generate_test_mesh("with-slivers", 4, seed=9, k=3, jitter=0.1)
    report = optimize_mesh(mesh, RunConfig(target_quality=0.5))
    assert len(report.passes) >= 2
    for record in report.passes:
        assert record.gamma == compute_gamma(record.q_min_before, record.b)
        assert record.gamma < record.q_min_before
        # barrier safety: no pass may end below its own gamma
        assert record.q_min > record.gamma


def test_q_min_strictly_increases_until_convergence():
    mesh = generate_test_mesh("with-slivers", 5, seed=14, k=3, jitter=0.1)
    report = optimize_mesh(mesh, RunConfig(target_quality=0.5))
    per_b = {}
    for record in report.passes:
        per_b.setdefault(record.b, []).append(record)
    for records in per_b.values():
        for record in records[:-1]:  # the terminal pass is the convergence signal
            assert record.q_min > record.q_min_before


def test_untangle_within_pass_budget():
    mesh = generate_test_mesh("with-inverted", 4, seed=11, k=2, jitter=0.05)
    assert np.nanmin(quality_batch(mesh.tet_points())) < 0.0
    report = optimize_mesh(mesh, RunConfig(max_passes=50))
    assert np.nanmin(quality_batch(mesh.tet_points())) > 0.0
    assert tet_volumes(mesh.tet_points()).min() > 0.0


def test_no_surface_motion_keeps_surface_bitwise():
    mesh = generate_test_mesh("grid", 3, seed=2, jitter=0.3)
    adjacency = build_topology(mesh)
    surface = np.flatnonzero(mesh.vertex_class != VertexClass.INTERIOR)
    before = mesh.vertices[surface].copy()
    report = optimize_mesh(mesh, RunConfig(surface_motion=False), adjacency=adjacency)
    assert np.array_equal(mesh.vertices[surface], before)
    assert report.volume_drift_percent == 0.0


def test_user_fixed_vertices_never_move():
    mesh = generate_test_mesh("grid", 3, seed=2, jitter=0.3)
    adjacency = build_topology(mesh)
    interior = np.flatnonzero(mesh.vertex_class == VertexClass.INTERIOR)
    pinned = interior[:3]
    mesh.vertex_class[pinned] = VertexClass.USER_FIXED
    before = mesh.vertices[pinned].copy()
    optimize_mesh(mesh, RunConfig(), adjacency=adjacency)
    assert np.array_equal(mesh.vertices[pinned], before)


def test_all_patches_mode_preserves_invertibility():
    mesh = generate_test_mesh("grid", 3, seed=6, jitter=0.3)
    report = optimize_mesh(mesh, RunConfig(mode="all-patches", b_schedule=(0.85,), max_passes=3))
    assert report.min_quality_seen > 0.0
    assert tet_volumes(mesh.tet_points()).min() > 0.0


def test_sliver_run_at_high_target_stays_valid_and_nears_it():
    mesh = generate_test_mesh("with-slivers", 4, seed=3, k=3, jitter=0.1)
    report = optimize_mesh(mesh, RunConfig(target_quality=0.5))
    assert report.min_quality_seen > 0.0
    assert tet_volumes(mesh.tet_points()).min() > 0.0
    assert np.nanmin(quality_batch(mesh.tet_points())) >= 0.5 - 0.2  # improved to near target


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(b_schedule=(0.9, 0.8)).validate()
    with pytest.raises(ValueError):
        RunConfig(b_schedule=(0.0,)).validate()
    with pytest.raises(ValueError):
        RunConfig(mode="bogus").validate()
    with pytest.raises(ValueError):
        RunConfig(max_passes=0).validate()
    with pytest.raises(ValueError, match="target quality"):
        RunConfig(target_quality=float("nan")).validate()
    for angle in (0.0, -5.0, 180.5, float("nan")):
        with pytest.raises(ValueError, match="feature angle"):
            RunConfig(feature_angle_deg=angle).validate()
    RunConfig(feature_angle_deg=180.0).validate()


def test_report_serializable():
    import json

    mesh = generate_test_mesh("with-slivers", 3, seed=1, k=1, jitter=0.05)
    report = optimize_mesh(mesh, RunConfig(target_quality=0.4))
    blob = json.dumps(report.to_dict())
    parsed = json.loads(blob)
    assert parsed["final"]["q_min"] >= parsed["initial"]["q_min"]
    assert len(parsed["passes"]) == len(report.passes)


@pytest.mark.parametrize("kind", ["sphere", "grid"])
def test_pass_metrics_equal_whole_mesh_recompute(kind):
    # the driver re-measures only the ring elements of each pass; a whole
    # mesh recompute after every pass must give the same figures bit for bit,
    # and the initial and final metrics those of global_metrics on the input
    # and on the output
    if kind == "sphere":
        mesh, config = generate_test_mesh("sphere", 4, seed=6, jitter=0.1), RunConfig()
    else:
        mesh, config = generate_test_mesh("with-slivers", 4, seed=9, k=3, jitter=0.1), RunConfig(target_quality=0.5)
    adjacency = build_topology(mesh)
    initial = global_metrics(mesh, adjacency)
    checked = []

    def on_pass(record):
        points = mesh.tet_points()
        angles = dihedral_angles_batch(points)
        finite = angles[np.isfinite(angles)]
        assert record.q_min == float(np.nanmin(quality_batch(points)))
        assert record.min_dihedral_deg == float(finite.min())
        assert record.max_dihedral_deg == float(finite.max())
        assert record.volume == float(tet_volumes(points).sum())
        checked.append(record.patches)

    report = optimize_mesh(mesh, config, adjacency, on_pass=on_pass)
    assert report.initial_metrics == initial
    assert report.final_metrics == global_metrics(mesh, adjacency)
    assert len(checked) == len(report.passes) >= 2


def test_pass_and_final_dihedral_ranges_skip_the_same_nan_angles(monkeypatch):
    # the per-pass range and global_metrics read one rule: NaN angles (those
    # along a zero-area face) are skipped, and only all-NaN or no angles give NaN
    def with_nan(points):
        angles = dihedral_angles_batch(points)
        angles[angles < 45.0] = np.nan
        return angles

    monkeypatch.setattr(tetforge.driver, "dihedral_angles_batch", with_nan)
    mesh = generate_test_mesh("with-slivers", 3, seed=1, k=1, jitter=0.05)
    report = optimize_mesh(mesh, RunConfig(target_quality=0.4))
    angles = with_nan(mesh.tet_points())
    assert np.isnan(angles).any() and not np.isnan(angles).all()
    expected = (float(np.nanmin(angles)), float(np.nanmax(angles)))
    last, final = report.passes[-1], report.final_metrics
    assert (last.min_dihedral_deg, last.max_dihedral_deg) == expected
    assert (final.min_dihedral_deg, final.max_dihedral_deg) == expected
    for empty in (np.full((3, 6), np.nan), np.empty((0, 6))):
        assert np.isnan(dihedral_range(empty)).all()
    adjacency = build_topology(mesh)
    points = mesh.tet_points()
    no_angles = global_metrics(mesh, adjacency, (tet_volumes(points), quality_batch(points),
                                                 np.full((mesh.num_tets, 6), np.nan)))
    assert np.isnan(no_angles.min_dihedral_deg) and np.isnan(no_angles.max_dihedral_deg)


def test_pass_counters_deterministic_and_nonzero():
    import json

    fields = ("patches", "chunks", "newton_iterations", "shifted_solves", "barrier_rejections", "max_patch_dofs",
              "stalled_seeds")
    runs = []
    for _ in range(2):
        mesh = generate_test_mesh("with-slivers", 3, seed=1, k=1, jitter=0.05)
        report = optimize_mesh(mesh, RunConfig(mode="all-patches", max_passes=3))
        runs.append([[getattr(record, name) for name in fields] for record in report.passes])
    assert runs[0] == runs[1]
    # this sweep has no stalled patch (test_round_off_armijo_failures_are_not_stalls);
    # stalled_seeds is filled in test_patches_that_cannot_step_are_stalled
    for name, values in zip(fields[:-1], zip(*runs[0])):
        assert any(values), name
    parsed = json.loads(json.dumps(report.to_dict()))
    assert [[p[name] for name in fields] for p in parsed["passes"]] == runs[0]
    # every tet with a movable vertex is a one-seed chunk, and the waves pack them
    movable_tets = int((mesh.vertex_class[mesh.tets] != VertexClass.CORNER).any(axis=1).sum())
    for record in report.passes:
        assert (record.stalled == 0) == (record.stalled_seeds == [])
        assert record.chunks == movable_tets > record.patches


def test_round_off_armijo_failures_are_not_stalls():
    # one-tet patches sweeping near convergence: some Newton steps predict a
    # decrease below one ulp of the objective, which no Armijo test can resolve
    mesh = generate_test_mesh("with-slivers", 3, seed=1, k=1, jitter=0.05)
    report = optimize_mesh(mesh, RunConfig(mode="all-patches", max_passes=3))
    assert [record.stalled for record in report.passes] == [0] * len(report.passes)


@pytest.mark.parametrize("kind", ["with-inverted", "with-slivers"])
def test_round_off_on_large_rings_is_not_a_stall(kind):
    # a converged patch with a ring of 71 tets whose predicted decrease is a
    # few ulps of the objective (5.4e-16 and 4.1e-16 relative): the rounding
    # of the two 71-term sums an Armijo test would compare is larger than that
    if kind == "with-inverted":
        mesh = generate_test_mesh("with-inverted", 3, seed=4, k=1)
    else:
        mesh = generate_test_mesh("with-slivers", 4, seed=1, k=3, jitter=0.05)
    report = optimize_mesh(mesh, RunConfig(mode="all-patches", max_passes=3))
    assert [record.stalled_seeds for record in report.passes] == [[]] * len(report.passes)


@pytest.mark.parametrize("failure", ["barrier", "armijo"])
def test_patches_that_cannot_step_are_stalled(monkeypatch, failure):
    if failure == "barrier":
        # every trial point has a non-finite quality, so every trial crosses the barrier
        monkeypatch.setattr(tetforge.solver, "quality_batch", lambda points: np.full(len(points), np.nan))
    else:
        # every trial point is feasible but worse, on the full Newton step of each patch
        monkeypatch.setattr(tetforge.solver, "barrier_values_batch", lambda q, gamma: np.full(len(q), np.inf))
    mesh = generate_test_mesh("with-slivers", 3, seed=1, k=2, jitter=0.05)
    before = mesh.vertices.copy()
    report = optimize_mesh(mesh, RunConfig(max_passes=1, b_schedule=(0.75,)))
    (record,) = report.passes
    assert record.stalled == record.patches > 0
    assert len(record.stalled_seeds) >= record.patches
    assert record.barrier_rejections == (21 * record.patches if failure == "barrier" else 0)
    assert record.newton_iterations == 0
    assert np.array_equal(mesh.vertices, before)
