"""Tests of the benchmark itself: its formulas, its checks and its tracing.

    python3 -m pytest benchmark -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tetforge import generate_test_mesh, load_mesh, save_mesh  # noqa: E402
from tetforge.mesh import dihedral_angles_batch, surface_enclosed_volume, tet_volumes  # noqa: E402
from tetforge.metrics import global_metrics  # noqa: E402
from tetforge.quality import quality_batch  # noqa: E402
from tetforge.topology import build_topology, extract_boundary_faces  # noqa: E402

SMALL = workloads.Workload("small", dict(kind="grid", n=4, seed=0, jitter=0.25),
                           dict(target_quality=0.5, surface_motion=True))


def random_tets(m=500, seed=0):
    """Random tets; about half of them inverted."""
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(m, 4, 3))


def small_grid():
    mesh = generate_test_mesh("grid", 3, seed=1, jitter=0.2)
    build_topology(mesh)
    return mesh


# --- independent formulas agree with tetforge ------------------------------

def test_formulas_agree_with_tetforge_on_random_tets():
    points = random_tets()
    vols = checks.signed_volumes(points)
    assert (vols < 0).sum() > 100 and (vols > 0).sum() > 100
    np.testing.assert_allclose(vols, tet_volumes(points), rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(checks.qualities(points), quality_batch(points), rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(checks.dihedral_angles(points), dihedral_angles_batch(points), rtol=0, atol=1e-9)


def test_boundary_and_enclosed_volume_agree_with_tetforge():
    mesh = generate_test_mesh("sphere", 4)
    ours = checks.boundary_faces(mesh.tets)
    theirs = extract_boundary_faces(mesh)
    assert sorted(map(tuple, ours.tolist())) == sorted(map(tuple, theirs.tolist()))
    assert checks.enclosed_volume(mesh.vertices, ours) == pytest.approx(
        surface_enclosed_volume(mesh.vertices, theirs), rel=1e-12)
    assert checks.enclosed_volume(mesh.vertices, ours) == pytest.approx(tet_volumes(mesh.tet_points()).sum(), rel=1e-12)


# --- each check rejects a broken output ---------------------------------------

def test_inverted_tet_is_rejected():
    mesh = small_grid()
    checks.check_positive_volumes(mesh.vertices, mesh.tets)
    bad = mesh.tets.copy()
    bad[7, [2, 3]] = bad[7, [3, 2]]
    with pytest.raises(checks.CheckFailed, match="non-positive volume"):
        checks.check_positive_volumes(mesh.vertices, bad)


def test_boundary_vertex_pushed_off_its_face_is_rejected():
    mesh = small_grid()
    faces = checks.boundary_faces(mesh.tets)
    boundary = np.unique(faces)
    moved = mesh.vertices.copy()
    v = boundary[len(boundary) // 2]
    moved[v] += 0.01 * np.sign(moved[v] - 0.5)  # outward, off the cube face
    with pytest.raises(checks.CheckFailed, match="boundary vertices moved"):
        checks.check_vertices_fixed(mesh.vertices, moved, boundary, "boundary")
    with pytest.raises(checks.CheckFailed, match="enclosed volume drifted"):
        checks.check_volume_drift(mesh.vertices, moved, faces)
    checks.check_vertices_fixed(mesh.vertices, mesh.vertices.copy(), boundary, "boundary")
    assert checks.check_volume_drift(mesh.vertices, mesh.vertices, faces) == 0.0


def test_changed_connectivity_is_rejected():
    mesh = small_grid()
    checks.check_connectivity(mesh.tets, mesh.tets.copy())
    bad = mesh.tets.copy()
    bad[3, 0] = bad[4, 0] if bad[4, 0] not in bad[3] else bad[4, 1]
    with pytest.raises(checks.CheckFailed, match="connectivity"):
        checks.check_connectivity(mesh.tets, bad)


def test_non_round_tripping_file_is_rejected(tmp_path):
    mesh = small_grid()
    exact, lossy = tmp_path / "exact.mesh", tmp_path / "lossy.mesh"
    save_mesh(mesh, exact)
    checks.check_round_trip(load_mesh(exact), mesh)
    lines = exact.read_text().splitlines()
    count = int(lines[3])
    for i in range(4, 4 + count):
        x, y, z, ref = lines[i].split()
        lines[i] = f"{float(x):.8g} {float(y):.8g} {float(z):.8g} {ref}"
    lossy.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed, match="bit for bit"):
        checks.check_round_trip(load_mesh(lossy), mesh)


def test_report_mismatch_and_no_improvement_are_rejected():
    mesh = small_grid()
    report = global_metrics(mesh, build_topology(mesh))
    q_min, lo, hi = checks.check_report(mesh.vertices, mesh.tets, report)
    report.max_dihedral_deg += 1e-6
    with pytest.raises(checks.CheckFailed, match="max_dihedral_deg"):
        checks.check_report(mesh.vertices, mesh.tets, report)
    with pytest.raises(checks.CheckFailed, match="did not rise"):
        checks.check_improved(q_min, q_min)
    flat = mesh.vertices.copy()
    flat[mesh.tets[0]] = flat[mesh.tets[0]].mean(axis=0)
    with pytest.raises(checks.CheckFailed, match="pass 1"):
        checks.check_passes_valid([mesh.vertices, flat], mesh.tets)


# --- inputs ---------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_stored_fingerprints_match_the_fixtures(name):
    workload = workloads.WORKLOADS[name]
    workloads.check_fingerprint(workload, workloads.canonical_mesh(workload))


def test_changed_fixture_fails_the_fingerprint():
    workload = workloads.WORKLOADS["grid-merged"]
    mesh = workloads.canonical_mesh(workload)
    mesh.vertices[5, 0] = np.nextafter(mesh.vertices[5, 0], 2.0)
    with pytest.raises(RuntimeError, match="changed"):
        workloads.check_fingerprint(workload, mesh)


def test_seeded_input_is_a_rigid_renumbering():
    canonical = workloads.canonical_mesh(SMALL)
    a, b, c = (workloads.seeded_input(canonical, s) for s in (1, 1, 2))
    assert workloads.fingerprint(a) == workloads.fingerprint(b) != workloads.fingerprint(c)
    for mesh in (a, c):
        np.testing.assert_allclose(np.sort(quality_batch(mesh.tet_points())),
                                   np.sort(quality_batch(canonical.tet_points())), rtol=1e-12)
        assert sorted(map(tuple, np.sort(mesh.tets, axis=1).tolist())) != \
            sorted(map(tuple, np.sort(canonical.tets, axis=1).tolist()))


# --- repetitions and tracing -------------------------------------------------------

@pytest.fixture
def bench(tmp_path):
    canonical = workloads.canonical_mesh(SMALL)
    save_mesh(workloads.seeded_input(canonical, 3), tmp_path / "input.mesh")
    return run.Bench(SMALL, tmp_path / "input.mesh", tmp_path / "output.mesh")


def test_traced_repetition_is_bit_identical_and_restores_every_wrapper(bench):
    originals = [getattr(module, attr) for module, attr, *_ in tracing.WRAPPED]
    plain = bench.repetition()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert all(getattr(m, a) is not o for (m, a, *_), o in zip(tracing.WRAPPED, originals))
    traced = bench.repetition(tracing.Tracer())  # raises if its output hash differs from the first
    assert [getattr(module, attr) for module, attr, *_ in tracing.WRAPPED] == originals
    for name in ("q_min_final", "min_dihedral_deg", "max_dihedral_deg"):
        assert plain[name] == traced[name]
    layers = traced["layers"]
    assert layers["driver.passes"] >= 1
    assert layers["barrier.assemble_calls"] >= layers["solver.iterations"] > 0
    assert layers["solver.trial_steps"] >= layers["solver.iterations"]
    assert 0.0 < layers["solver.accepted_step_ratio"] <= 1.0
    assert layers["solver.patch_self_s"] < layers["solver.patch_s"] <= layers["driver.improve_s"]


def test_wrappers_are_restored_when_the_run_raises(bench):
    originals = [getattr(module, attr) for module, attr, *_ in tracing.WRAPPED]
    with pytest.raises(ZeroDivisionError):
        with tracing.instrument(tracing.Tracer()):
            1 / 0
    assert [getattr(module, attr) for module, attr, *_ in tracing.WRAPPED] == originals


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    times = tracer.layer_times()
    assert times["self"]["outer"] == pytest.approx(times["total"]["outer"] - times["total"]["inner"], abs=1e-12)
    assert times["self"]["inner"] == times["total"]["inner"]


# --- the command --------------------------------------------------------------------

def test_command_prints_every_metric_of_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "grid-merged", "--seed", "5",
             "--seconds", "0", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] == 1 + trace
        assert list(result["metrics"]) == [m["name"] for m in listed]
        assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in listed)


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "grid-merged", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
