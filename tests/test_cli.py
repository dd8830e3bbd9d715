import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tetforge.cli
from tetforge.cli import run_cli
from tetforge.driver import RunConfig
from tetforge.errors import BarrierViolationError, NoProgressError
from tetforge.fixtures import generate_test_mesh
from tetforge.io import load_mesh, save_mesh
from tetforge.mesh import TetMesh, surface_enclosed_volume, tet_volumes
from tetforge.topology import build_topology, extract_boundary_faces


@pytest.fixture
def sliver_mesh_file(tmp_path):
    mesh = generate_test_mesh("with-slivers", 3, seed=1, k=1, jitter=0.08)
    path = tmp_path / "in.mesh"
    save_mesh(mesh, path)
    return path


def test_happy_path(tmp_path, sliver_mesh_file, capsys):
    out = tmp_path / "out.mesh"
    code = run_cli([str(sliver_mesh_file), "-o", str(out),
                    "--target-quality", "0.3",
                    "--barrier-schedule", "0.75,0.85,0.95"])
    assert code == 0
    assert out.exists()
    printed = capsys.readouterr().out
    assert "pass 0" in printed
    assert "q_min=" in printed
    improved = load_mesh(out)
    assert tet_volumes(improved.tet_points()).min() > 0.0


def test_missing_input_names_path(tmp_path, capsys):
    missing = tmp_path / "nope.mesh"
    code = run_cli([str(missing), "-o", str(tmp_path / "out.mesh")])
    assert code == 1
    assert "nope.mesh" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["-o", "--report"])
def test_write_into_missing_directory_names_the_path(tmp_path, sliver_mesh_file, capsys, flag):
    missing = tmp_path / "missing" / "out"
    out = missing if flag == "-o" else tmp_path / "out.mesh"
    report = ["--report", str(missing)] if flag == "--report" else []
    assert run_cli([str(sliver_mesh_file), "-o", str(out), "--format", "medit", "--max-passes", "1", *report]) == 1
    err = capsys.readouterr().err
    assert str(missing) in err
    assert ".tmp" not in err


def test_module_entry_point_exits_with_the_run_code(sliver_mesh_file):
    # the same main() the console script calls; without -o or --in-place it is a usage error
    env = dict(os.environ, PYTHONPATH=str(Path(tetforge.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "tetforge.cli", str(sliver_mesh_file)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 3
    assert done.stderr.startswith("tetforge: an output path (-o) is required")


def test_bad_flags_exit_3(tmp_path, sliver_mesh_file):
    assert run_cli([str(sliver_mesh_file), "-o", str(sliver_mesh_file)]) == 3  # overwrite without --in-place
    assert run_cli([str(sliver_mesh_file)]) == 3  # no output
    assert run_cli([str(sliver_mesh_file), "-o", "x.mesh", "--barrier-schedule", "2.0"]) == 3
    assert run_cli([str(sliver_mesh_file), "-o", "x.mesh", "--unknown-flag"]) == 3


@pytest.mark.parametrize("flag", [["--target-quality", "nan"], ["--feature-angle", "0"],
                                  ["--feature-angle", "-5"], ["--feature-angle", "181"],
                                  ["--barrier-schedule", "abc"], ["--barrier-schedule", ","]])
def test_config_values_that_would_stop_all_motion_exit_3(tmp_path, sliver_mesh_file, capsys, flag):
    out = tmp_path / "out.mesh"
    assert run_cli([str(sliver_mesh_file), "-o", str(out), *flag]) == 3
    assert not out.exists()
    assert flag[0].lstrip("-").replace("-", " ") in capsys.readouterr().err


def test_structural_error_exit_2(tmp_path):
    # a face shared by three tets
    vertices = np.array([
        [0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1], [1, 1, 1],
    ], dtype=float)
    tets = np.array([[0, 1, 2, 3], [0, 2, 1, 4], [0, 1, 2, 5]])
    mesh = TetMesh(vertices=vertices, tets=tets)
    path = tmp_path / "bad.mesh"
    save_mesh(mesh, path)
    assert run_cli([str(path), "-o", str(tmp_path / "out.mesh")]) == 2


@pytest.mark.parametrize("error", [NoProgressError("no shift gives a descent step"),
                                   BarrierViolationError("element 3 crossed the barrier", tet_id=3)],
                         ids=["no-progress", "barrier"])
def test_run_error_exits_2(tmp_path, sliver_mesh_file, capsys, monkeypatch, error):
    def optimize_mesh(*args, **kwargs):
        raise error

    monkeypatch.setattr(tetforge.cli, "optimize_mesh", optimize_mesh)
    out = tmp_path / "out.mesh"
    assert run_cli([str(sliver_mesh_file), "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"tetforge: {error}\n"
    assert not out.exists()


def test_output_that_names_no_format_exits_1_before_the_run(tmp_path, sliver_mesh_file, capsys, monkeypatch):
    def optimize_mesh(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(tetforge.cli, "optimize_mesh", optimize_mesh)
    out = tmp_path / "out.obj"
    assert run_cli([str(sliver_mesh_file), "-o", str(out)]) == 1
    printed = capsys.readouterr()
    assert printed.err == f"tetforge: cannot infer mesh format from extension '.obj' of {out}\n"
    assert not any(line.startswith("pass") for line in printed.out.splitlines())
    assert not out.exists()


def _trailing_bytes(tmp_path):
    path = tmp_path / "trailing.mesh"
    save_mesh(TetMesh(vertices=np.eye(4, 3), tets=np.array([[0, 1, 2, 3]])), path)
    with open(path, "ab") as fh:
        fh.write(b"\xff\xfe\n")
    return path


def _random_bytes(tmp_path):
    path = tmp_path / "random.mesh"
    path.write_bytes(np.random.default_rng(0).integers(0, 256, 300, dtype=np.uint8).tobytes())
    return path


@pytest.mark.parametrize("make", [_trailing_bytes, _random_bytes], ids=["trailing-line", "random-bytes"])
def test_input_that_is_not_utf8_exits_1(tmp_path, capsys, make):
    path = make(tmp_path)
    assert run_cli([str(path), "-o", str(tmp_path / "out.mesh")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tetforge: file is not UTF-8 text (line ")
    assert "Traceback" not in err


def test_outputs_get_the_mode_a_plain_write_would(tmp_path, sliver_mesh_file, umask_022):
    out, report = tmp_path / "out.mesh", tmp_path / "r.json"
    assert run_cli([str(sliver_mesh_file), "-o", str(out), "--report", str(report), "--max-passes", "1"]) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o644
    assert stat.S_IMODE(report.stat().st_mode) == 0o644
    # in place, the input's own mode stays
    sliver_mesh_file.chmod(0o640)
    assert run_cli([str(sliver_mesh_file), "--in-place", "--max-passes", "1"]) == 0
    assert stat.S_IMODE(sliver_mesh_file.stat().st_mode) == 0o640


@pytest.mark.parametrize("name, text", [
    ("empty.mesh", "MeshVersionFormatted 2\nDimension 3\nVertices\n1\n0 0 0 0\nTetrahedra\n0\nEnd\n"),
    ("empty.vtk", "# vtk DataFile Version 3.0\nno tets\nASCII\nDATASET UNSTRUCTURED_GRID\n"
                  "POINTS 1 double\n0 0 0\nCELLS 0 0\nCELL_TYPES 0\n"),
], ids=["medit", "vtk"])
def test_mesh_without_tets_exits_2(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    out = tmp_path / "out.mesh"
    assert run_cli([str(path), "-o", str(out)]) == 2
    assert not out.exists()
    assert "no tetrahedra" in capsys.readouterr().err


def test_histogram_of_regular_tet(tmp_path, regular_tet):
    mesh = TetMesh(vertices=regular_tet, tets=np.array([[0, 1, 2, 3]]))
    path = tmp_path / "reg.mesh"
    save_mesh(mesh, path)
    hist_path = tmp_path / "h.csv"
    code = run_cli([str(path), "-o", str(tmp_path / "out.mesh"),
                    "--histogram", str(hist_path)])
    assert code == 0
    lines = hist_path.read_text().strip().splitlines()
    assert lines[0] == "bin_start_deg,bin_end_deg,count"
    assert len(lines) == 19  # header + 18 bins
    row = lines[1 + 7].split(",")
    assert row == ["70", "80", "6"]


def test_report_volume_drift_consistent(tmp_path, sliver_mesh_file):
    out = tmp_path / "out.mesh"
    report_path = tmp_path / "r.json"
    code = run_cli([str(sliver_mesh_file), "-o", str(out), "--report", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    original = load_mesh(sliver_mesh_file)
    improved = load_mesh(out)
    v0 = surface_enclosed_volume(original.vertices, extract_boundary_faces(original))
    v1 = surface_enclosed_volume(improved.vertices, extract_boundary_faces(improved))
    recomputed = abs(v1 - v0) / abs(v0) * 100.0
    assert report["volume_drift_percent"] == pytest.approx(recomputed, abs=1e-12)


def test_flags_left_out_give_the_run_config_defaults(tmp_path, sliver_mesh_file, monkeypatch):
    configs = []
    optimize_mesh = tetforge.cli.optimize_mesh

    def recording(mesh, config, **kwargs):
        configs.append(config)
        return optimize_mesh(mesh, config, **kwargs)

    monkeypatch.setattr(tetforge.cli, "optimize_mesh", recording)
    assert run_cli([str(sliver_mesh_file), "-o", str(tmp_path / "out.mesh")]) == 0
    assert configs == [RunConfig()]


def test_nearly_flat_sphere_reaches_the_target(tmp_path):
    # the worst element starts at q_min 6.7e-7; the run must not stop while it climbs
    path = tmp_path / "sphere.mesh"
    save_mesh(generate_test_mesh("sphere", 8, seed=3, jitter=0.15), path)
    report_path = tmp_path / "r.json"
    assert run_cli([str(path), "-o", str(tmp_path / "out.mesh"), "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["initial"]["q_min"] < 1e-5
    assert report["final"]["q_min"] >= 0.29


def test_in_place(tmp_path):
    mesh = generate_test_mesh("with-slivers", 3, seed=5, k=1, jitter=0.08)
    path = tmp_path / "mesh.mesh"
    save_mesh(mesh, path)
    code = run_cli([str(path), "--in-place"])
    assert code == 0
    improved = load_mesh(path)
    assert not np.array_equal(improved.vertices, mesh.vertices)


def test_fix_by_reference(tmp_path):
    mesh = generate_test_mesh("with-slivers", 3, seed=1, k=1, jitter=0.08)
    build_topology(mesh)
    from tetforge.mesh import VertexClass
    interior = np.flatnonzero(np.asarray(mesh.vertex_class) == VertexClass.INTERIOR)
    mesh.vertex_refs[interior] = 77
    path = tmp_path / "ref.mesh"
    save_mesh(mesh, path)
    out = tmp_path / "out.mesh"
    code = run_cli([str(path), "-o", str(out), "--fix", "77", "--no-surface-motion"])
    assert code == 0
    improved = load_mesh(out)
    # every vertex is now pinned: interior by --fix, surface by flag
    assert np.array_equal(improved.vertices, mesh.vertices)


def test_determinism(tmp_path, sliver_mesh_file):
    outs = []
    for name in ("a.mesh", "b.mesh"):
        out = tmp_path / name
        code = run_cli([str(sliver_mesh_file), "-o", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_vtk_output(tmp_path, sliver_mesh_file):
    out = tmp_path / "out.vtk"
    code = run_cli([str(sliver_mesh_file), "-o", str(out)])
    assert code == 0
    improved = load_mesh(out)
    assert improved.num_tets == load_mesh(sliver_mesh_file).num_tets


def test_collapsed_tet_exit_2_names_it(tmp_path, capsys):
    from tetforge.io import _format_medit
    from test_mesh_core import collapsed_tet_mesh

    path = tmp_path / "bad.mesh"
    path.write_text("".join(_format_medit(collapsed_tet_mesh())))  # save_mesh would refuse it
    assert run_cli([str(path), "-o", str(tmp_path / "out.mesh")]) == 2
    err = capsys.readouterr().err
    assert "tet 100 is degenerate" in err
    assert "barrier" not in err


@pytest.mark.parametrize("case", ["huge", "tiny"])
def test_coordinates_out_of_range_exit_2(tmp_path, capsys, case):
    from tetforge.io import _format_medit
    from test_mesh_core import out_of_range_mesh

    path = tmp_path / "far.mesh"
    path.write_text("".join(_format_medit(out_of_range_mesh(case))))  # save_mesh would refuse it
    out = tmp_path / "out.mesh"
    assert run_cli([str(path), "-o", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "out of range" in err
    assert "degenerate" not in err


@pytest.mark.parametrize("header,bad,message", [
    ("POINTS 4 double", "POINTS abc double", "bad count 'abc' after 'POINTS' (line 5)"),
    ("CELLS 1 5", "CELLS 1", "missing size after 'CELLS' (line 10)"),
    ("CELL_TYPES 1", "CELL_TYPES -1", "bad count '-1' after 'CELL_TYPES' (line 12)"),
], ids=["points", "cells", "cell-types"])
def test_bad_vtk_header_count_exit_1(tmp_path, capsys, header, bad, message):
    text = ("# vtk DataFile Version 3.0\nt\nASCII\nDATASET UNSTRUCTURED_GRID\n"
            "POINTS 4 double\n0 0 0\n1 0 0\n0 1 0\n0 0 1\nCELLS 1 5\n4 0 1 2 3\nCELL_TYPES 1\n10\n")
    assert text.count(header) == 1
    path = tmp_path / "bad.vtk"
    path.write_text(text.replace(header, bad))
    assert run_cli([str(path), "-o", str(tmp_path / "out.mesh")]) == 1
    assert capsys.readouterr().err == f"tetforge: {message}\n"
