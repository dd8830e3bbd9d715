"""Medit and VTK reader behaviour, pinned line by line, and the block writers
against a row-by-row f-string reference."""

import stat
import warnings

import numpy as np
import pytest

from tetforge.errors import MeshFormatError
from tetforge.fixtures import generate_test_mesh
from tetforge.io import _format_medit, _format_vtk, atomic_write_text, load_mesh, save_mesh
from tetforge.mesh import TetMesh
from tetforge.topology import build_topology

# Two tets sharing the face (2, 3, 4), with every optional Medit feature the
# reader accepts: comments on their own line and after a record, blank lines
# inside a section, a record without a ref, extra fields after the ref, a
# ref written as a float, and the skipped sections.
ACCEPTED = """\
# written by hand
MeshVersionFormatted 2
Dimension
3
Vertices
5
0 0 0 1
1 0 0 1  # trailing comment

0 1 0
0 0 1 2.0 extra fields
1 1 1 7
Edges 1
1 2 0
Corners
1
1
Triangles 2
1 2 3 5

2 4 3
Normals
1
0 0 1
Tetrahedra
2
1 2 3 4 3
2 3 4 5 -4.0 # the second
End
"""


def _write(tmp_path, text, name="in.mesh"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_medit_reader_accepts_optional_syntax(tmp_path):
    mesh = load_mesh(_write(tmp_path, ACCEPTED))
    assert mesh.vertices.tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
    assert mesh.vertex_refs.tolist() == [1, 1, 0, 2, 7]
    assert mesh.surface_tris.tolist() == [[0, 1, 2], [1, 3, 2]]
    assert mesh.tri_refs.tolist() == [5, 0]
    assert mesh.tets.tolist() == [[0, 1, 2, 3], [1, 2, 3, 4]]
    assert mesh.tet_refs.tolist() == [3, -4]
    assert mesh.vertices.dtype == np.float64
    assert mesh.tets.dtype == mesh.vertex_refs.dtype == mesh.tet_refs.dtype == np.int64


def test_medit_reader_needs_no_end_keyword(tmp_path):
    assert ACCEPTED.endswith("End\n")
    mesh = load_mesh(_write(tmp_path, ACCEPTED[:-len("End\n")]))
    assert mesh.tets.tolist() == [[0, 1, 2, 3], [1, 2, 3, 4]]
    assert mesh.vertices.tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]


def test_medit_reader_reads_back_every_written_bit(tmp_path):
    mesh = generate_test_mesh("sphere", 3, seed=4, jitter=0.3)
    build_topology(mesh)
    mesh.vertex_refs = np.arange(mesh.num_vertices) % 5 - 2
    mesh.tet_refs = np.arange(mesh.num_tets) % 3
    path = tmp_path / "ball.mesh"
    save_mesh(mesh, path)
    back = load_mesh(path)
    for name in ("vertices", "tets", "surface_tris", "vertex_refs", "tet_refs", "tri_refs"):
        assert np.array_equal(getattr(back, name), getattr(mesh, name)), name


# (replacement applied to ACCEPTED, message, 1-based line of the error)
REJECTED = [
    ("0 1 0\n", "0 1.x 0\n", "malformed 'Vertices' record", 10),
    ("1 2 3 4 3\n", "1 2 3\n", "expected at least 4 fields in 'Tetrahedra' record", 27),
    ("1 2 3 4 3\n", "1 2 1.5 4 3\n", "malformed 'Tetrahedra' record", 27),
    ("1 2 3 4 3\n", "1 2 3.0 4 3\n", "malformed 'Tetrahedra' record", 27),
    ("2 4 3\n", "2e0 4 3\n", "malformed 'Triangles' record", 21),
    ("2 3 4 5 -4.0 # the second\nEnd\n", "", "unexpected end of file inside 'Tetrahedra'", 27),
    ("2 4 3\n", "2 6 3\n", "triangle vertex index out of range 1..5", 21),
    ("1 1 1 7\n", "1 1 1 1e300\n", "malformed 'Vertices' record", 12),
    ("Edges 1\n", "Edgez 1\n", "unrecognized Medit keyword 'Edgez'", 13),
    ("Dimension\n3\n", "Dimension\n2\n", "only Dimension 3 supported, got 2", 3),
    ("Tetrahedra\n2\n1 2 3 4 3\n2 3 4 5 -4.0 # the second\nEnd\n", "Tetrahedra\n",
     "missing count after 'Tetrahedra'", 25),
    ("Vertices\n5\n0 0 0 1\n1 0 0 1  # trailing comment\n\n0 1 0\n0 0 1 2.0 extra fields\n1 1 1 7\n", "",
     "file has no Vertices section", 21),
    ("Tetrahedra\n2\n1 2 3 4 3\n2 3 4 5 -4.0 # the second\n", "", "file has no Tetrahedra section", 25),
]


@pytest.mark.parametrize("old,new,message,line", REJECTED, ids=[
    "malformed-coordinate", "too-few-fields", "fractional-index", "float-index", "exponent-index",
    "eof-in-tetrahedra", "triangle-index-range", "ref-out-of-range", "unknown-keyword", "dimension-2", "count-at-eof",
    "no-vertices", "no-tetrahedra"])
def test_medit_reader_rejects_with_line(tmp_path, old, new, message, line):
    assert ACCEPTED.count(old) == 1
    path = _write(tmp_path, ACCEPTED.replace(old, new))
    with pytest.raises(MeshFormatError) as info:
        load_mesh(path)
    assert info.value.line == line
    assert str(info.value) == f"{message} (line {line})"


def test_fractional_index_is_rejected_where_numpy_only_warns(tmp_path, monkeypatch):
    """Some numpy releases parse '1.5' in an integer field via a float, truncate
    it and only emit a DeprecationWarning; the reader must reject it there too.

    The stand-in loadtxt behaves like those releases: it warns, and when the
    warning is an error it raises ValueError from it, as numpy's parser does.
    """
    real_loadtxt = np.loadtxt

    def loadtxt(rows, **kwargs):
        if any("1.5" in row for row in rows):
            try:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            except DeprecationWarning as exc:
                raise ValueError("could not convert string '1.5' to int64") from exc
            rows = [row.replace("1.5", "1") for row in rows]
        return real_loadtxt(rows, **kwargs)

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        with pytest.raises(MeshFormatError) as info:
            load_mesh(_write(tmp_path, ACCEPTED.replace("1 2 3 4 3\n", "1 2 1.5 4 3\n")))
    assert str(info.value) == "malformed 'Tetrahedra' record (line 27)"


def test_medit_reader_rejects_negative_count(tmp_path):
    with pytest.raises(MeshFormatError) as info:
        load_mesh(_write(tmp_path, ACCEPTED.replace("Vertices\n5\n", "Vertices\n-5\n")))
    assert str(info.value) == "bad count '-5' after 'Vertices' (line 6)"


def test_medit_reader_reports_first_bad_record(tmp_path):
    text = ACCEPTED.replace("1 2 3 4 3\n", "1 2 x 4 3\n").replace("2 3 4 5 -4.0", "2 3")
    with pytest.raises(MeshFormatError) as info:
        load_mesh(_write(tmp_path, text))
    assert str(info.value) == "malformed 'Tetrahedra' record (line 27)"


# --- VTK reader ----------------------------------------------------------------

# Two tets sharing the face (1, 2, 3) and two triangles, laid out as the
# writer lays them out: one record a line.
VTK = """\
# vtk DataFile Version 3.0
two tets
ASCII
DATASET UNSTRUCTURED_GRID
POINTS 5 double
0 0 0
1 0 0
0 1 0
0 0 1
1 1 1
CELLS 4 18
4 0 1 2 3
4 1 2 3 4
3 0 1 2
3 1 3 2
CELL_TYPES 4
10
10
5
5
"""


def _vtk_mesh_lists(mesh):
    return mesh.vertices.tolist(), mesh.tets.tolist(), mesh.surface_tris.tolist()


def test_vtk_reader_reads_records(tmp_path):
    mesh = load_mesh(_write(tmp_path, VTK, "in.vtk"))
    assert _vtk_mesh_lists(mesh) == (
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], [[0, 1, 2, 3], [1, 2, 3, 4]], [[0, 1, 2], [1, 3, 2]])
    assert mesh.vertices.dtype == np.float64 and mesh.tets.dtype == mesh.surface_tris.dtype == np.int64


# values may wrap across lines in any way; each layout reads the same mesh
WRAPPED = [
    ("0 1 0\n0 0 1\n", "0 1 0 0 0\n1\n"),
    ("4 0 1 2 3\n4 1 2 3 4\n", "4 0 1 2 3 4 1 2 3 4\n"),
    ("4 1 2 3 4\n3 0 1 2\n", "4 1 2\n3 4 3\n0 1 2\n"),
    ("10\n10\n5\n", "10 10\n\n5\n"),
    ("0 0 0\n", " 0\t0  +0.0 \n"),
]


@pytest.mark.parametrize("old,new", WRAPPED, ids=["points", "cells-joined", "cells-split", "types", "spacing"])
def test_vtk_reader_accepts_any_wrapping(tmp_path, old, new):
    assert VTK.count(old) == 1
    mesh = load_mesh(_write(tmp_path, VTK.replace(old, new), "in.vtk"))
    assert _vtk_mesh_lists(mesh) == _vtk_mesh_lists(load_mesh(_write(tmp_path, VTK, "ref.vtk")))


# (replacement applied to VTK, message, 1-based line of the error)
VTK_REJECTED = [
    ("1 0 0\n", "1 x 0\n", "malformed POINTS value", 7),
    ("1 0 0\n", "1 0 0 0\n", "too many values in POINTS", 10),
    ("POINTS 5 double", "POINTS 6 double", "malformed POINTS value", 11),
    ("4 0 1 2 3\n", "4 0 1 2 3.0\n", "malformed CELLS value", 12),
    ("4 0 1 2 3\n", "4 0 1 2 1.5\n", "malformed CELLS value", 12),
    ("4 0 1 2 3\n", "4 0 1 2 3 4\n", "too many values in CELLS", 15),
    ("4 0 1 2 3\n", "3 0 1 2 3\n", "CELLS size field disagrees with cell records", 15),
    ("4 0 1 2 3\n", "-1 0 1 2 3\n", "CELLS size field disagrees with cell records", 15),
    # a negative size must not step the walk back to a record that tiles the rest
    ("CELLS 4 18\n4 0 1 2 3\n4 1 2 3 4\n3 0 1 2\n3 1 3 2\nCELL_TYPES 4\n10\n10\n5\n5\n",
     "CELLS 2 2\n-2 2\nCELL_TYPES 2\n10\n10\n", "CELLS size field disagrees with cell records", 12),
    ("CELLS 4 18", "CELLS 5 18", "CELLS size field disagrees with cell records", 15),
    ("4 0 1 2 3\n", "4 0 1 2 9\n", "cell vertex index out of range 0..4", 16),
    ("CELL_TYPES 4", "CELL_TYPES 3", "CELL_TYPES count disagrees with CELLS", 16),
    ("CELL_TYPES 4", "CELL_TYPES 5", "unexpected end of file inside CELL_TYPES", 20),
    ("10\n10\n", "10\nx\n", "malformed CELL_TYPES value", 18),
    ("10\n10\n", "10\n12\n", "unsupported VTK cell type 12", 16),
    ("10\n10\n", "5\n10\n", "triangle cell without 3 points", 16),
    ("5\n5\n", "5\n10\n", "tetra cell without 4 points", 16),
    ("POINTS 5 double", "POINTS", "missing count after 'POINTS'", 5),
    ("POINTS 5 double", "POINTS abc double", "bad count 'abc' after 'POINTS'", 5),
    ("POINTS 5 double", "POINTS -5 double", "bad count '-5' after 'POINTS'", 5),
    ("CELLS 4 18", "CELLS", "missing count after 'CELLS'", 11),
    ("CELLS 4 18", "CELLS 4", "missing size after 'CELLS'", 11),
    ("CELLS 4 18", "CELLS 4 1e1", "bad size '1e1' after 'CELLS'", 11),
    ("CELL_TYPES 4", "CELL_TYPES", "missing count after 'CELL_TYPES'", 16),
    ("CELL_TYPES 4", "CELL_TYPES 4.0", "bad count '4.0' after 'CELL_TYPES'", 16),
    ("# vtk DataFile Version 3.0\n", "vtk DataFile Version 3.0\n", "expected '# vtk DataFile' header", 1),
    ("ASCII\n", "BINARY\n", "only ASCII VTK files supported", 3),
    ("DATASET UNSTRUCTURED_GRID", "DATASET POLYDATA", "expected 'DATASET UNSTRUCTURED_GRID'", 4),
    ("POINTS 5 double", "VERTICES 5 double", "expected POINTS section", 5),
    ("CELLS 4 18", "POLYGONS 4 18", "expected CELLS section", 11),
    ("CELL_TYPES 4", "CELL_DATA 4", "expected CELL_TYPES section", 16),
]


@pytest.mark.parametrize("old,new,message,line", VTK_REJECTED, ids=[
    "malformed-coordinate", "too-many-points", "eof-in-points", "float-index", "fractional-index",
    "too-many-cell-values", "size-field", "negative-size", "size-steps-back", "cell-count", "index-range", "type-count", "eof-in-types",
    "malformed-type", "unknown-type", "triangle-size", "tetra-size", "points-count-missing",
    "points-count-word", "points-count-negative", "cells-count-missing", "cells-size-missing",
    "cells-size-float", "types-count-missing", "types-count-float", "no-header", "binary", "not-unstructured",
    "no-points-header", "no-cells-header", "no-types-header"])
def test_vtk_reader_rejects_with_line(tmp_path, old, new, message, line):
    assert VTK.count(old) == 1
    with pytest.raises(MeshFormatError) as info:
        load_mesh(_write(tmp_path, VTK.replace(old, new), "in.vtk"))
    assert info.value.line == line
    assert str(info.value) == f"{message} (line {line})"


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("text,name", [(ACCEPTED, "in.mesh"), (VTK, "in.vtk")], ids=["medit", "vtk"])
def test_other_line_ends_read_as_newlines(tmp_path, text, name, newline):
    mesh = load_mesh(_write(tmp_path, text.replace("\n", newline), name))
    reference = load_mesh(_write(tmp_path, text, "ref" + name[2:]))
    for attr in ("vertices", "tets", "surface_tris", "vertex_refs", "tet_refs", "tri_refs"):
        assert np.array_equal(getattr(mesh, attr), getattr(reference, attr)), attr


def test_non_ascii_utf8_comment_is_read(tmp_path):
    path = tmp_path / "in.mesh"
    path.write_bytes(ACCEPTED.replace("# written by hand", "# écrit à la main").encode("utf-8"))
    assert load_mesh(path).tets.tolist() == [[0, 1, 2, 3], [1, 2, 3, 4]]


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_bytes_that_are_not_utf8_name_their_line(tmp_path, newline):
    path = tmp_path / "in.mesh"
    path.write_bytes((ACCEPTED + "# trailing line\n").replace("\n", newline).encode() + b"\xff\xfe" + newline.encode())
    with pytest.raises(MeshFormatError) as info:
        load_mesh(path)
    assert str(info.value) == "file is not UTF-8 text (line 31)"


# (file name, fmt, message); {path} is the file's path
UNKNOWN_FORMATS = [
    ("in.obj", None, "cannot infer mesh format from extension '.obj' of {path}"),
    ("in", None, "cannot infer mesh format from extension '' of {path}"),
    ("in.mesh", "obj", "unknown mesh format 'obj'"),
]


@pytest.mark.parametrize("name,fmt,message", UNKNOWN_FORMATS, ids=["extension", "no-extension", "fmt"])
@pytest.mark.parametrize("call", ["load", "save"])
def test_unknown_format_is_rejected_before_any_file_is_touched(tmp_path, corner_tet, call, name, fmt, message):
    path = tmp_path / name
    with pytest.raises(MeshFormatError) as info:
        if call == "load":
            load_mesh(path, fmt)
        else:
            save_mesh(TetMesh(vertices=corner_tet, tets=np.array([[0, 1, 2, 3]])), path, fmt)
    assert str(info.value) == message.format(path=path)
    assert list(tmp_path.iterdir()) == []


def test_write_that_raises_leaves_no_temp_file(tmp_path):
    def chunks():
        yield "partial\n"
        raise RuntimeError("writer failed")

    path = tmp_path / "out.mesh"
    path.write_text("old\n")
    with pytest.raises(RuntimeError, match="writer failed"):
        atomic_write_text(path, chunks())
    assert [p.name for p in tmp_path.iterdir()] == ["out.mesh"]
    assert path.read_text() == "old\n"


# (mode of the file replaced, or None for a new file; the mode written)
WRITE_MODES = [(None, 0o644), (0o640, 0o640), (0o600, 0o600), (0o664, 0o664)]


@pytest.mark.parametrize("before,after", WRITE_MODES, ids=["new", "0640", "0600", "0664"])
def test_write_leaves_the_mode_a_plain_write_would(tmp_path, umask_022, before, after):
    path = tmp_path / "out.json"
    if before is not None:
        path.write_text("old\n")
        path.chmod(before)
    atomic_write_text(path, ["new\n"])
    assert stat.S_IMODE(path.stat().st_mode) == after
    assert path.read_text() == "new\n"


def test_vtk_reader_matches_medit_reader(tmp_path):
    mesh = generate_test_mesh("sphere", 4, seed=2, jitter=0.2)
    build_topology(mesh)
    save_mesh(mesh, tmp_path / "ball.mesh")
    save_mesh(mesh, tmp_path / "ball.vtk")
    medit, vtk = load_mesh(tmp_path / "ball.mesh"), load_mesh(tmp_path / "ball.vtk")
    for name in ("vertices", "tets", "surface_tris"):
        assert np.array_equal(getattr(vtk, name), getattr(medit, name)), name
        assert getattr(vtk, name).dtype == getattr(medit, name).dtype, name


# --- writers -------------------------------------------------------------------

def _reference_medit(mesh):
    """The row-by-row f-string Medit writer that the block writer replaced."""
    g = "{:.17g}".format
    out = ["MeshVersionFormatted 2", "Dimension 3", "Vertices", str(mesh.num_vertices)]
    for p, r in zip(mesh.vertices, mesh.vertex_refs):
        out.append(f"{g(p[0])} {g(p[1])} {g(p[2])} {r}")
    if len(mesh.surface_tris):
        out += ["Triangles", str(len(mesh.surface_tris))]
        for t, r in zip(mesh.surface_tris + 1, mesh.tri_refs):
            out.append(f"{t[0]} {t[1]} {t[2]} {r}")
    out += ["Tetrahedra", str(mesh.num_tets)]
    for t, r in zip(mesh.tets + 1, mesh.tet_refs):
        out.append(f"{t[0]} {t[1]} {t[2]} {t[3]} {r}")
    out.append("End")
    return "\n".join(out) + "\n"


def _reference_vtk(mesh):
    """The row-by-row f-string VTK writer that the block writer replaced."""
    g = "{:.17g}".format
    out = ["# vtk DataFile Version 3.0", "tetforge mesh", "ASCII", "DATASET UNSTRUCTURED_GRID",
           f"POINTS {mesh.num_vertices} double"]
    for p in mesh.vertices:
        out.append(f"{g(p[0])} {g(p[1])} {g(p[2])}")
    ncells = mesh.num_tets + len(mesh.surface_tris)
    out.append(f"CELLS {ncells} {5 * mesh.num_tets + 4 * len(mesh.surface_tris)}")
    for t in mesh.tets:
        out.append(f"4 {t[0]} {t[1]} {t[2]} {t[3]}")
    for t in mesh.surface_tris:
        out.append(f"3 {t[0]} {t[1]} {t[2]}")
    out.append(f"CELL_TYPES {ncells}")
    out += ["10"] * mesh.num_tets + ["5"] * len(mesh.surface_tris)
    return "\n".join(out) + "\n"


def _awkward_mesh():
    """A mesh larger than one write block, with awkward coordinates and refs."""
    mesh = generate_test_mesh("grid", 10, seed=3, jitter=0.2)
    build_topology(mesh)
    mesh.vertices[:6] = [[-0.0, 1e-300, 1e300], [5e-324, -1e-300, -1e300], [0.1, 1 / 3, -2 / 3],
                         [1.0, -1.0, 2.0 ** 60], [np.pi, -np.e, 1e16], [123456789.123, -0.5, 1e-5]]
    rng = np.random.default_rng(0)
    mesh.vertex_refs = rng.integers(-10 ** 12, 10 ** 12, mesh.num_vertices)
    mesh.tet_refs = rng.integers(-5, 6, mesh.num_tets)
    mesh.tri_refs = rng.integers(1, 4, len(mesh.surface_tris))
    return mesh


@pytest.mark.parametrize("fmt", ["medit", "vtk"])
def test_block_writer_matches_row_reference(fmt):
    mesh = _awkward_mesh()
    writer, reference = {"medit": (_format_medit, _reference_medit), "vtk": (_format_vtk, _reference_vtk)}[fmt]
    assert "".join(writer(mesh)) == reference(mesh)


def test_writers_without_surface_triangles():
    mesh = TetMesh(vertices=np.eye(4, 3), tets=np.array([[0, 1, 2, 3]]), tet_refs=np.array([9]))
    assert "".join(_format_medit(mesh)) == _reference_medit(mesh)
    assert "".join(_format_vtk(mesh)) == _reference_vtk(mesh)
