"""Medit (.mesh) and legacy-VTK (.vtk) readers and writers.

Indices are 1-based on disk for Medit and 0-based for VTK; in memory both
map to 0-based TetMesh connectivity.  Coordinates are printed with 17
significant digits, which round-trips float64 exactly.  Files are read and
written as UTF-8 whatever the locale.  Writers go through a temp file in
the destination directory followed by an atomic rename.
"""

from __future__ import annotations

import os
import stat
import tempfile
import warnings
from itertools import compress
from pathlib import Path

import numpy as np

from tetforge.errors import MeshFormatError
from tetforge.mesh import TetMesh

_VTK_TET = 10
_VTK_TRI = 5


def infer_format(path) -> str:
    ext = Path(path).suffix.lower()
    if ext not in _EXTENSIONS:
        raise MeshFormatError(f"cannot infer mesh format from extension {ext!r} of {path}")
    return _EXTENSIONS[ext]


def _codec(path, fmt: str | None):
    """(reader, writer) of format fmt or, when fmt is None, of the format path's extension names."""
    fmt = fmt or infer_format(path)
    if fmt not in _CODECS:
        raise MeshFormatError(f"unknown mesh format {fmt!r}")
    return _CODECS[fmt]


def load_mesh(path, fmt: str | None = None) -> TetMesh:
    """Read a tetrahedral mesh; fmt is 'medit', 'vtk', or None to infer."""
    return _codec(path, fmt)[0](path)


def save_mesh(mesh: TetMesh, path, fmt: str | None = None) -> None:
    """Write a mesh atomically; fmt is 'medit', 'vtk', or None to infer."""
    mesh.validate()
    atomic_write_text(path, _codec(path, fmt)[1](mesh))


def atomic_write_text(path, chunks) -> None:
    """Write an iterable of str chunks, in order, as UTF-8 through a temp file and a rename.

    The file gets the mode a plain write would leave: that of the file it
    replaces, or 0o666 less the umask for a new one (the temp file is
    created 0o600).  Reading the umask sets it to 0 for an instant, which
    another thread creating a file at that instant would see.  An OSError
    names the requested path, not the temp file, and keeps its errno.
    """
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                umask = os.umask(0)  # reading the umask means setting it; put it back at once
                os.umask(umask)
                os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode) if path.exists() else 0o666 & ~umask)
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


# Rows formatted per string; bounds the text held in memory while writing.
_BLOCK_ROWS = 4096


def _format_rows(row_format: str, *columns):
    """Yield the rows of (n,) or (n, k) column arrays, _BLOCK_ROWS rows a string.

    The values reach '%' formatting as Python numbers, so '%.17g' prints a
    float64 exactly as f'{x:.17g}' does and '%d' an int64 as str() does.
    """
    columns = [c if c.ndim == 2 else c[:, None] for c in columns]
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        block = np.hstack([c[start:start + _BLOCK_ROWS].astype(object) for c in columns])
        yield (row_format * len(block)) % tuple(block.ravel().tolist())


class _Lines:
    """Cursor over the non-blank lines of a text file, with 1-based line numbers.

    Medit files may carry '#' comments; VTK must keep them (its header line
    starts with one).  pos is the number of the line last read, or of the
    last line once the file is exhausted.
    """

    def __init__(self, path, strip_comments=True):
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            text = raw.decode("utf-8")  # on every locale
        except UnicodeDecodeError as exc:
            # the bad byte lies on the last line of the bytes before it followed by one more
            line = len((raw[:exc.start] + b".").splitlines())
            raise MeshFormatError("file is not UTF-8 text", line=line) from None
        if "\r" in text:  # the other line ends a text-mode read accepts
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        self.lines = text.split("\n")
        if self.lines[-1] == "":
            self.lines.pop()  # the text after the final newline is no line
        if strip_comments and "#" in text:
            self.lines = [line.split("#", 1)[0] for line in self.lines]
        # a line is blank when stripping leaves it empty
        self.nonblank = list(compress(range(len(self.lines)), map(str.strip, self.lines)))
        self.taken = 0
        self.pos = 0

    def records(self, count: int):
        """The next count non-blank lines (fewer at end of file) and their 0-based indices."""
        ids = self.nonblank[self.taken:self.taken + count]
        self.taken += len(ids)
        if len(ids) < count:
            self.pos = len(self.lines)
        elif ids:
            self.pos = ids[-1] + 1
        return [self.lines[i] for i in ids], ids

    def next_tokens(self):
        """The tokens of the next non-blank line (None at end of file) and its 1-based number."""
        rows, _ = self.records(1)
        return (rows[0].split() if rows else None), self.pos


# --- Medit ---------------------------------------------------------------

# Sections we skip: keyword followed by a count and that many records.
_MEDIT_SKIP = {"Edges", "Corners", "RequiredVertices", "Ridges",
               "Quadrilaterals", "Hexahedra", "Normals", "Tangents"}


def _medit_count(cursor: _Lines, tokens, lineno: int, keyword: str) -> int:
    if len(tokens) > 1:
        value, where = tokens[1], lineno
    else:
        nxt, where = cursor.next_tokens()
        if nxt is None:
            raise MeshFormatError(f"missing count after {keyword!r}", line=lineno)
        value = nxt[0]
    return _parse_count(value, keyword, where)


def _parse_count(value: str, keyword: str, lineno: int, name: str = "count") -> int:
    """A section header's count, a non-negative integer."""
    try:
        count = int(value)
    except ValueError:
        count = -1
    if count < 0:
        raise MeshFormatError(f"bad {name} {value!r} after {keyword!r}", line=lineno)
    return count


def _loadtxt(rows, dtype, **kwargs):
    """np.loadtxt of whitespace-separated rows without comments, raising ValueError on any bad field."""
    with warnings.catch_warnings():
        # numpy releases that still parse an integer field such as '1.5' via
        # a float and truncate it only warn; make that a parse error
        warnings.filterwarnings("error", message=".*integer via a float", category=DeprecationWarning)
        return np.loadtxt(rows, dtype=dtype, comments=None, ndmin=1, **kwargs)


def _parse_records(rows, width: int, dtype):
    """width fields of dtype and an optional ref (0 when absent) from each row.

    Raises ValueError on a row with fewer than width fields or with a field
    or ref that does not parse; fields after the ref are ignored.  A ref may
    be written as a float and is truncated toward zero.
    """
    if not rows:
        return np.zeros((0, width), dtype=dtype), np.zeros(0, dtype=np.int64)
    record = np.dtype([("fields", dtype, (width,)), ("ref", np.float64)])
    # the appended 0 is the ref of a row that has none, and an ignored
    # extra field of a row that has one
    table = _loadtxt([row + " 0" for row in rows], record, usecols=range(width + 1))
    refs = table["ref"]
    if not np.all(np.abs(refs) < 2.0 ** 63):
        raise ValueError("ref is not a finite int64")
    return table["fields"], refs.astype(np.int64)


def _medit_records(cursor: _Lines, count: int, width: int, dtype, keyword: str):
    """(fields, refs, 0-based line indices) of the next count records of a section."""
    rows, ids = cursor.records(count)
    try:
        fields, refs = _parse_records(rows, width, dtype)
    except ValueError:
        for row, i in zip(rows, ids):  # row by row only to name the first bad line
            if len(row.split()) < width:
                raise MeshFormatError(f"expected at least {width} fields in {keyword!r} record",
                                      line=i + 1) from None
            try:
                _parse_records([row], width, dtype)
            except ValueError:
                raise MeshFormatError(f"malformed {keyword!r} record", line=i + 1) from None
        raise
    if len(rows) < count:
        raise MeshFormatError(f"unexpected end of file inside {keyword!r}", line=cursor.pos)
    return fields, refs, ids


def _check_indices(elements, ids, nv: int, what: str) -> None:
    bad_rows = np.flatnonzero(((elements < 0) | (elements >= nv)).any(axis=1))
    if bad_rows.size:
        raise MeshFormatError(f"{what} vertex index out of range 1..{nv}", line=ids[bad_rows[0]] + 1)


def _load_medit(path) -> TetMesh:
    cursor = _Lines(path)
    tokens, lineno = cursor.next_tokens()
    if tokens is None or tokens[0] != "MeshVersionFormatted":
        raise MeshFormatError("expected 'MeshVersionFormatted' header", line=lineno)
    vertices = tets = tris = None
    vrefs = trefs = srefs = None
    while True:
        tokens, lineno = cursor.next_tokens()
        if tokens is None:
            break
        keyword = tokens[0]
        if keyword == "End":
            break
        if keyword == "Dimension":
            dim = _medit_count(cursor, tokens, lineno, keyword)
            if dim != 3:
                raise MeshFormatError(f"only Dimension 3 supported, got {dim}", line=lineno)
        elif keyword == "Vertices":
            count = _medit_count(cursor, tokens, lineno, keyword)
            vertices, vrefs, _ = _medit_records(cursor, count, 3, np.float64, keyword)
        elif keyword == "Tetrahedra":
            count = _medit_count(cursor, tokens, lineno, keyword)
            tets, trefs, tet_lines = _medit_records(cursor, count, 4, np.int64, keyword)
            tets = tets - 1
        elif keyword == "Triangles":
            count = _medit_count(cursor, tokens, lineno, keyword)
            tris, srefs, tri_lines = _medit_records(cursor, count, 3, np.int64, keyword)
            tris = tris - 1
        elif keyword in _MEDIT_SKIP:
            cursor.records(_medit_count(cursor, tokens, lineno, keyword))
        else:
            raise MeshFormatError(f"unrecognized Medit keyword {keyword!r}", line=lineno)
    if vertices is None:
        raise MeshFormatError("file has no Vertices section", line=lineno)
    if tets is None:
        raise MeshFormatError("file has no Tetrahedra section", line=lineno)
    nv = len(vertices)
    _check_indices(tets, tet_lines, nv, "tetrahedron")
    if tris is not None:
        _check_indices(tris, tri_lines, nv, "triangle")
    return TetMesh(
        vertices=vertices,
        tets=tets,
        surface_tris=tris if tris is not None else np.zeros((0, 3), dtype=np.int64),
        vertex_refs=vrefs,
        tet_refs=trefs,
        tri_refs=srefs,
    )


def _format_medit(mesh: TetMesh):
    """The Medit text of a mesh, as an iterator of str chunks."""
    yield f"MeshVersionFormatted 2\nDimension 3\nVertices\n{mesh.num_vertices}\n"
    yield from _format_rows("%.17g %.17g %.17g %d\n", mesh.vertices, mesh.vertex_refs)
    if len(mesh.surface_tris):
        yield f"Triangles\n{len(mesh.surface_tris)}\n"
        yield from _format_rows("%d %d %d %d\n", mesh.surface_tris + 1, mesh.tri_refs)
    yield f"Tetrahedra\n{mesh.num_tets}\n"
    yield from _format_rows("%d %d %d %d %d\n", mesh.tets + 1, mesh.tet_refs)
    yield "End\n"


# --- VTK legacy ----------------------------------------------------------

def _vtk_count(tokens, lineno: int, k: int, name: str = "count") -> int:
    """Token k of a VTK section header line, a non-negative integer."""
    if len(tokens) <= k:
        raise MeshFormatError(f"missing {name} after {tokens[0]!r}", line=lineno)
    return _parse_count(tokens[k], tokens[0], lineno, name)


def _vtk_values(cursor: _Lines, rows: int, count: int, dtype, what: str) -> np.ndarray:
    """The next count values of a VTK section, flat, in file order.

    Values may wrap across lines in any way.  The next rows lines, which
    hold count values when the section has one record a line, are parsed in
    one go; when they hold another number of values or one does not parse,
    the section is read again a line at a time to name the bad line.
    """
    mark = cursor.taken, cursor.pos
    lines, _ = cursor.records(rows)
    try:
        values = _loadtxt([" ".join(lines)], dtype) if lines else np.zeros(0, dtype=dtype)
        if len(values) == count:
            return values
    except ValueError:
        pass
    cursor.taken, cursor.pos = mark
    parts, read = [np.zeros(0, dtype=dtype)], 0
    while read < count:
        tokens, lineno = cursor.next_tokens()
        if tokens is None:
            raise MeshFormatError(f"unexpected end of file inside {what}", line=lineno)
        try:
            parts.append(np.array(tokens, dtype=dtype))  # float() / int() of each token
        except (ValueError, OverflowError):
            raise MeshFormatError(f"malformed {what} value", line=lineno) from None
        read += len(tokens)
    if read > count:
        raise MeshFormatError(f"too many values in {what}", line=cursor.pos)
    return np.concatenate(parts)


def _cell_starts(flat: np.ndarray, ncells: int):
    """Offsets in flat of ncells records, each a size n and n point ids.

    None when the records do not tile flat exactly.
    """
    sizes = flat.tolist()
    starts, pos = [], 0
    for _ in range(ncells):
        if pos >= len(sizes) or sizes[pos] < 0:
            return None
        starts.append(pos)
        pos += 1 + sizes[pos]
    return np.array(starts, dtype=np.int64) if pos == len(sizes) else None


def _load_vtk(path) -> TetMesh:
    cursor = _Lines(path, strip_comments=False)
    header, lineno = cursor.next_tokens()
    if header is None or header[0] != "#":
        raise MeshFormatError("expected '# vtk DataFile' header", line=lineno)
    cursor.next_tokens()  # title
    encoding, lineno = cursor.next_tokens()
    if encoding is None or encoding[0].upper() != "ASCII":
        raise MeshFormatError("only ASCII VTK files supported", line=lineno)
    dataset, lineno = cursor.next_tokens()
    if dataset is None or dataset[:2] != ["DATASET", "UNSTRUCTURED_GRID"]:
        raise MeshFormatError("expected 'DATASET UNSTRUCTURED_GRID'", line=lineno)

    tokens, lineno = cursor.next_tokens()
    if tokens is None or tokens[0] != "POINTS":
        raise MeshFormatError("expected POINTS section", line=lineno)
    npts = _vtk_count(tokens, lineno, 1)
    vertices = _vtk_values(cursor, npts, 3 * npts, np.float64, "POINTS").reshape(npts, 3)

    tokens, lineno = cursor.next_tokens()
    if tokens is None or tokens[0] != "CELLS":
        raise MeshFormatError("expected CELLS section", line=lineno)
    ncells, nints = _vtk_count(tokens, lineno, 1), _vtk_count(tokens, lineno, 2, "size")
    flat = _vtk_values(cursor, ncells, nints, np.int64, "CELLS")
    starts = _cell_starts(flat, ncells)
    if starts is None:
        raise MeshFormatError("CELLS size field disagrees with cell records", line=cursor.pos)

    tokens, lineno = cursor.next_tokens()
    if tokens is None or tokens[0] != "CELL_TYPES":
        raise MeshFormatError("expected CELL_TYPES section", line=lineno)
    ntypes = _vtk_count(tokens, lineno, 1)
    types = _vtk_values(cursor, ntypes, ntypes, np.int64, "CELL_TYPES")
    if ntypes != ncells:
        raise MeshFormatError("CELL_TYPES count disagrees with CELLS", line=lineno)

    sizes = flat[starts]
    is_tet, is_tri = types == _VTK_TET, types == _VTK_TRI
    bad = ~((is_tet & (sizes == 4)) | (is_tri & (sizes == 3)))
    if bad.any():
        i = int(np.argmax(bad))
        if is_tet[i]:
            raise MeshFormatError("tetra cell without 4 points", line=lineno)
        if is_tri[i]:
            raise MeshFormatError("triangle cell without 3 points", line=lineno)
        raise MeshFormatError(f"unsupported VTK cell type {types[i]}", line=lineno)
    tets = flat[starts[is_tet, None] + np.arange(1, 5)]
    tris = flat[starts[is_tri, None] + np.arange(1, 4)]
    for cells in (tets, tris):
        if cells.size and (cells.min() < 0 or cells.max() >= npts):
            raise MeshFormatError(f"cell vertex index out of range 0..{npts - 1}", line=lineno)
    return TetMesh(vertices=vertices, tets=tets, surface_tris=tris)


def _format_vtk(mesh: TetMesh):
    """The legacy-VTK text of a mesh, as an iterator of str chunks."""
    ncells = mesh.num_tets + len(mesh.surface_tris)
    nints = 5 * mesh.num_tets + 4 * len(mesh.surface_tris)
    yield ("# vtk DataFile Version 3.0\ntetforge mesh\nASCII\nDATASET UNSTRUCTURED_GRID\n"
           f"POINTS {mesh.num_vertices} double\n")
    yield from _format_rows("%.17g %.17g %.17g\n", mesh.vertices)
    yield f"CELLS {ncells} {nints}\n"
    yield from _format_rows("4 %d %d %d %d\n", mesh.tets)
    yield from _format_rows("3 %d %d %d\n", mesh.surface_tris)
    yield f"CELL_TYPES {ncells}\n"
    yield f"{_VTK_TET}\n" * mesh.num_tets
    yield f"{_VTK_TRI}\n" * len(mesh.surface_tris)


# --- Format table ----------------------------------------------------------

_EXTENSIONS = {".mesh": "medit", ".vtk": "vtk"}
_CODECS = {"medit": (_load_medit, _format_medit), "vtk": (_load_vtk, _format_vtk)}
FORMATS = tuple(_CODECS)
