"""Exception types shared across the package."""


class TetForgeError(Exception):
    """Base class for all tetforge errors."""


class MeshFormatError(TetForgeError):
    """A mesh file could not be parsed.

    Carries the 1-based line number of the offending record when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class MeshStructureError(TetForgeError):
    """The mesh violates a structural invariant (non-manifold face, bad index)."""


class DegenerateTetError(TetForgeError):
    """An operation that requires a non-degenerate tetrahedron got a flat one."""


class BarrierViolationError(TetForgeError):
    """An element quality fell to or below the barrier level gamma."""

    def __init__(self, message: str, tet_id: int | None = None):
        super().__init__(message)
        self.tet_id = tet_id


class NoProgressError(TetForgeError):
    """The Newton system stayed singular after the maximum diagonal shift."""
