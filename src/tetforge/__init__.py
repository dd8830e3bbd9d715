"""tetforge: tetrahedral mesh quality improvement.

Raises the quality of the worst elements of a tet mesh by damped Newton
minimization of a log-barrier objective over the volume-length quality
measure, patch by patch, with optional surface-vertex motion constrained to
preserve the discretized domain geometry and volume.

The top level exports what a run needs; the building blocks stay in their
submodules (tetforge.barrier, tetforge.constraints, tetforge.solver, ...).
"""

from tetforge.driver import OptimizationReport, RunConfig, optimize_mesh
from tetforge.errors import (
    BarrierViolationError,
    DegenerateTetError,
    MeshFormatError,
    MeshStructureError,
    NoProgressError,
    TetForgeError,
)
from tetforge.fixtures import generate_test_mesh
from tetforge.io import load_mesh, save_mesh
from tetforge.mesh import TetMesh, VertexClass
from tetforge.metrics import GlobalMetrics
from tetforge.topology import build_topology

__version__ = "0.1.0"

__all__ = [
    "BarrierViolationError",
    "DegenerateTetError",
    "GlobalMetrics",
    "MeshFormatError",
    "MeshStructureError",
    "NoProgressError",
    "OptimizationReport",
    "RunConfig",
    "TetForgeError",
    "TetMesh",
    "VertexClass",
    "__version__",
    "build_topology",
    "generate_test_mesh",
    "load_mesh",
    "optimize_mesh",
    "save_mesh",
]
