"""Command-line front end.

    tetforge in.mesh -o out.mesh --target-quality 0.3 \
        --barrier-schedule 0.75,0.85,0.95 --histogram h.csv --report r.json

Exit codes: 0 success, 1 I/O or parse error, 2 structural mesh error,
3 invalid flags.  Output files are written to a temp file and renamed, so
an interrupted run never leaves a half-written mesh.  TETFORGE_LOG selects
the log level (error, info, debug).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from tetforge.driver import RunConfig, optimize_mesh
from tetforge.errors import MeshFormatError, TetForgeError
from tetforge.io import FORMATS, atomic_write_text, infer_format, load_mesh, save_mesh
from tetforge.mesh import VertexClass
from tetforge.metrics import HISTOGRAM_BINS
from tetforge.topology import build_topology

logger = logging.getLogger("tetforge")

EXIT_OK = 0
EXIT_IO = 1
EXIT_STRUCTURE = 2
EXIT_USAGE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tetforge", description="Improve the worst elements of a tetrahedral mesh.")
    parser.add_argument("input", help="input mesh (.mesh Medit or .vtk legacy)")
    parser.add_argument("-o", "--output", help="output mesh path")
    parser.add_argument("--format", choices=FORMATS, help="force input/output format")
    defaults = RunConfig()
    parser.add_argument("--target-quality", type=float, default=defaults.target_quality, metavar="F",
                        help="patch selection threshold (default %(default)s)")
    parser.add_argument("--barrier-schedule", default=",".join(map(str, defaults.b_schedule)), metavar="F[,F...]",
                        help="comma-separated barrier constants in (0,1) (default %(default)s)")
    parser.add_argument("--max-passes", type=int, default=defaults.max_passes, metavar="N",
                        help="pass cap per barrier constant (default %(default)s)")
    parser.add_argument("--feature-angle", type=float, default=defaults.feature_angle_deg, metavar="DEG",
                        help="crease detection threshold (default %(default)s)")
    parser.add_argument("--no-surface-motion", action="store_true",
                        help="keep every surface vertex fixed")
    parser.add_argument("--all-patches", action="store_true",
                        help="sweep every element instead of only below-target ones")
    parser.add_argument("--fix", action="append", type=int, default=[], metavar="REF",
                        help="fix vertices whose file reference equals REF (repeatable)")
    parser.add_argument("--histogram", metavar="PATH", help="write final dihedral histogram CSV")
    parser.add_argument("--report", metavar="PATH", help="write run report JSON")
    parser.add_argument("--in-place", action="store_true", help="allow output to overwrite the input")
    return parser


def _parse_schedule(text: str) -> tuple:
    try:
        values = tuple(float(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise _UsageError(f"bad barrier schedule {text!r}") from None
    if not values:
        raise _UsageError("barrier schedule is empty")
    return values


def _histogram_csv(histogram) -> str:
    lines = ["bin_start_deg,bin_end_deg,count"]
    for i in range(HISTOGRAM_BINS):
        lines.append(f"{10 * i},{10 * (i + 1)},{histogram[i]}")
    return "\n".join(lines) + "\n"


def _print_pass(record) -> None:
    print(
        f"pass {record.pass_index} (b={record.b:.2f}): "
        f"q_min={record.q_min:.6f} dihedral=[{record.min_dihedral_deg:.2f}, "
        f"{record.max_dihedral_deg:.2f}] drift={record.drift_percent:.6f}% "
        f"{record.elapsed_s:.3f}s"
    )


def run_cli(argv=None) -> int:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("TETFORGE_LOG", "error").lower(), logging.ERROR)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")

    try:
        args = build_parser().parse_args(argv)
        schedule = _parse_schedule(args.barrier_schedule)
        if args.output is None:
            if not args.in_place:
                raise _UsageError("an output path (-o) is required unless --in-place is given")
            args.output = args.input
        if os.path.abspath(args.output) == os.path.abspath(args.input) and not args.in_place:
            raise _UsageError("output would overwrite the input; pass --in-place to allow")
        config = RunConfig(
            b_schedule=schedule,
            target_quality=args.target_quality,
            max_passes=args.max_passes,
            mode="all-patches" if args.all_patches else "selective",
            surface_motion=not args.no_surface_motion,
            feature_angle_deg=args.feature_angle,
        )
        config.validate()
    except (_UsageError, ValueError) as exc:
        print(f"tetforge: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        # an output path that names no format fails here, before any work
        output_format = args.format or infer_format(args.output)
        mesh = load_mesh(args.input, args.format)
        mesh.validate()
        adjacency = build_topology(mesh, config.feature_angle_deg)
        if args.fix:
            fixed = np.isin(mesh.vertex_refs, np.asarray(args.fix))
            mesh.vertex_class[fixed] = VertexClass.USER_FIXED
            logger.info("fixed %d vertices by reference", int(fixed.sum()))

        report = optimize_mesh(mesh, config, adjacency=adjacency, on_pass=_print_pass)

        save_mesh(mesh, args.output, output_format)
        if args.histogram:
            atomic_write_text(args.histogram, [_histogram_csv(report.final_metrics.dihedral_histogram)])
        if args.report:
            atomic_write_text(args.report, [json.dumps(report.to_dict(), indent=2) + "\n"])
    except (MeshFormatError, OSError) as exc:
        print(f"tetforge: {exc}", file=sys.stderr)
        return EXIT_IO
    except TetForgeError as exc:
        print(f"tetforge: {exc}", file=sys.stderr)
        return EXIT_STRUCTURE

    final = report.final_metrics
    print(
        f"done: q_min={final.q_min:.6f} dihedral=[{final.min_dihedral_deg:.2f}, "
        f"{final.max_dihedral_deg:.2f}] drift={report.volume_drift_percent:.6f}% "
        f"{report.elapsed_s:.3f}s"
    )
    return EXIT_OK


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
