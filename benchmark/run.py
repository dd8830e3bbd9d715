#!/usr/bin/env python3
"""tetforge benchmark: time one workload end to end and check every output.

    python3 benchmark/run.py --workload grid-merged --seed 1 --seconds 36 --trace 0

One operation is one repetition of the workload in the order the CLI uses:
load_mesh -> validate -> build_topology (together: set-up, done SETUPS
times, the last mesh is kept) -> optimize_mesh -> save_mesh, followed by
the checks in checks.py.  After one untimed set-up that warms the process,
repetitions run in this one process until --seconds have passed.  The last line of standard output is a JSON object
with `correct`, `attempted`, `failed` and `metrics`; the metric names and
units are the ones BENCHMARK.json lists, end-to-end ones with --trace 0
and per-layer ones with --trace 1.

With --trace 1 the repetitions alternate between untraced and traced
ones.  Traced repetitions wrap tetforge's module attributes (tracing.py)
and report the per-layer medians; trace.overhead_s is the traced minus
the untraced median improve time.
"""

import os

# One BLAS thread: on two cores a second OpenBLAS thread was no faster on
# the merged-patch workload and spread wider.  Must precede numpy's import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
sys.path.insert(0, str(SOURCE))

try:
    import tetforge
    import tracing
except ImportError as exc:
    sys.exit(f"benchmark: cannot import tetforge from {SOURCE}: {exc}")
import checks  # noqa: E402
from workloads import WORKLOADS, canonical_mesh, check_fingerprint, fingerprint, seeded_input  # noqa: E402

SETUPS = 2  # set-ups per repetition; setup_s is the median over all of them


class Bench:
    """Runs repetitions of one workload on one generated input file."""

    def __init__(self, workload, input_path: Path, output_path: Path):
        self.config = tetforge.RunConfig(**workload.config)
        self.input_path = input_path
        self.output_path = output_path
        self.first_hash = None

    def setup(self):
        """load_mesh + validate + build_topology; returns mesh, adjacency, per-layer seconds."""
        t0 = time.perf_counter()
        mesh = tetforge.load_mesh(self.input_path)
        t1 = time.perf_counter()
        mesh.validate()
        t2 = time.perf_counter()
        adjacency = tetforge.build_topology(mesh, self.config.feature_angle_deg)
        t3 = time.perf_counter()
        return mesh, adjacency, {"io.load_s": t1 - t0, "mesh.validate_s": t2 - t1, "topology.build_s": t3 - t2}

    def repetition(self, tracer=None) -> dict:
        """One operation; raises checks.CheckFailed on a wrong output."""
        setup_layers = []
        for _ in range(SETUPS):
            mesh = adjacency = None  # drop the previous set-up before timing the next
            mesh, adjacency, layers = self.setup()
            setup_layers.append(layers)
        vertices_in = mesh.vertices.copy()
        tets_in = mesh.tets.copy()
        classes_in = mesh.vertex_class.copy()
        snapshots = []

        def on_pass(record):
            snapshots.append(mesh.vertices.copy())

        if tracer is None:
            t0 = time.perf_counter()
            report = tetforge.optimize_mesh(mesh, self.config, adjacency=adjacency, on_pass=on_pass)
            improve_s = time.perf_counter() - t0
        else:
            with tracing.instrument(tracer):
                t0 = time.perf_counter()
                with tracer.span("driver.improve"):
                    report = tetforge.optimize_mesh(mesh, self.config, adjacency=adjacency, on_pass=on_pass)
                improve_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        tetforge.save_mesh(mesh, self.output_path)
        save_s = time.perf_counter() - t0

        checks.check_connectivity(tets_in, mesh.tets)
        checks.check_positive_volumes(mesh.vertices, mesh.tets)
        q_initial = float(checks.qualities(vertices_in[tets_in]).min())
        if q_initial > 0.0:
            checks.check_passes_valid(snapshots, mesh.tets)
        q_min, min_dihedral, max_dihedral = checks.check_report(mesh.vertices, mesh.tets, report.final_metrics)
        checks.check_improved(q_initial, q_min)
        faces = checks.boundary_faces(mesh.tets)
        if self.config.surface_motion:
            checks.check_volume_drift(vertices_in, mesh.vertices, faces)
            pinned = (classes_in == tetforge.VertexClass.CORNER) | (classes_in == tetforge.VertexClass.USER_FIXED)
            checks.check_vertices_fixed(vertices_in, mesh.vertices, np.flatnonzero(pinned), "corner")
        else:
            checks.check_vertices_fixed(vertices_in, mesh.vertices, np.unique(faces), "boundary")
        checks.check_round_trip(tetforge.load_mesh(self.output_path), mesh)
        digest = fingerprint(mesh)
        if self.first_hash is None:
            self.first_hash = digest
        elif digest != self.first_hash:
            raise checks.CheckFailed(f"output {digest} differs from the first repetition's {self.first_hash}")

        layers = tracing.layer_metrics(tracer, report) if tracer is not None else {}
        for name in setup_layers[0]:
            layers[name] = statistics.median(s[name] for s in setup_layers)
        layers["io.save_s"] = save_s
        layers["io.file_bytes"] = self.output_path.stat().st_size
        return {
            "setup_s": [sum(s.values()) for s in setup_layers],
            "improve_s": improve_s,
            "q_min_final": q_min,
            "min_dihedral_deg": min_dihedral,
            "max_dihedral_deg": max_dihedral,
            "layers": layers,
        }


def measure(bench: Bench, seconds: float, trace: bool) -> tuple:
    """Repeat whole rounds until `seconds` have passed; returns (outcomes, attempted, failed, correct).

    A round is one repetition, or with tracing an untraced and a traced one.
    """
    outcomes = {"plain": [], "traced": []}
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    while True:
        for kind in ("plain", "traced") if trace else ("plain",):
            attempted += 1
            try:
                outcomes[kind].append(bench.repetition(tracing.Tracer() if kind == "traced" else None))
            except checks.CheckFailed as exc:
                failed += 1
                correct = False
                print(f"check failed: {exc}", file=sys.stderr)
            except Exception:  # an operation that raises counts as failed; the run goes on
                failed += 1
                traceback.print_exc()
        if time.perf_counter() - start >= seconds:
            return outcomes, attempted, failed, correct


def end_to_end(outcomes: list) -> dict:
    """Medians of the timings; the quality figures are the same in every
    repetition, since each one's output hash is checked against the first."""
    return {
        "setup_s": statistics.median(t for o in outcomes for t in o["setup_s"]),
        "improve_s": statistics.median(o["improve_s"] for o in outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "q_min_final": outcomes[0]["q_min_final"],
        "min_dihedral_deg": outcomes[0]["min_dihedral_deg"],
        "max_dihedral_deg": outcomes[0]["max_dihedral_deg"],
    }


def per_layer(outcomes: dict) -> dict:
    values = tracing.median_metrics([o["layers"] for o in outcomes["traced"]])
    values["trace.overhead_s"] = (statistics.median(o["improve_s"] for o in outcomes["traced"])
                                  - statistics.median(o["improve_s"] for o in outcomes["plain"]))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if Path(tetforge.__file__).resolve().parent != SOURCE / "tetforge":
            raise RuntimeError(f"tetforge imported from {tetforge.__file__}, not from {SOURCE}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        workload = WORKLOADS[args.workload]
        canonical = canonical_mesh(workload)
        check_fingerprint(workload, canonical)
    except (OSError, RuntimeError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    runs = HERE / "_runs"
    runs.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}.", dir=runs))
    try:
        input_path = work / "input.mesh"
        tetforge.save_mesh(seeded_input(canonical, args.seed), input_path)
        bench = Bench(workload, input_path, work / "output.mesh")
        bench.setup()  # untimed: the first set-up of a process is cold, setup_s is the warm figure
        outcomes, attempted, failed, correct = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not outcomes["plain"] or (args.trace and not outcomes["traced"]):
        print("benchmark: no repetition succeeded", file=sys.stderr)
        return 1
    if args.trace:
        values, listed = per_layer(outcomes), spec["per_layer"]
    else:
        values, listed = end_to_end(outcomes["plain"]), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    print(f"workload {workload.name} seed {args.seed}: {attempted} repetitions, {failed} failed, "
          f"output sha256 {bench.first_hash}")
    improve = [o["improve_s"] for o in outcomes["plain"]]
    print("  improve_s of each untraced repetition: " + " ".join(f"{t:.4f}" for t in improve))
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
