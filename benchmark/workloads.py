"""The benchmark's workloads and the inputs it generates for them.

Each workload starts from a fixed tetforge fixture, the canonical mesh,
whose SHA-256 fingerprint is stored in fingerprints.json.  A run refuses to
start when the fixture no longer hashes the same, so a change to
tetforge.fixtures or to scipy's Delaunay shows up as a changed workload
rather than as a change in speed.

The run seed then moves the canonical mesh by a random rotation and
translation and renumbers its vertices and tets.  Quality, patch selection
and the Newton steps are invariant under both, so every seed asks for the
same work while the program still sees different input bytes.

Regenerate the stored fingerprints after an intended fixture change with

    python3 benchmark/workloads.py --write-fingerprints
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FINGERPRINTS = Path(__file__).with_name("fingerprints.json")


@dataclass(frozen=True)
class Workload:
    name: str
    fixture: dict   # keyword arguments of tetforge.generate_test_mesh
    config: dict    # keyword arguments of tetforge.RunConfig


WORKLOADS = {w.name: w for w in (
    # The paper's case: a curved boundary, volume-preserving surface motion,
    # hundreds of small patches; set-up and the per-pass whole-mesh metrics
    # over 44k tets are real shares of the time.
    Workload("sphere-selective", dict(kind="sphere", n=12, seed=0),
             dict(target_quality=0.3, surface_motion=True)),
    # A classic smoother's traffic: one pass over thousands of one-element
    # patches from a tangled start, so per-patch Python overhead is nearly
    # all of the time; constraints and dense algebra are bypassed.
    Workload("grid-sweep", dict(kind="with-inverted", n=7, seed=0, jitter=0.25, k=3),
             dict(mode="all-patches", b_schedule=(0.85,), max_passes=1, surface_motion=False)),
    # Below-target seeds merge into a few patches with hundreds of free
    # vertices, so the dense Newton solve and the dense constraint
    # projection dominate time and memory.
    Workload("grid-merged", dict(kind="grid", n=8, seed=0, jitter=0.25),
             dict(target_quality=0.5, surface_motion=True)),
)}


def canonical_mesh(workload: Workload):
    from tetforge import generate_test_mesh

    return generate_test_mesh(**workload.fixture)


def fingerprint(mesh) -> str:
    """SHA-256 of the little-endian coordinates and connectivity."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(mesh.vertices, dtype="<f8").tobytes())
    digest.update(np.ascontiguousarray(mesh.tets, dtype="<i8").tobytes())
    return digest.hexdigest()


def check_fingerprint(workload: Workload, mesh) -> None:
    """Raise RuntimeError when the generated fixture differs from the stored one."""
    stored = json.loads(FINGERPRINTS.read_text())
    found = fingerprint(mesh)
    if stored.get(workload.name) != found:
        raise RuntimeError(
            f"input of workload {workload.name} changed: fingerprint {found}, stored {stored.get(workload.name)}; "
            "run `python3 benchmark/workloads.py --write-fingerprints` if the change is intended")


def seeded_input(mesh, seed: int):
    """The canonical mesh under a seeded rigid motion and renumbering."""
    from tetforge import TetMesh

    rng = np.random.default_rng(seed % 2 ** 64)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    rotation = q * np.sign(np.diag(r))
    if np.linalg.det(rotation) < 0.0:
        rotation[:, 0] = -rotation[:, 0]
    shift = rng.uniform(-1.0, 1.0, size=3)
    relabel = rng.permutation(mesh.num_vertices)
    vertices = np.empty_like(mesh.vertices)
    vertices[relabel] = mesh.vertices @ rotation.T + shift
    tets = relabel[mesh.tets][rng.permutation(mesh.num_tets)]
    return TetMesh(vertices=vertices, tets=tets)


def write_fingerprints() -> dict:
    found = {name: fingerprint(canonical_mesh(w)) for name, w in WORKLOADS.items()}
    FINGERPRINTS.write_text(json.dumps(found, indent=2, sort_keys=True) + "\n")
    return found


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-fingerprints"]:
        sys.exit("usage: python3 benchmark/workloads.py --write-fingerprints")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    for name, digest in write_fingerprints().items():
        print(f"{name} {digest}")
