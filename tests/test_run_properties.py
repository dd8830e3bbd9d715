"""Properties of whole runs over random fixtures, through the library and the CLI.

Each example mutates one fixture in ways that must not matter (its vertices
and tets renumbered, a rigid rotation and shift, an even permutation of each
tet's vertex list), writes it to a Medit file, improves it in process and
through `run_cli` with the same settings, and checks:

- no accepted step takes a valid input below quality 0;
- without surface motion the volume does not drift;
- the two runs give the same vertices bit for bit;
- the CLI's --report JSON parses back to the in-process report;
- a run on the fixture scaled by 2^k, k in [-60, 60], gives exactly 2^k
  times the vertices of the run on the fixture, bit for bit.
"""

import json
import tempfile
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tetforge import RunConfig, TetMesh, build_topology, generate_test_mesh, load_mesh, optimize_mesh, save_mesh
from tetforge.cli import run_cli
from tetforge.fixtures import KINDS
from tetforge.quality import quality_batch

MUTATIONS = ("renumber", "rigid motion", "even permutation")

# the 12 orders of a tet's four slots that keep its orientation
_EVEN = np.array([p for p in permutations(range(4)) if sum(a > b for a, b in combinations(p, 2)) % 2 == 0])


def _mutated(mesh, mutations, seed):
    """mesh with each of the given mutations applied, drawn from one seeded generator."""
    rng = np.random.default_rng(seed)
    vertices, tets = mesh.vertices, mesh.tets
    if "renumber" in mutations:
        relabel = rng.permutation(len(vertices))
        vertices = np.empty_like(mesh.vertices)
        vertices[relabel] = mesh.vertices
        tets = relabel[tets][rng.permutation(len(tets))]
    if "rigid motion" in mutations:
        # the benchmark's recipe: a uniformly random rotation from the QR of a
        # Gaussian matrix, made proper, then a shift
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        rotation = q * np.sign(np.diag(r))
        if np.linalg.det(rotation) < 0.0:
            rotation[:, 0] = -rotation[:, 0]
        vertices = vertices @ rotation.T + rng.uniform(-1.0, 1.0, size=3)
    if "even permutation" in mutations:
        tets = np.take_along_axis(tets, _EVEN[rng.integers(len(_EVEN), size=len(tets))], axis=1)
    return TetMesh(vertices=vertices, tets=tets)


@st.composite
def runs(draw):
    mode = draw(st.sampled_from(["selective", "all-patches"]))
    # all-patches solves every tet in every pass: the 48-tet grids and one
    # barrier constant keep such an example to a fraction of a second
    if mode == "all-patches":
        kind, n = draw(st.sampled_from([k for k in KINDS if k != "sphere"])), 2
    else:
        kind = draw(st.sampled_from(KINDS))
        n = draw(st.integers(2, 3 if kind == "sphere" else 4))
    spec = dict(kind=kind, n=n, seed=draw(st.integers(0, 2 ** 16)), jitter=draw(st.floats(0.0, 0.3)),
                k=draw(st.integers(1, 2)))
    config = RunConfig(mode=mode, surface_motion=draw(st.booleans()), target_quality=draw(st.floats(0.3, 0.9)),
                       max_passes=4, b_schedule=(0.85,) if mode == "all-patches" else RunConfig().b_schedule)
    mutation = draw(st.sets(st.sampled_from(MUTATIONS))), draw(st.integers(0, 2 ** 16))
    return spec, config, draw(st.integers(-60, 60)), mutation


def _cli_args(config):
    args = ["--target-quality", repr(config.target_quality), "--max-passes", str(config.max_passes),
            "--barrier-schedule", ",".join(repr(b) for b in config.b_schedule)]
    if config.mode == "all-patches":
        args.append("--all-patches")
    if not config.surface_motion:
        args.append("--no-surface-motion")
    return args


def _without_timings(report: dict) -> str:
    report = dict(report, elapsed_s=None, passes=[dict(p, elapsed_s=None) for p in report["passes"]])
    return json.dumps(report, sort_keys=True)


@settings(max_examples=24, deadline=None, derandomize=True)
@given(runs())
def test_runs_keep_their_guarantees(run):
    spec, config, scale, (mutations, mutation_seed) = run
    try:
        fixture = _mutated(generate_test_mesh(**spec), mutations, mutation_seed)
    except ValueError:  # too few interior vertices to seed the bad elements
        assume(False)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_mesh(fixture, tmp / "in.mesh")
        mesh = load_mesh(tmp / "in.mesh")
        scaled = mesh.copy()
        scaled.vertices *= 2.0 ** scale
        valid = float(np.nanmin(quality_batch(mesh.tet_points()))) > 0.0
        report = optimize_mesh(mesh, config, adjacency=build_topology(mesh, config.feature_angle_deg))
        scaled_report = optimize_mesh(scaled, config, adjacency=build_topology(scaled, config.feature_angle_deg))
        assert np.array_equal(scaled.vertices, mesh.vertices * 2.0 ** scale)
        assert scaled_report.final_metrics.q_min == report.final_metrics.q_min

        if valid:
            assert report.min_quality_seen > 0.0
            assert report.final_metrics.q_min > 0.0
        if not config.surface_motion:
            assert report.volume_drift_percent == 0.0

        assert run_cli([str(tmp / "in.mesh"), "-o", str(tmp / "out.mesh"), "--report", str(tmp / "report.json")]
                       + _cli_args(config)) == 0
        assert np.array_equal(load_mesh(tmp / "out.mesh").vertices, mesh.vertices)
        written = json.loads((tmp / "report.json").read_text())
        assert _without_timings(written) == _without_timings(report.to_dict())


def _run_scaled(spec, config, factor):
    mesh = generate_test_mesh(**spec)
    mesh.vertices *= factor
    return mesh, optimize_mesh(mesh, config, adjacency=build_topology(mesh, config.feature_angle_deg))


def test_power_of_two_scaling_is_exact_where_pow_rounds_differently():
    # pow(4 S, 1.5) differs from 8 pow(S, 1.5) in the last bit for some S met
    # on this sphere; S * sqrt(S) scales exactly
    spec, config = dict(kind="sphere", n=3, seed=7, jitter=0.2, k=2), RunConfig(target_quality=0.6)
    mesh, report = _run_scaled(spec, config, 1.0)
    scaled, scaled_report = _run_scaled(spec, config, 2.0 ** 2)
    assert report.passes
    assert np.array_equal(scaled.vertices, mesh.vertices * 2.0 ** 2)
    assert scaled_report.final_metrics.q_min == report.final_metrics.q_min


@pytest.mark.parametrize("kind, factor", [("grid", 1e12), ("sphere", 1e-9)])
def test_a_mesh_far_from_unit_size_improves_as_at_unit_size(kind, factor):
    # no power of two, so the runs differ at round-off; but every stopping
    # rule is scale-free, so the scaled run does not stop at its first iterate
    spec, config = dict(kind=kind, n=5, seed=1, jitter=0.2), RunConfig(target_quality=0.5)
    _, report = _run_scaled(spec, config, 1.0)
    _, scaled_report = _run_scaled(spec, config, factor)
    iterations = sum(p.newton_iterations for p in scaled_report.passes)
    assert iterations > 0
    assert scaled_report.final_metrics.q_min == pytest.approx(report.final_metrics.q_min, abs=1e-6)
