import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetforge.errors import DegenerateTetError
from tetforge.mesh import TetMesh, coordinate_rows, dihedral_angles_batch, tet_volumes
from tetforge.quality import _cross, _edges, _volume_quality, quality_batch, quality_diff_batch, volume_length_diff

from conftest import fd_gradient, fd_hessian, random_tet


def q_of_flat(x):
    return float(quality_batch(x.reshape(1, 4, 3))[0])


def test_regular_tet_quality_is_one(regular_tet):
    assert quality_batch(regular_tet[None])[0] == pytest.approx(1.0, abs=1e-12)


def test_degenerate_quality_is_zero():
    p = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.5, 0.5, 0.0]], dtype=float)
    assert quality_batch(p[None])[0] == pytest.approx(0.0, abs=1e-15)


def test_corner_tet_quality(corner_tet):
    # hand evaluation: V = 1/6, l_rms = sqrt(1.5)
    expected = 6.0 * np.sqrt(2.0) * (1.0 / 6.0) / np.sqrt(1.5) ** 3
    q = quality_batch(corner_tet[None])[0]
    assert q == pytest.approx(expected, rel=1e-12)
    assert q == pytest.approx(0.769800, abs=1e-6)


def test_inverted_quality_negative(corner_tet):
    assert quality_batch(corner_tet[None, [0, 1, 3, 2]])[0] < 0.0


def test_all_coincident_raises():
    p = np.zeros((4, 3))
    assert np.isnan(quality_batch(p[None])[0])
    with pytest.raises(DegenerateTetError):
        volume_length_diff(*p)


def test_translation_invariance_of_gradient(regular_tet):
    qd = volume_length_diff(*regular_tet)
    for axis in range(3):
        direction = np.tile(np.eye(3)[axis], 4)
        assert abs(qd.grad @ direction) < 1e-12


def test_scale_invariance_of_gradient(regular_tet):
    # q is homogeneous of degree 0: the radial directional derivative vanishes
    qd = volume_length_diff(*regular_tet)
    assert abs(qd.grad @ regular_tet.reshape(12)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.2, 5.0))
def test_similarity_invariance(seed, scale):
    rng = np.random.default_rng(seed)
    p = random_tet(rng, min_volume=1e-2)
    q0 = quality_batch(p[None])[0]
    # random rotation via QR, then scale and translate
    m = rng.normal(size=(3, 3))
    rot, _ = np.linalg.qr(m)
    if np.linalg.det(rot) < 0:
        rot[:, 0] = -rot[:, 0]
    moved = scale * (p @ rot.T) + rng.normal(size=3)
    assert quality_batch(moved[None])[0] == pytest.approx(q0, rel=1e-9, abs=1e-12)


def test_sign_matches_volume(rng):
    for _ in range(50):
        p = rng.random((1, 4, 3))
        v = tet_volumes(p)[0]
        if abs(v) < 1e-9:
            continue
        assert np.sign(quality_batch(p)[0]) == np.sign(v)


def test_gradient_and_hessian_match_fd(rng):
    for _ in range(10):
        p = random_tet(rng)
        qd = volume_length_diff(*p)
        x = p.reshape(12)
        g_fd = fd_gradient(q_of_flat, x, 1e-6)
        assert np.linalg.norm(qd.grad - g_fd) <= 1e-6 * np.linalg.norm(g_fd)
        h_fd = fd_hessian(q_of_flat, x, 1e-5)
        assert np.linalg.norm(qd.hess - h_fd) <= 1e-4 * np.linalg.norm(h_fd)


def test_hessian_exactly_symmetric(rng):
    p = random_tet(rng)
    qd = volume_length_diff(*p)
    assert np.abs(qd.hess - qd.hess.T).max() <= 1e-12 * max(1.0, np.abs(qd.hess).max())


def test_regular_tet_is_maximal(rng, regular_tet):
    # random perturbations of the regular tet never exceed quality 1
    for _ in range(1000):
        p = regular_tet + rng.normal(scale=0.2, size=(4, 3))
        q = quality_batch(p[None])[0]
        if np.isfinite(q):
            assert q <= 1.0 + 1e-12


def test_batch_matches_scalar(rng):
    # an element's quality does not depend on the other elements of its batch
    pts = np.stack([random_tet(rng) for _ in range(8)])
    qb = quality_batch(pts)
    for i in range(8):
        assert qb[i] == quality_batch(pts[i:i + 1])[0]


def _kernel_cases(rng):
    regular = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, np.sqrt(3.0) / 2.0, 0.0],
                        [0.5, np.sqrt(3.0) / 6.0, np.sqrt(6.0) / 3.0]])
    sliver = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 1e-7], [0.0, 1.0, 0.0]])
    tets = [rng.random((200, 4, 3)), (regular + rng.normal(scale=1e-3, size=(50, 4, 3))),
            sliver + rng.normal(scale=1e-9, size=(50, 4, 3))]
    tets.append(tets[0][:, [0, 2, 1, 3]])  # inverted
    points = np.concatenate(tets)
    return [points, points + np.array([1e3, -1e3, 1e3])]


def test_quality_batch_is_the_kernels_quality_to_the_bit(rng):
    for points in _kernel_cases(rng):
        q = quality_diff_batch(points).q
        assert (q < 0).any() and (np.abs(q) < 1e-5).any()
        assert np.array_equal(quality_batch(points), q)
        assert np.array_equal(quality_batch(points.reshape(-1, 12)), q)
        # the line search's layout: the F-ordered transpose of (12, m) coordinate rows
        assert np.array_equal(quality_batch(np.ascontiguousarray(points.reshape(-1, 12).T).T), q)
        # a whole-mesh call runs in blocks; each element's q is unchanged
        assert np.array_equal(quality_batch(np.concatenate([points] * 9)), np.concatenate([q] * 9))


def test_tet_volumes_is_the_kernels_volume_to_the_bit(rng):
    # one formula: e01 . (e02 x e03) / 6 with x, y, z summed in that order
    for points in _kernel_cases(rng):
        edges = _edges(coordinate_rows(points))
        assert np.array_equal(tet_volumes(points), _volume_quality(edges, _cross(edges, slice(3, 6)))[0])


def test_per_tet_measures_give_the_same_bits_for_every_layout(rng):
    points = _kernel_cases(rng)[0]
    mesh = TetMesh(vertices=points.reshape(-1, 3), tets=np.arange(4 * len(points)).reshape(-1, 4))
    ids = rng.permutation(len(points))[:100]
    layouts = {
        "C (m, 4, 3)": points,
        "F (m, 4, 3)": np.asfortranarray(points),
        "(m, 12)": points.reshape(-1, 12),
        "F (m, 12)": np.asfortranarray(points.reshape(-1, 12)),
        "tet_points": mesh.tet_points(),
    }
    for measure in (tet_volumes, quality_batch, dihedral_angles_batch):
        expected = measure(points)
        for name, layout in layouts.items():
            assert np.array_equal(measure(layout), expected, equal_nan=True), (measure.__name__, name)
        assert np.array_equal(measure(mesh.tet_points(ids)), expected[ids], equal_nan=True), measure.__name__


def test_kernel_terms_of_an_element_do_not_depend_on_its_batch(rng):
    # every step is elementwise across the columns of the (12, m) rows, so an
    # element gives the same bits alone, at any column and in any order
    points = _kernel_cases(rng)[0]
    terms = quality_diff_batch(points)
    fields = ("q", "grads", "coef", "edges")
    order = rng.permutation(len(points))
    permuted = quality_diff_batch(points[order])
    for name in fields:
        assert np.array_equal(getattr(permuted, name), getattr(terms, name)[..., order])
    others = points[rng.choice(len(points), 16, replace=False)]
    for k in rng.choice(len(points), 4, replace=False):
        alone = quality_diff_batch(points[k:k + 1])
        for name in fields:
            assert np.array_equal(getattr(alone, name)[..., 0], getattr(terms, name)[..., k])
        for column in range(len(others) + 1):
            batch = quality_diff_batch(np.insert(others, column, points[k], axis=0))
            for name in fields:
                assert np.array_equal(getattr(batch, name)[..., column], getattr(terms, name)[..., k])
