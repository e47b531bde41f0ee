"""Frame-transport splittings checked against exact eigen data.

For pure linear maps every bundle is an eigen-span, so transported frames
have an exact oracle. Perturbed-map tests rely on self-consistency
(alignment depth, invariance under the map) instead.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlab import bundles
from pathlab.bundles import (
    OK,
    STATUS_ILLCOND,
    STATUS_NOGAP,
    NoGap,
    _batch_angles,
    _orthonormalize,
    _push_cm,
    _transport_pair,
    bundle_frames,
    closedness_condition_check,
    domination_check,
    generic_seed_frame,
    intersect_frames,
    splitting_frames,
    strongest_frames,
    strongest_subbundle,
    weakest_frames,
)
from pathlab.homology import BundleSelector
from pathlab.smallmat import UnimodularMatrix, eigen_real
from pathlab.torusmap import TorusMap, build_localized_rotation

CAT = [[2, 1], [1, 1]]
COMPANION = [[0, 0, 1], [1, 0, -6], [0, 1, 5]]
CENTER = [0.31, 0.47, 0.62]

COMPANION_EIGS = [3.2469796037174667, 1.5549581320873718, 0.1980622641951617]

X0 = np.array([0.2, 0.35, 0.81])


def max_principal_angle(p, q) -> float:
    """Largest principal angle between two equal-dimension column spans."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.ndim == 1:
        p = p[:, None]
    if q.ndim == 1:
        q = q[:, None]
    assert p.shape == q.shape, f"span dimensions differ: {p.shape} vs {q.shape}"
    po, okp = _orthonormalize(p[None])
    qo, okq = _orthonormalize(q[None])
    assert okp[0] and okq[0], "degenerate frame in angle computation"
    return float(_batch_angles(po, qo)[0])


@pytest.fixture(scope="module")
def linear_map():
    return TorusMap(UnimodularMatrix(COMPANION))


@pytest.fixture(scope="module")
def perturbed_map():
    a = UnimodularMatrix(COMPANION)
    eig = eigen_real(a)
    rot = build_localized_rotation(eig, center=CENTER, plane=(2, 1), rho=0.1,
                                   theta_max=0.3)
    return TorusMap(a, [rot])


# ---------------------------------------------------------------- seed frame

def test_seed_frame_orthonormal():
    for n in (2, 3, 4):
        f = generic_seed_frame(n, n)
        assert np.allclose(f.T @ f, np.eye(n), atol=1e-12)
        assert np.array_equal(generic_seed_frame(n, 2), f[:, :2])


def test_seed_frame_not_eigen_aligned(linear_map):
    v = linear_map.eigen.vectors
    overlaps = np.abs(generic_seed_frame(3, 3).T @ v)
    assert overlaps.min() > 1e-3


# ---------------------------------------------------------------- transport

def _weakest(map_, x, k):
    frames, status, _ = weakest_frames(map_, np.asarray(x, float)[None], k)
    assert status[0] == OK
    return frames[0]


def _splitting(map_, x, dims):
    """Blocks at one point, and the deepest ladder rung it reached."""
    blocks, status, depth = splitting_frames(map_, np.asarray(x, float)[None], dims)
    assert status[0] == OK
    return [blk[0] for blk in blocks], int(depth[0])


def test_strongest_linear_lines_and_planes(linear_map):
    v = linear_map.eigen.vectors
    f1 = strongest_subbundle(linear_map, X0, 1)
    assert max_principal_angle(f1, v[:, :1]) < 1e-12
    f2 = strongest_subbundle(linear_map, X0, 2)
    assert max_principal_angle(f2, v[:, :2]) < 1e-12
    assert np.allclose(f2.T @ f2, np.eye(2), atol=1e-12)


def test_weakest_linear_lines_and_planes(linear_map):
    v = linear_map.eigen.vectors
    f1 = _weakest(linear_map, X0, 1)
    assert max_principal_angle(f1, v[:, 2:]) < 1e-12
    f2 = _weakest(linear_map, X0, 2)
    assert max_principal_angle(f2, v[:, 1:]) < 1e-12


def test_strongest_cat_map():
    m = TorusMap(UnimodularMatrix(CAT))
    f = strongest_subbundle(m, np.array([0.4, 0.7]), 1)
    assert max_principal_angle(f, m.eigen.vectors[:, :1]) < 1e-12


def test_alignment_depth_consistency(perturbed_map):
    for k, direction in ((1, +1), (2, -1)):
        frames = []
        for m in (30, 40):
            f_long, _, ok = _transport_pair(perturbed_map, X0[None], k, m, direction)
            assert ok[0]
            frames.append(f_long[0])
        assert max_principal_angle(*frames) < 1e-8


@given(st.integers(0, 2**32 - 1), st.integers(2, 3))
@settings(max_examples=10, deadline=None)
def test_flag_leading_columns_are_narrower_frames(perturbed_map, seed, k):
    # Gram-Schmidt keeps the flag: the leading j columns of a k-frame are
    # the j-frame bit for bit, forward and backward, at equal ladder depth
    xs = np.vstack([np.random.default_rng(seed).random((6, 3)),
                    perturbed_map.sample_support(6, seed)])
    for frames_of in (strongest_frames, weakest_frames):
        wide, _, d_wide = frames_of(perturbed_map, xs, k)
        for j in range(1, k):
            narrow, _, d_narrow = frames_of(perturbed_map, xs, j)
            same = d_wide == d_narrow
            assert same.any()
            assert np.array_equal(wide[same, :, :j], narrow[same])


def _plus_minus_lambda_map():
    """Companion of x^4 - 3x^2 + 1, eigenvalues +-1.618 and +-0.618, with one
    rotation: the strongest plane settles, the lines inside it never do."""
    a = UnimodularMatrix([[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 3], [0, 0, 1, 0]])
    rot = build_localized_rotation(eigen_real(a), center=[0.31, 0.47, 0.62, 0.2],
                                   plane=(2, 1), rho=0.1, theta_max=0.3)
    return TorusMap(a, [rot])


def test_ladder_certifies_cuts_not_every_sub_frame():
    map_ = _plus_minus_lambda_map()
    xs = np.random.default_rng(4).random((6, 4))
    _, status, _ = strongest_frames(map_, xs, 1)
    assert np.all(status == STATUS_NOGAP)
    _, status, _ = strongest_frames(map_, xs, 2)
    assert np.all(status == OK)
    _, status, _ = bundle_frames(map_, xs, BundleSelector((1, 2)))
    assert np.all(status == OK)


def test_one_transport_per_flag(perturbed_map, monkeypatch):
    calls = []
    transport = bundles._transport_pair

    def counted(map_, xs, k, m, direction):
        calls.append((m, direction, k))
        return transport(map_, xs, k, m, direction)

    monkeypatch.setattr(bundles, "_transport_pair", counted)
    xs = np.random.default_rng(8).random((10, 3))
    _, status, depth = splitting_frames(perturbed_map, xs, (1, 1, 1))
    assert np.all(status == OK)
    rungs = sorted({m for m, _, _ in calls})
    assert rungs[-1] == depth.max()
    assert sorted(calls) == sorted((m, d, 2) for m in rungs for d in (+1, -1))
    calls.clear()
    _, status, depth = bundle_frames(perturbed_map, xs, BundleSelector((1, 2)))
    assert np.all(status == OK)
    assert calls == [(40, +1, 2)] and np.all(depth == 40)


def test_no_gap_detected_for_rotation_matrix():
    m = TorusMap(UnimodularMatrix([[0, -1], [1, 0]]))
    with pytest.raises(NoGap):
        strongest_subbundle(m, np.array([0.1, 0.2]), 1)


# ---------------------------------------------------------------- intersection

def _intersect(p, q):
    frames, status = intersect_frames(np.asarray(p)[None], np.asarray(q)[None])
    return frames[0], status[0]


def test_intersect_coordinate_planes():
    p = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    q = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    axis, status = _intersect(p, q)
    assert status == OK
    assert axis.shape == (3, 1)
    assert max_principal_angle(axis, np.array([[1.0], [0.0], [0.0]])) < 1e-12


def test_intersect_eigen_planes(linear_map):
    v = linear_map.eigen.vectors
    got, status = _intersect(v[:, :2], v[:, 1:])
    assert status == OK
    assert max_principal_angle(got, v[:, 1:2]) < 1e-10


def test_intersect_identical_planes_flagged(linear_map):
    v = linear_map.eigen.vectors
    _, status = _intersect(v[:, :2], v[:, :2])
    assert status == STATUS_ILLCOND


def test_intersect_dimension_check():
    p = np.array([[1.0], [0.0], [0.0]])
    with pytest.raises(ValueError):
        _intersect(p, p)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_intersection_contained_in_both_inputs(seed):
    rng = np.random.default_rng(seed)
    p, _ = np.linalg.qr(rng.normal(size=(4, 3)))
    q, _ = np.linalg.qr(rng.normal(size=(4, 2)))
    got, status = _intersect(p, q)
    if status == STATUS_ILLCOND:
        return
    assert status == OK
    for frame in (p, q):
        proj = frame @ (frame.T @ got)
        assert np.abs(got - proj).max() < 1e-8


# ---------------------------------------------------------------- splitting

def test_splitting_linear_recovers_eigen(linear_map):
    v = linear_map.eigen.vectors
    blocks, depth = _splitting(linear_map, X0, (1, 1, 1))
    assert [blk.shape for blk in blocks] == [(3, 1)] * 3
    for i in range(3):
        assert max_principal_angle(blocks[i], v[:, i:i + 1]) < 1e-10
    assert depth >= 40


def test_splitting_two_block(linear_map):
    v = linear_map.eigen.vectors
    blocks, _ = _splitting(linear_map, X0, (2, 1))
    assert max_principal_angle(blocks[0], v[:, :2]) < 1e-10
    assert max_principal_angle(blocks[1], v[:, 2:]) < 1e-10


def test_splitting_rejects_bad_dims(linear_map):
    with pytest.raises(ValueError):
        splitting_frames(linear_map, X0[None], (2, 2))
    with pytest.raises(ValueError):
        splitting_frames(linear_map, X0[None], (3, 0))


def _point_with_clear_orbit(map_, span=46, count=64):
    """A sample point whose orbit segment avoids every rotation support."""
    rng = np.random.default_rng(11)
    pts = rng.random((count, map_.n))
    hit = np.zeros(count, dtype=bool)
    y = pts.copy()
    z = pts.copy()
    for _ in range(span):
        hit |= map_.support_mask(y) | map_.support_mask(z)
        y = map_.apply(y)
        z = map_.inverse_apply(z)
    clear = np.flatnonzero(~hit)
    assert clear.size > 0
    return pts[clear[0]]


def test_splitting_perturbed_locally_linear_point(perturbed_map):
    x = _point_with_clear_orbit(perturbed_map)
    blocks, _ = _splitting(perturbed_map, x, (1, 1, 1))
    v = perturbed_map.eigen.vectors
    for i in range(3):
        assert max_principal_angle(blocks[i], v[:, i:i + 1]) < 1e-9


def test_splitting_invariance_under_map(perturbed_map):
    here, _ = _splitting(perturbed_map, X0, (1, 1, 1))
    fx = perturbed_map.apply(X0)
    there, _ = _splitting(perturbed_map, fx, (1, 1, 1))
    jac = perturbed_map.differential(X0)
    for i in range(3):
        pushed = jac @ here[i]
        assert max_principal_angle(pushed, there[i]) < 1e-6


# ---------------------------------------------------------------- selectors

def test_bundle_frames_linear_any_selector(linear_map):
    v = linear_map.eigen.vectors
    xs = np.array([X0, [0.5, 0.5, 0.5]])
    for sel, cols in (((2,), [1]), ((1, 3), [0, 2]), ((1, 2), [0, 1])):
        frames, status, depth = bundle_frames(linear_map, xs, BundleSelector(sel))
        assert status.max() == 0
        assert depth.dtype == np.int16 and np.array_equal(depth, [0, 0])
        assert np.allclose(frames[0], v[:, cols], atol=0)


def test_bundle_frames_perturbed_contiguous(perturbed_map):
    xs = X0[None]
    v = perturbed_map.eigen.vectors
    frames, status, _ = bundle_frames(perturbed_map, xs, BundleSelector((2,)))
    assert status[0] == 0
    assert frames.shape == (1, 3, 1)
    # X0 sits where the map is locally linear, orbit effects are small
    assert max_principal_angle(frames[0], v[:, 1:2]) < 0.2
    with pytest.raises(ValueError):
        bundle_frames(perturbed_map, xs, BundleSelector((1, 3)))


# ---------------------------------------------------------------- domination

def test_domination_linear_margins(linear_map):
    lam1, lam2, lam3 = COMPANION_EIGS
    rep1 = domination_check(linear_map, samples=32, l=1, seed=3)
    want1 = 0.5 * min(lam1 / lam2, lam2 / lam3) - 1.0
    assert rep1["holds"] is True
    assert abs(rep1["margin"] - want1) < 1e-9
    rep2 = domination_check(linear_map, samples=32, l=2, seed=3)
    want2 = 0.5 * min((lam1 / lam2) ** 2, (lam2 / lam3) ** 2) - 1.0
    assert rep2["holds"] is True
    assert abs(rep2["margin"] - want2) < 1e-9
    assert set(rep2) == {"l", "margin", "holds", "samples"}
    assert rep2["samples"] == 32


def test_domination_identity_fails():
    eye = TorusMap(UnimodularMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    rep = domination_check(eye, samples=8, l=2, seed=0)
    assert rep["holds"] is False
    assert rep["margin"] < 0


def test_domination_perturbed_positive(perturbed_map):
    rep = domination_check(perturbed_map, samples=64, l=2, seed=5)
    assert rep["holds"] is True
    assert rep["margin"] > 0


# ---------------------------------------------------------------- closedness

def test_closedness_restricted_operator_oracle(linear_map):
    # sup over all unit vectors in the plane, not only eigen directions:
    # at one step the companion unstable plane genuinely fails the condition
    v = linear_map.eigen.vectors
    q, _ = np.linalg.qr(v[:, :2])
    af = linear_map.linear.as_float()
    sel = BundleSelector((1, 2))
    for steps in (1, 4):
        s = np.linalg.svd(np.linalg.matrix_power(af, steps) @ q, compute_uv=False)
        rep = closedness_condition_check(linear_map, sel, steps=steps, samples=16, seed=2)
        assert abs(rep["margin"] - (s[1] - 1.0)) < 1e-8
    rep1 = closedness_condition_check(linear_map, sel, steps=1, samples=16, seed=2)
    rep4 = closedness_condition_check(linear_map, sel, steps=4, samples=16, seed=2)
    assert rep1["holds"] is False
    assert rep4["holds"] is True
    assert set(rep4) == {"l", "margin", "holds", "samples"}


def test_closedness_margin_grows_like_weak_eigenvalue(linear_map):
    sel = BundleSelector((1, 2))
    lam2 = COMPANION_EIGS[1]
    prev = None
    for steps in (4, 5, 6):
        rep = closedness_condition_check(linear_map, sel, steps=steps, samples=8, seed=2)
        if prev is not None:
            ratio = (rep["margin"] + 1.0) / (prev + 1.0)
            assert abs(ratio - lam2) < 0.25
        prev = rep["margin"]


def test_closedness_contracting_plane_fails(linear_map):
    rep = closedness_condition_check(linear_map, BundleSelector((2, 3)), steps=4,
                                     samples=8, seed=0)
    assert rep["holds"] is False


def test_closedness_needs_plane(linear_map):
    with pytest.raises(ValueError):
        closedness_condition_check(linear_map, BundleSelector((1,)))


def test_closedness_perturbed_positive(perturbed_map):
    sel = BundleSelector((1, 2))
    rep = closedness_condition_check(perturbed_map, sel, steps=4, samples=48, seed=7)
    assert rep["holds"] is True
    assert rep["margin"] > 0


# ------------------------------------------------------- per-sample batching

@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_orthonormalize_is_per_sample(seed, b, k):
    frames = np.random.default_rng(seed).standard_normal((b, 3, k))
    q, ok = _orthonormalize(frames)
    assert ok.all()
    gram = np.einsum("bnk,bnl->bkl", q, q)
    assert np.max(np.abs(gram - np.eye(k))) < 1e-12
    # same span: the input columns have no component off the output span
    resid = frames - np.einsum("bnk,bkl->bnl", q, np.einsum("bnk,bnl->bkl", q, frames))
    assert np.max(np.abs(resid)) < 1e-10 * max(1.0, np.max(np.abs(frames)))
    for i in range(b):
        qi, oki = _orthonormalize(frames[i:i + 1])
        assert np.array_equal(qi[0], q[i]) and oki[0]


def test_push_matches_dense_differential(perturbed_map):
    rng = np.random.default_rng(22)
    xs = np.vstack([rng.random((200, 3)), perturbed_map.sample_support(100, 6),
                    perturbed_map.apply(perturbed_map.sample_support(100, 7))])
    frames = rng.standard_normal((xs.shape[0], 3, 2))
    cols = np.ascontiguousarray(np.moveaxis(frames, 0, -1))
    for parts, dense in (
            (perturbed_map.differential_parts(xs), perturbed_map.differential(xs)),
            (perturbed_map.differential_parts(xs, -1),
             perturbed_map.inverse_differential(xs))):
        assert parts[1].size >= 100
        pushed = np.moveaxis(_push_cm(*parts, cols), -1, 0)
        ref = np.einsum("bij,bjk->bik", dense, frames)
        assert np.allclose(pushed, ref, rtol=1e-14, atol=1e-14)


def _bundle_blocks(map_, xs):
    frames, status, depth = bundle_frames(map_, xs, BundleSelector((2,)))
    return [frames], status, depth


def _splitting_blocks(map_, xs):
    return splitting_frames(map_, xs, (1, 1, 1))


def test_frames_do_not_depend_on_batch(perturbed_map):
    xs = np.vstack([np.random.default_rng(21).random((40, 3)),
                    perturbed_map.sample_support(20, 5)])
    for blocks_of in (_bundle_blocks, _splitting_blocks):
        whole, st_whole, d_whole = blocks_of(perturbed_map, xs)
        for part in (slice(0, 1), slice(3, 17), slice(35, 60)):
            blocks, status, depth = blocks_of(perturbed_map, xs[part])
            for got, want in zip(blocks, whole, strict=True):
                assert np.array_equal(got, want[part])
            assert np.array_equal(status, st_whole[part])
            assert np.array_equal(depth, d_whole[part])
