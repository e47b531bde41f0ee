"""Torus maps built from a hyperbolic integer matrix and localized rotations.

The differential is checked against a central finite-difference oracle, and
volume preservation against LAPACK determinants of the assembled Jacobians.
"""
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathlab.config import ConfigError, ExperimentConfig
from pathlab.smallmat import DegenerateSpectrum, UnimodularMatrix, eigen_real
from pathlab.torusmap import (
    SupportTooLarge,
    TorusMap,
    _apply_matrix,
    _mod1,
    _wrap_half,
    build_localized_rotation,
    bump_profile,
)

CAT = [[2, 1], [1, 1]]
COMPANION = [[0, 0, 1], [1, 0, -6], [0, 1, 5]]
CENTER = [0.31, 0.47, 0.62]
M4 = [[0, 0, 0, 1], [1, 0, 0, 3], [0, 1, 0, -6], [0, 0, 1, -6]]
M4_CENTER = [0.3, 0.55, 0.7, 0.45]


@pytest.fixture(scope="module")
def linear_map():
    return TorusMap(UnimodularMatrix(COMPANION))


@pytest.fixture(scope="module")
def perturbed_map():
    a = UnimodularMatrix(COMPANION)
    eig = eigen_real(a)
    rot = build_localized_rotation(eig, center=CENTER, plane=(2, 1), rho=0.12, theta_max=0.5)
    return TorusMap(a, [rot])


def wrap_dist(x, y):
    d = np.asarray(x) - np.asarray(y)
    d -= np.round(d)
    return np.linalg.norm(d, axis=-1)


def support_points(rot, rng, count, radius_frac=0.8):
    """Points guaranteed inside the support ellipsoid, via the chart."""
    u = rng.normal(size=(count, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    u *= (rot.rho * radius_frac) * rng.random((count, 1)) ** (1 / 3)
    x = rot.center + u @ rot.chart.T
    return x % 1.0


# ------------------------------------------------------------- construction

def test_support_embedding_guard():
    eig = eigen_real(UnimodularMatrix(COMPANION))
    with pytest.raises(SupportTooLarge):
        build_localized_rotation(eig, center=CENTER, plane=(2, 1), rho=0.35, theta_max=0.1)


def test_lattice_point_must_stay_outside_support():
    eig = eigen_real(UnimodularMatrix(COMPANION))
    with pytest.raises(ValueError, match="lattice"):
        build_localized_rotation(eig, center=[0.0, 0.0, 0.0], plane=(2, 1), rho=0.12, theta_max=0.5)


def test_plane_indices_validated():
    eig = eigen_real(UnimodularMatrix(COMPANION))
    for plane in ((1, 1), (0, 2), (1, 4)):
        with pytest.raises(ValueError):
            build_localized_rotation(eig, center=CENTER, plane=plane, rho=0.1, theta_max=0.1)


def test_pure_linear_map_needs_no_eigen_data():
    # identity linear part: spectrum is degenerate, but a rotation-free map
    # never touches it
    m = TorusMap(UnimodularMatrix([[1, 0], [0, 1]]))
    x = np.array([0.25, 0.75])
    assert np.allclose(m.apply(x), x)
    with pytest.raises(DegenerateSpectrum):
        m.eigen


# ------------------------------------------------------------- pointwise maps

def test_linear_apply_matches_matmul(linear_map):
    rng = np.random.default_rng(0)
    x = rng.random((100, 3))
    a = np.array(COMPANION, dtype=float)
    expect = (x @ a.T) % 1.0
    assert np.allclose(linear_map.apply(x), expect, atol=1e-14)


def test_identity_outside_support(perturbed_map):
    rot = perturbed_map.rotations[0]
    rng = np.random.default_rng(1)
    found = 0
    for _ in range(40):
        x = rng.random(3)
        d = x - rot.center
        d -= np.round(d)
        if np.linalg.norm(rot.chart_inv @ d) >= rot.rho:
            found += 1
            lifted = perturbed_map.lift_apply(x)
            a = np.array(COMPANION, dtype=float)
            # same fixed-order accumulation the map uses, so equality is exact
            expected = a[:, 0] * x[0] + a[:, 1] * x[1] + a[:, 2] * x[2]
            assert np.array_equal(lifted, expected)
    assert found > 10


def test_rotation_moves_support_interior(perturbed_map):
    rot = perturbed_map.rotations[0]
    rng = np.random.default_rng(2)
    pts = support_points(rot, rng, 50)
    hx = rot.transform(pts, +1)
    assert np.all(np.linalg.norm(hx - pts, axis=1) > 0)


def test_rotation_preserves_chart_radius(perturbed_map):
    rot = perturbed_map.rotations[0]
    rng = np.random.default_rng(3)
    pts = support_points(rot, rng, 200)
    hx = rot.transform(pts, +1)
    for before, after in zip(pts, hx):
        db = before - rot.center
        db -= np.round(db)
        da = after - rot.center
        da -= np.round(da)
        rb = np.linalg.norm(rot.chart_inv @ db)
        ra = np.linalg.norm(rot.chart_inv @ da)
        assert abs(rb - ra) < 1e-12


def test_center_rotates_by_theta_max(perturbed_map):
    rot = perturbed_map.rotations[0]
    jac = rot.differential(np.array([rot.center]), +1)[0]
    i, j = rot.plane
    c, s = np.cos(rot.theta_max), np.sin(rot.theta_max)
    ru = np.eye(3)
    ru[i, i] = c
    ru[i, j] = -s
    ru[j, i] = s
    ru[j, j] = c
    expect = rot.chart @ ru @ rot.chart_inv
    assert np.allclose(jac, expect, atol=1e-12)


# ------------------------------------------------------------- differential

def fd_jacobian(fn, x, h=1e-6):
    n = len(x)
    jac = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        jac[:, j] = (fn(x + e) - fn(x - e)) / (2 * h)
    return jac


@pytest.mark.parametrize("where", ["inside", "outside", "near_edge"])
def test_differential_matches_finite_differences(perturbed_map, where):
    rot = perturbed_map.rotations[0]
    rng = np.random.default_rng(5)
    if where == "inside":
        pts = support_points(rot, rng, 60, radius_frac=0.85)
    elif where == "near_edge":
        pts = support_points(rot, rng, 60, radius_frac=0.97)
    else:
        pts = rng.random((60, 3))
    jacs = perturbed_map.differential(pts)
    for x, jac in zip(pts, jacs):
        fd = fd_jacobian(perturbed_map.lift_apply, x)
        assert np.max(np.abs(jac - fd)) < 1e-5


def test_volume_preservation(perturbed_map):
    rot = perturbed_map.rotations[0]
    rng = np.random.default_rng(6)
    pts = np.concatenate([rng.random((1000, 3)), support_points(rot, rng, 1000)])
    dets = np.linalg.det(perturbed_map.differential(pts))
    assert np.max(np.abs(np.log(np.abs(dets)))) <= 1e-9


def test_differential_of_linear_map_is_constant(linear_map):
    rng = np.random.default_rng(7)
    pts = rng.random((20, 3))
    jacs = linear_map.differential(pts)
    a = np.array(COMPANION, dtype=float)
    assert np.all(jacs == a)


# ------------------------------------------------------------- inverse

def test_inverse_round_trip(perturbed_map):
    rng = np.random.default_rng(8)
    x = rng.random((500, 3))
    back = perturbed_map.inverse_apply(perturbed_map.apply(x))
    assert np.max(wrap_dist(back, x)) < 1e-12


def test_forward_round_trip(perturbed_map):
    rng = np.random.default_rng(9)
    x = rng.random((500, 3))
    forth = perturbed_map.apply(perturbed_map.inverse_apply(x))
    assert np.max(wrap_dist(forth, x)) < 1e-12


def test_inverse_differential_is_matrix_inverse(perturbed_map):
    rng = np.random.default_rng(10)
    x = rng.random((100, 3))
    jf = perturbed_map.differential(perturbed_map.inverse_apply(x))
    jb = perturbed_map.inverse_differential(x)
    prod = np.einsum("bij,bjk->bik", jf, jb)
    assert np.max(np.abs(prod - np.eye(3))) < 1e-9


# ------------------------------------------------------------- lift

def test_lift_equivariance(perturbed_map):
    rng = np.random.default_rng(11)
    a = np.array(COMPANION, dtype=float)
    for _ in range(200):
        x = rng.random(3)
        z = rng.integers(-2, 3, size=3).astype(float)
        lhs = perturbed_map.lift_apply(x + z)
        rhs = perturbed_map.lift_apply(x) + a @ z
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_lift_projects_to_torus_map(perturbed_map):
    rng = np.random.default_rng(12)
    x = rng.random((300, 3)) + rng.integers(-3, 4, size=(300, 3))
    proj = perturbed_map.lift_apply(x) % 1.0
    assert np.max(wrap_dist(proj, perturbed_map.apply(x % 1.0))) < 1e-12


def test_lattice_points_map_exactly(perturbed_map):
    a = np.array(COMPANION, dtype=float)
    for z in ([0, 0, 0], [1, 0, 0], [-1, 2, 1], [2, -2, 1]):
        z = np.array(z, dtype=float)
        assert np.array_equal(perturbed_map.lift_apply(z), a @ z)


# ------------------------------------------------------------- composition

def test_composition_order_rightmost_first():
    a = UnimodularMatrix(COMPANION)
    eig = eigen_real(a)
    r1 = build_localized_rotation(eig, center=CENTER, plane=(2, 1), rho=0.10, theta_max=0.4)
    r2 = build_localized_rotation(eig, center=[0.77, 0.13, 0.52], plane=(3, 2), rho=0.10, theta_max=0.3)
    m = TorusMap(a, [r1, r2])
    rng = np.random.default_rng(13)
    x = rng.random((50, 3))
    manual = r1.transform(r2.transform(x, +1), +1) @ a.as_float().T
    assert np.allclose(m.lift_apply(x), manual, atol=1e-14)


def test_batch_matches_scalar(perturbed_map):
    rng = np.random.default_rng(14)
    pts = np.concatenate([rng.random((20, 3)),
                          support_points(perturbed_map.rotations[0], rng, 20)])
    batch = perturbed_map.apply(pts)
    for i, x in enumerate(pts):
        assert np.allclose(perturbed_map.apply(x), batch[i], atol=1e-13)


def test_apply_range(perturbed_map):
    rng = np.random.default_rng(15)
    y = perturbed_map.apply(rng.random((2000, 3)))
    assert np.all(y >= 0.0)
    assert np.all(y < 1.0)


# ------------------------------------------------------------- C1 distance

def _sampled_distances(map_, samples, seed):
    """Sampled max of |f - A| on the torus and of |Df - A| in operator norm,
    over in-support points."""
    pts = map_.sample_support(samples, seed)
    d0 = np.linalg.norm(_wrap_half(map_.lift_apply(pts) - _apply_matrix(pts, map_._a)), axis=-1)
    dop = np.linalg.svd(map_.differential(pts) - map_._a, compute_uv=False)[:, 0]
    return float(d0.max()), float(dop.max())


def _one_rotation_map(linear, center, plane, rho, theta_max):
    a = UnimodularMatrix(linear)
    return TorusMap(a, [build_localized_rotation(eigen_real(a), center=center, plane=plane,
                                                 rho=rho, theta_max=theta_max)])


BENCH_CENTER = [0.625095466604667, 0.8972138009695755, 0.7756856902451935]

# (linear part, center, plane, rho, theta_max, slack): the benchmark map,
# its rotation at theta_max 1.5 and 3.0, a 4-D map in both plane orders,
# and a plane off chart axes {1, 2}, where the c1 bound reads 2.05 times
# the sampled maximum (1.27 to 1.35 on the others); slack caps that ratio
C1_MAPS = (
    (COMPANION, BENCH_CENTER, (2, 1), 0.12, 0.5, 1.5),
    (COMPANION, BENCH_CENTER, (2, 1), 0.12, 1.5, 1.5),
    (COMPANION, BENCH_CENTER, (2, 1), 0.12, 3.0, 1.5),
    (M4, M4_CENTER, (1, 2), 0.1, 0.6, 1.5),
    (M4, M4_CENTER, (2, 1), 0.1, 0.6, 1.5),
    (COMPANION, [0.81, 0.97, 0.12], (1, 3), 0.08, 0.7, 2.5),
)


@pytest.mark.parametrize("spec", C1_MAPS,
                         ids=["bench", "theta1.5", "theta3", "m4-12", "m4-21", "plane13"])
def test_c1_distance_c0_exact_and_c1_bound_tight(spec):
    *rotation, slack = spec
    map_ = _one_rotation_map(*rotation)
    rep = map_.c1_distance()
    c0, c1 = _sampled_distances(map_, 100000, 3)
    # c0 is the supremum itself; c1 an upper bound within slack of the sampled max
    assert 0.98 * rep["c0_max"] <= c0 <= rep["c0_max"] * (1 + 1e-6)
    assert c1 <= rep["c1_op_bound"] <= slack * c1
    assert rep["bound"] == rep["c0_max"] + rep["c1_op_bound"]


def test_c1_distance_on_the_benchmark_map():
    rep = _one_rotation_map(*C1_MAPS[0][:-1]).c1_distance()
    assert rep["c0_max"] == pytest.approx(0.07683565, abs=1e-7)
    assert rep["c1_op_bound"] == pytest.approx(21.99, abs=5e-3)


@given(st.floats(-3.0, 3.0), st.floats(0.02, 0.12), st.sampled_from([(2, 1), (1, 2), (1, 3)]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_c1_distance_bounds_the_sampled_distances(theta, rho, plane, seed):
    map_ = _one_rotation_map(COMPANION, CENTER, plane, rho, theta)
    rep = map_.c1_distance()
    c0, c1 = _sampled_distances(map_, 2000, seed)
    # absolute slack: f x - A x is a difference of coordinates of size 1,
    # and L R' L^-1 - A one of entries of size |A|; both round at ~1e-16
    assert c0 <= rep["c0_max"] * (1 + 1e-6) + 1e-14
    assert c1 <= rep["c1_op_bound"] + 1e-13


def test_c1_distance_zero_for_linear(linear_map):
    assert linear_map.c1_distance() == {"c0_max": 0.0, "c1_op_bound": 0.0, "bound": 0.0}


def test_c1_distance_sees_a_tiny_support():
    rep = _one_rotation_map(COMPANION, CENTER, (2, 1), 0.004, 0.5).c1_distance()
    assert rep["c0_max"] > 0.0
    assert rep["c1_op_bound"] > 0.0


def test_c1_distance_of_disjoint_rotations_is_the_larger_one():
    a = UnimodularMatrix(COMPANION)
    eig = eigen_real(a)
    # the first has the larger c1, the second the larger c0
    rots = [build_localized_rotation(eig, center=CENTER, plane=(2, 1), rho=0.03, theta_max=0.7),
            build_localized_rotation(eig, center=[0.81, 0.97, 0.12], plane=(1, 2), rho=0.08,
                                     theta_max=-0.3)]
    both = TorusMap(a, rots)
    assert not both.support_overlaps()
    single = [TorusMap(a, [rot]).c1_distance() for rot in rots]
    rep = both.c1_distance()
    assert rep["c0_max"] == single[1]["c0_max"] > single[0]["c0_max"]
    assert rep["c1_op_bound"] == single[0]["c1_op_bound"] > single[1]["c1_op_bound"]
    assert rep["bound"] == rep["c0_max"] + rep["c1_op_bound"]


# ------------------------------------------------------------- serialization

def test_json_round_trip(perturbed_map):
    d = perturbed_map.to_dict()
    assert set(d) == {"linear", "rotations"}
    assert d["rotations"][0]["plane"] == [2, 1]
    clone = TorusMap.from_dict(d)
    assert clone.to_dict() == d
    rng = np.random.default_rng(16)
    x = rng.random((50, 3))
    assert np.array_equal(clone.apply(x), perturbed_map.apply(x))


def test_from_dict_rejects_unknown_keys():
    # the config loader parses the map spec that from_dict builds
    with pytest.raises(ConfigError, match=re.escape("config.map: unknown keys ['extra']")):
        ExperimentConfig.from_dict({"map": {"linear": CAT, "rotations": [], "extra": 1}})
    bad_rot = {"center": [0.3, 0.4], "plane": [1, 2], "rho": 0.1, "theta_max": 0.2, "x": 0}
    with pytest.raises(ConfigError,
                       match=re.escape("config.map.rotations[0]: unknown keys ['x']")):
        ExperimentConfig.from_dict({"map": {"linear": CAT, "rotations": [bad_rot]}})


def test_cat_map_rotation_round_trip():
    a = UnimodularMatrix(CAT)
    eig = eigen_real(a)
    rot = build_localized_rotation(eig, center=[0.3, 0.6], plane=(1, 2), rho=0.2, theta_max=0.3)
    m = TorusMap(a, [rot])
    rng = np.random.default_rng(17)
    x = rng.random((200, 2))
    back = m.inverse_apply(m.apply(x))
    assert np.max(wrap_dist(back, x)) < 1e-12
    dets = np.linalg.det(m.differential(x))
    assert np.max(np.abs(dets - 1.0)) < 1e-12


def test_chart_blocks_are_the_chart_jacobian(perturbed_map):
    eig = perturbed_map.eigen
    inside = perturbed_map.sample_support(300, seed=5)
    pts = np.concatenate([inside, np.random.default_rng(18).random((300, 3))])
    blk = perturbed_map.chart_blocks(pts)
    chart = np.linalg.inv(eig.vectors) @ perturbed_map.differential(pts) @ eig.vectors
    # J' = diag(lambda) R', and rows 3..n of R' are identity rows
    want = chart[:, :2, :2] / eig.values[:2, None]
    assert np.allclose(np.moveaxis(blk, -1, 0), want, rtol=0.0, atol=1e-12)
    assert np.allclose(chart[:, 2:, :], np.diag(eig.values)[2:], rtol=0.0, atol=1e-12)
    dets = blk[0, 0] * blk[1, 1] - blk[0, 1] * blk[1, 0]
    assert np.max(np.abs(dets - 1.0)) < 1e-13
    off = ~perturbed_map.support_mask(pts)
    assert off.any() and not off[:300].any()
    assert np.array_equal(blk[:, :, off],
                          np.broadcast_to(np.eye(2)[:, :, None], (2, 2, off.sum())))
    tilted = build_localized_rotation(eig, center=CENTER, plane=(1, 3), rho=0.12,
                                      theta_max=0.5)
    with pytest.raises(ValueError, match="plane"):
        TorusMap(perturbed_map.linear, [tilted]).chart_blocks(inside)


# ------------------------------------------------------------- support sampling

def test_sampled_points_lie_in_support(perturbed_map):
    pts = perturbed_map.sample_support(20000, seed=3)
    assert pts.shape == (20000, 3)
    assert np.all((pts >= 0.0) & (pts < 1.0))
    assert perturbed_map.support_mask(pts).all()


def test_two_supports_sampled_by_volume():
    a = UnimodularMatrix(COMPANION)
    eig = eigen_real(a)
    far = [(c + 0.5) % 1.0 for c in CENTER]
    rots = [build_localized_rotation(eig, center=c, plane=(2, 1), rho=rho,
                                     theta_max=0.3)
            for c, rho in ((CENTER, 0.05), (far, 0.08))]
    map_ = TorusMap(a, rots)
    assert map_.support_volume == pytest.approx(
        rots[0].support_volume + rots[1].support_volume, rel=1e-15)
    n = 20000
    pts = map_.sample_support(n, seed=5)
    assert map_.support_mask(pts).all()
    share = np.count_nonzero(TorusMap(a, rots[:1]).support_mask(pts)) / n
    p = rots[0].support_volume / map_.support_volume
    assert abs(share - p) <= 3.0 * np.sqrt(p * (1.0 - p) / n)


def test_support_volume_matches_mask_hit_rate(perturbed_map):
    n = 1_000_000
    hits = np.count_nonzero(
        perturbed_map.support_mask(np.random.default_rng(4).random((n, 3))))
    p = perturbed_map.support_volume
    assert abs(hits / n - p) <= 3.0 * np.sqrt(p * (1.0 - p) / n)


@given(st.integers(0, 2**32 - 1), st.integers(1, 59), st.integers(1, 60))
@settings(max_examples=25, deadline=None)
def test_support_points_do_not_depend_on_batch(seed, lo, hi):
    a = UnimodularMatrix(COMPANION)
    rot = build_localized_rotation(eigen_real(a), center=CENTER, plane=(2, 1),
                                   rho=0.12, theta_max=0.5)
    rng = np.random.default_rng(seed)
    normals = rng.standard_normal((60, 3))
    radial = rng.random(60)
    lo, hi = min(lo, hi), max(lo, hi)
    whole = rot.support_points(normals, radial)
    part = rot.support_points(normals[lo:hi], radial[lo:hi])
    assert np.array_equal(whole[lo:hi], part)


def test_support_overlaps_on_the_torus():
    a = UnimodularMatrix(COMPANION)
    eig = eigen_real(a)
    far = [(c + 0.5) % 1.0 for c in CENTER]
    rots = [build_localized_rotation(eig, center=c, plane=(2, 1), rho=0.05,
                                     theta_max=0.3) for c in (CENTER, far)]
    assert TorusMap(a, rots).support_overlaps() == []
    # a small shift across the unit-cube face overlaps only through the wrap
    wrapped = build_localized_rotation(eig, center=[0.999, 0.02, 0.5],
                                       plane=(2, 1), rho=0.05, theta_max=0.3)
    twin = build_localized_rotation(eig, center=[0.004, 0.02, 0.5],
                                    plane=(2, 1), rho=0.05, theta_max=0.3)
    assert TorusMap(a, [rots[0], wrapped, twin]).support_overlaps() == [(1, 2)]
    same = build_localized_rotation(eig, center=CENTER, plane=(2, 1), rho=0.05,
                                    theta_max=0.1)
    assert TorusMap(a, rots + [same]).support_overlaps() == [(0, 2)]


def test_linear_map_has_no_support(linear_map):
    assert linear_map.support_volume == 0.0
    assert linear_map.support_overlaps() == []
    with pytest.raises(ValueError, match="no rotation support"):
        linear_map.sample_support(10, seed=0)


# ------------------------------------------------------- sparse differentials

def test_differential_parts_cover_the_support(perturbed_map):
    rng = np.random.default_rng(11)
    pts = np.vstack([rng.random((3000, 3)), perturbed_map.sample_support(500, 2)])
    lin, hit, jac = perturbed_map.differential_parts(pts)
    mask = perturbed_map.support_mask(pts)
    assert np.array_equal(hit, np.flatnonzero(mask))
    full = perturbed_map.differential(pts)
    assert np.array_equal(full[hit], jac)
    assert np.array_equal(full[~mask], np.broadcast_to(lin, (np.count_nonzero(~mask), 3, 3)))
    assert np.array_equal(lin, perturbed_map.linear.as_float())


def test_inverse_differential_parts_cover_the_preimage_support(perturbed_map):
    rng = np.random.default_rng(12)
    inside = perturbed_map.sample_support(500, 4)
    pts = np.vstack([rng.random((3000, 3)), perturbed_map.apply(inside)])
    lin, hit, jac = perturbed_map.differential_parts(pts, -1)
    mask = perturbed_map.support_mask(perturbed_map.inverse_apply(pts))
    assert np.array_equal(hit, np.flatnonzero(mask))
    assert np.all(mask[3000:])
    full = perturbed_map.inverse_differential(pts)
    assert np.array_equal(full[hit], jac)
    assert np.array_equal(full[~mask], np.broadcast_to(lin, (np.count_nonzero(~mask), 3, 3)))


def test_linear_differential_parts_are_empty(linear_map):
    pts = np.random.default_rng(13).random((50, 3))
    for parts in (linear_map.differential_parts(pts),
                  linear_map.differential_parts(pts, -1)):
        lin, hit, jac = parts
        assert hit.size == 0 and jac.shape == (0, 3, 3)


def test_mod1_matches_float_remainder():
    rng = np.random.default_rng(14)
    y = np.concatenate([rng.uniform(-40.0, 40.0, 20000), -rng.random(200) * 1e-17,
                        [0.0, -0.0, 1.0, -1.0, 3.0, -2.5]])
    ref = y % 1.0
    ref[ref == 1.0] = 0.0
    out = _mod1(y)
    assert np.array_equal(out, ref)
    assert np.all((out >= 0.0) & (out < 1.0))


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_apply_matrix_is_rowwise_fixed_order(seed, rows, n):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((rows, n))
    mat = rng.standard_normal((n, n))
    out = _apply_matrix(pts, mat)
    for r in range(rows):
        acc = pts[r, 0] * mat[:, 0]
        for k in range(1, n):
            acc = acc + pts[r, k] * mat[:, k]
        assert np.array_equal(out[r], acc)


# ------------------------------------------------------------------ orbits

# rotations as (center, plane, rho, theta_max) whose centers lie closer to a
# torus face than their support's bounding box reaches, so the box wraps:
# axes 1 and 3 of the first, 1 and 2 of the second, 1 and 4 of the 4-D one
WRAPPING = [([0.04, 0.5, 0.97], (2, 1), 0.1, 0.6), ([0.96, 0.06, 0.45], (1, 3), 0.08, 0.5)]
WRAPPING_M4 = [([0.03, 0.55, 0.7, 0.96], (1, 2), 0.08, 0.6)]

# (linear part, rotations as (center, plane, rho)): 3-D and 4-D, one and two
# rotations, planes inside and outside chart plane {1, 2}, wrapping boxes
ORBIT_MAPS = (
    (COMPANION, [(CENTER, (2, 1), 0.12)]),
    (COMPANION, [(CENTER, (2, 1), 0.05), ([0.81, 0.97, 0.12], (1, 3), 0.08)]),
    (M4, [([0.3, 0.55, 0.7, 0.45], (1, 2), 0.1)]),
    (M4, [([0.3, 0.55, 0.7, 0.45], (2, 1), 0.08),
          ([0.8, 0.05, 0.2, 0.95], (2, 4), 0.06)]),
    (COMPANION, [rot[:3] for rot in WRAPPING]),
    (M4, [rot[:3] for rot in WRAPPING_M4]),
)

# chart radii, as multiples of rho, at which a support touches its bounding
# box: a few ulps and 1e-9 relative to either side of the boundary
TANGENT_SCALES = (1.0 - 1e-9, 1.0 - 4e-16, 1.0 + 4e-16, 1.0 + 1e-9)


def _tangent_points(rot, scales=TANGENT_SCALES):
    """Points x = c + L u mod 1 in the 2n chart directions u = +-L_i^T / |L_i|
    (L_i is row i of L), where the support's chart ball touches its
    bounding box, at chart radii rho * scale; (2n * len(scales), n)."""
    dirs = rot.chart / np.linalg.norm(rot.chart, axis=1)[:, None]
    dirs = np.vstack([dirs, -dirs])
    u = (dirs[:, None, :] * (rot.rho * np.asarray(scales))[:, None]).reshape(-1, rot.n)
    return _mod1(rot.center + _apply_matrix(u, rot.chart))


def _orbit_map(which):
    linear, rots = ORBIT_MAPS[which]
    a = UnimodularMatrix(linear)
    eig = eigen_real(a)
    return TorusMap(a, [build_localized_rotation(eig, center=c, plane=p, rho=rho,
                                                 theta_max=0.7)
                        for c, p, rho in rots])


def _iterated_apply(map_, x0, n):
    out = np.empty((n, map_.n))
    y = np.asarray(x0, dtype=float)
    for j in range(n):
        out[j] = y
        y = map_.apply(y)
    return out


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@given(st.integers(0, len(ORBIT_MAPS) - 1),
       st.sampled_from(["in", "near", "tangent", "out"]),
       st.integers(0, 2**32 - 1), st.floats(-3e-9, 3e-9))
@settings(max_examples=30, deadline=None)
@example(0, "tangent", 0, 0.0)
@example(1, "tangent", 0, 0.0)
@example(2, "tangent", 0, 0.0)
@example(3, "tangent", 0, 0.0)
@example(4, "tangent", 0, 0.0)
@example(5, "tangent", 0, 0.0)
def test_orbit_is_iterated_apply_bit_for_bit(which, where, seed, eps):
    map_ = _orbit_map(which)
    rng = np.random.default_rng(seed)
    rot = map_.rotations[rng.integers(len(map_.rotations))]
    if where == "tangent":
        # every point where a support touches its box, each a few steps on;
        # near rho the angle is too small to move a point, so chart radii
        # 0.9 and 0.98 rho check that the box keeps what the step must rotate
        for r in map_.rotations:
            for x0 in _tangent_points(r, (0.9, 0.98) + TANGENT_SCALES):
                assert _same_bits(map_.orbit(x0, 3), _iterated_apply(map_, x0, 3))
        return
    if where == "in":
        x0 = map_.sample_support(1, seed)[0]
    elif where == "near":
        # on the support boundary, within the stepper's 1e-9 margin or just past it
        u = rng.standard_normal(map_.n)
        u *= rot.rho * (1.0 + eps) / np.linalg.norm(u)
        x0 = _mod1(rot.center + rot.chart @ u)
    else:
        x0 = map_.sample_uniform(1, seed)[0]
    want = _iterated_apply(map_, x0, 300)
    assert _same_bits(map_.orbit(x0, 300), want)


# ------------------------------------------------------------ chart passes

# (linear part, rotations as (center, plane, rho, theta_max)): 3-D maps with
# one, two and three rotations, where the first two of the three overlap,
# the 4-D map, and 3-D and 4-D maps whose support boxes wrap
KERNEL_MAPS = (
    (COMPANION, [(CENTER, (2, 1), 0.12, 0.5)]),
    (COMPANION, [(CENTER, (2, 1), 0.05, 0.7), ([0.81, 0.97, 0.12], (1, 3), 0.08, 0.7)]),
    (COMPANION, [(CENTER, (2, 1), 0.10, 0.4), ([0.33, 0.49, 0.60], (3, 2), 0.10, 0.7),
                 ([0.77, 0.13, 0.52], (1, 3), 0.10, 0.3)]),
    (M4, [([0.3, 0.55, 0.7, 0.45], (1, 2), 0.1, 0.6)]),
    (COMPANION, WRAPPING),
    (M4, WRAPPING_M4),
)


def _kernel_map(which):
    linear, rots = KERNEL_MAPS[which]
    a = UnimodularMatrix(linear)
    eig = eigen_real(a)
    return TorusMap(a, [build_localized_rotation(eig, center=c, plane=p, rho=rho,
                                                 theta_max=theta)
                        for c, p, rho, theta in rots])


# a reference kernel that runs one chart pass per rotation on every batch it
# acts on: chart coordinates of all rows, then the in-support mask

def _ref_chart(rot, y):
    u = _apply_matrix(_wrap_half(y - rot.center), rot.chart_inv)
    return u, np.linalg.norm(u, axis=-1)


def _ref_transform(rot, y, sign):
    u, r = _ref_chart(rot, y)
    mask = r < rot.rho
    out = y.copy()
    if np.any(mask):
        psi = sign * bump_profile(r[mask], rot.rho, rot.theta_max)[0]
        i, j = rot.plane
        ui, uj = u[mask, i], u[mask, j]
        c, s = np.cos(psi), np.sin(psi)
        du = np.zeros_like(u[mask])
        du[:, i] = c * ui - s * uj - ui
        du[:, j] = s * ui + c * uj - uj
        out[mask] += _apply_matrix(du, rot.chart)
    return out


def _ref_mask(map_, y):
    mask = np.zeros(y.shape[0], dtype=bool)
    for rot in map_.rotations:
        mask |= _ref_chart(rot, y)[1] < rot.rho
    return mask


def _ref_blocks(map_, y):
    blk = np.zeros((2, 2, y.shape[0]))
    blk[0, 0] = blk[1, 1] = 1.0
    for rot in map_.rotations:
        u, r = _ref_chart(rot, y)
        hit = np.flatnonzero(r < rot.rho)
        if hit.size:
            b11, b12, b21, b22 = rot.chart_block(u[hit, 0], u[hit, 1], r[hit])
            blk[0, 0, hit], blk[0, 1, hit] = b11, b12
            blk[1, 0, hit], blk[1, 1, hit] = b21, b22
    return blk


def _ref_parts(map_, x, sign):
    a, a_inv = map_.linear.as_float(), map_.linear.inverse().as_float()
    if sign > 0:
        lin, rots, y = a, map_.rotations[::-1], x
    else:
        lin, rots, y = a_inv, map_.rotations, _apply_matrix(x, a_inv)
    hit = np.flatnonzero(_ref_mask(map_, y))
    y = y[hit]
    jac = None if sign > 0 else np.broadcast_to(lin, (hit.size,) + lin.shape).copy()
    for k, rot in enumerate(rots):
        if k:
            y = _ref_transform(rots[k - 1], y, sign)
        u, r = _ref_chart(rot, y)
        inside = np.flatnonzero(r < rot.rho)
        # the Jacobian formula is the rotation's; only its chart data come from here
        step = rot.differential(y, sign, (inside, u[inside], r[inside]))
        jac = step if jac is None else np.einsum("bij,bjk->bik", step, jac)
    return lin, hit, jac if sign < 0 else np.einsum("ij,bjk->bik", lin, jac)


def _blocks_or_error(blocks, y):
    try:
        return blocks(y)
    except ValueError as e:
        return str(e)


@given(st.integers(0, len(KERNEL_MAPS) - 1), st.integers(0, 2**32 - 1),
       st.integers(0, 30), st.integers(1, 30))
@settings(max_examples=30, deadline=None)
def test_located_kernel_matches_per_rotation_chart_passes(which, seed, n_out, n_in):
    map_ = _kernel_map(which)
    assert map_.support_overlaps() == ([(0, 1)] if which == 2 else [])
    rng = np.random.default_rng(seed)
    inside = map_.sample_support(n_in, seed)
    rot = map_.rotations[rng.integers(len(map_.rotations))]
    # on a support boundary, within a few ulps of rho either way
    u = rng.standard_normal((4, map_.n))
    u *= (rot.rho * (1.0 + rng.uniform(-1e-15, 1e-15, 4)) / np.linalg.norm(u, axis=1))[:, None]
    near = _mod1(rot.center + _apply_matrix(u, rot.chart))
    a, a_inv = map_.linear.as_float(), map_.linear.inverse().as_float()
    # where supports touch their boxes, and the images under A of those
    # points, whose preimages f^-1 locates
    tangent = np.vstack([_tangent_points(r) for r in map_.rotations])
    tangent = np.vstack([tangent, _mod1(_apply_matrix(tangent, a))])
    # images of support points: their preimages under A are in a support
    x = np.vstack([rng.random((n_out, map_.n)), inside, near, tangent, map_.apply(inside)])
    x = x[rng.permutation(x.shape[0])]
    lift = x
    for r in reversed(map_.rotations):
        lift = _ref_transform(r, lift, +1)
    lift = _apply_matrix(lift, a)
    inverse = _apply_matrix(x, a_inv)
    for r in map_.rotations:
        inverse = _ref_transform(r, inverse, -1)
    assert _same_bits(map_.lift_apply(x), lift)
    assert _same_bits(map_.apply(x), _mod1(lift))
    assert _same_bits(map_.inverse_apply(x), _mod1(inverse))
    assert np.array_equal(map_.support_mask(x), _ref_mask(map_, x))
    got, want = (_blocks_or_error(f, x) for f in (map_.chart_blocks,
                                                  partial(_ref_blocks, map_)))
    assert got == want if isinstance(want, str) else _same_bits(got, want)
    for sign in (+1, -1):
        lin, hit, jac = map_.differential_parts(x, sign)
        ref_lin, ref_hit, ref_jac = _ref_parts(map_, x, sign)
        assert _same_bits(lin, ref_lin) and np.array_equal(hit, ref_hit)
        assert _same_bits(jac, ref_jac)


def test_support_box_holds_the_chart_ball_strictly_and_tightly():
    rots = [rot for k in range(len(KERNEL_MAPS)) for rot in _kernel_map(k).rotations]
    rots += [rot for k in range(len(ORBIT_MAPS)) for rot in _orbit_map(k).rotations]
    rng = np.random.default_rng(11)
    for rot in rots:
        dirs = rng.standard_normal((5000, rot.n))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        rows = rot.chart / np.linalg.norm(rot.chart, axis=1)[:, None]
        # d = L u on the chart sphere |u| = rho, in random and tangent directions
        d = _apply_matrix(rot.rho * np.vstack([dirs, rows, -rows]), rot.chart)
        assert np.all(np.abs(d) < rot.half_widths)
        # in the direction L_i^T the sphere reaches face i of the box
        tangent = np.abs(np.diagonal(d[-2 * rot.n:-rot.n]))
        assert np.all(tangent > rot.half_widths * (1.0 - 2e-9))


def test_orbit_keeps_positive_zero():
    # A 0 accumulates -0.0 in the first row; _mod1 turns it into +0.0
    m = TorusMap(UnimodularMatrix([[-2, -1], [-1, -1]]))
    x0 = np.zeros(2)
    assert _same_bits(m.orbit(x0, 5), _iterated_apply(m, x0, 5))
    x0 = np.array([0.5, 0.25])
    assert _same_bits(m.orbit(x0, 60), _iterated_apply(m, x0, 60))


def test_orbit_validates(perturbed_map):
    with pytest.raises(ValueError):
        perturbed_map.orbit(np.zeros(3), 0)
    with pytest.raises(ValueError):
        perturbed_map.orbit(np.zeros((2, 3)), 5)
    assert perturbed_map.orbit(np.array([0.1, 0.2, 0.3]), 1).tolist() == [[0.1, 0.2, 0.3]]
