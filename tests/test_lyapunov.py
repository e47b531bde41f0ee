"""Spectra and integrated exponents against eigenvalue-log oracles."""
import json
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlab import lyapunov
from pathlab.bundles import OK, STATUS_E2ZERO, NoGap, bundle_frames, generic_seed_frame
from pathlab.homology import BundleSelector
from pathlab.lyapunov import (
    _TWIST_RULES,
    _frame_run,
    _frame_values,
    _line_logs,
    _line_values,
    _one_step_logs,
    _per_sample,
    _spread,
    birkhoff_exponent,
    chart_line_holds,
    chart_line_violation,
    horizon,
    qr_spectrum,
    splitting_exponents,
    support_gap,
    twist_mean,
)
from pathlab.smallmat import UnimodularMatrix, eigen_real
from pathlab.torusmap import LocalizedRotation, TorusMap, build_localized_rotation

CAT = [[2, 1], [1, 1]]
COMPANION = [[0, 0, 1], [1, 0, -6], [0, 1, 5]]
M4 = [[0, 0, 0, 1], [1, 0, 0, 3], [0, 1, 0, -6], [0, 0, 1, -6]]
CENTER = [0.31, 0.47, 0.62]

CAT_EIGS = [2.618033988749895, 0.3819660112501051]
COMPANION_EIGS = [3.2469796037174667, 1.5549581320873718, 0.1980622641951617]

X0 = np.array([0.2, 0.35, 0.81])

# pooled detector calibration: its map and its weak-unstable gap
CALIBRATION = json.loads(
    (Path(__file__).parent / "baselines.json").read_text())["detect_gap"]


@pytest.fixture(scope="module")
def linear_map():
    return TorusMap(UnimodularMatrix(COMPANION))


@pytest.fixture(scope="module")
def perturbed_map():
    a = UnimodularMatrix(COMPANION)
    eig = eigen_real(a)
    rot = build_localized_rotation(eig, center=CENTER, plane=(2, 1), rho=0.12,
                                   theta_max=0.5)
    return TorusMap(a, [rot])


# ---------------------------------------------------------------- qr spectrum

def test_qr_spectrum_companion(linear_map):
    want = np.log(COMPANION_EIGS)
    got = qr_spectrum(linear_map, X0, 400)
    assert np.allclose(got, want, atol=1e-12)
    other = qr_spectrum(linear_map, np.array([0.9, 0.1, 0.55]), 400)
    assert np.allclose(got, other, atol=1e-12)
    assert abs(got.sum()) < 1e-12


def test_qr_spectrum_cat():
    m = TorusMap(UnimodularMatrix(CAT))
    got = qr_spectrum(m, np.array([0.3, 0.6]), 300)
    assert np.allclose(got, np.log(CAT_EIGS), atol=1e-12)


def test_qr_spectrum_identity():
    eye = TorusMap(UnimodularMatrix([[1, 0], [0, 1]]))
    got = qr_spectrum(eye, np.array([0.3, 0.6]), 50)
    assert np.array_equal(got, np.zeros(2))


def test_qr_spectrum_validates_steps(linear_map):
    with pytest.raises(ValueError):
        qr_spectrum(linear_map, X0, 0)


def test_qr_spectrum_batch_rows_match_single_points(perturbed_map):
    pts = np.vstack([np.random.default_rng(5).random((2, 3)),
                     perturbed_map.sample_support(1, 5)])
    got = qr_spectrum(perturbed_map, pts, 300)
    assert got.shape == (3, 3)
    for x, row in zip(pts, got):
        assert np.array_equal(row, qr_spectrum(perturbed_map, x, 300))


def _qr_spectrum_by_steps(map_, x, n):
    # reference: apply and differential of the whole batch at every step
    dim = map_.n
    y = np.atleast_2d(np.asarray(x, dtype=float))
    q = np.broadcast_to(generic_seed_frame(dim, dim), (y.shape[0], dim, dim))
    logs = np.zeros(y.shape)
    for j in range(lyapunov._QR_BURN_IN + n):
        q, r = np.linalg.qr(map_.differential(y) @ q)
        diag = np.diagonal(r, axis1=1, axis2=2)
        q = q * np.where(diag < 0, -1.0, 1.0)[:, None, :]
        if j >= lyapunov._QR_BURN_IN:
            logs += np.log(np.abs(diag))
        y = map_.apply(y)
    return np.sort(logs / float(n), axis=1)[:, ::-1]


def test_qr_spectrum_matches_per_step_loop_across_slabs(perturbed_map, monkeypatch):
    # CENTER's orbit starts inside the support
    pts = np.vstack([CENTER, perturbed_map.sample_support(1, 3), X0])
    assert perturbed_map.support_mask(perturbed_map.orbit(pts[0], 400)).sum() > 1
    want = _qr_spectrum_by_steps(perturbed_map, pts, 300)
    assert np.array_equal(qr_spectrum(perturbed_map, pts, 300), want)
    # slabs of 7 and of 1 orbit steps: seams in the burn-in, at its end
    # and in the accumulation, and a short last slab
    for chunk in (21, 2):
        monkeypatch.setattr(lyapunov, "CHUNK", chunk)
        assert np.array_equal(qr_spectrum(perturbed_map, pts, 300), want)
        assert np.array_equal(qr_spectrum(perturbed_map, pts[0], 300), want[0])


def test_qr_spectrum_perturbed_sum_zero(perturbed_map):
    got = qr_spectrum(perturbed_map, X0, 2000)
    assert abs(got.sum()) < 1e-6
    assert np.allclose(got, np.log(COMPANION_EIGS), atol=0.05)


# ---------------------------------------------------------------- one step

def _one_step(map_, x, frame):
    xs = np.asarray(x, float)[None]
    vals, ok = _one_step_logs(map_.differential(xs), frame[None])
    assert ok[0]
    return vals[0]


def test_one_step_eigen_lines(linear_map):
    v = linear_map.eigen.vectors
    for i, lam in enumerate(COMPANION_EIGS):
        got = _one_step(linear_map, X0, v[:, i:i + 1])
        assert abs(got - math.log(lam)) < 1e-12


def test_one_step_eigen_plane_uses_gram_ratio(linear_map):
    # v1, v2 are far from orthogonal; the wedge growth must still be exact
    v = linear_map.eigen.vectors
    got = _one_step(linear_map, X0, v[:, :2])
    assert abs(got - math.log(COMPANION_EIGS[0] * COMPANION_EIGS[1])) < 1e-12


def test_one_step_full_frame_volume_preserving(perturbed_map):
    rng = np.random.default_rng(3)
    xs = rng.random((50, 3))
    frames = np.broadcast_to(np.eye(3), (50, 3, 3)).copy()
    vals, ok = _one_step_logs(perturbed_map.differential(xs), frames)
    assert ok.all()
    assert np.abs(vals).max() < 1e-9


def test_one_step_degenerate_frame(linear_map):
    frame = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]])
    _, ok = _one_step_logs(linear_map.differential(X0[None]), frame[None])
    assert not ok[0]


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_one_step_basis_invariance(seed):
    rng = np.random.default_rng(seed)
    m = TorusMap(UnimodularMatrix(COMPANION))
    x = rng.random(3)
    frame = rng.normal(size=(3, 2))
    mix = rng.normal(size=(2, 2))
    while abs(np.linalg.det(mix)) < 0.1:
        mix = rng.normal(size=(2, 2))
    a = _one_step(m, x, frame)
    b = _one_step(m, x, frame @ mix)
    assert abs(a - b) < 1e-10


# ---------------------------------------------------------------- integrated

def integrated(map_, selector, N, seed=0, threads=None):
    """The bundle's integrated exponent as `exponents` reports it."""
    return splitting_exponents(map_, selector, N, seed, threads)["integrated"]


def test_integrated_linear_exact_zero_spread(linear_map):
    rep = integrated(linear_map, BundleSelector((1,)), N=500, seed=1)
    assert rep["stderr"] == 0.0
    assert rep["rejected"] == 0
    assert abs(rep["estimate"] - math.log(COMPANION_EIGS[0])) < 1e-12
    assert set(rep) == {"bundle", "estimate", "stderr", "N", "m", "seed", "rejected"}
    assert rep["bundle"] == [1]
    assert rep["N"] == 500 and rep["seed"] == 1


def test_integrated_linear_noncontiguous_selector(linear_map):
    rep = integrated(linear_map, BundleSelector((1, 3)), N=200, seed=0)
    want = math.log(COMPANION_EIGS[0] * COMPANION_EIGS[2])
    assert rep["stderr"] == 0.0
    assert abs(rep["estimate"] - want) < 1e-12


def test_integrated_full_bundle_sums_to_zero(linear_map):
    rep = integrated(linear_map, BundleSelector((1, 2, 3)), N=200, seed=0)
    assert abs(rep["estimate"]) < 1e-12
    assert rep["stderr"] == 0.0


def test_integrated_perturbed_bundle_sum(perturbed_map):
    reps = [
        integrated(perturbed_map, BundleSelector((i,)), N=3000, seed=9)
        for i in (1, 2, 3)
    ]
    total = sum(r["estimate"] for r in reps)
    joint = math.sqrt(sum(r["stderr"] ** 2 for r in reps))
    assert all(r["rejected"] <= 3 for r in reps)
    assert abs(total) <= max(3 * joint, 1e-6)


def test_integrated_determinism_across_threads(perturbed_map):
    sel = BundleSelector((2,))
    a = integrated(perturbed_map, sel, N=1500, seed=4, threads=1)
    b = integrated(perturbed_map, sel, N=1500, seed=4, threads=3)
    assert a == b


def test_integrated_stderr_scales_with_samples(perturbed_map):
    # the integrand is heavy-tailed (rare support hits carry the variance),
    # so single-seed stderr estimates fluctuate; the median over seeds must
    # still scale like 1/sqrt(N)
    sel = BundleSelector((2,))
    ratios = []
    for seed in (12, 13, 14, 15, 16):
        small = integrated(perturbed_map, sel, N=1500, seed=seed)
        large = integrated(perturbed_map, sel, N=15000, seed=seed)
        ratios.append(small["stderr"] / large["stderr"])
    med = float(np.median(ratios))
    assert 2.2 < med < 4.5


def test_integrated_validates(linear_map):
    with pytest.raises(ValueError):
        integrated(linear_map, BundleSelector((1,)), N=0)
    with pytest.raises(ValueError):
        integrated(linear_map, BundleSelector((1, 4)), N=10)


# ---------------------------------------------------------------- birkhoff

def test_birkhoff_linear(linear_map):
    rep = birkhoff_exponent(linear_map, BundleSelector((1, 2)), X0, n=50)
    want = math.log(COMPANION_EIGS[0] * COMPANION_EIGS[1])
    assert abs(rep["estimate"] - want) < 1e-10
    assert rep["stderr"] == 0.0
    assert rep["N"] == 50
    assert set(rep) == {"bundle", "estimate", "stderr", "N", "m", "rejected"}


def test_birkhoff_validates_orbit_length(linear_map):
    with pytest.raises(ValueError):
        birkhoff_exponent(linear_map, BundleSelector((1,)), X0, n=0)


def test_birkhoff_agrees_with_integrated(perturbed_map):
    sel = BundleSelector((2,))
    mc = integrated(perturbed_map, sel, N=20000, seed=21)
    orbit = birkhoff_exponent(perturbed_map, sel, X0, n=20000)
    joint = math.sqrt(mc["stderr"] ** 2 + orbit["stderr"] ** 2)
    assert abs(mc["estimate"] - orbit["estimate"]) <= 3 * joint


# ---------------------------------------------------------------- in-support gap

def frame_path_logs(map_, xs):
    """The chart-metric integrand from transported bundle frames: the e2
    chart coefficient of Df v over that of v, less ln|lambda_2|."""
    row = np.linalg.inv(map_.eigen.vectors)[1]
    frames, status, _ = bundle_frames(map_, xs, BundleSelector((2,)))
    v = frames[:, :, 0]
    moved = np.einsum("bij,bj->bi", map_.differential(xs), v)
    vals = np.log(np.abs((moved @ row) / (v @ row)))
    return vals - math.log(abs(map_.eigen.values[1])), status


@pytest.fixture(scope="module")
def calibration_map():
    return TorusMap.from_dict(CALIBRATION["map"])


@pytest.fixture(scope="module", params=[[1, 2], [2, 1]])
def map_4d(request):
    # eigenvalues -4.545, -1.734, 0.522, -0.243: signed lambda_2 / lambda_1
    return TorusMap.from_dict({"linear": M4, "rotations": [
        {"center": [0.3, 0.55, 0.7, 0.45], "plane": request.param,
         "rho": 0.1, "theta_max": 0.6}]})


def test_chart_line_identity_off_support(perturbed_map):
    xs = np.random.default_rng(8).random((6000, 3))
    xs = xs[~perturbed_map.support_mask(xs)][:4000]
    vals, _, _, status = _line_values(perturbed_map, xs,
                                      horizon(perturbed_map.eigen))
    assert np.all(status == OK)
    assert np.max(np.abs(vals)) < 1e-13


def test_line_values_locates_each_point_once(perturbed_map, monkeypatch):
    # one chart pass over the samples, then one over each step's image,
    # which the next step reuses
    assert chart_line_holds(perturbed_map)
    xs = perturbed_map.sample_support(400, 3)
    want = _line_values(perturbed_map, xs, 12)
    calls = []
    locate = LocalizedRotation.locate

    def counted(rot, points):
        calls.append(points.shape[0])
        return locate(rot, points)

    monkeypatch.setattr(LocalizedRotation, "locate", counted)
    got = _line_values(perturbed_map, xs, 12)
    assert calls == [400] * 13
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_chart_line_flags_vanishing_e2(perturbed_map):
    # the strong-unstable eigenvector has no e2 chart coefficient; as the
    # line (n2, -n1) its hyperplane has chart normal e2*
    xs = np.array([[0.1, 0.2, 0.3], [0.5, 0.5, 0.5], CENTER])
    normal = (np.zeros(3), np.ones(3))
    vals, status = _line_logs(perturbed_map.chart_blocks(xs), normal)
    assert np.all(status == STATUS_E2ZERO)
    assert np.all(np.isfinite(vals))


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 3))
@settings(max_examples=8, deadline=None)
def test_per_sample_values_independent_of_chunks_and_threads(seed, chunk, threads):
    map_ = TorusMap.from_dict(CALIBRATION["map"])
    inside = map_.sample_support(40, seed)
    # frame transport is slow: 12 points, half of them in the support
    mixed = np.vstack([map_.sample_uniform(6, seed), inside[:6]])
    cases = ((partial(_line_values, map_, steps=horizon(map_.eigen)), inside),
             (partial(_frame_values, map_, selector=BundleSelector((2,))), mixed),
             (partial(_frame_values, map_, selector=BundleSelector((2,)), lines=True),
              mixed))
    saved = lyapunov.CHUNK
    lyapunov.CHUNK = chunk
    try:
        split = [_per_sample(fn, pts, threads) for fn, pts in cases]
    finally:
        lyapunov.CHUNK = saved
    for (fn, pts), got in zip(cases, split):
        want = fn(pts)
        assert len(got) == len(want)
        for a, b in zip(want, got):
            assert np.array_equal(a, b)


def test_horizon_drowns_the_seed_error(calibration_map):
    steps = horizon(calibration_map.eigen)
    ratio = COMPANION_EIGS[1] / COMPANION_EIGS[0]
    assert steps == 50
    assert ratio ** steps < 2.0 ** -53 <= ratio ** (steps - 1)
    # x^4 - 3x^2 + 1 has eigenvalues +-1.618 and +-0.618: no gap to wait out
    with pytest.raises(NoGap):
        horizon(eigen_real(UnimodularMatrix(
            [[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 3], [0, 0, 1, 0]])))


def test_line_without_return_is_the_twist_log(calibration_map, map_4d):
    for map_ in (calibration_map, map_4d):
        pts = map_.sample_support(3000, 1)
        g, g0, returned, status = _line_values(map_, pts, horizon(map_.eigen))
        assert np.all(status == OK)
        assert 0 < np.count_nonzero(returned) < 300
        assert np.max(np.abs(g - g0)[~returned]) < 1e-13


def test_covector_line_matches_frame_transport(calibration_map, map_4d):
    for map_ in (calibration_map, map_4d):
        pts = map_.sample_support(4000, 4)
        g, _, returned, status = _line_values(map_, pts, horizon(map_.eigen))
        # every returner of the draw and 300 samples that do not return
        keep = np.concatenate([np.flatnonzero(returned),
                               np.flatnonzero(~returned)[:300]])
        want, frame_status = frame_path_logs(map_, pts[keep])
        assert np.all(status == OK) and np.all(frame_status == OK)
        assert np.count_nonzero(returned) >= 5
        assert np.max(np.abs(g[keep] - want)) < 1e-13


def test_twist_rules_agree(calibration_map, map_4d):
    for rot in (calibration_map.rotations[0], map_4d.rotations[0]):
        coarse, fine = (twist_mean(rot, rule) for rule in _TWIST_RULES)
        assert fine > 0.0
        assert abs(fine - coarse) <= 1e-12 * fine


def test_twist_mean_matches_monte_carlo(calibration_map, map_4d):
    for map_ in (calibration_map, map_4d):
        pts = map_.sample_support(200000, 6)
        g0 = -np.log(np.abs(map_.chart_blocks(pts)[0, 0]))
        sigma = g0.std(ddof=1) / math.sqrt(g0.size)
        want = twist_mean(map_.rotations[0], _TWIST_RULES[1])
        assert abs(g0.mean() - want) <= 3.0 * sigma


def test_support_gap_matches_calibration(calibration_map):
    rep = support_gap(calibration_map, N=5000, seed=2)
    assert rep["rejected"] == 0
    assert rep["support_samples"] == 5000
    assert rep["stderr"] > 0.0
    joint = 3.0 * math.hypot(rep["stderr"], CALIBRATION["gap_stderr"])
    assert abs(rep["estimate"] - CALIBRATION["gap"]) <= joint
    assert rep["estimate"] == rep["twist_integral"] + rep["return_correction"]
    assert rep["stderr"] == math.hypot(rep["quadrature_error"],
                                       rep["return_stderr"])
    assert 0 < rep["returned"] < 500 and rep["horizon"] == 50
    # the correction is a small fraction of the exact twist term
    assert abs(rep["return_correction"]) < 1e-2 * rep["twist_integral"]


def test_support_gap_linear_is_exactly_zero(linear_map):
    rep = support_gap(linear_map, N=1000, seed=0)
    assert (rep["estimate"], rep["stderr"]) == (0.0, 0.0)
    assert (rep["support_volume"], rep["support_samples"]) == (0.0, 0)
    assert (rep["twist_integral"], rep["return_correction"], rep["returned"]) == (0.0, 0.0, 0)
    with pytest.raises(ValueError):
        support_gap(linear_map, N=0)


# ---------------------------------------------------------------- one-pass birkhoff

def test_chart_line_preconditions(calibration_map, linear_map):
    a = UnimodularMatrix(COMPANION)
    eig = eigen_real(a)
    assert chart_line_holds(calibration_map) and chart_line_holds(linear_map)
    # each violation names the offending field of the map spec
    field, reason = chart_line_violation(TorusMap(UnimodularMatrix(CAT)))
    assert field == "linear" and reason.endswith("so dimension >= 3")
    # the inverse has one expanding direction only
    field, reason = chart_line_violation(TorusMap(a.inverse()))
    assert field == "linear" and reason.startswith("the second eigen-direction must expand")
    rots = [build_localized_rotation(eig, center=CENTER, plane=(2, 1), rho=0.05,
                                     theta_max=0.3),
            build_localized_rotation(eig, center=[0.81, 0.97, 0.12], plane=(1, 3),
                                     rho=0.05, theta_max=0.3)]
    field, reason = chart_line_violation(TorusMap(a, rots))
    assert field == "rotations[1].plane" and reason.endswith("must mix eigen-directions 1 and 2")
    twin = build_localized_rotation(eig, center=[0.32, 0.47, 0.62], plane=(1, 2),
                                    rho=0.05, theta_max=0.3)
    field, reason = chart_line_violation(TorusMap(a, [rots[0], twin]))
    assert field == "rotations[1]"
    assert reason.startswith("support overlaps the support of rotations[0] on the torus")


def test_orbit_line_matches_frame_transport(calibration_map, map_4d):
    for map_ in (calibration_map, map_4d):
        steps = horizon(map_.eigen)
        pts = map_.sample_support(4000, 4)
        returned = _line_values(map_, pts, steps)[2]
        # orbits from five samples that return within the horizon, and two
        # that do not
        for x0 in np.vstack([pts[returned][:5], pts[~returned][:2]]):
            # birkhoff_exponent runs only the visits through _line_values
            # and puts g = 0 at every other orbit point, where
            # test_chart_line_identity_off_support checks the integrand
            orbit = map_.orbit(x0, 200)
            visit = np.flatnonzero(map_.support_mask(orbit))
            g, _, _, status = _line_values(map_, orbit[visit], steps)
            assert visit[0] == 0 and np.all(status == OK)
            want, frame_status = frame_path_logs(map_, orbit[visit])
            assert np.all(frame_status == OK)
            assert np.max(np.abs(g - want)) < 1e-13


def test_birkhoff_one_pass_matches_frame_path(calibration_map):
    n = 6000
    x0 = calibration_map.sample_uniform(1, 202)[0]
    rep = birkhoff_exponent(calibration_map, BundleSelector((2,)), x0, n)
    vals, status, depth = _frame_run(calibration_map, BundleSelector((2,)),
                                     calibration_map.orbit(x0, n), None)
    valid = vals[status == OK]
    est, stderr = _spread(valid, blocks=min(100, max(2, valid.size // 1000)))
    assert depth.max() >= 40 and rep["m"] == 0 and rep["rejected"] == 0
    assert rep["stderr"] > 0.0
    # the chart and Euclidean integrands differ by a coboundary, whose
    # endpoint term is below 2^-53 here: neither end lies just before a visit
    assert abs(rep["estimate"] - est) < 1e-12
    assert rep["stderr"] == pytest.approx(stderr, rel=0.2)


def test_birkhoff_orbit_without_visits_is_exactly_lambda_2(calibration_map):
    x0 = calibration_map.sample_uniform(1, 202)[0]
    assert not calibration_map.support_mask(x0)
    want = math.log(abs(float(calibration_map.eigen.values[1])))
    for n in (1, 5):
        rep = birkhoff_exponent(calibration_map, BundleSelector((2,)), x0, n)
        assert not np.any(calibration_map.support_mask(calibration_map.orbit(x0, n)))
        assert (rep["estimate"], rep["stderr"]) == (want, 0.0)
        assert (rep["rejected"], rep["m"]) == (0, 0)


def test_birkhoff_frame_path_off_the_chart_line(calibration_map):
    a = UnimodularMatrix(COMPANION)
    tilted = TorusMap(a, [build_localized_rotation(
        eigen_real(a), center=CENTER, plane=(1, 3), rho=0.12, theta_max=0.5)])
    assert not chart_line_holds(tilted)
    x0 = calibration_map.sample_uniform(1, 7)[0]
    for map_, sel in ((calibration_map, (1, 2)), (tilted, (2,))):
        rep = birkhoff_exponent(map_, BundleSelector(sel), x0, 300)
        assert rep["m"] >= 40
