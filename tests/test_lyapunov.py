"""Spectra and integrated exponents against eigenvalue-log oracles."""
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlab import lyapunov
from pathlab.bundles import OK, STATUS_E2ZERO
from pathlab.homology import BundleSelector
from pathlab.lyapunov import (
    DegenerateFrame,
    _bundle_values,
    _chart_line_logs,
    birkhoff_exponent,
    integrated_exponent,
    one_step_log_jacobian,
    qr_spectrum,
    support_gap,
)
from pathlab.smallmat import UnimodularMatrix, eigen_real
from pathlab.torusmap import TorusMap, build_localized_rotation

CAT = [[2, 1], [1, 1]]
COMPANION = [[0, 0, 1], [1, 0, -6], [0, 1, 5]]
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


def test_qr_spectrum_perturbed_sum_zero(perturbed_map):
    got = qr_spectrum(perturbed_map, X0, 2000)
    assert abs(got.sum()) < 1e-6
    assert np.allclose(got, np.log(COMPANION_EIGS), atol=0.05)


# ---------------------------------------------------------------- one step

def test_one_step_eigen_lines(linear_map):
    v = linear_map.eigen.vectors
    for i, lam in enumerate(COMPANION_EIGS):
        got = one_step_log_jacobian(linear_map, X0, v[:, i:i + 1])
        assert abs(got - math.log(lam)) < 1e-12


def test_one_step_eigen_plane_uses_gram_ratio(linear_map):
    # v1, v2 are far from orthogonal; the wedge growth must still be exact
    v = linear_map.eigen.vectors
    got = one_step_log_jacobian(linear_map, X0, v[:, :2])
    assert abs(got - math.log(COMPANION_EIGS[0] * COMPANION_EIGS[1])) < 1e-12


def test_one_step_full_frame_volume_preserving(perturbed_map):
    rng = np.random.default_rng(3)
    xs = rng.random((50, 3))
    frames = np.broadcast_to(np.eye(3), (50, 3, 3)).copy()
    vals = one_step_log_jacobian(perturbed_map, xs, frames)
    assert np.abs(vals).max() < 1e-9


def test_one_step_degenerate_frame(linear_map):
    frame = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegenerateFrame):
        one_step_log_jacobian(linear_map, X0, frame)


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
    a = one_step_log_jacobian(m, x, frame)
    b = one_step_log_jacobian(m, x, frame @ mix)
    assert abs(a - b) < 1e-10


# ---------------------------------------------------------------- integrated

def test_integrated_linear_exact_zero_spread(linear_map):
    rep = integrated_exponent(linear_map, BundleSelector((1,)), N=500, seed=1)
    assert rep["stderr"] == 0.0
    assert rep["rejected"] == 0
    assert abs(rep["estimate"] - math.log(COMPANION_EIGS[0])) < 1e-12
    assert set(rep) == {"bundle", "estimate", "stderr", "N", "m", "seed", "rejected"}
    assert rep["bundle"] == [1]
    assert rep["N"] == 500 and rep["seed"] == 1


def test_integrated_linear_noncontiguous_selector(linear_map):
    rep = integrated_exponent(linear_map, BundleSelector((1, 3)), N=200, seed=0)
    want = math.log(COMPANION_EIGS[0] * COMPANION_EIGS[2])
    assert rep["stderr"] == 0.0
    assert abs(rep["estimate"] - want) < 1e-12


def test_integrated_full_bundle_sums_to_zero(linear_map):
    rep = integrated_exponent(linear_map, BundleSelector((1, 2, 3)), N=200, seed=0)
    assert abs(rep["estimate"]) < 1e-12
    assert rep["stderr"] == 0.0


def test_integrated_perturbed_bundle_sum(perturbed_map):
    reps = [
        integrated_exponent(perturbed_map, BundleSelector((i,)), N=3000, seed=9)
        for i in (1, 2, 3)
    ]
    total = sum(r["estimate"] for r in reps)
    joint = math.sqrt(sum(r["stderr"] ** 2 for r in reps))
    assert all(r["rejected"] <= 3 for r in reps)
    assert abs(total) <= max(3 * joint, 1e-6)


def test_integrated_determinism_across_threads(perturbed_map):
    sel = BundleSelector((2,))
    a = integrated_exponent(perturbed_map, sel, N=1500, seed=4, threads=1)
    b = integrated_exponent(perturbed_map, sel, N=1500, seed=4, threads=3)
    assert a == b


def test_integrated_stderr_scales_with_samples(perturbed_map):
    # the integrand is heavy-tailed (rare support hits carry the variance),
    # so single-seed stderr estimates fluctuate; the median over seeds must
    # still scale like 1/sqrt(N)
    sel = BundleSelector((2,))
    ratios = []
    for seed in (12, 13, 14, 15, 16):
        small = integrated_exponent(perturbed_map, sel, N=1500, seed=seed)
        large = integrated_exponent(perturbed_map, sel, N=15000, seed=seed)
        ratios.append(small["stderr"] / large["stderr"])
    med = float(np.median(ratios))
    assert 2.2 < med < 4.5


def test_integrated_validates(linear_map):
    with pytest.raises(ValueError):
        integrated_exponent(linear_map, BundleSelector((1,)), N=0)
    with pytest.raises(ValueError):
        integrated_exponent(linear_map, BundleSelector((1, 4)), N=10)


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
    mc = integrated_exponent(perturbed_map, sel, N=20000, seed=21)
    orbit = birkhoff_exponent(perturbed_map, sel, X0, n=20000)
    joint = math.sqrt(mc["stderr"] ** 2 + orbit["stderr"] ** 2)
    assert abs(mc["estimate"] - orbit["estimate"]) <= 3 * joint


# ---------------------------------------------------------------- in-support gap

def test_chart_line_identity_off_support(perturbed_map):
    xs = np.random.default_rng(8).random((6000, 3))
    xs = xs[~perturbed_map.support_mask(xs)][:4000]
    sel = BundleSelector((2,))
    vals, status, _ = _bundle_values(perturbed_map, xs, sel, None,
                                     logs=_chart_line_logs(perturbed_map.eigen))
    assert np.all(status == OK)
    assert np.max(np.abs(vals)) < 1e-13


def test_chart_line_flags_vanishing_e2(perturbed_map):
    # the strong-unstable eigenvector has no e2 chart coefficient
    v1 = perturbed_map.eigen.vectors[:, 0]
    frames = np.broadcast_to((v1 / np.linalg.norm(v1))[:, None], (3, 3, 1)).copy()
    xs = np.array([[0.1, 0.2, 0.3], [0.5, 0.5, 0.5], CENTER])
    vals, status = _chart_line_logs(perturbed_map.eigen)(perturbed_map, xs, frames)
    assert np.all(status == STATUS_E2ZERO)
    assert np.all(np.isfinite(vals))


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 3))
@settings(max_examples=8, deadline=None)
def test_gap_values_independent_of_chunks_and_threads(seed, chunk, threads):
    map_ = TorusMap.from_dict(CALIBRATION["map"])
    pts = map_.sample_support(40, seed)
    sel = BundleSelector((2,))
    logs = _chart_line_logs(map_.eigen)
    whole, st_whole, _ = _bundle_values(map_, pts, sel, None, logs=logs)
    saved = lyapunov.CHUNK
    lyapunov.CHUNK = chunk
    try:
        split, st_split, _ = _bundle_values(map_, pts, sel, None, threads, logs)
    finally:
        lyapunov.CHUNK = saved
    assert np.array_equal(whole, split)
    assert np.array_equal(st_whole, st_split)


def test_support_gap_matches_calibration():
    rep = support_gap(TorusMap.from_dict(CALIBRATION["map"]), N=5000, seed=2)
    assert rep["rejected"] == 0
    assert rep["support_samples"] == 5000
    assert rep["stderr"] > 0.0
    joint = 3.0 * math.hypot(rep["stderr"], CALIBRATION["gap_stderr"])
    assert abs(rep["estimate"] - CALIBRATION["gap"]) <= joint


def test_support_gap_linear_is_exactly_zero(linear_map):
    rep = support_gap(linear_map, N=1000, seed=0)
    assert (rep["estimate"], rep["stderr"]) == (0.0, 0.0)
    assert (rep["support_volume"], rep["support_samples"]) == (0.0, 0)
    with pytest.raises(ValueError):
        support_gap(linear_map, N=0)
