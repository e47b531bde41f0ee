"""Induced action on H_k, topological growth, carried classes, pairing.

Wedge-coefficient oracles here are hand-coded cross products for n = 3 and
explicit 2x2 minors, independent of the WedgeIndex machinery.
"""
import math
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlab.homology import (
    BundleSelector,
    NonSimpleTopEigenvalue,
    growth_report,
    induced_on_Hk,
    topological_growth,
    wedge_coefficients,
)
from pathlab.smallmat import UnimodularMatrix, WedgeIndex, eigen_real, exterior_power

CAT = [[2, 1], [1, 1]]
COMPANION = [[0, 0, 1], [1, 0, -6], [0, 1, 5]]
# companion of (x^2-3x+1)(x^2-5x+1): the eigenvalue products over {1,4} and
# {2,3} both equal 1 exactly, so those selections must be rejected as non-simple
RECIPROCAL4 = [[0, 0, 0, -1], [1, 0, 0, 8], [0, 1, 0, -17], [0, 0, 1, 8]]

CAT_EIGS = [2.618033988749895, 0.3819660112501051]
COMPANION_EIGS = [3.2469796037174667, 1.5549581320873718, 0.1980622641951617]


def wedge2_cross(a, b):
    """Coefficients of a^b for n = 3 in the doubly-lex basis {12, 13, 23}."""
    return np.array([
        a[0] * b[1] - a[1] * b[0],
        a[0] * b[2] - a[2] * b[0],
        a[1] * b[2] - a[2] * b[1],
    ])


# ---------------------------------------------------------------- selectors

def test_selector_normalizes_and_validates():
    s = BundleSelector((2, 1))
    assert s.indices == (1, 2)
    assert s.k == 2
    with pytest.raises(ValueError):
        BundleSelector(())
    with pytest.raises(ValueError):
        BundleSelector((1, 1))
    with pytest.raises(ValueError):
        BundleSelector((0, 2))
    with pytest.raises(ValueError):
        BundleSelector((1.5,))


def test_selector_range_check():
    s = BundleSelector((1, 3))
    s.validate_for(3)
    with pytest.raises(ValueError):
        s.validate_for(2)


# ---------------------------------------------------------------- induced map

def test_induced_on_H1_is_the_matrix():
    a = UnimodularMatrix(COMPANION)
    assert np.array_equal(induced_on_Hk(a, 1), a.entries)


def test_induced_on_top_grade_is_det():
    for rows in (CAT, COMPANION, RECIPROCAL4):
        a = UnimodularMatrix(rows)
        top = induced_on_Hk(a, a.n)
        assert top.shape == (1, 1)
        assert top[0, 0] == a.det


def test_induced_eigenvalues_are_products():
    a = UnimodularMatrix(COMPANION)
    m = induced_on_Hk(a, 2)
    got = sorted(np.linalg.eigvals(np.asarray(m, dtype=float)).real)
    want = sorted(
        COMPANION_EIGS[i] * COMPANION_EIGS[j] for i, j in combinations(range(3), 2)
    )
    assert np.allclose(got, want, atol=1e-8)


def test_induced_matches_exterior_power():
    a = UnimodularMatrix(RECIPROCAL4)
    for k in (1, 2, 3, 4):
        assert np.array_equal(induced_on_Hk(a, k), exterior_power(a, k))
    with pytest.raises(ValueError):
        induced_on_Hk(a, 0)
    with pytest.raises(ValueError):
        induced_on_Hk(a, 5)


# ---------------------------------------------------------------- wedge coords

def test_wedge_coefficients_single_vector():
    v = np.array([[3.0], [4.0]])
    got = wedge_coefficients(v)
    assert np.allclose(got, [0.6, 0.8], atol=1e-15)


def test_wedge_coefficients_cross_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        f = rng.normal(size=(3, 2))
        want = wedge2_cross(f[:, 0], f[:, 1])
        want = want / np.linalg.norm(want)
        if want[np.argmax(np.abs(want))] < 0:
            want = -want
        assert np.allclose(wedge_coefficients(f), want, atol=1e-12)


def test_wedge_coefficients_degenerate_frame():
    f = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    with pytest.raises(ValueError):
        wedge_coefficients(f)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_wedge_coefficients_span_invariance(data):
    # any orientation-agnostic recombination of the frame leaves the
    # normalized, sign-fixed coefficients unchanged
    n = data.draw(st.integers(2, 4))
    k = data.draw(st.integers(1, n))
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    f = rng.normal(size=(n, k))
    base = wedge_coefficients(f)
    perm = list(data.draw(st.permutations(range(k))))
    scales = np.array([data.draw(st.sampled_from([-2.0, -0.5, 0.5, 3.0])) for _ in range(k)])
    g = f[:, perm] * scales
    assert np.allclose(wedge_coefficients(g), base, atol=1e-10)


# ---------------------------------------------------------------- growth

def test_cat_unstable_growth():
    eig = eigen_real(UnimodularMatrix(CAT))
    lam, h = topological_growth(eig, BundleSelector((1,)))
    assert abs(lam - CAT_EIGS[0]) < 1e-12
    assert h.k == 1
    assert np.allclose(h.coefficients, [0.8506508083520399, 0.5257311121191336], atol=1e-12)


def test_companion_full_unstable_growth():
    eig = eigen_real(UnimodularMatrix(COMPANION))
    lam, h = topological_growth(eig, BundleSelector((1, 2)))
    assert abs(lam - COMPANION_EIGS[0] * COMPANION_EIGS[1]) < 1e-10
    assert abs(lam - 1.0 / COMPANION_EIGS[2]) < 1e-10
    want = wedge2_cross(eig.vectors[:, 0], eig.vectors[:, 1])
    want = want / np.linalg.norm(want)
    if want[np.argmax(np.abs(want))] < 0:
        want = -want
    assert np.allclose(h.coefficients, want, atol=1e-12)


def test_full_selection_is_fundamental_class():
    eig = eigen_real(UnimodularMatrix(COMPANION))
    lam, h = topological_growth(eig, BundleSelector((1, 2, 3)))
    assert abs(lam - 1.0) < 1e-9
    assert h.coefficients.shape == (1,)
    assert abs(h.coefficients[0] - 1.0) < 1e-12


def test_single_middle_and_stable_directions():
    eig = eigen_real(UnimodularMatrix(COMPANION))
    for idx, lam_want in ((2, COMPANION_EIGS[1]), (3, COMPANION_EIGS[2])):
        lam, h = topological_growth(eig, BundleSelector((idx,)))
        assert abs(lam - lam_want) < 1e-10
        assert np.allclose(h.coefficients, eig.vectors[:, idx - 1], atol=1e-12)


def test_nonsimple_product_rejected():
    eig = eigen_real(UnimodularMatrix(RECIPROCAL4))
    with pytest.raises(NonSimpleTopEigenvalue):
        topological_growth(eig, BundleSelector((1, 4)))
    with pytest.raises(NonSimpleTopEigenvalue):
        topological_growth(eig, BundleSelector((2, 3)))
    lam, _ = topological_growth(eig, BundleSelector((1, 2)))
    want = (5 + math.sqrt(21)) / 2 * (3 + math.sqrt(5)) / 2
    assert abs(lam - want) < 1e-9


def test_selector_out_of_range_rejected():
    eig = eigen_real(UnimodularMatrix(CAT))
    with pytest.raises(ValueError):
        topological_growth(eig, BundleSelector((1, 3)))


def test_inversion_mirrors_selector():
    # eigen order of the inverse is reversed, so S = {i} of A corresponds to
    # {n+1-i} of A^-1; the growth inverts exactly
    for rows in (CAT, COMPANION):
        a = UnimodularMatrix(rows)
        eig = eigen_real(a)
        eig_inv = eigen_real(a.inverse())
        n = a.n
        for size in range(1, n + 1):
            for subset in combinations(range(1, n + 1), size):
                mirror = tuple(sorted(n + 1 - i for i in subset))
                lam, _ = topological_growth(eig, BundleSelector(subset))
                lam_inv, _ = topological_growth(eig_inv, BundleSelector(mirror))
                assert abs(lam_inv - 1.0 / lam) < 1e-9


# ---------------------------------------------------------------- pairing

def test_pairing_dual_basis():
    # the dx_i are the dual basis, so pairing with dx_i reads coefficient i
    eig = eigen_real(UnimodularMatrix(CAT))
    _, h = topological_growth(eig, BundleSelector((1,)))
    assert abs(h.coefficients[0] - 0.8506508083520399) < 1e-12
    assert abs(h.coefficients[1] - 0.5257311121191336) < 1e-12


# ---------------------------------------------------------------- report

def test_growth_report_fragment():
    eig = eigen_real(UnimodularMatrix(COMPANION))
    frag = growth_report(eig, BundleSelector((1, 2)))
    assert set(frag) == {"k", "lambda_W", "h_W", "basis"}
    assert frag["k"] == 2
    assert frag["basis"] == ["dx1^dx2", "dx1^dx3", "dx2^dx3"]
    assert abs(frag["lambda_W"] - 5.048917339522307) < 1e-10
    assert all(isinstance(c, float) for c in frag["h_W"])
    assert abs(np.linalg.norm(frag["h_W"]) - 1.0) < 1e-12
