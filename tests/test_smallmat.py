"""Exact small-matrix layer, checked against independent oracles.

Oracles here are deliberately written with different algorithms than the
implementation: cofactor-expansion determinants, bisection root finding on the
characteristic polynomial, and cross-product volumes.
"""
import math
import operator
from functools import reduce
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlab import smallmat
from pathlab.smallmat import (
    DegenerateSpectrum,
    NonRealSpectrum,
    UnimodularMatrix,
    WedgeIndex,
    char_poly,
    eigen_real,
    exterior_power,
    int_det,
    k_volume,
    ordered_dot,
)

CAT = [[2, 1], [1, 1]]
COMPANION = [[0, 0, 1], [1, 0, -6], [0, 1, 5]]

# frozen from the bisection oracle below (200 bisections on the exact char poly)
CAT_EIGS = [2.618033988749895, 0.3819660112501051]
COMPANION_EIGS = [3.2469796037174667, 1.5549581320873718, 0.1980622641951617]


# ---------------------------------------------------------------- oracles

def det_cofactor(rows):
    """Determinant by first-row cofactor expansion. Exact for int entries."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * det_cofactor(minor)
        total += -term if j % 2 else term
    return total


def poly_eval(coeffs, x):
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def bisect_root(coeffs, lo, hi, iterations=200):
    flo = poly_eval(coeffs, lo)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        fm = poly_eval(coeffs, mid)
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def volume_cross(frame):
    """k-volume oracles that avoid Gram determinants."""
    frame = np.asarray(frame, dtype=float)
    n, k = frame.shape
    if k == 1:
        return float(np.linalg.norm(frame[:, 0]))
    if n == 3 and k == 2:
        return float(np.linalg.norm(np.cross(frame[:, 0], frame[:, 1])))
    if n == 2 and k == 2:
        return abs(float(frame[0, 0] * frame[1, 1] - frame[0, 1] * frame[1, 0]))
    if n == 3 and k == 3:
        return abs(float(np.dot(np.cross(frame[:, 0], frame[:, 1]), frame[:, 2])))
    raise NotImplementedError


# ---------------------------------------------------------------- unimodular

def test_unimodular_validates_determinant():
    m = UnimodularMatrix(CAT)
    assert m.det == 1
    with pytest.raises(ValueError):
        UnimodularMatrix([[2, 0], [0, 2]])
    with pytest.raises(ValueError):
        UnimodularMatrix([[1, 2, 3], [4, 5, 6]])


def test_unimodular_dimension_bounds():
    with pytest.raises(ValueError):
        UnimodularMatrix([[1]])
    eye9 = [[1 if i == j else 0 for j in range(9)] for i in range(9)]
    with pytest.raises(ValueError):
        UnimodularMatrix(eye9)


def test_integer_inverse_exact():
    for rows in (CAT, COMPANION, [[1, 1, 0], [0, 1, 1], [0, 0, 1]]):
        m = UnimodularMatrix(rows)
        inv = m.inverse()
        prod = m.entries @ inv.entries
        assert np.array_equal(prod, np.eye(m.n, dtype=np.int64))


@given(st.integers(2, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_int_det_matches_cofactor_oracle(n, data):
    rows = [
        [data.draw(st.integers(-6, 6)) for _ in range(n)]
        for _ in range(n)
    ]
    assert int_det(rows) == det_cofactor(rows)


def test_triangular_products_are_unimodular():
    # products of elementary shears stay unimodular; |det| = 1 accepted for -1 too
    m = UnimodularMatrix([[0, 1], [1, 0]])
    assert m.det == -1
    inv = m.inverse()
    assert np.array_equal(m.entries @ inv.entries, np.eye(2, dtype=np.int64))


def test_inexact_inverse_raises(monkeypatch):
    m = UnimodularMatrix(COMPANION)
    exact = smallmat.int_det

    def off_by_one_minors(rows):
        return exact(rows) + (1 if len(rows) < m.n else 0)

    monkeypatch.setattr(smallmat, "int_det", off_by_one_minors)
    with pytest.raises(ArithmeticError, match="not exact"):
        m.inverse()


# ---------------------------------------------------------------- char poly

def test_char_poly_cat_map():
    assert char_poly(CAT) == [1, -3, 1]


def test_char_poly_companion():
    assert char_poly(COMPANION) == [1, -5, 6, -1]


def test_char_poly_inexact_division_raises(monkeypatch):
    # with a doubled identity the cat map's trace recurrence leaves 11 / 2
    doubled = smallmat._identity_object

    monkeypatch.setattr(smallmat, "_identity_object", lambda n: 2 * doubled(n))
    with pytest.raises(ArithmeticError, match="exact"):
        char_poly(CAT)


@given(st.integers(2, 5), st.data())
@settings(max_examples=30, deadline=None)
def test_char_poly_annihilates_matrix(n, data):
    rows = [
        [data.draw(st.integers(-4, 4)) for _ in range(n)]
        for _ in range(n)
    ]
    coeffs = char_poly(rows)
    a = np.array(rows, dtype=object)
    acc = np.zeros((n, n), dtype=object)
    for c in coeffs:
        acc = acc @ a + c * np.eye(n, dtype=object)
    assert np.array_equal(acc, np.zeros((n, n), dtype=object))


def test_char_poly_constant_term_is_signed_det():
    for rows in (CAT, COMPANION):
        coeffs = char_poly(rows)
        n = len(rows)
        assert coeffs[-1] == (-1) ** n * det_cofactor([list(r) for r in rows])


# ---------------------------------------------------------------- eigen

def test_eigen_cat_map_against_bisection_oracle():
    lam1 = bisect_root([1, -3, 1], 2.0, 3.0)
    lam2 = bisect_root([1, -3, 1], 0.0, 1.0)
    assert abs(lam1 - CAT_EIGS[0]) < 1e-12
    assert abs(lam2 - CAT_EIGS[1]) < 1e-12

    eig = eigen_real(CAT)
    assert np.allclose(eig.values, [lam1, lam2], atol=1e-9)
    v1 = eig.vectors[:, 0]
    assert abs(v1[0] - 0.8506508083520399) < 1e-4
    assert abs(v1[1] - 0.5257311121191336) < 1e-4


def test_eigen_companion_against_bisection_oracle():
    roots = [
        bisect_root([1, -5, 6, -1], 3.0, 4.0),
        bisect_root([1, -5, 6, -1], 1.0, 2.0),
        bisect_root([1, -5, 6, -1], 0.0, 1.0),
    ]
    assert np.allclose(roots, COMPANION_EIGS, atol=1e-13)
    eig = eigen_real(COMPANION)
    assert np.allclose(eig.values, roots, atol=1e-9)


def test_eigen_ordering_and_sign_convention():
    eig = eigen_real(COMPANION)
    assert eig.values[0] > eig.values[1] > eig.values[2]
    for j in range(3):
        v = eig.vectors[:, j]
        assert v[np.argmax(np.abs(v))] > 0
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_eigen_residual_contract():
    for rows in (CAT, COMPANION):
        a = np.array(rows, dtype=float)
        eig = eigen_real(rows)
        scale = np.linalg.norm(a, 2)
        for j in range(len(rows)):
            r = np.linalg.norm(a @ eig.vectors[:, j] - eig.values[j] * eig.vectors[:, j])
            assert r <= 1e-10 * scale


def test_eigen_rejects_rotation_spectrum():
    with pytest.raises(NonRealSpectrum):
        eigen_real([[0, -1], [1, 0]])


def test_eigen_rejects_identity():
    with pytest.raises(DegenerateSpectrum):
        eigen_real([[1, 0], [0, 1]])


def test_eigen_rejects_shear():
    # defective: double eigenvalue 1
    with pytest.raises(DegenerateSpectrum):
        eigen_real([[1, 1], [0, 1]])
    # defective double eigenvalue -1, char poly (x+1)^2 (x^2 - 6x + 1): LAPACK
    # returns it as two values 6e-8 apart, above the spacing tolerance
    with pytest.raises(DegenerateSpectrum, match="repeated root"):
        eigen_real([[5, 0, -2, 2], [0, 1, 2, -2], [-2, 0, 1, -1], [2, 2, 4, -3]])


# ---------------------------------------------------------------- wedge index

def test_wedge_index_lexicographic():
    w = WedgeIndex(4, 2)
    assert w.subsets == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_wedge_index_labels():
    w = WedgeIndex(3, 2)
    assert w.labels() == ["dx1^dx2", "dx1^dx3", "dx2^dx3"]


@given(st.integers(2, 8), st.data())
@settings(max_examples=25, deadline=None)
def test_wedge_index_bijection(n, data):
    k = data.draw(st.integers(1, n))
    w = WedgeIndex(n, k)
    assert len(w.subsets) == math.comb(n, k)
    assert w.subsets == tuple(combinations(range(n), k))


# ---------------------------------------------------------------- exterior

def test_exterior_power_k1_is_matrix():
    assert np.array_equal(exterior_power(CAT, 1), np.array(CAT))


def test_exterior_power_top_is_det():
    e = exterior_power(COMPANION, 3)
    assert e.shape == (1, 1)
    assert e[0, 0] == 1


def test_exterior_power_companion_spectrum():
    e2 = exterior_power(COMPANION, 2)
    vals = sorted(np.linalg.eigvals(e2.astype(float)).real, reverse=True)
    lam = COMPANION_EIGS
    expect = sorted([lam[0] * lam[1], lam[0] * lam[2], lam[1] * lam[2]], reverse=True)
    assert np.allclose(vals, expect, atol=1e-9)


def test_exterior_power_entries_are_minors():
    a = np.array(COMPANION)
    e2 = exterior_power(COMPANION, 2)
    w = WedgeIndex(3, 2)
    for bi, rows in enumerate(w.subsets):
        for bj, cols in enumerate(w.subsets):
            sub = [[int(a[r, c]) for c in cols] for r in rows]
            assert e2[bi, bj] == det_cofactor(sub)


@given(st.integers(2, 5), st.data())
@settings(max_examples=20, deadline=None)
def test_exterior_power_functorial(n, data):
    k = data.draw(st.integers(1, n))
    draw_m = lambda: [[data.draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    a, b = draw_m(), draw_m()
    left = exterior_power(np.array(a) @ np.array(b), k)
    right = exterior_power(a, k) @ exterior_power(b, k)
    assert np.array_equal(left, right)


def test_exterior_power_det_identity():
    # det of the k-th exterior power is det(A)^C(n-1, k-1)
    for rows, k in ((COMPANION, 2), (CAT, 2), (COMPANION, 3)):
        n = len(rows)
        d = det_cofactor([list(r) for r in rows])
        e = exterior_power(rows, k)
        lhs = det_cofactor([[int(x) for x in row] for row in e])
        assert lhs == d ** math.comb(n - 1, k - 1)


def test_exterior_power_float_input():
    # integer-valued floats take the exact path; other floats are rejected
    e2 = exterior_power(3.0 * np.array(COMPANION, dtype=float), 2)
    assert e2.dtype == np.int64
    assert np.array_equal(e2, 9 * exterior_power(COMPANION, 2))
    with pytest.raises(ValueError):
        exterior_power(np.array(COMPANION, dtype=float) / 3.0, 2)


# ---------------------------------------------------------------- k_volume

def test_k_volume_unit_square():
    frame = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert abs(k_volume(frame) - 1.0) < 1e-14


def test_k_volume_against_cross_product():
    rng = np.random.default_rng(7)
    for _ in range(50):
        frame = rng.normal(size=(3, 2))
        assert abs(k_volume(frame) - volume_cross(frame)) < 1e-10 * max(1.0, volume_cross(frame))
    for _ in range(20):
        frame = rng.normal(size=(3, 3))
        assert abs(k_volume(frame) - volume_cross(frame)) < 1e-9


def test_k_volume_degenerate_frame():
    frame = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
    assert k_volume(frame) < 1e-12


def test_k_volume_nearly_parallel_columns():
    # the Gram determinant 1 + d^2 - 1 keeps no digit of d^2 here
    for d in (1e-6, 1e-9):
        frame = np.array([[1.0, 1.0], [0.0, d], [0.0, 0.0]])
        assert abs(k_volume(frame) - d) <= 1e-12 * d
        batched = k_volume(np.stack([frame, 2.0 * frame]))
        assert np.allclose(batched, [d, 4.0 * d], rtol=1e-12, atol=0.0)


def test_k_volume_batched():
    rng = np.random.default_rng(3)
    frames = rng.normal(size=(11, 3, 2))
    vols = k_volume(frames)
    assert vols.shape == (11,)
    for i in range(11):
        assert abs(vols[i] - volume_cross(frames[i])) < 1e-10


def test_k_volume_ratio_basis_independent():
    # growth ratios under a linear map must not depend on the spanning basis
    rng = np.random.default_rng(11)
    a = np.array(COMPANION, dtype=float)
    for _ in range(25):
        frame = rng.normal(size=(3, 2))
        # bounded-condition recombination
        mix = np.eye(2) + 0.5 * rng.normal(size=(2, 2))
        if abs(np.linalg.det(mix)) < 0.2:
            continue
        r1 = k_volume(a @ frame) / k_volume(frame)
        r2 = k_volume(a @ frame @ mix) / k_volume(frame @ mix)
        assert abs(r1 - r2) <= 1e-10 * r1


# ---------------------------------------------------------------- ordered_dot

@given(st.integers(1, 8), st.integers(1, 30), st.data())
@settings(max_examples=40, deadline=None)
def test_ordered_dot_rows_do_not_depend_on_the_batch(n, batch, data):
    # a row gets the bits it gets alone, in any sub-batch, and Python
    # floats get the float64 bits of the left-to-right sum
    num = st.floats(-1e6, 1e6, allow_nan=False)
    col = st.lists(num, min_size=batch, max_size=batch)
    a = np.array(data.draw(st.lists(col, min_size=n, max_size=n)))
    b = np.array(data.draw(st.lists(col, min_size=n, max_size=n)))
    whole = ordered_dot(a, b)
    lo = data.draw(st.integers(0, batch - 1))
    hi = data.draw(st.integers(lo + 1, batch))
    assert whole[lo:hi].tobytes() == ordered_dot(a[:, lo:hi], b[:, lo:hi]).tobytes()
    for i in range(batch):
        x, y = a[:, i].tolist(), b[:, i].tolist()
        alone = ordered_dot(x, y)
        assert isinstance(alone, float)
        assert np.float64(alone).tobytes() == whole[i].tobytes()
        left_to_right = reduce(operator.add, map(operator.mul, x, y))
        assert np.float64(alone).tobytes() == np.float64(left_to_right).tobytes()
