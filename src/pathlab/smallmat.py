"""Exact linear algebra for small integer matrices (2 <= n <= 8).

Everything that feeds topological invariants (determinants, characteristic
polynomials, exterior powers) is computed in exact integer arithmetic with
Python ints, so homology data carries no floating-point error. Floating-point
enters only through the eigen decomposition and k-volumes, which carry explicit
residual contracts, and through ordered_dot, the one fixed-order product of the
batched float code.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

MIN_DIM = 2
MAX_DIM = 8


class NonRealSpectrum(RuntimeError):
    """Raised when the spectrum has a complex pair beyond tolerance."""


class DegenerateSpectrum(RuntimeError):
    """Raised when two eigenvalues coincide within tolerance, or when an
    integer matrix has a repeated eigenvalue."""


def ordered_dot(a, b):
    """sum_k a[k] * b[k] over the first axis, left to right, one
    elementwise pass per term; the terms broadcast.

    Every product whose per-sample floats must not depend on the batch a
    sample rides in goes through here: BLAS kernels round differently for
    different batch sizes, and leaf refinement recomputes nodes in batches
    of varying size. Numpy arrays and sequences of Python floats give the
    same bits.
    """
    acc = a[0] * b[0]
    for k in range(1, len(a)):
        acc = acc + a[k] * b[k]
    return acc


def _as_int_rows(a):
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if arr.dtype.kind == "f":
        if not np.all(arr == np.round(arr)):
            raise ValueError("matrix entries must be integers")
    elif arr.dtype.kind not in "iuO":
        raise ValueError(f"unsupported entry dtype {arr.dtype}")
    return [[int(x) for x in row] for row in arr]


def int_det(rows) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m = _as_int_rows(rows)
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def _check_exact(m, what):
    # the float map reads A and A^-1 as floats, which hold every integer
    # exactly only below 2**53 in magnitude
    if max(abs(x) for row in m for x in row) >= 2 ** 53:
        raise ValueError(f"{what} must be below 2**53 in magnitude")


class UnimodularMatrix:
    """Integer matrix with |det| = 1, validated exactly at construction."""

    def __init__(self, rows):
        m = _as_int_rows(rows)
        n = len(m)
        if not MIN_DIM <= n <= MAX_DIM:
            raise ValueError(f"dimension {n} outside [{MIN_DIM}, {MAX_DIM}]")
        _check_exact(m, "entries")
        d = int_det(m)
        if d not in (1, -1):
            raise ValueError(f"matrix is not unimodular: det = {d}")
        self.n = n
        self.det = d
        self.entries = np.array(m, dtype=np.int64)
        self.entries.setflags(write=False)
        self._inverse = None

    def as_float(self) -> np.ndarray:
        return self.entries.astype(float)

    def inverse(self) -> "UnimodularMatrix":
        """Exact integer inverse: the adjugate times det (det is +-1)."""
        if self._inverse is None:
            m = [[int(x) for x in row] for row in self.entries]
            n = self.n
            adj = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    minor = [row[:j] + row[j + 1:] for ri, row in enumerate(m) if ri != i]
                    adj[j][i] = (-1) ** (i + j) * int_det(minor)
            inv = [[self.det * adj[i][j] for j in range(n)] for i in range(n)]
            _check_exact(inv, "entries of the inverse")
            inv = np.array(inv, dtype=np.int64)
            if not np.array_equal(self.entries @ inv, np.eye(n, dtype=np.int64)):
                raise ArithmeticError("adjugate inverse is not exact")
            self._inverse = UnimodularMatrix(inv)
        return self._inverse

    def __repr__(self):
        return f"UnimodularMatrix({self.entries.tolist()})"

    def __eq__(self, other):
        return isinstance(other, UnimodularMatrix) and np.array_equal(self.entries, other.entries)


def _identity_object(n):
    ident = np.zeros((n, n), dtype=object)
    for i in range(n):
        ident[i, i] = 1
    return ident


def char_poly(a) -> list[int]:
    """Exact characteristic polynomial det(xI - A), coefficients descending.

    Faddeev-LeVerrier recurrence; all divisions are exact over the integers.
    """
    if isinstance(a, UnimodularMatrix):
        a = a.entries
    rows = _as_int_rows(a)
    n = len(rows)
    arr = np.array(rows, dtype=object)
    ident = _identity_object(n)
    coeffs = [1]
    m = arr.copy()
    c = -sum(int(m[i, i]) for i in range(n))
    coeffs.append(c)
    for k in range(2, n + 1):
        m = arr @ (m + c * ident)
        tr = sum(int(m[i, i]) for i in range(n))
        q, r = divmod(-tr, k)
        if r != 0:
            raise ArithmeticError("Faddeev-LeVerrier division must be exact")
        c = q
        coeffs.append(c)
    return coeffs


@dataclass(frozen=True)
class EigenData:
    """Real simple spectrum, eigenvalues sorted by decreasing modulus.

    vectors holds unit eigenvectors in columns; the component of largest
    magnitude in each is positive, which pins the otherwise free sign.
    """

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray

    @property
    def n(self) -> int:
        return len(self.values)


# eigen_real's relative tolerance: on imaginary parts, eigenvalue spacing and
# residuals, each against ||A||
_EIGEN_TOL = 1e-10


def _has_repeated_root(p) -> bool:
    """Whether the integer polynomial p (coefficients descending) has a
    repeated root: exactly when the Sylvester determinant of p and p' is 0."""
    n = len(p) - 1
    dp = [c * (n - i) for i, c in enumerate(p[:-1])]
    rows = [[0] * i + p + [0] * (n - 2 - i) for i in range(n - 1)]
    rows += [[0] * i + dp + [0] * (n - 1 - i) for i in range(n)]
    return int_det(rows) == 0


def eigen_real(a) -> EigenData:
    """Eigen decomposition restricted to the real simple case.

    Raises NonRealSpectrum for complex pairs and DegenerateSpectrum when two
    eigenvalues coincide within _EIGEN_TOL * ||A||, or, for an integer
    matrix, when its characteristic polynomial has a repeated root: a
    defective eigenvalue can come back from LAPACK as two values about
    sqrt(eps) apart. Residuals ||Av - lambda v|| are checked against the
    same scale.
    """
    if isinstance(a, UnimodularMatrix):
        a = a.as_float()
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    n = arr.shape[0]
    scale = float(np.linalg.norm(arr, 2))
    scale = max(scale, 1e-300)
    w, v = np.linalg.eig(arr)
    if np.max(np.abs(w.imag)) > _EIGEN_TOL * scale:
        raise NonRealSpectrum(f"complex eigenvalues detected: {w}")
    values = w.real
    order = np.lexsort((-values, -np.abs(values)))
    values = values[order]
    vectors = v.real[:, order]
    gaps = np.abs(values[:, None] - values[None, :]) + np.eye(n) * scale
    if gaps.min() < _EIGEN_TOL * scale:
        raise DegenerateSpectrum(f"eigenvalue spacing below tolerance: {values}")
    if np.all(arr == np.round(arr)):
        poly = char_poly(arr)
        if _has_repeated_root(poly):
            raise DegenerateSpectrum(
                f"characteristic polynomial {poly} has a repeated root")
    out = np.empty_like(vectors)
    residuals = np.empty(n)
    for j in range(n):
        col = vectors[:, j]
        col = col / np.linalg.norm(col)
        if col[np.argmax(np.abs(col))] < 0:
            col = -col
        out[:, j] = col
        residuals[j] = np.linalg.norm(arr @ col - values[j] * col)
    if residuals.max() > _EIGEN_TOL * scale:
        raise ValueError(f"eigen residual {residuals.max():.3e} exceeds contract")
    return EigenData(values=values, vectors=out, residuals=residuals)


class WedgeIndex:
    """Lexicographic indexing of k-element subsets of {0..n-1}.

    Subsets are stored 0-based; labels follow the 1-based coordinate naming
    dx1^dx2^... used in reports.
    """

    def __init__(self, n: int, k: int):
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        self.n = n
        self.k = k
        self.subsets = tuple(combinations(range(n), k))

    def __len__(self):
        return len(self.subsets)

    def labels(self) -> list[str]:
        return ["^".join(f"dx{i + 1}" for i in s) for s in self.subsets]


def exterior_power(a, k: int) -> np.ndarray:
    """Matrix of the induced map on the k-th exterior power.

    Entry (I, J) is the k x k minor with rows I and columns J, both running in
    lexicographic order. Exact int64 output (overflow is detected); entries
    that are not integers raise ValueError.
    """
    if isinstance(a, UnimodularMatrix):
        a = a.entries
    rows = _as_int_rows(a)
    w = WedgeIndex(len(rows), k)
    m = len(w)
    out = [[0] * m for _ in range(m)]
    for bi, ri in enumerate(w.subsets):
        for bj, cj in enumerate(w.subsets):
            minor = [[rows[r][c] for c in cj] for r in ri]
            out[bi][bj] = int_det(minor) if k > 1 else minor[0][0]
    flat = [x for row in out for x in row]
    if max(abs(x) for x in flat) >= 2 ** 63:
        raise OverflowError("exterior power entry exceeds int64")
    return np.array(out, dtype=np.int64)


def k_volume(frame) -> float | np.ndarray:
    """k-dimensional volume of the parallelepiped spanned by frame columns.

    frame has shape (..., n, k); the result is sqrt(det(F^T F)) with leading
    batch dimensions preserved. For k > 1 it is |det R| of the QR factor:
    the Gram determinant squares the frame's condition number, so nearly
    parallel columns would lose twice the digits.
    """
    arr = np.asarray(frame, dtype=float)
    if arr.ndim < 2:
        raise ValueError("frame must have shape (..., n, k)")
    n, k = arr.shape[-2], arr.shape[-1]
    if k > n:
        raise ValueError(f"frame has more columns ({k}) than rows ({n})")
    if k > 1:
        r = np.linalg.qr(arr, mode="r")
        vol = np.abs(np.prod(np.diagonal(r, axis1=-2, axis2=-1), axis=-1))
    else:
        gram = np.einsum("...ij,...ik->...jk", arr, arr)
        vol = np.sqrt(np.clip(gram[..., 0, 0], 0.0, None))
    if arr.ndim == 2:
        return float(vol)
    return vol
