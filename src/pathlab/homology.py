"""Action on torus homology and the growth data carried by eigen-bundles.

H_k(T^n, R) is identified with Lambda^k R^n in the doubly-lexicographic
WedgeIndex basis; constant-coefficient forms dx_I are the dual basis, so the
pairing is a plain dot product. The norm on homology is Euclidean in this
basis (any fixed choice works for the normalized statements).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .smallmat import EigenData, UnimodularMatrix, WedgeIndex, exterior_power

# two eigenvalue products closer than this (relative) are treated as a
# repeated eigenvalue of the induced map
_SIMPLE_RTOL = 1e-8


class NonSimpleTopEigenvalue(ValueError):
    """Selected eigenvalue product is not simple on the induced map."""


@dataclass(frozen=True)
class BundleSelector:
    """Sorted 1-based eigen-direction indices naming a bundle/foliation."""

    indices: tuple

    def __init__(self, indices):
        idx = tuple(indices)
        if not idx:
            raise ValueError("selector must name at least one eigen-direction")
        for i in idx:
            if not isinstance(i, (int, np.integer)) or isinstance(i, bool):
                raise ValueError(f"eigen indices must be integers, got {i!r}")
            if i < 1:
                raise ValueError(f"eigen indices are 1-based, got {i}")
        if len(set(idx)) != len(idx):
            raise ValueError(f"duplicate eigen index in {idx}")
        object.__setattr__(self, "indices", tuple(sorted(int(i) for i in idx)))

    @property
    def k(self) -> int:
        return len(self.indices)

    def validate_for(self, n: int):
        if self.indices[-1] > n:
            raise ValueError(f"selector {self.indices} out of range for dimension {n}")

    def zero_based(self):
        return tuple(i - 1 for i in self.indices)


@dataclass(frozen=True)
class HomologyClass:
    """Unit-norm class in grade k with deterministic sign."""

    k: int
    coefficients: np.ndarray


def induced_on_Hk(a: UnimodularMatrix, k: int):
    """Matrix of the induced map on H_k(T^n, Z) in the WedgeIndex basis.

    Perturbed maps induce the same matrix as their linear part (they are
    isotopic to it), so this only ever takes the linear part.
    """
    if not isinstance(a, UnimodularMatrix):
        a = UnimodularMatrix(a)
    if not 1 <= k <= a.n:
        raise ValueError(f"grade must be in 1..{a.n}, got {k}")
    return exterior_power(a, k)


def wedge_coefficients(frame) -> np.ndarray:
    """Unit-norm WedgeIndex coordinates of the wedge of the frame columns.

    Depends only on the column span: recombining or reordering columns at
    most rescales the wedge, and the normalization (unit norm, largest
    coefficient positive) removes that.
    """
    frame = np.asarray(frame, dtype=float)
    if frame.ndim != 2:
        raise ValueError("frame must be a 2-D array of column vectors")
    n, k = frame.shape
    wi = WedgeIndex(n, k)
    minors = np.empty((len(wi), k, k))
    for ordinal, subset in enumerate(wi.subsets):
        minors[ordinal] = frame[list(subset), :]
    coeffs = np.linalg.det(minors) if k > 1 else minors[:, 0, 0].copy()
    norm = float(np.linalg.norm(coeffs))
    if norm < 1e-12 * max(1.0, float(np.abs(frame).max())) or norm == 0.0:
        raise ValueError("frame columns are linearly dependent")
    coeffs /= norm
    if coeffs[np.argmax(np.abs(coeffs))] < 0:
        coeffs = -coeffs
    return coeffs


def topological_growth(eigen: EigenData, selector: BundleSelector):
    """Growth eigenvalue and carried class of the selected eigen-bundle.

    Returns (lambda_W, HomologyClass). lambda_W is the product of the
    selected eigenvalues; the class is the normalized wedge of the selected
    eigenvectors. Raises NonSimpleTopEigenvalue when another eigenvalue
    product of the same grade has the same modulus.
    """
    n = eigen.n
    selector.validate_for(n)
    k = selector.k
    chosen = selector.zero_based()
    lam = float(prod(eigen.values[list(chosen)]))
    wi = WedgeIndex(n, k)
    for subset in wi.subsets:
        if subset == chosen:
            continue
        other = float(prod(eigen.values[list(subset)]))
        if abs(abs(other) - abs(lam)) <= _SIMPLE_RTOL * max(1.0, abs(lam)):
            raise NonSimpleTopEigenvalue(
                f"products over {tuple(i + 1 for i in subset)} and "
                f"{selector.indices} share modulus {abs(lam):.12g}"
            )
    coeffs = wedge_coefficients(eigen.vectors[:, list(chosen)])
    # consistency against the exact induced map of the integer matrix the
    # eigen data came from
    a = np.rint(eigen.vectors @ np.diag(eigen.values) @ np.linalg.inv(eigen.vectors))
    induced = exterior_power(a, k)
    residual = float(np.linalg.norm(induced @ coeffs - lam * coeffs))
    if residual > 1e-9 * max(1.0, float(np.abs(induced).max())):
        raise ValueError(f"carried class failed eigen-verification: residual {residual:.3e}")
    return lam, HomologyClass(k, coeffs)


def growth_report(eigen: EigenData, selector: BundleSelector) -> dict:
    lam, h = topological_growth(eigen, selector)
    wi = WedgeIndex(eigen.n, h.k)
    return {
        "k": h.k,
        "lambda_W": lam,
        "h_W": [float(c) for c in h.coefficients],
        "basis": wi.labels(),
    }
