"""Perturbed toral automorphisms f = T_A o h_1 o ... o h_m.

Each h is a volume-preserving rotation localized in an ellipsoid around a
center point: in eigen-chart coordinates u = L^-1 (x - p) the (u_i, u_j) plane
is rotated by an angle psi(|u|) that vanishes to all orders at the support
boundary. The angle depends only on the chart radius, which the rotation
preserves, so every h has Jacobian determinant 1 pointwise and a closed-form
inverse (rotate by -psi).

All point operations accept single points (n,) or batches (B, n); maps act on
the last axis.
"""
from __future__ import annotations

import math
from itertools import product

import numpy as np

from .smallmat import EigenData, UnimodularMatrix, eigen_real

# profile values below exp(1 - 1/eps) are flushed to an exact zero so the
# derivative formula never evaluates 0 * inf near the support boundary
_EDGE = 1e-3


class SupportTooLarge(ValueError):
    """Support ellipsoid too large to embed in the torus."""


def bump_profile(r, rho, theta_max):
    """Rotation angle psi(r) and derivative psi'(r) of the localized bump.

    psi(r) = theta_max * exp(1 - 1/(1 - (r/rho)^2)) for r < rho, else 0.
    """
    r = np.asarray(r, dtype=float)
    psi = np.zeros_like(r)
    dpsi = np.zeros_like(r)
    t2 = (r / rho) ** 2
    inner = t2 < 1.0 - _EDGE
    if np.any(inner):
        ti2 = t2[inner]
        g = 1.0 / (1.0 - ti2)
        val = theta_max * np.exp(1.0 - g)
        psi[inner] = val
        dpsi[inner] = -val * 2.0 * np.sqrt(ti2) * g * g / rho
    return psi, dpsi


def _wrap_half(d):
    # nearest lattice representative, each coordinate in [-0.5, 0.5)
    return d - np.floor(d + 0.5)


def _apply_matrix(points, mat):
    # row-wise mat @ p with a fixed accumulation order; BLAS matmul kernels
    # may round differently for different batch sizes, and leaf refinement
    # recomputes nodes in batches of varying size expecting identical floats.
    # One output component at a time keeps every pass over the long batch axis
    cols = [points[..., k] for k in range(mat.shape[1])]
    out = np.empty(points.shape[:-1] + (mat.shape[0],))
    for i, row in enumerate(mat):
        acc = cols[0] * row[0]
        for k in range(1, len(cols)):
            acc = acc + cols[k] * row[k]
        out[..., i] = acc
    return out


def _chart_radius2(y, center, chart_inv):
    # squared chart radius of one point in Python floats, as locate
    d = [v - c for v, c in zip(y, center)]
    d = [v - math.floor(v + 0.5) for v in d]
    total = 0.0
    for row in chart_inv:
        u = 0.0
        for m, v in zip(row, d):
            u += m * v
        total += u * u
    return total


def _finite(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _check_rotation_spec(k, rs, n):
    # float() and int() in build_localized_rotation would coerce these silently
    center, plane = rs["center"], rs["plane"]
    if not isinstance(center, (list, tuple)) or len(center) != n or not all(map(_finite, center)):
        raise ValueError(f"rotations[{k}].center: must be {n} finite numbers, got {center!r}")
    if (not isinstance(plane, (list, tuple)) or len(plane) != 2
            or any(isinstance(p, bool) or not isinstance(p, int) for p in plane)):
        raise ValueError(f"rotations[{k}].plane: must be two integers, got {plane!r}")
    for key in ("rho", "theta_max"):
        if not _finite(rs[key]):
            raise ValueError(f"rotations[{k}].{key}: must be a finite number, got {rs[key]!r}")


def _mod1(y):
    # y - floor(y) equals y % 1.0 bit for bit (both add the same integer,
    # with the same rounding) at a quarter of the cost
    y = y - np.floor(y)
    y[y == 1.0] = 0.0
    return y


class LocalizedRotation:
    """One localized rotation in the eigen chart of the linear part."""

    def __init__(self, center, chart, plane, rho, theta_max):
        self.center = np.asarray(center, dtype=float)
        self.chart = np.asarray(chart, dtype=float)
        self.chart_inv = np.linalg.inv(self.chart)
        self.plane = (int(plane[0]), int(plane[1]))  # 0-based chart axes
        self.rho = float(rho)
        self.theta_max = float(theta_max)
        self.n = len(self.center)

    def locate(self, points):
        """The in-support rows of a batch (B, n), with their chart
        coordinates u = L^-1 wrap(x - c) and chart radii |u|: (rows, u, r).
        transform and differential take it as _located."""
        u = _apply_matrix(_wrap_half(points - self.center), self.chart_inv)
        r = np.linalg.norm(u, axis=-1)
        rows = np.flatnonzero(r < self.rho)
        return rows, u[rows], r[rows]

    def transform(self, points, sign, _located=None):
        """Apply the rotation (sign=+1) or its inverse (sign=-1)."""
        rows, u, r = self.locate(points) if _located is None else _located
        out = points.copy()
        psi = sign * bump_profile(r, self.rho, self.theta_max)[0]
        i, j = self.plane
        ui, uj = u[:, i], u[:, j]
        c = np.cos(psi)
        s = np.sin(psi)
        du = np.zeros_like(u)
        du[:, i] = c * ui - s * uj - ui
        du[:, j] = s * ui + c * uj - uj
        out[rows] += _apply_matrix(du, self.chart)
        return out

    def _twist(self, ui, uj, r, sign):
        """cos psi, sin psi, the shear rows (w_i, w_j) = dR/dpsi (u_i, u_j) and
        psi'/r of the rotation (sign +1) or its inverse (sign -1) at chart
        points of radius r: R' = R(psi) + w (psi'/r) u^T. The arrays broadcast."""
        psi, dpsi = bump_profile(r, self.rho, self.theta_max)
        psi = sign * psi
        dpsi = sign * dpsi
        c = np.cos(psi)
        s = np.sin(psi)
        coef = np.where(r > 0.0, dpsi / np.where(r > 0.0, r, 1.0), 0.0)
        return c, s, -s * ui - c * uj, c * ui - s * uj, coef

    def differential(self, points, sign, _located=None):
        """Analytic Jacobian (B, n, n); identity outside the support."""
        rows, um, rm = self.locate(points) if _located is None else _located
        n = self.n
        out = np.broadcast_to(np.eye(n), (points.shape[0], n, n)).copy()
        i, j = self.plane
        c, s, wi, wj, coef = self._twist(um[:, i], um[:, j], rm, sign)
        du = out[rows]
        du[:, i, i] = c
        du[:, i, j] = -s
        du[:, j, i] = s
        du[:, j, j] = c
        # radial shear: d/du [R(psi(|u|)) u] picks up (dR/dpsi u) psi' u^T / |u|
        w = np.zeros_like(um)
        w[:, i] = wi
        w[:, j] = wj
        du += w[:, :, None] * (um * coef[:, None])[:, None, :]
        out[rows] = np.einsum("ab,mbc,cd->mad", self.chart, du, self.chart_inv)
        return out

    def chart_block(self, u1, u2, r):
        """Entries (b11, b12, b21, b22) of the chart-axes (1, 2) block of the
        rotation's chart Jacobian R'(u) = L^-1 Dh L, at in-support chart
        points with first two coordinates u1, u2 and chart radius r; the
        arrays broadcast. For a rotation in chart plane {1, 2} these two
        rows carry the whole twist: rows 3..n of R' are identity rows.
        """
        if set(self.plane) != {0, 1}:
            raise ValueError("the chart (1, 2) block needs a rotation in chart plane {1, 2}")
        ui, uj = (u1, u2) if self.plane[0] == 0 else (u2, u1)
        c, s, wi, wj, coef = self._twist(ui, uj, r, +1)
        pi = ui * coef
        pj = uj * coef
        dii, dij = c + wi * pi, wi * pj - s
        dji, djj = s + wj * pi, c + wj * pj
        if self.plane[0] == 0:
            return dii, dij, dji, djj
        return djj, dji, dij, dii

    @property
    def support_volume(self) -> float:
        """Lebesgue volume of the support on the torus: |det L| V_n rho^n."""
        ball = math.pi ** (self.n / 2) / math.gamma(self.n / 2 + 1) * self.rho ** self.n
        return abs(float(np.linalg.det(self.chart))) * ball

    def support_points(self, normals, radial):
        """Points uniform in the support, built row by row from raw draws.

        normals (B, n) standard normal pick the chart direction and radial
        (B,) uniform in [0, 1) the chart radius rho * radial^(1/n); the point
        is x = c + L u mod 1.
        """
        normals = np.asarray(normals, dtype=float)
        scale = self.rho * np.asarray(radial, dtype=float) ** (1.0 / self.n)
        u = normals * (scale / np.linalg.norm(normals, axis=-1))[:, None]
        return _mod1(self.center + _apply_matrix(u, self.chart))

    def to_dict(self):
        return {
            "center": [float(x) for x in self.center],
            "plane": [self.plane[0] + 1, self.plane[1] + 1],
            "rho": self.rho,
            "theta_max": self.theta_max,
        }


def build_localized_rotation(eigen: EigenData, center, plane, rho, theta_max) -> LocalizedRotation:
    """Validated rotation in the eigen chart of the linear part.

    plane names two eigen-chart axes, 1-based, ordered by decreasing
    eigenvalue modulus. Raises SupportTooLarge when the support ellipsoid
    cannot embed in the torus, ValueError when a lattice point would fall
    inside the support (that would break exact lattice equivariance).
    """
    n = eigen.n
    center = np.asarray(center, dtype=float)
    if center.shape != (n,):
        raise ValueError(f"center must have shape ({n},), got {center.shape}")
    i, j = (int(p) for p in plane)
    if not (1 <= i <= n and 1 <= j <= n) or i == j:
        raise ValueError(f"plane must name two distinct eigen indices in 1..{n}, got {plane}")
    rho = float(rho)
    if rho <= 0:
        raise ValueError("rho must be positive")
    chart = eigen.vectors
    opnorm = float(np.linalg.norm(chart, 2))
    if 2.0 * rho * opnorm >= 1.0:
        raise SupportTooLarge(
            f"2 * rho * |L| = {2 * rho * opnorm:.4f} >= 1; support cannot embed"
        )
    rot = LocalizedRotation(center, chart, (i - 1, j - 1), rho, theta_max)
    u0 = rot.chart_inv @ _wrap_half(-center)
    if np.linalg.norm(u0) < rho * (1.0 + 1e-9):
        raise ValueError(
            f"lattice point inside support: chart distance {np.linalg.norm(u0):.4f} < rho"
        )
    return rot


class TorusMap:
    """f = T_A o h_1 o ... o h_m; the last rotation in the list acts first."""

    def __init__(self, linear, rotations=()):
        if not isinstance(linear, UnimodularMatrix):
            linear = UnimodularMatrix(linear)
        self.linear = linear
        self.rotations = tuple(rotations)
        for rot in self.rotations:
            if rot.n != linear.n:
                raise ValueError("rotation dimension does not match linear part")
        self._a = linear.as_float()
        self._a_inv = linear.inverse().as_float()
        self._eigen = None

    @property
    def n(self) -> int:
        return self.linear.n

    @property
    def eigen(self) -> EigenData:
        if self._eigen is None:
            self._eigen = eigen_real(self.linear)
        return self._eigen

    def _batch(self, x):
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 1
        if scalar:
            arr = arr[None, :]
        if arr.shape[-1] != self.n:
            raise ValueError(f"points must have {self.n} coordinates")
        return arr, scalar

    # ---------------------------------------------------------------- maps

    def _locate(self, pts):
        """The rows of a batch (B, n) in some support, and each rotation's
        locate of just those rows: the _located of lift_apply, apply and
        chart_blocks."""
        located = [rot.locate(pts) for rot in self.rotations]
        mask = np.zeros(pts.shape[0], dtype=bool)
        mask[np.concatenate([np.empty(0, np.intp)] + [loc[0] for loc in located])] = True
        hit = np.flatnonzero(mask)
        return hit, [(np.searchsorted(hit, rows), u, r) for rows, u, r in located]

    def _rotate(self, z, sign, located, steps=None):
        """In-support rows z, with their _locate, moved by the rotations in
        the order f (sign +1: the last first) or f^-1 (sign -1) applies them.
        Given steps, it collects each one's Jacobian at its input instead and
        skips the last move. Later rotations locate the moved rows again."""
        order = list(zip(self.rotations, located))[::-1 if sign > 0 else 1]
        for i, (rot, loc) in enumerate(order, 1):
            if i > 1:
                loc = rot.locate(z)
            if steps is not None:
                steps.append(rot.differential(z, sign, loc))
            if steps is None or i < len(order):
                z = rot.transform(z, sign, loc)
        return z

    def lift_apply(self, x, _located=None):
        """Universal-cover lift F(x) = A (x + periodic displacement)."""
        pts, scalar = self._batch(x)
        hit, located = _located or self._locate(pts)
        y = _apply_matrix(pts, self._a)
        y[hit] = _apply_matrix(self._rotate(pts[hit], +1, located), self._a)
        return y[0] if scalar else y

    def apply(self, x, _located=None):
        return _mod1(self.lift_apply(x, _located))

    def orbit(self, x0, n):
        """The (n, dim) orbit x0, f x0, ..., f^(n-1) x0, bit for bit the
        points that iterating apply gives.

        A step whose point lies off every support, with a chart-radius
        margin of 1e-9 relative that covers the scalar rounding, has every
        rotation exactly the identity: it runs in plain Python floats as
        A y in _apply_matrix's accumulation order, then _mod1. Every other
        step goes through apply.
        """
        n = int(n)
        if n < 1:
            raise ValueError("need at least one orbit point")
        pts, scalar = self._batch(x0)
        if not scalar:
            raise ValueError("an orbit starts at one point")
        a = self._a.tolist()
        balls = [(rot.center.tolist(), rot.chart_inv.tolist(),
                  (rot.rho * (1.0 + 1e-9)) ** 2) for rot in self.rotations]
        out = np.empty((n, self.n))
        y = pts[0].tolist()
        for j in range(n):
            out[j] = y
            if any(_chart_radius2(y, c, inv) < r2 for c, inv, r2 in balls):
                y = self.apply(out[j]).tolist()
                continue
            z = []
            for row in a:
                acc = y[0] * row[0]
                for k in range(1, len(y)):
                    acc = acc + y[k] * row[k]
                acc = acc - math.floor(acc)
                # numpy's floor keeps -0.0, and -0.0 - -0.0 is +0.0
                z.append(0.0 if acc == 1.0 or acc == 0.0 else acc)
            y = z
        return out

    def inverse_apply(self, x):
        pts, scalar = self._batch(x)
        y = _apply_matrix(pts, self._a_inv)
        hit, located = self._locate(y)
        y[hit] = self._rotate(y[hit], -1, located)
        return _mod1(y[0] if scalar else y)

    def differential_parts(self, x, sign=+1):
        """Df (sign +1) or D(f^-1) (sign -1) at a batch as (lin, rows, jac):
        lin = A or A^-1 at every row except the listed ones, which carry jac
        (rows, n, n).

        Off every support the rotations are the identity, so only rows whose
        rotation input lies in a support compose rotation Jacobians (_rotate).
        For f that input is x and A comes last; for f^-1 it is A^-1 x.
        """
        pts, _ = self._batch(x)
        lin, y = (self._a, pts) if sign > 0 else (self._a_inv, _apply_matrix(pts, self._a_inv))
        hit, located = self._locate(y)
        if not hit.size:
            return lin, hit, np.empty((0, self.n, self.n))
        steps = []
        self._rotate(y[hit], sign, located, steps)
        jac = None if sign > 0 else np.broadcast_to(lin, (hit.size,) + lin.shape).copy()
        for step in steps:
            jac = step if jac is None else np.einsum("bij,bjk->bik", step, jac)
        return lin, hit, jac if sign < 0 else np.einsum("ij,bjk->bik", lin, jac)

    def _dense_differential(self, x, sign):
        pts, scalar = self._batch(x)
        lin, hit, jac = self.differential_parts(pts, sign)
        out = np.broadcast_to(lin, (pts.shape[0],) + lin.shape).copy()
        out[hit] = jac
        return out[0] if scalar else out

    def differential(self, x):
        """Df at a point or batch: the dense form of differential_parts."""
        return self._dense_differential(x, +1)

    def inverse_differential(self, x):
        """D(f^-1) at a point or batch: the dense form of differential_parts."""
        return self._dense_differential(x, -1)

    # ---------------------------------------------------------------- misc

    @property
    def support_volume(self) -> float:
        return float(sum(rot.support_volume for rot in self.rotations))

    def support_overlaps(self):
        """Index pairs (i, j), i < j, of rotations whose supports meet.

        Both supports are chart balls under the same chart L, so they meet
        iff some lattice translate of the center offset has chart length
        below rho_i + rho_j. Such a translate d + k has Euclidean length
        below |L| (rho_i + rho_j) < 1 by the embedding guard, so with d
        wrapped to [-1/2, 1/2)^n only k in {-1, 0, 1}^n can qualify.
        """
        shifts = np.array(list(product((-1.0, 0.0, 1.0), repeat=self.n)))
        pairs = []
        for i, a in enumerate(self.rotations):
            for j in range(i + 1, len(self.rotations)):
                b = self.rotations[j]
                d = _wrap_half(b.center - a.center) + shifts
                dist = np.linalg.norm(_apply_matrix(d, a.chart_inv), axis=-1)
                if dist.min() < a.rho + b.rho:
                    pairs.append((i, j))
        return pairs

    def sample_uniform(self, samples, seed):
        """Points uniform on the torus: one (samples, n) draw from the seed."""
        samples = int(samples)
        if samples < 1:
            raise ValueError("need at least one sample")
        return np.random.default_rng(seed).random((samples, self.n))

    def sample_support(self, samples, seed):
        """Points uniform in the union of the (disjoint) rotation supports.

        Every draw comes from the seed in one pass before any point is
        built: a uniform that picks the support with probability
        proportional to its volume, a normal direction and a uniform
        radius. A point's floats therefore depend only on its own draws.
        """
        if not self.rotations:
            raise ValueError("a linear map has no rotation support to sample")
        samples = int(samples)
        rng = np.random.default_rng(seed)
        pick = rng.random(samples)
        normals = rng.standard_normal((samples, self.n))
        radial = rng.random(samples)
        vols = np.array([rot.support_volume for rot in self.rotations])
        which = np.searchsorted(np.cumsum(vols)[:-1] / vols.sum(), pick, side="right")
        pts = np.empty((samples, self.n))
        for idx, rot in enumerate(self.rotations):
            sel = which == idx
            pts[sel] = rot.support_points(normals[sel], radial[sel])
        return pts

    def chart_blocks(self, x, _located=None):
        """Chart-axes (1, 2) block of the rotations' chart Jacobian R' at a
        batch, component-major (2, 2, B); the identity off every support.

        With every rotation in chart plane {1, 2} and disjoint supports, the
        chart Jacobian L^-1 Df L is diag(lambda) R'. Rows 3..n of R' are
        identity rows, so the first two components of a chart covector
        pulled back by its transpose depend on this block alone.
        """
        pts, _ = self._batch(x)
        hit, located = _located or self._locate(pts)
        blk = np.zeros((2, 2, pts.shape[0]))
        blk[0, 0] = blk[1, 1] = 1.0
        for rot, (rows, u, r) in zip(self.rotations, located):
            if rows.size:
                rows = hit[rows]
                b11, b12, b21, b22 = rot.chart_block(u[:, 0], u[:, 1], r)
                blk[0, 0, rows], blk[0, 1, rows] = b11, b12
                blk[1, 0, rows], blk[1, 1, rows] = b21, b22
        return blk

    def support_mask(self, x):
        pts, scalar = self._batch(x)
        mask = np.zeros(pts.shape[0], dtype=bool)
        mask[self._locate(pts)[0]] = True
        return mask[0] if scalar else mask

    def c1_distance_estimate(self, samples: int = 10000, seed: int = 0) -> dict:
        """Sampled estimate of the C1 distance to the linear part.

        This is an estimate, not a certified bound; support_sampled reports
        whether any sample actually landed in a rotation support.
        """
        pts = self.sample_uniform(samples, seed)
        fx = self.apply(pts)
        lin = _mod1(_apply_matrix(pts, self._a))
        d0 = np.linalg.norm(_wrap_half(fx - lin), axis=-1)
        diff = self.differential(pts) - self._a
        dop = np.linalg.svd(diff, compute_uv=False)[:, 0]
        return {
            "estimate": float(np.max(d0 + dop)),
            "c0_max": float(np.max(d0)),
            "c1_op_max": float(np.max(dop)),
            "samples": int(samples),
            "support_sampled": bool(np.any(self.support_mask(pts))),
        }

    # ---------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        return {
            "linear": self.linear.entries.tolist(),
            "rotations": [rot.to_dict() for rot in self.rotations],
        }

    @classmethod
    def from_dict(cls, spec: dict) -> "TorusMap":
        if not isinstance(spec, dict):
            raise ValueError("map spec must be an object")
        unknown = set(spec) - {"linear", "rotations"}
        if unknown:
            raise ValueError(f"unknown map keys: {sorted(unknown)}")
        if "linear" not in spec:
            raise ValueError("map spec needs a 'linear' matrix")
        linear = UnimodularMatrix(spec["linear"])
        rot_specs = spec.get("rotations", [])
        if not isinstance(rot_specs, list):
            raise ValueError("'rotations' must be a list")
        rotations = []
        eig = None
        if rot_specs:
            eig = eigen_real(linear)
            for k, rs in enumerate(rot_specs):
                if not isinstance(rs, dict):
                    raise ValueError(f"rotations[{k}] must be an object")
                unknown = set(rs) - {"center", "plane", "rho", "theta_max"}
                if unknown:
                    raise ValueError(f"rotations[{k}]: unknown keys {sorted(unknown)}")
                for key in ("center", "plane", "rho", "theta_max"):
                    if key not in rs:
                        raise ValueError(f"rotations[{k}]: missing '{key}'")
                _check_rotation_spec(k, rs, linear.n)
                rotations.append(
                    build_localized_rotation(
                        eig, rs["center"], rs["plane"], rs["rho"], rs["theta_max"]
                    )
                )
        map_ = cls(linear, rotations)
        map_._eigen = eig
        return map_
