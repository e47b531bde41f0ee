"""Lyapunov spectra and integrated exponents for volume-preserving maps.

The integrated exponent of a bundle is the volume integral of the one-step
restricted log-Jacobian, estimated by plain Monte Carlo against Lebesgue
measure (invariant by construction here). The detector's weak-unstable gap
uses an integrand that vanishes off the rotation supports, so it samples
only inside them (support_gap). Sample points are pregenerated from the
seed in one pass and processed in fixed-size chunks, so estimates are
byte-identical for any worker count and the per-sample values never depend
on which batch a point rode in.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from math import sqrt

import numpy as np

from .bundles import (
    OK,
    STATUS_DEGENERATE,
    STATUS_E2ZERO,
    bundle_frames,
    splitting_frames,
)
from .homology import BundleSelector
from .smallmat import k_volume

CHUNK = 20000

# an e2 chart coefficient at or below this fraction of |e2 row of L^-1|
# (the largest it can be for a unit vector) counts as vanished
_E2_TOL = 1e-12


class DegenerateFrame(RuntimeError):
    """Frame does not span a plane of its column count."""


def qr_spectrum(map_, x, n, burn_in=100):
    """Full Lyapunov spectrum at x by orthonormalized cocycle iteration.

    The frame is aligned for burn_in steps before log stretches are
    accumulated; without that, the O(1) alignment transient pollutes the
    average at order 1/n. Returns exponents sorted descending.
    """
    if n < 1:
        raise ValueError("need at least one accumulation step")
    dim = map_.n
    y = np.asarray(x, dtype=float)[None, :]
    from .bundles import generic_seed_frame

    q = generic_seed_frame(dim, dim)
    logs = np.zeros(dim)
    for j in range(int(burn_in) + int(n)):
        jac = map_.differential(y)[0]
        q, r = np.linalg.qr(jac @ q)
        diag = np.diag(r)
        sign = np.where(diag < 0, -1.0, 1.0)
        q = q * sign
        if j >= burn_in:
            logs += np.log(np.abs(diag))
        y = map_.apply(y)
    expo = logs / float(n)
    return np.sort(expo)[::-1]


def _one_step_logs(map_, xs, frames):
    """Batched restricted log-Jacobians: (values, ok)."""
    moved = np.einsum("bij,bjk->bik", map_.differential(xs), frames)
    vol0 = np.atleast_1d(k_volume(frames))
    vol1 = np.atleast_1d(k_volume(moved))
    ok = vol0 > 1e-12
    safe = np.where(ok, vol0, 1.0)
    vals = np.log(np.where(vol1 > 0, vol1, 1.0) / safe)
    return vals, ok & (vol1 > 0)


def one_step_log_jacobian(map_, x, frame):
    """ln of the k-volume stretch of Df(x) on the span of the frame.

    Basis independent (a Gram-determinant ratio). Scalar x with an (n, k)
    frame gives a float; batched (B, n) with (B, n, k) gives a vector.
    """
    x = np.asarray(x, dtype=float)
    frame = np.asarray(frame, dtype=float)
    if x.ndim == 1:
        vals, ok = _one_step_logs(map_, x[None], frame[None])
        if not ok[0]:
            raise DegenerateFrame("frame columns do not span their plane")
        return float(vals[0])
    vals, ok = _one_step_logs(map_, x, frame)
    if not ok.all():
        raise DegenerateFrame("frame columns do not span their plane")
    return vals


def _chunk_slices(n):
    return [slice(s, min(s + CHUNK, n)) for s in range(0, n, CHUNK)]


def _volume_logs(map_, xs, frames):
    vals, ok = _one_step_logs(map_, xs, frames)
    return vals, np.where(ok, OK, STATUS_DEGENERATE)


def _bundle_values(map_, pts, selector, m, threads=None, logs=_volume_logs):
    """Per-point values of logs(map_, xs, frames) over bundle frames.

    Returns (vals, status, m): status is the per-sample code, OK for a
    usable value, else the first failure of the transport or of logs.
    """
    n_pts = pts.shape[0]
    vals = np.empty(n_pts)
    status = np.empty(n_pts, dtype=np.int8)
    if not map_.rotations:
        map_.eigen  # cache before any worker pool touches it
    used = [0] * len(_chunk_slices(n_pts))

    def work(idx_sl):
        idx, sl = idx_sl
        xs = pts[sl]
        frames, st, m_used = bundle_frames(map_, xs, selector, m)
        v, st_logs = logs(map_, xs, frames)
        vals[sl] = v
        status[sl] = np.where(st == OK, st_logs, st)
        used[idx] = m_used

    jobs = list(enumerate(_chunk_slices(n_pts)))
    if threads and int(threads) > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            list(pool.map(work, jobs))
    else:
        for job in jobs:
            work(job)
    return vals, status, max(used) if used else 0


def _spread(valid):
    if valid.size > 1 and np.ptp(valid) > 0.0:
        est = float(valid.mean())
        stderr = float(valid.std(ddof=1) / sqrt(valid.size))
    else:
        # constant integrand: the sample spread is exactly zero
        est = float(valid[0])
        stderr = 0.0
    return est, stderr


def integrated_exponent(map_, selector: BundleSelector, N, m=None, seed=0,
                        threads=None) -> dict:
    """Monte Carlo integral of the bundle's one-step log-Jacobian.

    Samples that fail the splitting (no gap, ill-conditioned intersection,
    collapsed frame) are excluded and counted in "rejected".
    """
    selector.validate_for(map_.n)
    N = int(N)
    if N < 1:
        raise ValueError("need at least one sample")
    pts = np.random.default_rng(seed).random((N, map_.n))
    vals, status, m_used = _bundle_values(map_, pts, selector, m, threads)
    valid = vals[status == OK]
    if valid.size == 0:
        raise DegenerateFrame("every sample was rejected")
    est, stderr = _spread(valid)
    return {
        "bundle": list(selector.indices),
        "estimate": est,
        "stderr": stderr,
        "N": N,
        "m": int(m_used),
        "seed": int(seed),
        "rejected": int(N - valid.size),
    }


def _chart_line_logs(eigen):
    """Per-sample g = ln|e2(L^-1 Df v)| - ln|e2(L^-1 v)| - ln|lambda_2| for
    line frames v, with L the eigenvector chart."""
    row = np.linalg.inv(eigen.vectors)[1]
    ln_rate = float(np.log(abs(eigen.values[1])))

    def logs(map_, xs, frames):
        v = frames[:, :, 0]
        moved = np.einsum("bij,bj->bi", map_.differential(xs), v)
        c0 = np.einsum("i,bi->b", row, v)
        c1 = np.einsum("i,bi->b", row, moved)
        floor = _E2_TOL * np.linalg.norm(row)
        ok = (np.abs(c0) > floor) & (np.abs(c1) > floor)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.log(np.abs(c1 / c0)) - ln_rate
        vals[~ok] = 0.0
        return vals, np.where(ok, OK, STATUS_E2ZERO)

    return logs


def support_gap(map_, N, m=None, seed=0, threads=None) -> dict:
    """Weak-unstable integrated exponent minus ln|lambda_2|, sampled only
    inside the rotation supports.

    Measure the line E^wu in the eigen-chart metric |v|' = |e2 coefficient
    of L^-1 v|. Every rotation acts in chart plane (1, 2), so the unstable
    plane is invariant and, wherever Df = A, the line's one-step log-stretch
    in this metric is exactly ln|lambda_2|: the integrand
    g = ln|e2(L^-1 Df v)| - ln|e2(L^-1 v)| - ln|lambda_2| vanishes off the
    supports. The metric change adds a coboundary of a bounded function, so
    the integral of g is the gap, and with disjoint supports
    gap = vol(support) * E[g(x), x uniform in the support].

    The caller guarantees plane (1, 2) and disjoint supports; the detector
    checks both. A linear map has no support and its gap is exactly 0 +- 0.
    Samples whose transport fails or whose e2 coefficient vanishes
    (STATUS_E2ZERO) are excluded and counted in "rejected".
    """
    selector = BundleSelector((2,))
    selector.validate_for(map_.n)
    N = int(N)
    if N < 1:
        raise ValueError("need at least one sample")
    volume = map_.support_volume
    out = {"bundle": [2], "N": N, "seed": int(seed), "support_volume": volume}
    if not map_.rotations:
        return {**out, "estimate": 0.0, "stderr": 0.0, "m": 0, "rejected": 0,
                "support_samples": 0}
    logs = _chart_line_logs(map_.eigen)
    pts = map_.sample_support(N, seed)
    vals, status, m_used = _bundle_values(map_, pts, selector, m, threads, logs)
    valid = vals[status == OK]
    if valid.size == 0:
        raise DegenerateFrame("every sample was rejected")
    est, stderr = _spread(valid)
    return {**out, "estimate": volume * est, "stderr": volume * stderr,
            "m": int(m_used), "rejected": int(N - valid.size),
            "support_samples": N}


def splitting_exponents(map_, N, m=None, seed=0) -> dict:
    """Integrated exponents of every line of the full splitting in one pass.

    A shared QR factorization per sample covers all n lines, so the
    per-sample values telescope: their sum equals the one-step log-volume
    distortion exactly, which vanishes pointwise here. Each line's value
    differs from its restricted log-Jacobian by a coboundary of a bounded
    function, so the integrals agree while the sum check sharpens from
    statistical to exact.
    """
    n = map_.n
    N = int(N)
    if N < 1:
        raise ValueError("need at least one sample")
    pts = np.random.default_rng(seed).random((N, n))
    per = np.zeros((N, n))
    ok = np.zeros(N, dtype=bool)
    m_used = 0
    for sl in _chunk_slices(N):
        xs = pts[sl]
        blocks, status, m_fwd, m_bwd = splitting_frames(map_, xs, (1,) * n, m)
        v = np.concatenate(blocks, axis=2)
        w = np.einsum("bij,bjk->bik", map_.differential(xs), v)
        rv = np.abs(np.diagonal(np.linalg.qr(v, mode="r"), axis1=1, axis2=2))
        rw = np.abs(np.diagonal(np.linalg.qr(w, mode="r"), axis1=1, axis2=2))
        good = status == OK
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.log(rw) - np.log(rv)
        vals[~good] = 0.0
        per[sl] = vals
        ok[sl] = good
        m_used = max(m_used, int(m_fwd), int(m_bwd))
    valid = per[ok]
    if valid.shape[0] == 0:
        raise DegenerateFrame("every sample was rejected")
    rejected = int(N - valid.shape[0])
    bundles = []
    for i in range(n):
        est, stderr = _spread(valid[:, i])
        bundles.append({
            "bundle": [i + 1],
            "estimate": est,
            "stderr": stderr,
            "N": N,
            "m": m_used,
            "seed": int(seed),
            "rejected": rejected,
        })
    total_est, total_stderr = _spread(valid.sum(axis=1))
    return {
        "bundles": bundles,
        "sum": total_est,
        "sum_stderr": total_stderr,
        "N": N,
        "m": m_used,
        "seed": int(seed),
        "rejected": rejected,
    }


def birkhoff_exponent(map_, selector: BundleSelector, x0, n, m=None) -> dict:
    """Time average of the restricted log-Jacobian along one orbit.

    Cross-validates the space average; the stderr comes from batch means
    because consecutive orbit samples are correlated.
    """
    selector.validate_for(map_.n)
    n = int(n)
    if n < 1:
        raise ValueError("need at least one orbit step")
    dim = map_.n
    orbit = np.empty((n, dim))
    y = np.asarray(x0, dtype=float)[None, :]
    for j in range(n):
        orbit[j] = y[0]
        y = map_.apply(y)
    vals, status, m_used = _bundle_values(map_, orbit, selector, m)
    valid = vals[status == OK]
    if valid.size == 0:
        raise DegenerateFrame("every orbit sample was rejected")
    if valid.size > 1 and np.ptp(valid) > 0.0:
        est = float(valid.mean())
        blocks = min(100, max(2, valid.size // 1000))
        means = np.array([b.mean() for b in np.array_split(valid, blocks)])
        stderr = float(means.std(ddof=1) / sqrt(blocks))
    else:
        est = float(valid[0])
        stderr = 0.0
    return {
        "bundle": list(selector.indices),
        "estimate": est,
        "stderr": stderr,
        "N": n,
        "m": int(m_used),
        "rejected": int(n - valid.size),
    }
