"""Lyapunov spectra and integrated exponents for volume-preserving maps.

The integrated exponent of a bundle is the volume integral of the one-step
restricted log-Jacobian, estimated by plain Monte Carlo against Lebesgue
measure (invariant by construction here) over transported frames. The
detector's weak-unstable gap (support_gap) transports no frames: its
chart-metric integrand vanishes off the rotation supports, equals a closed
form of the chart point at every support point whose orbit does not come
back, and otherwise needs only the chart Jacobians at the returns. So the
gap is an exact quadrature of that closed form plus a Monte Carlo
correction from the few samples that return. Under the same preconditions
(chart_line_holds) the Birkhoff average of that line needs no frames
either: the same per-sample kernel (_line_values) runs at the orbit's
visits to a support, the only points where the integrand is not 0.

Every estimator has the same four steps: draw its points from the seed in
one pass (TorusMap.sample_uniform or sample_support, or one orbit), run a
per-sample function on them (on fixed-size chunks through _per_sample, or
in one call on an orbit's visits), keep the samples whose status is OK
(_valid), and reduce them once (_spread). Per-sample values are
concatenated in chunk order, so estimates are byte-identical for any
worker count and a sample's values never depend on which chunk it rode in.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from math import sqrt

import numpy as np

from .bundles import (
    OK,
    STATUS_DEGENERATE,
    STATUS_E2ZERO,
    NoGap,
    _block_frames,
    _split_status,
    bundle_frames,
    generic_seed_frame,
    selector_block,
)
from .homology import BundleSelector
from .smallmat import k_volume
from .torusmap import bump_profile

CHUNK = 20000

# an e2 chart coefficient of the line at or below this fraction of its
# chart length counts as vanished
_E2_TOL = 1e-12
_QR_BURN_IN = 100


class DegenerateFrame(RuntimeError):
    """Frame does not span a plane of its column count."""


def qr_spectrum(map_, x, n):
    """Full Lyapunov spectrum at x by orthonormalized cocycle iteration.

    The frame is aligned for _QR_BURN_IN steps before log stretches are
    accumulated; without that, the O(1) alignment transient pollutes the
    average at order 1/n. Returns exponents sorted descending. x may be a
    batch (B, n): every point steps in the same loop, one stacked QR per
    step, and row b equals the call at x[b] bit for bit.

    The orbits come from TorusMap.orbit and their differentials from one
    call per slab of at most CHUNK rows; each slab continues every orbit
    from its last point, so memory does not grow with n.
    """
    if n < 1:
        raise ValueError("need at least one accumulation step")
    dim = map_.n
    x = np.asarray(x, dtype=float)
    starts = np.atleast_2d(x)
    b = starts.shape[0]
    total = _QR_BURN_IN + int(n)
    slab = max(1, CHUNK // b)
    q = np.broadcast_to(generic_seed_frame(dim, dim), (b, dim, dim))
    logs = np.zeros(starts.shape)
    for lo in range(0, total, slab):
        steps = min(slab, total - lo)
        # (steps + 1, B, dim): the last row starts the next slab
        orbits = np.stack([map_.orbit(p, steps + 1) for p in starts], axis=1)
        jac = map_.differential(orbits[:steps].reshape(-1, dim))
        jac = jac.reshape(steps, b, dim, dim)
        starts = orbits[steps]
        for j in range(steps):
            q, r = np.linalg.qr(jac[j] @ q)
            diag = np.diagonal(r, axis1=1, axis2=2)
            q = q * np.where(diag < 0, -1.0, 1.0)[:, None, :]
            if lo + j >= _QR_BURN_IN:
                logs += np.log(np.abs(diag))
    expo = np.sort(logs / float(n), axis=1)[:, ::-1]
    return expo if x.ndim == 2 else expo[0]


def _one_step_logs(jac, frames):
    """ln of the k-volume stretch of the Jacobians jac (B, n, n) on the span
    of each frame (B, n, k): (values, ok). Basis independent (a k-volume
    ratio); ok is False where a frame spans less than k dimensions."""
    moved = np.einsum("bij,bjk->bik", jac, frames)
    vol0 = np.atleast_1d(k_volume(frames))
    vol1 = np.atleast_1d(k_volume(moved))
    ok = vol0 > 1e-12
    safe = np.where(ok, vol0, 1.0)
    vals = np.log(np.where(vol1 > 0, vol1, 1.0) / safe)
    return vals, ok & (vol1 > 0)


def _per_sample(fn, pts, threads=None):
    """fn on every CHUNK-row slice of pts, in order on one thread or in a
    pool. fn returns a tuple of per-row arrays; each is concatenated over
    the chunks in chunk order."""
    chunks = [pts[lo:lo + CHUNK] for lo in range(0, pts.shape[0], CHUNK)]
    if threads and int(threads) > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            outs = list(pool.map(fn, chunks))
    else:
        outs = [fn(xs) for xs in chunks]
    return tuple(np.concatenate(parts) for parts in zip(*outs))


def _valid(vals, status, what):
    """The rows of vals whose status is OK; DegenerateFrame if there is none."""
    valid = vals[status == OK]
    if valid.shape[0] == 0:
        raise DegenerateFrame(f"every {what} was rejected")
    return valid


def _spread(valid, blocks=None):
    """Mean and stderr of the valid values. With blocks, the stderr comes
    from that many batch means, for correlated (orbit) samples."""
    if valid.size > 1 and np.ptp(valid) > 0.0:
        est = float(valid.mean())
        if blocks:
            valid = np.array([b.mean() for b in np.array_split(valid, blocks)])
        stderr = float(valid.std(ddof=1) / sqrt(valid.size))
    else:
        # constant integrand: the sample spread is exactly zero
        est = float(valid[0])
        stderr = 0.0
    return est, stderr


def _frame_values(map_, xs, selector, lines=False):
    """Per-sample (value, status, depth) of the one-step log-Jacobian over
    the selector's bundle frames; with lines, followed by (values (B, n),
    status, depth) of every line of the full splitting, read off the same
    forward and backward flags.

    A status is OK for a usable value, else the first failure of the
    transport, the intersection or the volume; depth is the ladder depth,
    the deepest over both flags. The bundle and the lines push their frames
    through one Df per chunk, and the lines share one QR factorization of
    their frame and of the pushed frame. A map with no rotations takes the
    bundle from its exact eigenvectors (depth 0), so only its lines are
    transported.
    """
    n = map_.n
    bounds = [(i, i) for i in range(1, n + 1)] if lines else []
    if map_.rotations:
        bounds.append(selector_block(selector))
        blocks, statuses, depth = _block_frames(map_, xs, bounds)
        frames, st, frames_depth = blocks.pop(), statuses.pop(), depth
    else:
        frames, st, frames_depth = bundle_frames(map_, xs, selector)
        if lines:
            blocks, statuses, depth = _block_frames(map_, xs, bounds)
    jac = map_.differential(xs)
    v, ok = _one_step_logs(jac, frames)
    status = np.where(st == OK, np.where(ok, OK, STATUS_DEGENERATE), st)
    out = (v, status.astype(np.int8), frames_depth)
    if not lines:
        return out
    v = np.concatenate(blocks, axis=2)
    w = np.einsum("bij,bjk->bik", jac, v)
    rv = np.abs(np.diagonal(np.linalg.qr(v, mode="r"), axis1=1, axis2=2))
    rw = np.abs(np.diagonal(np.linalg.qr(w, mode="r"), axis1=1, axis2=2))
    # k_volume(v) bit for bit: |prod d| = prod |d| in floating point
    line_status = _split_status(statuses, np.prod(rv, axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.log(rw) - np.log(rv)
    vals[line_status != OK] = 0.0
    return out + (vals, line_status, depth)


def _frame_run(map_, selector, pts, threads, lines=False):
    """The per-sample _frame_values of pts, concatenated over chunks."""
    if not map_.rotations:
        map_.eigen  # cache before any worker pool touches it
    return _per_sample(partial(_frame_values, map_, selector=selector, lines=lines),
                       pts, threads)


# ------------------------------------------------ in-support weak-unstable gap

def chart_line_violation(map_):
    """The first precondition of the chart-metric weak-unstable line that
    map_ breaks, as (field, reason) with field the map spec's path of the
    offender, or None: below 3 dimensions or with |lambda_2| <= 1 the field
    is "linear"; a rotation k not in chart plane {1, 2} is
    "rotations[k].plane"; supports i < j that meet are "rotations[j]"."""
    if map_.n < 3:
        return ("linear", "the detector needs at least two expanding "
                "eigen-directions over a contracting one, so dimension >= 3")
    if abs(map_.eigen.values[1]) <= 1.0:
        return ("linear", "the second eigen-direction must expand for the "
                "weak-unstable foliation to exist")
    for k, rot in enumerate(map_.rotations):
        if set(rot.plane) != {0, 1}:
            return (f"rotations[{k}].plane", "the detector measures the "
                    "weak-unstable foliation, rotations must mix "
                    "eigen-directions 1 and 2")
    overlaps = map_.support_overlaps()
    if not overlaps:
        return None
    i, j = overlaps[0]
    return (f"rotations[{j}]", f"support overlaps the support of "
            f"rotations[{i}] on the torus; the detector samples each "
            "support separately and needs them disjoint")


def chart_line_holds(map_) -> bool:
    """True where the weak-unstable integrand in the eigen-chart metric
    vanishes off the rotation supports (support_gap, birkhoff_exponent)."""
    return chart_line_violation(map_) is None


def horizon(eigen) -> int:
    """Forward steps the covector pull-back looks ahead: the smallest T with
    |lambda_2 / lambda_1|^T < 2^-53, past which a visit moves no bit of g."""
    ratio = abs(float(eigen.values[1]) / float(eigen.values[0]))
    # equal moduli up to the eigensolver's relative tolerance, as for +-lambda
    if not ratio < 1.0 - 1e-10:
        raise NoGap("|lambda_1| = |lambda_2|: the weak-unstable line has no gap")
    return int(math.floor(53.0 * math.log(2.0) / -math.log(ratio))) + 1


def _line_logs(block, normal):
    """g = ln|R'22 - R'21 n2/n1| and status at base points with chart block
    R' (2, 2, B) and hyperplane chart normal n = (n1, n2) (2, B).

    The line E^wu is (n2, -n1, 0, ...) in chart coordinates, so this is
    ln|J'22 - J'21 n2/n1| - ln|lambda_2| with J' = diag(lambda) R'. A line
    with a vanishing e2 coefficient, before or after the step, is
    STATUS_E2ZERO.
    """
    n1, n2 = normal
    size = np.hypot(n1, n2)
    moved = block[1, 1] * n1 - block[1, 0] * n2
    ok = (np.abs(n1) > _E2_TOL * size) & (np.abs(moved) > _E2_TOL * size)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.log(np.abs(block[1, 1] - block[1, 0] * (n2 / n1)))
    vals[~ok] = 0.0
    return vals, np.where(ok, OK, STATUS_E2ZERO).astype(np.int8)


def _pull_back(blk, n1, n2, q, gap):
    """_line_values' pull-back step: the first two chart components of the
    hyperplane normal at a point with chart block blk, up to scale, from the
    normal (n1, n2) gap steps later: R'^T (n1, q^gap n2). Between visits
    only n2/n1 moves, by q = lambda_2/lambda_1 per step."""
    m2 = n2 * q ** gap
    return blk[0, 0] * n1 + blk[1, 0] * m2, blk[0, 1] * n1 + blk[1, 1] * m2


def _line_values(map_, xs, steps):
    """Per-sample (g, g0, returned, status) of the chart-metric integrand.

    The hyperplane E^{2..n} has a chart normal n with n(x) = J'(x)^T n(f x).
    Its first two components evolve by the (1, 2) block alone, and off the
    supports only n2/n1 changes, by lambda_2/lambda_1 per step. So each
    sample steps forward `steps` times, keeps the chart blocks of its
    visits to a support, and pulls back the seed normal e1* from step
    steps + 1. A sample with no visit has n(f x) = e1* exactly, where
    g = -ln|R'11(x)| = g0 because det R' = 1 (returned is False). Each
    image is located once (TorusMap._locate).
    """
    q = float(map_.eigen.values[1]) / float(map_.eigen.values[0])
    visits = []
    located = map_._locate(xs)
    block = map_.chart_blocks(xs, located)
    y = xs
    for k in range(1, steps + 1):
        y = map_.apply(y, located)
        located = hit, at = map_._locate(y)
        if hit.size:
            visits.append((k, hit, map_.chart_blocks(y[hit], (np.arange(hit.size), at))))
    n1 = np.ones(len(xs))
    n2 = np.zeros(len(xs))
    last = np.full(len(xs), steps + 1)
    for k, hit, blk in reversed(visits):
        a1, a2 = _pull_back(blk, n1[hit], n2[hit], q, last[hit] - k)
        size = np.hypot(a1, a2)
        n1[hit] = a1 / size
        n2[hit] = a2 / size
        last[hit] = k
    g, status = _line_logs(block, _pull_back(block, n1, n2, q, last))
    with np.errstate(divide="ignore"):
        g0 = -np.log(np.abs(block[0, 0]))
    returned = last <= steps
    return g, g0, returned, status


# Gauss-Legendre nodes per panel in (t, w), and the panels per axis of the
# coarse and the fine twist rule. Once R'11 nears 0 in the chart ball
# (theta_max about 1.5) the angle mean has a square-root kink, convergence
# is only algebraic, and |fine - coarse| is an estimate, not a bound.
_TWIST_NODES = (80, 24)
_TWIST_RULES = (1, 4)


def _panel_rule(nodes, panels):
    # Gauss-Legendre points and weights on panels equal panels of [0, 1]
    x, w = np.polynomial.legendre.leggauss(nodes)
    x = (np.arange(panels)[:, None] + 0.5 * (x + 1.0)) / panels
    return x.ravel(), np.tile(0.5 * w / panels, panels)


def twist_mean(rot, panels) -> float:
    """Mean of g0 = -ln|R'11(u)| over the rotation's chart ball of radius
    rho, by the _TWIST_NODES Gauss rule on panels panels per axis.

    Write t = |u|/rho and (u1, u2) = |u| sqrt(s) (cos alpha, sin alpha),
    with s = 1 - w^2. Then R'11 = a - k sin(2 alpha +- psi), in either plane
    order, with k = psi'(r) r s / 2 and a = cos psi - k sin psi, and Jensen's
    formula gives its log-mean over alpha: ln((|a| + sqrt(a^2 - k^2)) / 2)
    where |a| >= |k|, else ln(|k| / 2). t has density n t^(n-1) and w has
    (n-2) w^(n-3), as s ~ Beta(1, (n-2)/2).
    """
    n = rot.n
    (t, wt), (w, ww) = (_panel_rule(m, panels) for m in _TWIST_NODES)
    psi, dpsi = bump_profile(rot.rho * t, rot.rho, rot.theta_max)
    k = 0.5 * (dpsi * rot.rho * t)[:, None] * (1.0 - w * w)
    a = np.abs(np.cos(psi)[:, None] - k * np.sin(psi)[:, None])
    k = np.abs(k)
    # a + root >= k exactly where a >= k
    root = np.sqrt(np.maximum((a - k) * (a + k), 0.0))
    log_mean = np.log(0.5 * np.maximum(a + root, k))
    return -float((wt * n * t ** (n - 1)) @ log_mean @ (ww * (n - 2) * w ** (n - 3)))


def twist_term(map_):
    """Sum over rotations of vol_i * I0_i by the fine rule, and its error
    sum of vol_i * |fine - coarse|."""
    value = error = 0.0
    for rot in map_.rotations:
        coarse, fine = (twist_mean(rot, rule) for rule in _TWIST_RULES)
        value += rot.support_volume * fine
        error += rot.support_volume * abs(fine - coarse)
    return float(value), float(error)


def support_gap(map_, N, seed=0, threads=None) -> dict:
    """Weak-unstable integrated exponent minus ln|lambda_2|, from an exact
    twist integral plus a Monte Carlo correction inside the supports.

    Measure the line E^wu in the eigen-chart metric |v|' = |e2 coefficient
    of L^-1 v|. Every rotation acts in chart plane (1, 2), so off the
    supports the line's one-step log-stretch in this metric is exactly
    ln|lambda_2| and the integrand g vanishes; the metric change adds a
    coboundary of a bounded function, so with disjoint supports
    gap = vol(support) * E[g(x), x uniform in the support].

    At a sample whose forward orbit never re-enters a support g equals
    g0 = -ln|R'11|, whose mean I0_i over each chart ball is a deterministic
    integral (twist_mean). So, as a control variate with exactly known mean,
    gap = sum_i vol_i I0_i + vol * E[g - g0], where g - g0 is exactly 0 for
    the samples that do not return within the horizon. The stderr adds the
    quadrature error and the Monte Carlo stderr of the correction in
    quadrature.

    The caller guarantees plane (1, 2) and disjoint supports; the detector
    checks both. A linear map has no support and its gap is exactly 0 +- 0.
    Samples whose line has a vanishing e2 coefficient (STATUS_E2ZERO) are
    excluded from the correction and counted in "rejected".
    """
    N = int(N)
    if N < 1:
        raise ValueError("need at least one sample")
    volume = map_.support_volume
    out = {"bundle": [2], "N": N, "seed": int(seed), "support_volume": volume}
    if not map_.rotations:
        return {**out, "estimate": 0.0, "stderr": 0.0, "rejected": 0,
                "support_samples": 0, "twist_integral": 0.0,
                "quadrature_error": 0.0, "return_correction": 0.0,
                "return_stderr": 0.0, "returned": 0, "horizon": 0}
    steps = horizon(map_.eigen)
    twist, quad_err = twist_term(map_)
    g, g0, returned, status = _per_sample(partial(_line_values, map_, steps=steps),
                                          map_.sample_support(N, seed), threads)
    valid = _valid(np.where(returned, g - g0, 0.0), status, "sample")
    corr, corr_se = _spread(valid)
    corr, corr_se = volume * corr, volume * corr_se
    return {**out, "estimate": twist + corr,
            "stderr": math.hypot(quad_err, corr_se),
            "rejected": N - valid.size, "support_samples": N,
            "twist_integral": twist, "quadrature_error": quad_err,
            "return_correction": corr, "return_stderr": corr_se,
            "returned": int(np.count_nonzero(returned & (status == OK))),
            "horizon": steps}


def splitting_exponents(map_, selector: BundleSelector, N, seed=0,
                        threads=None) -> dict:
    """Integrated exponents of every line of the full splitting, and of the
    selector's bundle as "integrated", in one pass over one forward and
    one backward flag per sample.

    A shared QR factorization per sample covers all n lines, so the
    per-sample values telescope: their sum equals the one-step log-volume
    distortion exactly, which vanishes pointwise here. Each line's value
    differs from its restricted log-Jacobian by a coboundary of a bounded
    function, so the integrals agree while the sum check sharpens from
    statistical to exact. The bundle's value is the Monte Carlo mean of its
    one-step restricted log-Jacobian over frames sliced off the same flags,
    so "m" is the deepest rung over both; samples that fail the splitting
    (no gap, ill-conditioned intersection, collapsed frame) are excluded
    and counted in "rejected".
    """
    selector.validate_for(map_.n)
    N = int(N)
    vals, st, frames_depth, per, status, depth = _frame_run(
        map_, selector, map_.sample_uniform(N, seed), threads, lines=True)
    valid = _valid(per, status, "sample")
    m_used = int(depth.max())
    rejected = N - valid.shape[0]
    bundles = []
    for i in range(map_.n):
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
    in_bundle = _valid(vals, st, "sample")
    est, stderr = _spread(in_bundle)
    return {
        "bundles": bundles,
        "sum": total_est,
        "sum_stderr": total_stderr,
        "N": N,
        "m": m_used,
        "seed": int(seed),
        "rejected": rejected,
        "integrated": {
            "bundle": list(selector.indices),
            "estimate": est,
            "stderr": stderr,
            "N": N,
            "m": int(frames_depth.max()),
            "seed": int(seed),
            "rejected": int(N - in_bundle.size),
        },
    }


def birkhoff_exponent(map_, selector: BundleSelector, x0, n, threads=None) -> dict:
    """Time average of the restricted log-Jacobian along one orbit.

    Cross-validates the space average; the stderr comes from batch means
    because consecutive orbit samples are correlated. For the line [2] on a
    map where chart_line_holds, the integrand is measured in the eigen-chart
    metric, which differs from the Euclidean one by a coboundary. Its g is
    exactly 0 off the supports, so only the orbit's visits to a support run
    through _line_values, each with its own horizon of look-ahead, and the
    estimate is ln|lambda_2| + mean(g) with no frame transport ("m" is 0).
    Every other case transports bundle frames at every orbit point.
    """
    selector.validate_for(map_.n)
    n = int(n)
    if n < 1:
        raise ValueError("need at least one orbit step")
    orbit = map_.orbit(x0, n)
    if selector.indices == (2,) and chart_line_holds(map_):
        visit = np.flatnonzero(map_.support_mask(orbit))
        g = np.zeros(n)
        status = np.full(n, OK, dtype=np.int8)
        g[visit], _, _, status[visit] = _line_values(map_, orbit[visit],
                                                     horizon(map_.eigen))
        valid = _valid(g, status, "orbit sample")
        offset, depth = math.log(abs(float(map_.eigen.values[1]))), 0
    else:
        vals, status, depth = _frame_run(map_, selector, orbit, threads)
        valid, depth = _valid(vals, status, "orbit sample"), int(depth.max())
        offset = 0.0
    est, stderr = _spread(valid, blocks=min(100, max(2, valid.size // 1000)))
    return {
        "bundle": list(selector.indices),
        "estimate": offset + est,
        "stderr": stderr,
        "N": n,
        "m": depth,
        "rejected": int(n - valid.size),
    }
