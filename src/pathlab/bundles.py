"""Invariant splittings by frame transport, and the derived checks.

Frames are computed by pushing a fixed generic seed frame along a stored
orbit segment ending at the base point: forward with Df for the strongest
directions, backward with Df^-1 for the weakest. Any floating-point
pseudo-orbit ending at the base point determines the same bundle up to
O(roundoff), so drift of long backward orbits in the stable directions is
harmless and no shadowing correction is needed.

Gram-Schmidt transport carries the whole flag: the leading j columns of a
forward frame F span the strongest j-plane, those of a backward frame W
the weakest. So a call's contiguous blocks [lo..hi] come from at most one
F and one W: F[:hi] (lo = 1), W[:n-lo+1] (hi = n) or the meet of the two.

Every flag is certified by the alignment ladder: a sample is accepted at
the first depth m of _LADDER where, at every width the call slices (its
cuts), its leading frames after m and m + 5 transport steps agree within
_CAUCHY_TOL; reports carry the deepest m reached. Other widths go unchecked:
a plane can settle while the lines in it never do (eigenvalues +-lambda).

Batched entry points return per-sample status codes and ladder depths
instead of raising, so Monte Carlo callers can count rejected samples;
strongest_subbundle is the one scalar entry point, and it raises.
All batched results are per-sample deterministic: a sample's output depends
only on its own coordinates, never on the batch it rode in.
"""
from __future__ import annotations

import numpy as np

from .homology import BundleSelector
from .smallmat import k_volume, ordered_dot

OK = 0
STATUS_NOGAP = 1
STATUS_ILLCOND = 2
STATUS_DEGENERATE = 3
# the in-support gap estimator's line has no e2 eigen-chart coefficient
STATUS_E2ZERO = 4

# alignment ladder: retry unconverged samples with deeper transports
_LADDER = (40, 80, 160, 200)
_CAUCHY_TOL = 1e-9
_INTERSECT_SV_TOL = 1e-6


class NoGap(RuntimeError):
    """Frame transport did not settle: no usable spectral gap."""


class IllConditionedIntersection(RuntimeError):
    """Plane intersection is numerically ambiguous."""


def _hartley(n: int) -> np.ndarray:
    j = np.arange(n)
    ang = 2.0 * np.pi * np.outer(j, j) / n
    return (np.cos(ang) + np.sin(ang)) / np.sqrt(n)


def generic_seed_frame(n: int, k: int) -> np.ndarray:
    """First k columns of the discrete Hartley matrix (exactly orthogonal).

    Fixed and irrational relative to integer eigen-directions, so the seed
    never starts orthogonal to the target plane for the maps studied here.
    """
    return _hartley(n)[:, :k].copy()


def _seed_for(n: int, k: int, direction: int) -> np.ndarray:
    # backward transport seeds from the tail columns, last first: gap-free
    # maps (identity) still give distinct strongest/weakest spans, and each
    # narrower seed is a leading slice of a wider one
    h = _hartley(n)
    return h[:, :k].copy() if direction > 0 else h[:, ::-1][:, :k].copy()


def _orthonormalize_cm(cols):
    """Gram-Schmidt with reorthogonalization on component-major frames
    (n, k, B): every entry is one contiguous length-B row, so each step is
    a long elementwise pass and a sample's floats never depend on B."""
    _, k, b = cols.shape
    q = np.empty_like(cols)
    ok = np.ones(b, dtype=bool)
    for i in range(k):
        col = cols[:, i]
        scale = np.sqrt(ordered_dot(col, col))
        v = col.copy()
        for _ in range(2):
            for j in range(i):
                v -= ordered_dot(q[:, j], v) * q[:, j]
        norm = np.sqrt(ordered_dot(v, v))
        bad = ~(norm > 1e-13 * np.maximum(scale, 1e-300))
        ok &= ~bad
        q[:, i] = v / np.where(bad, 1.0, norm)
    return q, ok


def _orthonormalize(frames):
    """Column-wise Gram-Schmidt with reorthogonalization, batched (B,n,k)."""
    q, ok = _orthonormalize_cm(np.ascontiguousarray(np.moveaxis(frames, 0, -1)))
    return np.ascontiguousarray(np.moveaxis(q, -1, 0)), ok


def _times_cm(mat, cols):
    # per-sample mat @ frame, component-major: mat (n, n, B or 1), cols (n, k, B)
    return ordered_dot(mat.swapaxes(0, 1)[:, :, None], cols[:, None])


def _push_cm(lin, hit, jac, cols):
    """Component-major frames (n, k, B) pushed by a differential given as
    (lin, hit, jac): lin at every sample except rows hit, which use jac."""
    out = _times_cm(lin[:, :, None], cols)
    if hit.size:
        out[:, :, hit] = _times_cm(np.moveaxis(jac, 0, -1), cols[:, :, hit])
    return out


def _batch_angles(p, q):
    # sine-based: arccos of an svd saturates around sqrt(eps) for small
    # angles, which is far above the transport convergence floor
    overlap = np.einsum("bnk,bnl->bkl", q, p)
    resid = p - np.einsum("bnk,bkl->bnl", q, overlap)
    s = np.linalg.svd(resid, compute_uv=False)
    return np.arcsin(np.clip(s[:, 0], 0.0, 1.0))


def _transport_pair(map_, xs, k, m, direction):
    """Frames at each x after m and m+5 alignment steps along one orbit.

    direction +1 pushes forward along a backward orbit (strongest plane),
    -1 pulls backward along a forward orbit (weakest plane). Memory holds
    the full orbit segment: (m+5) * B * n floats.
    """
    b, n = xs.shape
    total = m + 5
    orbit = np.empty((total, b, n))
    step = map_.inverse_apply if direction > 0 else map_.apply
    y = xs
    for t in range(total):
        y = step(y)
        orbit[total - 1 - t] = y
    seed = _seed_for(n, k, direction)
    f_long = np.broadcast_to(seed[:, :, None], (n, k, b)).copy()
    f_short = f_long.copy()
    ok = np.ones(b, dtype=bool)
    for t in range(total):
        parts = map_.differential_parts(orbit[t], direction)
        f_long, good = _orthonormalize_cm(_push_cm(*parts, f_long))
        ok &= good
        if t >= 5:
            f_short, good = _orthonormalize_cm(_push_cm(*parts, f_short))
            ok &= good
    return (np.ascontiguousarray(np.moveaxis(f_long, -1, 0)),
            np.ascontiguousarray(np.moveaxis(f_short, -1, 0)), ok)


def _aligned_frames(map_, xs, cuts, direction):
    xs = np.asarray(xs, dtype=float)
    b, n = xs.shape
    if not cuts or not all(1 <= c <= n for c in cuts):
        raise ValueError(f"need widths 1 <= k <= {n}, got {cuts}")
    k = max(cuts)
    frames = np.empty((b, n, k))
    status = np.full(b, STATUS_NOGAP, dtype=np.int8)
    depth = np.zeros(b, dtype=np.int16)
    pending = np.arange(b)
    for rung in _LADDER:
        f_long, f_short, ok = _transport_pair(map_, xs[pending], k, rung, direction)
        ang = np.max([_batch_angles(f_long[:, :, :c], f_short[:, :, :c])
                      for c in cuts], axis=0)
        st = np.where(ang > _CAUCHY_TOL, STATUS_NOGAP, OK)
        st = np.where(ok, st, STATUS_DEGENERATE).astype(np.int8)
        frames[pending] = f_long
        status[pending] = st
        depth[pending] = rung
        pending = pending[st == STATUS_NOGAP]
        if len(pending) == 0:
            break
    return frames, status, depth


def strongest_frames(map_, xs, *cuts):
    """Batched forward flag of width max(cuts), certified at every cut:
    (frames, status, depth), depth the per-sample ladder rung m."""
    return _aligned_frames(map_, xs, cuts, +1)


def weakest_frames(map_, xs, *cuts):
    """Batched backward flag, most contracted directions first."""
    return _aligned_frames(map_, xs, cuts, -1)


def _raise_status(code, where):
    if code == OK:
        return
    if code == STATUS_ILLCOND:
        raise IllConditionedIntersection(f"{where}: intersection ill-conditioned")
    if code == STATUS_DEGENERATE:
        raise NoGap(f"{where}: transported frame degenerated")
    raise NoGap(f"{where}: frames did not settle within the alignment ladder")


def strongest_subbundle(map_, x, k):
    frames, status, _ = strongest_frames(map_, np.asarray(x, float)[None, :], k)
    _raise_status(int(status[0]), "strongest_subbundle")
    return frames[0]


def intersect_frames(p, q):
    """Batched intersection of column spans: (frames, status).

    Inputs need not be orthonormal. The intersection dimension is forced to
    j + l - n; a smallest retained singular value below tolerance marks the
    sample STATUS_ILLCOND (covers both genuinely ill-conditioned data and
    degenerate inputs whose true intersection is larger).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    _, n, j = p.shape
    l = q.shape[2]
    d = j + l - n
    if d < 1:
        raise ValueError(f"plane dimensions {j} + {l} do not force an intersection in R^{n}")
    po, okp = _orthonormalize(p)
    qo, okq = _orthonormalize(q)
    status = np.where(okp & okq, OK, STATUS_DEGENERATE).astype(np.int8)
    eye = np.eye(n)
    proj_p = eye - np.einsum("bnk,bmk->bnm", po, po)
    proj_q = eye - np.einsum("bnk,bmk->bnm", qo, qo)
    stacked = np.concatenate([proj_p, proj_q], axis=1)
    _, svals, vt = np.linalg.svd(stacked)
    frames = np.swapaxes(vt[:, n - d:, :], 1, 2)
    thin = svals[:, n - d - 1] < _INTERSECT_SV_TOL
    status = np.where(thin & (status == OK), STATUS_ILLCOND, status).astype(np.int8)
    # membership residual of the returned vectors in both input spans
    res_p = np.abs(np.einsum("bnm,bmk->bnk", proj_p, frames)).max(axis=(1, 2))
    res_q = np.abs(np.einsum("bnm,bmk->bnk", proj_q, frames)).max(axis=(1, 2))
    leaky = (np.maximum(res_p, res_q) > 1e-8) & (status == OK)
    status = np.where(leaky, STATUS_ILLCOND, status).astype(np.int8)
    return frames, status


def _block_frames(map_, xs, bounds):
    """Frames of contiguous 1-based blocks [lo..hi], batched: (blocks,
    statuses, depth), one frame and one status per block, from at most one
    forward and one backward flag. A block named twice is built once."""
    n = map_.n
    fwd = sorted({hi for lo, hi in bounds if lo == 1 or hi < n})
    bwd = sorted({n + 1 - lo for lo, hi in bounds if lo > 1})
    runs = [frames_of(map_, xs, *cuts) for frames_of, cuts in
            ((strongest_frames, fwd), (weakest_frames, bwd)) if cuts]
    strong, weak = runs[0][0], runs[-1][0]  # one run if only one flag is sliced
    status = np.max([run[1] for run in runs], axis=0)
    depth = np.max([run[2] for run in runs], axis=0)
    built = {}
    for lo, hi in dict.fromkeys(bounds):
        st = status
        if lo == 1:
            blk = strong[:, :, :hi]
        elif hi == n:
            blk = weak[:, :, :n + 1 - lo]
        else:
            blk, st = intersect_frames(strong[:, :, :hi], weak[:, :, :n + 1 - lo])
            st = np.maximum(status, st)
        # contiguous, so later products round alike whatever flag it came from
        built[lo, hi] = np.ascontiguousarray(blk), st
    return [built[b][0] for b in bounds], [built[b][1] for b in bounds], depth


def _split_status(blocks, statuses):
    """One status per sample for blocks that split the whole space: the
    worst block status, or DEGENERATE where together they span a volume
    below 1e-6."""
    status = np.max(statuses, axis=0)
    vol = k_volume(np.concatenate(blocks, axis=2))
    return np.where((vol < 1e-6) & (status == OK), STATUS_DEGENERATE, status).astype(np.int8)


def splitting_frames(map_, xs, dims):
    """Batched splitting into blocks of the given dimensions, strongest first.

    Returns (blocks, status, depth) where blocks is a list of (B, n, dims[i])
    arrays and depth is the deepest ladder rung each sample reached.
    """
    n = map_.n
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims) or sum(dims) != n:
        raise ValueError(f"block dimensions {dims} must be positive and sum to {n}")
    ends = np.cumsum(dims).tolist()
    blocks, statuses, depth = _block_frames(map_, xs, [(e - d + 1, e) for d, e in zip(dims, ends)])
    return blocks, _split_status(blocks, statuses), depth


def selector_block(selector: BundleSelector):
    """The selector as one block (lo, hi) of the flags; ValueError if its
    indices have a hole."""
    lo, hi = selector.indices[0], selector.indices[-1]
    if selector.indices != tuple(range(lo, hi + 1)):
        raise ValueError(
            f"selector {selector.indices} must be contiguous for perturbed maps"
        )
    return lo, hi


def bundle_frames(map_, xs, selector: BundleSelector):
    """Frames of the bundle named by a selector, batched: (frames, status,
    depth).

    Pure linear maps use exact eigen-direction frames (any selector, frames
    not orthonormal, depth 0). Perturbed maps require a contiguous selector,
    realized as one block of the flags.
    """
    xs = np.asarray(xs, dtype=float)
    n = map_.n
    selector.validate_for(n)
    b = xs.shape[0]
    if not map_.rotations:
        cols = list(selector.zero_based())
        frame = map_.eigen.vectors[:, cols]
        frames = np.broadcast_to(frame, (b, n, len(cols))).copy()
        return frames, np.zeros(b, dtype=np.int8), np.zeros(b, dtype=np.int16)
    blocks, statuses, depth = _block_frames(map_, xs, [selector_block(selector)])
    return blocks[0], statuses[0], depth


def _chained_jacobian(map_, xs, steps):
    jac = None
    y = xs
    for _ in range(int(steps)):
        step = map_.differential(y)
        jac = step if jac is None else np.einsum("bij,bjk->bik", step, jac)
        y = map_.apply(y)
    return jac


def domination_check(map_, samples=200, l=2, seed=0) -> dict:
    """Sampled check of the factor-2 domination between consecutive lines.

    margin = min over samples and consecutive lines of half the strong/weak
    expansion ratio minus one; holds iff margin > 0. A negative margin is a
    finding, not an error.
    """
    xs = map_.sample_uniform(samples, seed)
    blocks, status, _ = splitting_frames(map_, xs, (1,) * map_.n)
    worst = int(status.max(initial=0))
    if worst != OK:
        _raise_status(worst, "domination_check")
    jac = _chained_jacobian(map_, xs, l)
    rates = [np.linalg.norm(np.einsum("bij,bj->bi", jac, blk[:, :, 0]), axis=1)
             for blk in blocks]
    margin = min(float(np.min(0.5 * strong / weak - 1.0))
                 for strong, weak in zip(rates, rates[1:]))
    return {
        "l": int(l),
        "margin": margin,
        "holds": bool(margin > 0),
        "samples": int(xs.shape[0]),
    }


def closedness_condition_check(map_, selector: BundleSelector, steps=4, samples=200,
                               seed=0) -> dict:
    """Uniform-gap sufficient condition for closed limit currents.

    Compares the largest (k-1)-volume growth over all subframes of the
    bundle (product of the top k-1 restricted singular values of the chained
    differential) against the smallest k-volume growth. The sup runs over
    every unit subframe of the sampled planes, not only eigen-aligned ones,
    so small step counts can honestly fail where eigenvalue arithmetic would
    suggest otherwise; the margin still grows like the weakest selected
    eigenvalue once positive.
    """
    if selector.k < 2:
        raise ValueError("closedness check needs a bundle of dimension >= 2")
    xs = map_.sample_uniform(samples, seed)
    frames, status, _ = bundle_frames(map_, xs, selector)
    worst = int(status.max(initial=0))
    if worst != OK:
        _raise_status(worst, "closedness_condition_check")
    q, ok = _orthonormalize(frames)
    if not ok.all():
        _raise_status(STATUS_DEGENERATE, "closedness_condition_check")
    jac = _chained_jacobian(map_, xs, steps)
    restricted = np.einsum("bij,bjk->bik", jac, q)
    svals = np.linalg.svd(restricted, compute_uv=False)
    grow_k = np.prod(svals, axis=1)
    grow_km1 = grow_k / svals[:, -1]
    margin = float(np.min(grow_k) / np.max(grow_km1) - 1.0)
    return {
        "l": int(steps),
        "margin": margin,
        "holds": bool(margin > 0),
        "samples": int(xs.shape[0]),
    }
