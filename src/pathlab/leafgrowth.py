"""Leaf disks of expanding foliations, tracked in the universal cover.

A disk is seeded flat in an orthonormal frame at a base point and pushed
forward through the lift of a torus map. Every node keeps the parameter it
was born with in the seed chart, and refinement computes new nodes by mapping
their seed position through all elapsed steps, so no chord interpolation
error ever enters a node coordinate. Nodes stay in creation order. One
refinement loop repeats a split step until no side is longer than the mesh
bound delta in lifted coordinates: in-place segment halving for curves
(k = 1), whose cells stay in curve order, and conforming marked-edge
bisection for surfaces (k = 2). The disk carries its boundary, a curve's end
nodes or a surface's outer loop, through every pass.

Volumes are unsigned sums of segment lengths or triangle areas; current
components use signed projected measures, which is why the triangulation
maintains a consistent parameter-plane orientation. When the node budget
blocks a refinement pass the disk is flagged truncated and later passes are
skipped; nodes keep advancing, so volumes stay exact for linear maps, whose
leaves remain affine between existing nodes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .smallmat import WedgeIndex

_GAUSS = (0.5 * (1.0 - 1.0 / math.sqrt(3.0)), 0.5 * (1.0 + 1.0 / math.sqrt(3.0)))
_MAX_PASSES = 200


class BadRadius(ValueError):
    """Seed radius outside the flat-disk regime."""


class BudgetExceeded(RuntimeError):
    """Node budget would be exceeded by the next refinement pass."""


@dataclass(frozen=True)
class LeafDisk:
    """A k-disk after `step` steps; points[i] is the image of seed_point +
    frame @ params[i], and nodes are in creation order. Curve cells chain
    head to tail; triangles are oriented like the parameter plane. boundary
    holds node indices: a curve's ends, at parameters -radius and radius, or
    a surface's outer loop, each node followed by its counterclockwise
    neighbour in the parameter plane."""
    k: int
    seed_point: np.ndarray
    frame: np.ndarray
    radius: float
    delta: float
    step: int
    params: np.ndarray
    points: np.ndarray
    cells: np.ndarray
    boundary: np.ndarray
    budget: int
    truncated: bool

    @property
    def n_nodes(self) -> int:
        return self.points.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    def volume(self) -> float:
        return _measure(self.points, self.cells)[0]


def _measure(points, cells):
    """Unsigned volume of the cells, and the vectors from each cell's first
    node to its other nodes."""
    sides = [points[cells[:, j]] - points[cells[:, 0]] for j in range(1, cells.shape[1])]
    if len(sides) == 1:
        return float(np.sum(np.linalg.norm(sides[0], axis=1))), sides
    e1, e2 = sides
    g11 = np.einsum("ij,ij->i", e1, e1)
    g22 = np.einsum("ij,ij->i", e2, e2)
    g12 = np.einsum("ij,ij->i", e1, e2)
    det = np.maximum(g11 * g22 - g12 * g12, 0.0)
    return float(0.5 * np.sum(np.sqrt(det))), sides


def _seed_positions(seed_point, frame, params):
    # fixed-order accumulation, matching the map's own arithmetic, so a node
    # recomputed later in a different batch reproduces identical floats
    y = np.broadcast_to(seed_point, (params.shape[0], seed_point.shape[0])).copy()
    for j in range(frame.shape[1]):
        y = y + params[:, j, None] * frame[:, j]
    return y


def _advance(map_, seed_point, frame, params, steps):
    y = _seed_positions(seed_point, frame, params)
    for _ in range(steps):
        y = map_.lift_apply(y)
    return y


def _disk_mesh(radius, delta):
    """Ring-triangulated round disk with all edges at most delta, and its
    outer ring, counterclockwise.

    Twenty rings minimum keeps the inscribed-polygon area within 0.05
    percent of the round disk, small enough that mesh-halving volume
    comparisons are not dominated by the seed boundary.
    """
    rings = max(20, int(math.ceil(1.2 * radius / delta)))
    while True:
        nodes = [(0.0, 0.0)]
        ring_start = [0, 1]
        for j in range(1, rings + 1):
            rj = radius * j / rings
            ang = 2.0 * np.pi * np.arange(6 * j) / (6 * j)
            for a in ang:
                nodes.append((rj * math.cos(a), rj * math.sin(a)))
            ring_start.append(len(nodes))
        params = np.array(nodes)
        tris = []
        first = [ring_start[1] + i for i in range(6)]
        for i in range(6):
            tris.append((0, first[i], first[(i + 1) % 6]))
        for j in range(2, rings + 1):
            p = 6 * (j - 1)
            q = 6 * j
            inner = np.arange(ring_start[j - 1], ring_start[j - 1] + p)
            outer = np.arange(ring_start[j], ring_start[j] + q)
            ai = 2.0 * np.pi * np.arange(p + 1) / p
            ao = 2.0 * np.pi * np.arange(q + 1) / q
            i = o = 0
            while i < p or o < q:
                if o < q and (i == p or ao[o + 1] <= ai[i + 1]):
                    tris.append((inner[i % p], outer[o], outer[(o + 1) % q]))
                    o += 1
                else:
                    tris.append((inner[i], outer[o % q], inner[(i + 1) % p]))
                    i += 1
        cells = np.array(tris, dtype=np.int64)
        edges = np.vstack([cells[:, (0, 1)], cells[:, (1, 2)], cells[:, (2, 0)]])
        lens = np.linalg.norm(params[edges[:, 0]] - params[edges[:, 1]], axis=1)
        if float(np.max(lens)) <= delta:
            return params, cells, np.arange(len(nodes) - 6 * rings, len(nodes))
        rings += 1


def seed_disk(x, frame, r, delta, budget: int = 2_000_000) -> LeafDisk:
    """Flat k-disk of radius r at x, sampled at node spacing at most delta."""
    x = np.asarray(x, dtype=float)
    frame = np.asarray(frame, dtype=float)
    if frame.ndim == 1:
        frame = frame[:, None]
    if x.ndim != 1 or frame.shape[0] != x.shape[0]:
        raise ValueError("frame rows must match the point dimension")
    k = frame.shape[1]
    if k not in (1, 2):
        raise ValueError(f"disk dimension must be 1 or 2, got {k}")
    r = float(r)
    delta = float(delta)
    if not 0.0 < r <= 0.01:
        raise BadRadius(f"radius {r} outside (0, 0.01]")
    if not 0.0 < delta < r:
        raise ValueError(f"mesh bound must satisfy 0 < delta < r, got {delta}")
    gram = frame.T @ frame
    if np.max(np.abs(gram - np.eye(k))) > 1e-8:
        raise ValueError("frame must be orthonormal")
    if k == 1:
        half = int(math.ceil(r / delta))
        t = np.linspace(-r, r, 2 * half + 1)
        params = t[:, None]
        cells = np.column_stack([np.arange(2 * half), np.arange(1, 2 * half + 1)])
        boundary = np.array([0, 2 * half])
    else:
        params, cells, boundary = _disk_mesh(r, delta)
    if params.shape[0] > budget:
        raise BudgetExceeded(f"seed needs {params.shape[0]} nodes, budget is {budget}")
    points = _seed_positions(x, frame, params)
    return LeafDisk(k, x, frame, r, delta, 0, params, points, cells, boundary,
                    int(budget), False)


def _halving(params, points, cells, ends, delta):
    """Midpoint parameters, cells and ends of one pass that halves in place
    every segment longer than delta, or None if none is."""
    over = np.linalg.norm(points[cells[:, 1]] - points[cells[:, 0]], axis=1) > delta
    if not np.any(over):
        return None
    mids = params.shape[0] + np.arange(np.count_nonzero(over))
    chain = np.insert(np.append(cells[:, 0], cells[-1, 1]), np.flatnonzero(over) + 1, mids)
    return (0.5 * (params[cells[over, 0]] + params[cells[over, 1]]),
            np.column_stack([chain[:-1], chain[1:]]), ends)


def _unique_edges(cells, base):
    """Sorted int64 keys min * base + max of the undirected sides, for a base
    above every node index, and each triangle's three rows in them."""
    a = cells.T.ravel()
    b = np.roll(a, -cells.shape[0])
    keys = np.minimum(a, b) * base + np.maximum(a, b)
    del a, b  # freed before np.unique sorts and inverts the keys
    keys, inverse = np.unique(keys, return_inverse=True)
    return keys, inverse.reshape(3, -1).T


# bisection patterns over the corners (a, b, c, m_ab, m_bc, m_ca) of a
# triangle rolled so that its longest (always marked) side is (a, b), keyed
# by whether (b, c) and (c, a) are marked too; each keeps the orientation
_BISECTIONS = {
    (False, False): ((0, 3, 2), (3, 1, 2)),
    (True, False): ((0, 3, 2), (3, 1, 4), (3, 4, 2)),
    (False, True): ((3, 1, 2), (0, 3, 5), (3, 2, 5)),
    (True, True): ((0, 3, 5), (3, 1, 4), (5, 4, 2), (3, 4, 5)),
}


def _bisection(params, points, cells, loop, delta):
    """Midpoint parameters, cells and boundary loop of one longest-edge
    bisection pass over the sides longer than delta, or None if no side is.
    Midpoints are numbered after the existing nodes, and each split loop
    side gets its midpoint after its first node. Sides are int64 keys with
    the node count as base (_unique_edges); a loop side's key is found in
    the sorted table. A helper, so that a pass's temporaries are freed
    before the next pass dedups a larger mesh."""
    base = params.shape[0]
    keys, tri_edge = _unique_edges(cells, base)
    lens = np.linalg.norm(points[keys // base] - points[keys % base], axis=1)
    marked = lens > delta
    if not np.any(marked):
        return None
    # bisect by the longest side first: one threshold marks it if any side is
    longest = np.argmax(lens[tri_edge], axis=1)
    split_idx = np.flatnonzero(marked)
    mid_of = np.full(keys.shape[0], -1, dtype=np.int64)
    mid_of[split_idx] = base + np.arange(split_idx.shape[0])
    nxt = np.roll(loop, -1)
    mids = mid_of[np.searchsorted(keys, np.minimum(loop, nxt) * base + np.maximum(loop, nxt))]
    loop = np.insert(loop, np.flatnonzero(mids >= 0) + 1, mids[mids >= 0])
    ends = np.divmod(keys[split_idx], base)
    del keys  # freed before the split cells are built
    turn = (longest[:, None] + np.arange(3)) % 3
    side_marked = np.take_along_axis(marked[tri_edge], turn, axis=1)
    corners = np.hstack([np.take_along_axis(cells, turn, axis=1),
                         mid_of[np.take_along_axis(tri_edge, turn, axis=1)]])
    split = side_marked.any(axis=1)
    out = [cells[~split]]
    for (m1, m2), pattern in _BISECTIONS.items():
        rows = corners[split & (side_marked[:, 1] == m1) & (side_marked[:, 2] == m2)]
        out.extend(rows[:, p] for p in pattern)
    return 0.5 * (params[ends[0]] + params[ends[1]]), np.vstack(out), loop


def _refine(disk, map_, step, params, points, cells, boundary):
    """Refined params, points, cells and boundary of the disk's mesh at
    `step`, and whether the budget blocked a pass, which it leaves undone."""
    split_step = _halving if disk.k == 1 else _bisection
    for _ in range(_MAX_PASSES):
        refined = split_step(params, points, cells, boundary, disk.delta)
        if refined is None:
            return params, points, cells, boundary, False
        mid_params, split_cells, split_boundary = refined
        if params.shape[0] + mid_params.shape[0] > disk.budget:
            return params, points, cells, boundary, True
        mid_points = _advance(map_, disk.seed_point, disk.frame, mid_params, step)
        params = np.vstack([params, mid_params])
        points = np.vstack([points, mid_points])
        cells, boundary = split_cells, split_boundary
    raise RuntimeError("refinement did not settle; delta may be degenerate")


def iterate_refine(disk: LeafDisk, map_, steps: int, on_budget: str = "flag") -> LeafDisk:
    """Advance the disk through the map lift, refining after every step.

    Once the budget blocks a pass the disk is returned truncated: nodes keep
    advancing but the mesh bound no longer holds. on_budget="raise" raises
    BudgetExceeded at that point instead.
    """
    steps = int(steps)
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if on_budget not in ("flag", "raise"):
        raise ValueError(f"on_budget must be 'flag' or 'raise', got {on_budget!r}")
    if map_.n != disk.ambient_dim:
        raise ValueError("map dimension does not match the disk")
    params, points, cells, boundary = disk.params, disk.points, disk.cells, disk.boundary
    step, truncated = disk.step, disk.truncated
    for _ in range(steps):
        points = map_.lift_apply(points)
        step += 1
        if not truncated:
            params, points, cells, boundary, truncated = _refine(
                disk, map_, step, params, points, cells, boundary)
            if truncated and on_budget == "raise":
                raise BudgetExceeded(
                    f"budget {disk.budget} blocks refinement at step {step}"
                )
    return replace(disk, step=step, params=params, points=points, cells=cells,
                   boundary=boundary, truncated=truncated)


def chi_estimate(records) -> dict:
    """Growth-rate estimates from a per-step volume table.

    The ratio estimate is the last one-step log ratio; the regression
    estimate is the least-squares slope of ln volume against the step.
    """
    rows = [(int(r["n"]), float(r["volume"])) for r in records]
    if len(rows) < 4:
        raise ValueError(f"need at least 4 recorded steps, got {len(rows)}")
    ns = np.array([r[0] for r in rows], dtype=float)
    vols = np.array([r[1] for r in rows])
    if np.any(vols <= 0.0):
        raise ValueError("volumes must be positive")
    lnv = np.log(vols)
    slope, intercept = np.polyfit(ns, lnv, 1)
    residuals = lnv - (slope * ns + intercept)
    return {
        "ratio_estimate": float((lnv[-1] - lnv[-2]) / (ns[-1] - ns[-2])),
        "regression_estimate": float(slope),
        "residuals": [float(r) for r in residuals],
    }


@dataclass(frozen=True)
class TestForm:
    """sin or cos of one full-period coordinate wave times an optional dx.

    component None is the plain function (a 0-form); its exterior derivative
    tests 1-dimensional disks the way the 1-form versions test surfaces.
    """
    trig: str
    wave: int
    component: int | None = None

    def __post_init__(self):
        if self.trig not in ("sin", "cos"):
            raise ValueError(f"trig must be 'sin' or 'cos', got {self.trig!r}")

    @property
    def label(self) -> str:
        base = f"{self.trig}(2pi*x{self.wave})"
        if self.component is None:
            return base
        return f"{base}*dx{self.component}"

    def coefficient(self, points):
        fn = np.sin if self.trig == "sin" else np.cos
        return fn(2.0 * np.pi * points[:, self.wave - 1])


def default_test_forms(dim: int, k: int):
    """The fixed closedness test battery: one wave per off-axis pair."""
    forms = []
    if k == 1:
        for j in range(1, dim + 1):
            for trig in ("sin", "cos"):
                forms.append(TestForm(trig, j))
    else:
        for j in range(1, dim + 1):
            for i in range(1, dim + 1):
                if i == j:
                    continue
                for trig in ("sin", "cos"):
                    forms.append(TestForm(trig, j, i))
    return forms


@dataclass(frozen=True)
class CurrentValue:
    step: int
    volume: float
    components: dict
    boundary_terms: dict


def current_eval(disk: LeafDisk, forms=None) -> CurrentValue:
    """Normalized currents of the disk and Stokes boundary diagnostics.

    Components integrate the constant coordinate forms over the disk and
    divide by its volume. Boundary terms evaluate the exact form d(alpha)
    through the circulation of alpha along the boundary, with a two-point
    Gauss rule per boundary segment.
    """
    pts = disk.points
    vol, sides = _measure(pts, disk.cells)
    if vol <= 0.0:
        raise ValueError("disk volume vanished; cannot normalize currents")
    nd = disk.ambient_dim
    wi = WedgeIndex(nd, disk.k)
    components = {}
    if disk.k == 1:
        totals = np.sum(sides[0], axis=0)
        for label, (i,) in zip(wi.labels(), wi.subsets):
            components[label] = float(totals[i] / vol)
    else:
        e1, e2 = sides
        for label, (i, j) in zip(wi.labels(), wi.subsets):
            signed = 0.5 * np.sum(e1[:, i] * e2[:, j] - e1[:, j] * e2[:, i])
            components[label] = float(signed / vol)
    if forms is None:
        forms = default_test_forms(nd, disk.k)
    boundary_terms = {}
    if disk.k == 1:
        for form in forms:
            if form.component is not None:
                raise ValueError("boundary terms of a curve need 0-form potentials")
            ga, gb = form.coefficient(pts[disk.boundary])
            boundary_terms[form.label] = float(abs(gb - ga) / vol)
    else:
        pa = pts[disk.boundary]
        seg = pts[np.roll(disk.boundary, -1)] - pa
        for form in forms:
            if form.component is None:
                raise ValueError("boundary terms of a surface need 1-form test forms")
            total = 0.0
            for t in _GAUSS:
                total += 0.5 * np.sum(
                    form.coefficient(pa + t * seg) * seg[:, form.component - 1]
                )
            boundary_terms[form.label] = float(abs(total) / vol)
    return CurrentValue(disk.step, vol, components, boundary_terms)


@dataclass(frozen=True)
class CycleEstimate:
    step: int
    displacement: np.ndarray
    integer_class: np.ndarray
    normalized: np.ndarray


def asymptotic_cycle(disk: LeafDisk) -> CycleEstimate:
    """Endpoint displacement of an iterated curve, normalized by arc length.

    The integer class rounds the displacement to the nearest lattice vector,
    the closing correction being shorter than the wrap cell. The normalized
    vector cannot exceed unit length: the displacement is a straight chord
    of the polyline whose length divides it.
    """
    if disk.k != 1:
        raise ValueError("asymptotic cycles are defined for curves only")
    start, end = disk.points[disk.boundary]
    displacement = end - start
    arc = disk.volume()
    if arc <= 0.0:
        raise ValueError("curve has zero length")
    return CycleEstimate(
        disk.step,
        displacement,
        np.rint(displacement).astype(np.int64),
        displacement / arc,
    )


def track_growth(disk: LeafDisk, map_, steps: int, forms=None,
                 on_budget: str = "flag") -> dict:
    """Step the disk while recording the per-step growth and current table."""
    records = []
    prev_ln = None
    current = disk
    for s in range(int(steps) + 1):
        if s > 0:
            current = iterate_refine(current, map_, 1, on_budget=on_budget)
        cv = current_eval(current, forms=forms)
        lnv = math.log(cv.volume)
        rec = {
            "n": current.step,
            "volume": cv.volume,
            "ln_volume": lnv,
            "ratio": float("nan") if prev_ln is None else lnv - prev_ln,
            "nodes": current.n_nodes,
            "truncated": current.truncated,
            "components": dict(cv.components),
            "boundary_terms": dict(cv.boundary_terms),
        }
        records.append(rec)
        prev_ln = lnv
    return {"records": records, "disk": current}
