"""Leaf disk tracking: seeding, refinement, growth rates, currents, cycles."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathlab.homology import BundleSelector, topological_growth
from pathlab.leafgrowth import (
    BadRadius,
    _advance,
    _unique_edges,
    BudgetExceeded,
    CurrentValue,
    asymptotic_cycle,
    chi_estimate,
    current_eval,
    default_test_forms,
    iterate_refine,
    seed_disk,
    track_growth,
)
from pathlab.torusmap import TorusMap, build_localized_rotation

CAT = [[2, 1], [1, 1]]
COMPANION = [[0, 0, 1], [1, 0, -6], [0, 1, 5]]
LAMBDA1 = 3.2469796037174667
LAMBDA2 = 1.5549581320873718
GOLD = 2.618033988749895


@pytest.fixture(scope="module")
def cat_map():
    return TorusMap(CAT)


@pytest.fixture(scope="module")
def companion_map():
    return TorusMap(COMPANION)


@pytest.fixture(scope="module")
def perturbed_map(companion_map):
    rot = build_localized_rotation(
        companion_map.eigen, center=[0.31, 0.47, 0.62], plane=(2, 1),
        rho=0.1, theta_max=0.3,
    )
    return TorusMap(COMPANION, [rot])


def unstable_frame(map_):
    q, _ = np.linalg.qr(map_.eigen.vectors[:, :2])
    return q


# ---------------------------------------------------------------- seeding

def test_seed_curve_nodes_and_length(cat_map):
    v1 = cat_map.eigen.vectors[:, 0]
    disk = seed_disk([0.2, 0.3], v1, 1e-3, 1e-4)
    assert disk.n_nodes == 21
    assert abs(disk.volume() - 2e-3) < 1e-12
    spacing = np.diff(disk.params[:, 0])
    assert np.all(spacing <= 1e-4 + 1e-15)


def test_seed_disk_area(companion_map):
    disk = seed_disk([0.1, 0.2, 0.3], unstable_frame(companion_map), 2e-3, 1e-3)
    assert abs(disk.volume() / (math.pi * 4e-6) - 1.0) < 0.01


def test_seed_disk_edges_within_delta(companion_map):
    disk = seed_disk([0.1, 0.2, 0.3], unstable_frame(companion_map), 3e-3, 1e-3)
    for a, b in ((0, 1), (1, 2), (2, 0)):
        lens = np.linalg.norm(
            disk.points[disk.cells[:, a]] - disk.points[disk.cells[:, b]], axis=1
        )
        assert np.max(lens) <= 1e-3 + 1e-15


def test_seed_rejects_bad_radius(cat_map):
    v1 = cat_map.eigen.vectors[:, 0]
    with pytest.raises(BadRadius):
        seed_disk([0.2, 0.3], v1, 0.02, 1e-3)
    with pytest.raises(BadRadius):
        seed_disk([0.2, 0.3], v1, 0.0, 1e-4)
    with pytest.raises(ValueError):
        seed_disk([0.2, 0.3], v1, 1e-3, 2e-3)


def test_seed_rejects_non_unit_frame(cat_map):
    with pytest.raises(ValueError):
        seed_disk([0.2, 0.3], np.array([2.0, 1.0]), 1e-3, 1e-4)
    skew = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        seed_disk([0.1, 0.2, 0.3], skew, 1e-3, 1e-4)


# ------------------------------------------------------------- refinement

def test_cat_segment_growth_per_step(cat_map):
    v1 = cat_map.eigen.vectors[:, 0]
    disk = seed_disk([0.2, 0.3], v1, 1e-3, 1e-4)
    prev = disk.volume()
    for _ in range(5):
        disk = iterate_refine(disk, cat_map, 1)
        ratio = disk.volume() / prev
        assert abs(ratio - GOLD) < 1e-6
        prev = disk.volume()
    spacing = np.linalg.norm(
        disk.points[disk.cells[:, 1]] - disk.points[disk.cells[:, 0]], axis=1
    )
    assert np.max(spacing) <= disk.delta + 1e-15


def test_identity_map_changes_nothing():
    ident = TorusMap(np.eye(3, dtype=int))
    frame = np.eye(3)[:, :2]
    disk = seed_disk([0.4, 0.5, 0.6], frame, 2e-3, 1e-3)
    advanced = iterate_refine(disk, ident, 4)
    assert advanced.step == 4
    assert advanced.n_nodes == disk.n_nodes
    assert np.array_equal(advanced.points, disk.points)
    assert advanced.volume() == disk.volume()


def test_companion_disk_area_ratio(companion_map):
    disk = seed_disk(
        [0.1, 0.2, 0.3], unstable_frame(companion_map), 2e-3, 1.2e-3,
        budget=300000,
    )
    vols = [disk.volume()]
    for _ in range(8):
        disk = iterate_refine(disk, companion_map, 1)
        vols.append(disk.volume())
    assert abs(vols[8] / vols[7] - LAMBDA1 * LAMBDA2) < 1e-3


def test_budget_flag_and_raise(companion_map):
    v1 = companion_map.eigen.vectors[:, 0]
    disk = seed_disk([0.1, 0.2, 0.3], v1, 1e-3, 1e-4, budget=30)
    out = iterate_refine(disk, companion_map, 3)
    assert out.truncated
    assert out.step == 3
    assert out.n_nodes <= 30
    with pytest.raises(BudgetExceeded):
        iterate_refine(disk, companion_map, 3, on_budget="raise")


def test_refined_mesh_stays_conforming(perturbed_map):
    disk = seed_disk([0.1, 0.2, 0.3], unstable_frame(perturbed_map), 2e-3, 1.2e-3)
    disk = iterate_refine(disk, perturbed_map, 4)
    assert not disk.truncated
    cells = disk.cells
    v = disk.n_nodes
    a = cells.ravel()
    b = np.roll(cells, -1, axis=1).ravel()
    # one int64 key per undirected side, min * v + max
    uniq, counts = np.unique(np.minimum(a, b) * v + np.maximum(a, b), return_counts=True)
    # interior edges belong to exactly two triangles, boundary edges to one
    assert set(counts) <= {1, 2}
    e = uniq.shape[0]
    f = cells.shape[0]
    assert v - e + f == 1
    p = disk.params
    area2 = (
        (p[cells[:, 1], 0] - p[cells[:, 0], 0])
        * (p[cells[:, 2], 1] - p[cells[:, 0], 1])
        - (p[cells[:, 1], 1] - p[cells[:, 0], 1])
        * (p[cells[:, 2], 0] - p[cells[:, 0], 0])
    )
    assert np.all(area2 > 0.0)


@pytest.mark.parametrize("k, budget", [(1, 10**6), (2, 10**6), (2, 6000)])
def test_grouped_steps_match_single_steps(perturbed_map, k, budget):
    # commands step one at a time and most tests many at once; the carried
    # mesh must not depend on how the steps are grouped
    frame = perturbed_map.eigen.vectors[:, 0] if k == 1 else unstable_frame(perturbed_map)
    disk = seed_disk([0.31, 0.47, 0.62], frame, 2e-3, 1.2e-3, budget=budget)
    grouped = iterate_refine(disk, perturbed_map, 3)
    single = disk
    for _ in range(3):
        single = iterate_refine(single, perturbed_map, 1)
    assert grouped.truncated == single.truncated == (budget < 10**6)
    for name in ("params", "points", "cells", "boundary"):
        a, b = getattr(grouped, name), getattr(single, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def node_provenance_error(disk, map_, sample=100, seed=0):
    """Largest distance between stored nodes and their recomputed positions."""
    rng = np.random.default_rng(seed)
    m = disk.n_nodes
    idx = rng.choice(m, size=min(int(sample), m), replace=False)
    redone = _advance(map_, disk.seed_point, disk.frame, disk.params[idx], disk.step)
    return float(np.max(np.linalg.norm(redone - disk.points[idx], axis=1), initial=0.0))


def test_parameter_provenance(perturbed_map):
    v1 = perturbed_map.eigen.vectors[:, 0]
    disk = seed_disk([0.12, 0.37, 0.81], v1, 1e-3, 5e-4)
    disk = iterate_refine(disk, perturbed_map, 6)
    assert node_provenance_error(disk, perturbed_map, sample=100, seed=3) < 1e-9


def test_refinement_peak_memory_tracks_the_mesh(companion_map):
    # each pass frees its temporaries before the next pass dedups the edges
    # of the larger mesh; this disk ends near 77k nodes
    disk = seed_disk([0.1, 0.2, 0.3], unstable_frame(companion_map), 0.01, 0.006)
    disk = iterate_refine(disk, companion_map, 2)
    tracemalloc.start()
    try:
        out = iterate_refine(disk, companion_map, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    mesh = out.params.nbytes + out.points.nbytes + out.cells.nbytes
    assert out.n_nodes > 70_000
    assert peak < 10 * mesh


def test_mesh_halving_consistency(perturbed_map):
    frame = unstable_frame(perturbed_map)
    vols = {}
    for delta in (1.2e-3, 6e-4):
        disk = seed_disk([0.1, 0.2, 0.3], frame, 2e-3, delta)
        steps = []
        for _ in range(4):
            disk = iterate_refine(disk, perturbed_map, 1)
            steps.append(disk.volume())
        assert not disk.truncated
        vols[delta] = steps
    for a, b in zip(vols[1.2e-3], vols[6e-4]):
        assert abs(a / b - 1.0) < 1e-3


# ------------------------------------------------------------ chi estimates

def test_chi_needs_four_steps():
    with pytest.raises(ValueError):
        chi_estimate([{"n": 0, "volume": 1.0}, {"n": 1, "volume": 2.0},
                      {"n": 2, "volume": 4.0}])


def test_chi_cat_curve(cat_map):
    v1 = cat_map.eigen.vectors[:, 0]
    disk = seed_disk([0.2, 0.3], v1, 1e-3, 1e-4)
    out = track_growth(disk, cat_map, 6)
    est = chi_estimate(out["records"])
    target = math.log(GOLD)
    assert abs(est["ratio_estimate"] - target) < 1e-6
    assert abs(est["regression_estimate"] - target) < 1e-6
    assert max(abs(r) for r in est["residuals"]) < 1e-9


def test_chi_companion_strong_curve(companion_map):
    v1 = companion_map.eigen.vectors[:, 0]
    disk = seed_disk([0.2, 0.35, 0.81], v1, 1e-3, 8e-4, budget=200000)
    out = track_growth(disk, companion_map, 12)
    est = chi_estimate(out["records"])
    assert abs(est["ratio_estimate"] - math.log(LAMBDA1)) < 1e-4


def test_chi_matches_homology_growth(companion_map):
    lam1, _ = topological_growth(companion_map.eigen, BundleSelector((1,)))
    frame = unstable_frame(companion_map)
    disk = seed_disk([0.1, 0.2, 0.3], frame, 2e-3, 1.2e-3, budget=300000)
    out = track_growth(disk, companion_map, 6)
    est = chi_estimate(out["records"])
    lam12, _ = topological_growth(companion_map.eigen, BundleSelector((1, 2)))
    assert abs(est["ratio_estimate"] - math.log(lam12)) < 1e-6
    assert abs(est["regression_estimate"] - math.log(lam12)) < 1e-6
    v1 = companion_map.eigen.vectors[:, 0]
    curve = seed_disk([0.2, 0.35, 0.81], v1, 1e-3, 8e-4, budget=200000)
    cout = track_growth(curve, companion_map, 8)
    cest = chi_estimate(cout["records"])
    assert abs(cest["ratio_estimate"] - math.log(lam1)) < 1e-6


@settings(max_examples=25, deadline=None)
@given(
    rate=st.floats(min_value=0.1, max_value=2.0),
    scale=st.floats(min_value=1e-6, max_value=10.0),
    steps=st.integers(min_value=4, max_value=12),
)
def test_chi_recovers_exact_exponential(rate, scale, steps):
    records = [{"n": i, "volume": scale * math.exp(rate * i)} for i in range(steps)]
    est = chi_estimate(records)
    assert abs(est["ratio_estimate"] - rate) < 1e-9
    assert abs(est["regression_estimate"] - rate) < 1e-9
    assert max(abs(r) for r in est["residuals"]) < 1e-9


# ---------------------------------------------------------------- currents

def test_current_components_straight_curve(cat_map):
    v1 = cat_map.eigen.vectors[:, 0]
    disk = seed_disk([0.2, 0.3], v1, 1e-3, 1e-4)
    disk = iterate_refine(disk, cat_map, 3)
    cv = current_eval(disk)
    assert isinstance(cv, CurrentValue)
    assert abs(cv.components["dx1"] - 0.8506508083520399) < 1e-10
    assert abs(cv.components["dx2"] - 0.5257311121191336) < 1e-10


def test_current_mass_bound(perturbed_map):
    disk = seed_disk([0.1, 0.2, 0.3], unstable_frame(perturbed_map), 2e-3, 1.2e-3)
    disk = iterate_refine(disk, perturbed_map, 4)
    cv = current_eval(disk)
    total = sum(v * v for v in cv.components.values())
    assert total <= 1.0 + 1e-9
    assert total > 0.9


def test_current_components_match_carried_class(companion_map):
    frame = unstable_frame(companion_map)
    disk = seed_disk([0.1, 0.2, 0.3], frame, 2e-3, 1.2e-3, budget=300000)
    disk = iterate_refine(disk, companion_map, 4)
    cv = current_eval(disk)
    _, h = topological_growth(companion_map.eigen, BundleSelector((1, 2)))
    got = np.array([cv.components[lbl] for lbl in sorted(cv.components)])
    want = h.coefficients
    err = min(np.max(np.abs(got - want)), np.max(np.abs(got + want)))
    assert err < 1e-8


def test_current_labels_cover_grade(companion_map):
    frame = unstable_frame(companion_map)
    disk = seed_disk([0.1, 0.2, 0.3], frame, 2e-3, 1e-3)
    cv = current_eval(disk)
    assert sorted(cv.components) == ["dx1^dx2", "dx1^dx3", "dx2^dx3"]
    assert len(cv.boundary_terms) == 12


def test_boundary_term_curve_is_potential_difference(cat_map):
    v1 = cat_map.eigen.vectors[:, 0]
    disk = seed_disk([0.2, 0.3], v1, 1e-3, 1e-4)
    disk = iterate_refine(disk, cat_map, 4)
    cv = current_eval(disk)
    ends = disk.points[disk.boundary]
    length = disk.volume()
    for form in default_test_forms(2, 1):
        fn = math.sin if form.trig == "sin" else math.cos
        ga = fn(2.0 * math.pi * ends[0][form.wave - 1])
        gb = fn(2.0 * math.pi * ends[1][form.wave - 1])
        assert abs(cv.boundary_terms[form.label] - abs(gb - ga) / length) < 1e-12


def test_flat_disk_boundary_terms_stokes(companion_map):
    # a flat disk in a coordinate plane: integrating d(alpha) directly over
    # the surface must agree with the boundary circulation within mesh error
    frame = np.eye(3)[:, :2]
    disk = seed_disk([0.1, 0.2, 0.3], frame, 2e-3, 2.5e-4)
    cv = current_eval(disk, forms=[f for f in default_test_forms(3, 2)])
    vol = disk.volume()
    e1 = disk.points[disk.cells[:, 1]] - disk.points[disk.cells[:, 0]]
    e2 = disk.points[disk.cells[:, 2]] - disk.points[disk.cells[:, 0]]
    mid = (
        disk.points[disk.cells[:, 0]]
        + disk.points[disk.cells[:, 1]]
        + disk.points[disk.cells[:, 2]]
    ) / 3.0
    for form in default_test_forms(3, 2):
        # d(g dx_i) = g' dx_w ^ dx_i with the wave coordinate w
        w = form.wave - 1
        i = form.component - 1
        if w == i:
            continue
        dfn = np.cos if form.trig == "sin" else lambda t: -np.sin(t)
        gp = 2.0 * np.pi * dfn(2.0 * np.pi * mid[:, w])
        proj = 0.5 * (e1[:, w] * e2[:, i] - e1[:, i] * e2[:, w])
        direct = abs(float(np.sum(gp * proj))) / vol
        assert abs(cv.boundary_terms[form.label] - direct) < 5e-4


def test_volume_positive_required():
    ident = TorusMap(np.eye(2, dtype=int))
    v = np.array([1.0, 0.0])
    disk = seed_disk([0.2, 0.3], v, 1e-3, 1e-4)
    zero = dataclasses.replace(disk, points=np.zeros_like(disk.points))
    with pytest.raises(ValueError):
        current_eval(zero)
    assert ident.n == 2


# ------------------------------------------------------------------ cycles

def test_cycle_identity_map():
    ident = TorusMap(np.eye(2, dtype=int))
    v = np.array([0.6, 0.8])
    disk = seed_disk([0.2, 0.3], v, 1e-3, 1e-4)
    disk = iterate_refine(disk, ident, 3)
    cyc = asymptotic_cycle(disk)
    assert np.allclose(cyc.displacement, 2e-3 * v, atol=1e-15)
    assert np.allclose(cyc.normalized, v, atol=1e-12)
    assert np.array_equal(cyc.integer_class, np.zeros(2, dtype=np.int64))


def test_cycle_linear_along_v1(cat_map):
    v1 = cat_map.eigen.vectors[:, 0]
    disk = seed_disk([0.2, 0.3], v1, 1e-3, 1e-4)
    for _ in range(6):
        disk = iterate_refine(disk, cat_map, 1)
        cyc = asymptotic_cycle(disk)
        sign = 1.0 if cyc.normalized @ v1 > 0 else -1.0
        assert np.max(np.abs(cyc.normalized - sign * v1)) < 1e-10
        assert np.linalg.norm(cyc.normalized) <= 1.0 + 1e-9


def test_cycle_perturbed_converges(perturbed_map):
    v1 = perturbed_map.eigen.vectors[:, 0]
    disk = seed_disk([0.12, 0.37, 0.81], v1, 1.2e-3, 1e-3, budget=400000)
    angles = []
    for _ in range(12):
        disk = iterate_refine(disk, perturbed_map, 1)
        cyc = asymptotic_cycle(disk)
        cosang = abs(float(cyc.normalized @ v1)) / np.linalg.norm(cyc.normalized)
        angles.append(math.acos(min(1.0, cosang)))
    assert angles[-1] <= 1e-2
    assert angles[-1] <= angles[5]
    assert np.linalg.norm(cyc.normalized) <= 1.0 + 1e-9


def test_cycle_rejects_surface(companion_map):
    disk = seed_disk([0.1, 0.2, 0.3], unstable_frame(companion_map), 2e-3, 1e-3)
    with pytest.raises(ValueError):
        asymptotic_cycle(disk)


# ------------------------------------------------------------ track_growth

def test_track_growth_records(cat_map):
    v1 = cat_map.eigen.vectors[:, 0]
    disk = seed_disk([0.2, 0.3], v1, 1e-3, 1e-4)
    out = track_growth(disk, cat_map, 4)
    recs = out["records"]
    assert [r["n"] for r in recs] == [0, 1, 2, 3, 4]
    assert math.isnan(recs[0]["ratio"])
    for r in recs[1:]:
        assert abs(r["ratio"] - math.log(GOLD)) < 1e-9
    assert set(recs[0]) == {
        "n", "volume", "ln_volume", "ratio", "nodes", "truncated",
        "components", "boundary_terms",
    }


# ------------------------------------------------- edge tables and boundary

@given(st.integers(0, 2**32 - 1), st.integers(1, 400), st.integers(3, 300))
@settings(max_examples=30, deadline=None)
def test_edge_tables_match_rowwise_unique(seed, tris, nodes):
    cells = np.random.default_rng(seed).integers(0, nodes, size=(tris, 3))
    raw = np.vstack([cells[:, (0, 1)], cells[:, (1, 2)], cells[:, (2, 0)]])
    ref, inverse = np.unique(np.sort(raw, axis=1), axis=0, return_inverse=True)
    keys, tri_edge = _unique_edges(cells, nodes)
    assert np.array_equal(keys, ref[:, 0] * nodes + ref[:, 1])
    assert np.array_equal(np.column_stack(np.divmod(keys, nodes)), ref)
    assert np.array_equal(tri_edge, inverse.reshape(3, -1).T)


@settings(max_examples=8, deadline=None)
@given(
    point=st.tuples(*[st.floats(0.0, 1.0)] * 3),
    k=st.sampled_from([1, 2]),
    perturbed=st.booleans(),
    steps=st.integers(1, 4),
    tight=st.booleans(),
)
@example(point=(0.1, 0.2, 0.3), k=2, perturbed=False, steps=3, tight=True)
@example(point=(0.31, 0.47, 0.62), k=1, perturbed=True, steps=4, tight=False)
def test_carried_boundary_is_the_deduped_boundary(companion_map, perturbed_map, point,
                                                  k, perturbed, steps, tight):
    map_ = perturbed_map if perturbed else companion_map
    if k == 1:
        disk = seed_disk(point, map_.eigen.vectors[:, 0], 1e-3, 1e-4,
                         budget=60 if tight else 10**6)
    else:
        disk = seed_disk(point, unstable_frame(map_), 2e-3, 1.9e-3,
                         budget=3000 if tight else 10**6)
    disk = iterate_refine(disk, map_, steps)
    if tight and steps > 1 and not perturbed:
        # the linear map's mesh does not depend on the point
        assert disk.truncated
    b, cells = disk.boundary, disk.cells
    if k == 1:
        assert disk.params[b, 0].tolist() == [-disk.radius, disk.radius]
        assert cells[0, 0] == b[0] and cells[-1, 1] == b[1]
        assert np.array_equal(cells[1:, 0], cells[:-1, 1])
        return
    # the sides that a dedup of all triangle sides finds once, as directed
    # in their triangles, are exactly the loop's consecutive pairs
    raw = np.vstack([cells[:, (0, 1)], cells[:, (1, 2)], cells[:, (2, 0)]])
    lo, hi = np.sort(raw, axis=1).T
    _, inverse, counts = np.unique(lo * disk.n_nodes + hi, return_inverse=True,
                                   return_counts=True)
    once = raw[counts[inverse] == 1]
    loop_sides = np.column_stack([b, np.roll(b, -1)])
    assert np.unique(b).shape == b.shape
    assert np.array_equal(np.unique(loop_sides, axis=0), np.unique(once, axis=0))
    assert loop_sides.shape == once.shape
