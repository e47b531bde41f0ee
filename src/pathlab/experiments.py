"""The experiment commands behind the CLI.

Each cmd_* function takes a validated ExperimentConfig and returns a plain
report dict ready for serialization. Reports carry every number a later
reader needs to re-check a claim (estimates with their stderr, margins,
thresholds), because the JSON files double as regression baselines.
"""

import math
from itertools import combinations

import numpy as np

from .bundles import (
    IllConditionedIntersection,
    NoGap,
    closedness_condition_check,
    domination_check,
    selector_block,
    strongest_subbundle,
)
from .config import ConfigError, ExperimentConfig
from .homology import (
    BundleSelector,
    NonSimpleTopEigenvalue,
    growth_report,
    induced_on_Hk,
    topological_growth,
)
from .leafgrowth import (
    asymptotic_cycle,
    chi_estimate,
    iterate_refine,
    seed_disk,
    track_growth,
)
from .lyapunov import (
    DegenerateFrame,
    birkhoff_exponent,
    chart_line_holds,
    chart_line_violation,
    qr_spectrum,
    splitting_exponents,
    support_gap,
)
from .smallmat import WedgeIndex, char_poly, int_det
from .torusmap import TorusMap

NON_ABSOLUTELY_CONTINUOUS = "NON_ABSOLUTELY_CONTINUOUS"
CONSISTENT_WITH_AC = "CONSISTENT_WITH_AC"
INCONCLUSIVE = "INCONCLUSIVE"

_REJECT_RATE_LIMIT = 1e-3

# a method's failures on inputs outside its domain: detect and sweep record
# them in the report, and the CLI exits 3 on them
_DOMAIN_ERRORS = (NoGap, IllConditionedIntersection, DegenerateFrame)

# chained steps of the closedness preflight, and the volume preflight's
# tolerance on |det Df| - 1
_CLOSEDNESS_STEPS = 4
_VOLUME_TOL = 1e-9

# the verdict's gate: a gap above _SIGNIFICANCE stderrs plus _GAP_FLOOR
_SIGNIFICANCE = 3.0
_GAP_FLOOR = 1e-9

# the chart plane of every sweep cell's rotation; the detector needs it to
# mix eigen-directions 1 and 2
_SWEEP_PLANE = (2, 1)


def _log_moduli(values):
    return [float(np.log(abs(v))) for v in values]


def cmd_analyze(config: ExperimentConfig) -> dict:
    """Exact spectral and homological data of the map; no sampling."""
    map_ = config.build_map()
    eigen = map_.eigen
    n = eigen.n
    induced = []
    for k in range(1, n + 1):
        mat = induced_on_Hk(map_.linear, k)
        induced.append({
            "k": k,
            "dim": int(mat.shape[0]),
            "basis": WedgeIndex(n, k).labels(),
            "matrix": [[int(v) for v in row] for row in np.asarray(mat)],
        })
    selections = []
    for k in range(1, n + 1):
        for subset in combinations(range(1, n + 1), k):
            row = {"selector": list(subset), "k": k}
            try:
                rep = growth_report(eigen, BundleSelector(subset))
                row["lambda_W"] = rep["lambda_W"]
                row["ln_lambda_W"] = float(np.log(abs(rep["lambda_W"])))
                row["h_W"] = rep["h_W"]
                row["basis"] = rep["basis"]
            except NonSimpleTopEigenvalue as e:
                row["error"] = str(e)
            selections.append(row)
    return {
        "dim": n,
        "det": int_det(map_.linear.entries),
        "char_poly": [int(c) for c in char_poly(map_.linear)],
        "eigenvalues": [float(v) for v in eigen.values],
        "log_moduli": _log_moduli(eigen.values),
        "eigenvectors": [[float(x) for x in eigen.vectors[:, i]] for i in range(n)],
        "induced": induced,
        "selections": selections,
        "rotations": map_.to_dict()["rotations"],
    }


def _require_leaf(config, command):
    if config.leaf is None:
        raise ConfigError(f"config.leaf: required for {command}")
    return config.leaf


def _growth_target(eigen, selector):
    try:
        lam, _ = topological_growth(eigen, selector)
        return float(np.log(abs(lam)))
    except NonSimpleTopEigenvalue:
        return None


def cmd_growth(config: ExperimentConfig) -> dict:
    """Leaf-volume growth at several base points and radii.

    The tracked disk always spans the strongest k directions; other
    selections have no leafwise tracking (their tangent planes rotate under
    iteration), so the selector must be the leading contiguous block.
    """
    leaf = _require_leaf(config, "growth")
    sel = BundleSelector(config.selector)
    k = sel.k
    if sel.indices != tuple(range(1, k + 1)):
        raise ConfigError(
            "config.selector: growth tracks the strongest consecutive "
            f"directions starting at 1, got {list(sel.indices)}")
    if k > 2:
        raise ConfigError("config.selector: leaf tracking supports k = 1 or 2")
    if leaf["steps"] < 3:
        raise ConfigError("config.leaf.steps: growth needs at least 3 steps")
    map_ = config.build_map()
    sel.validate_for(map_.n)
    eigen = map_.eigen
    target = _growth_target(eigen, sel)
    runs = []
    warnings = []
    for pi, point in enumerate(leaf["points"]):
        frame = strongest_subbundle(map_, point, k)
        for ri, radius in enumerate(leaf["radii"]):
            disk = seed_disk(point, frame, radius, leaf["delta"],
                             budget=leaf["budget"])
            res = track_growth(disk, map_, leaf["steps"], forms=[],
                               on_budget=leaf["on_budget"])
            records = res["records"]
            chi = chi_estimate(records)
            truncated = [r["n"] for r in records if r["truncated"]]
            if truncated:
                warnings.append(
                    f"point {pi} radius {radius}: refinement budget reached "
                    f"at step {truncated[0]}, volumes stay exact only while "
                    "the leaf is affine at the unresolved scale")
            run = {
                "point_index": pi,
                "point": [float(x) for x in point],
                "radius": float(radius),
                "chi_ratio": chi["ratio_estimate"],
                "chi_regression": chi["regression_estimate"],
                "deviation": (None if target is None
                              else abs(chi["ratio_estimate"] - target)),
                "truncated": bool(truncated),
                "final_nodes": records[-1]["nodes"],
                "table": [{key: r[key] for key in
                           ("n", "volume", "ln_volume", "ratio", "nodes",
                            "truncated")}
                          for r in records],
            }
            runs.append(run)
    estimates = [r["chi_ratio"] for r in runs]
    return {
        "selector": list(sel.indices),
        "k": k,
        "target_ln_lambda": target,
        "runs": runs,
        "max_spread": float(max(estimates) - min(estimates)),
        "warnings": warnings,
    }


def cmd_cycle(config: ExperimentConfig) -> dict:
    """Convergence of the normalized displacement class of an iterated curve."""
    leaf = _require_leaf(config, "cycle")
    sel = BundleSelector(config.selector)
    if sel.indices != (1,):
        raise ConfigError(
            f"config.selector: cycle tracks the strongest curve, selector "
            f"must be [1], got {list(sel.indices)}")
    map_ = config.build_map()
    eigen = map_.eigen
    v1 = eigen.vectors[:, 0]
    runs = []
    for pi, point in enumerate(leaf["points"]):
        frame = strongest_subbundle(map_, point, 1)
        for radius in leaf["radii"]:
            disk = seed_disk(point, frame, radius, leaf["delta"],
                             budget=leaf["budget"])
            table = []
            for step in range(leaf["steps"] + 1):
                if step > 0:
                    disk = iterate_refine(disk, map_, 1,
                                          on_budget=leaf["on_budget"])
                est = asymptotic_cycle(disk)
                cosine = min(1.0, abs(float(np.dot(est.normalized, v1))))
                table.append({
                    "n": est.step,
                    "angle_to_v1": float(math.acos(cosine)),
                    "normalized": [float(x) for x in est.normalized],
                    "integer_class": [int(c) for c in est.integer_class],
                    "dx1_pairing": float(est.normalized[0]),
                    "nodes": disk.n_nodes,
                    "truncated": disk.truncated,
                })
            runs.append({
                "point_index": pi,
                "point": [float(x) for x in point],
                "radius": float(radius),
                "final_angle": table[-1]["angle_to_v1"],
                "final_integer_class": table[-1]["integer_class"],
                "table": table,
            })
    return {
        "v1": [float(x) for x in v1],
        "ln_lambda1": float(np.log(abs(eigen.values[0]))),
        "runs": runs,
    }


def _gap_check(map_, integrated, mc, threads):
    """The detector's in-support gap against the plain uniform integrated
    exponent of the line [2] less ln|lambda_2|, stderrs in quadrature."""
    rep = support_gap(map_, mc["samples"], mc["seed"], threads)
    diff = integrated["estimate"] - math.log(abs(float(map_.eigen.values[1])))
    z = abs(diff - rep["estimate"]) / math.hypot(integrated["stderr"], rep["stderr"])
    return {"gap": rep["estimate"], "stderr": rep["stderr"], "z": z,
            "ok": bool(z <= 3.0)}


def cmd_exponents(config: ExperimentConfig, threads=None) -> dict:
    """Lyapunov spectrum, per-direction integrated exponents, cross-checks."""
    map_ = config.build_map()
    mc = config.mc
    exp = config.exponents
    sel = BundleSelector(config.selector)
    sel.validate_for(map_.n)
    if map_.rotations:
        try:
            selector_block(sel)
        except ValueError as e:
            raise ConfigError(f"config.selector: {e}") from None
    points = map_.sample_uniform(exp["spectrum_points"], mc["seed"] + 101)
    spectrum = [{"point": [float(v) for v in x],
                 "exponents": [float(v) for v in expo]}
                for x, expo in zip(points, qr_spectrum(map_, points, exp["qr_steps"]))]
    flag = splitting_exponents(map_, sel, mc["samples"], seed=mc["seed"],
                               threads=threads)
    bundles = flag["bundles"]
    rejected_max = flag["rejected"] / flag["N"]
    total = flag["sum"]
    total_stderr = flag["sum_stderr"]
    integrated = flag["integrated"]
    x0 = map_.sample_uniform(1, mc["seed"] + 202)[0]
    birkhoff = birkhoff_exponent(map_, sel, x0, exp["orbit"], threads=threads)
    rejected_max = max(rejected_max,
                       integrated["rejected"] / integrated["N"],
                       birkhoff["rejected"] / birkhoff["N"])
    gap_check = None
    if sel.indices == (2,) and map_.rotations and chart_line_holds(map_):
        gap_check = _gap_check(map_, integrated, mc, threads)
    diff = abs(birkhoff["estimate"] - integrated["estimate"])
    joint = math.sqrt(birkhoff["stderr"] ** 2 + integrated["stderr"] ** 2)
    if joint > 0.0:
        agree = diff <= 3.0 * joint
        z = diff / joint
    else:
        # both estimators degenerate to the same constant for eigen-aligned
        # linear bundles; agreement is then exact equality up to roundoff
        agree = diff <= 1e-12
        z = None
    return {
        "spectrum": spectrum,
        "qr_steps": exp["qr_steps"],
        "bundles": bundles,
        "sum": total,
        "sum_stderr": total_stderr,
        "sum_zero_ok": bool(abs(total) <= 1e-6),
        "selector": list(sel.indices),
        "integrated": integrated,
        "birkhoff": birkhoff,
        "agreement": {"difference": float(diff), "joint_stderr": float(joint),
                      "z": z, "ok": bool(agree)},
        "gap_check": gap_check,
        "rejected_rate": float(rejected_max),
        "inconclusive": bool(rejected_max > _REJECT_RATE_LIMIT),
    }


def _significance(gap, stderr, samples):
    """z = gap / stderr, and the samples a 3-sigma verdict needs at this
    stderr, N (3 stderr / gap)^2; null where the ratio is undefined."""
    if gap is None or not stderr:
        return {"z": None, "samples_for_3sigma": None}
    need = samples * (3.0 * stderr / gap) ** 2 if gap else None
    return {"z": gap / stderr, "samples_for_3sigma": need}


def _detect_on_map(map_, config: ExperimentConfig, threads=None) -> dict:
    """Preflights, exact chi, the gap measured inside the rotation supports,
    verdict. Stages run in order; a stage that raises a domain error fails
    its gate, and the first failed gate aborts the rest with INCONCLUSIVE.

    The verdict is one-directional: the growth lemma bounds the integrated
    exponent by the geometric growth for absolutely continuous foliations,
    so a significant positive gap refutes absolute continuity while a
    non-positive gap refutes nothing.
    """
    det = config.detect
    mc = config.mc
    eigen = map_.eigen
    bad = chart_line_violation(map_)
    if bad is not None:
        raise ConfigError("config.map.{}: {}".format(*bad))
    foliation = (2,)
    chi = measurement = None

    def volume():
        # f = A off the supports, so only in-support points can fail
        draw = map_.sample_support if map_.rotations else map_.sample_uniform
        pts = draw(det["preflight_samples"], mc["seed"] + 11)
        dets = np.linalg.det(map_.differential(pts))
        err = float(np.max(np.abs(np.abs(dets) - 1.0)))
        return {"max_abs_det_minus_1": err, "tol": _VOLUME_TOL,
                "passed": err <= _VOLUME_TOL}

    def domination():
        dom = domination_check(map_, samples=det["preflight_samples"],
                               seed=mc["seed"] + 13)
        return {**dom, "passed": dom["holds"]}

    def closedness():
        clo = closedness_condition_check(
            map_, BundleSelector((1, 2)), steps=_CLOSEDNESS_STEPS,
            samples=det["preflight_samples"], seed=mc["seed"] + 14)
        return {**clo, "passed": clo["holds"]}

    def homology():
        nonlocal chi
        lam, _ = topological_growth(eigen, BundleSelector(foliation))
        chi = float(np.log(abs(lam)))
        return {"lambda_W": float(lam), "simple": True, "passed": True}

    def rejections():
        nonlocal measurement
        measurement = support_gap(map_, mc["samples"], seed=mc["seed"],
                                  threads=threads)
        rate = measurement["rejected"] / measurement["N"]
        return {"rate": float(rate), "limit": _REJECT_RATE_LIMIT,
                "passed": rate <= _REJECT_RATE_LIMIT}

    preflights = {}
    failed = None
    for name, stage in (("volume", volume), ("c1", map_.c1_distance),
                        ("domination", domination), ("closedness", closedness),
                        ("homology", homology), ("rejections", rejections)):
        try:
            preflights[name] = stage()
        except (*_DOMAIN_ERRORS, NonSimpleTopEigenvalue) as e:
            preflights[name] = {"error": str(e), "passed": False}
        if not preflights[name].get("passed", True):  # c1 records no gate
            failed = name
            break

    lam_est = lam_se = gap = None
    if failed is not None:
        verdict = INCONCLUSIVE
    else:
        gap = measurement["estimate"]
        lam_se = measurement["stderr"]
        lam_est = chi + gap
        if gap > _SIGNIFICANCE * lam_se + _GAP_FLOOR:
            verdict = NON_ABSOLUTELY_CONTINUOUS
        else:
            verdict = CONSISTENT_WITH_AC

    return {
        "foliation": list(foliation),
        "chi": chi,
        "chi_provenance": None if chi is None else "exact-homology",
        "lambda_estimate": lam_est,
        "lambda_stderr": lam_se,
        "gap": gap,
        "verdict": verdict,
        "thresholds": {"significance": _SIGNIFICANCE, "gap_floor": _GAP_FLOOR},
        "preflights": preflights,
        "failed_stage": failed,
        **_significance(gap, lam_se, mc["samples"]),
        "measurement": measurement,
        "map": map_.to_dict(),
    }


def cmd_detect(config: ExperimentConfig, threads=None) -> dict:
    return _detect_on_map(config.build_map(), config, threads=threads)


def cmd_sweep(config: ExperimentConfig, threads=None) -> dict:
    """One detect run per (theta_max, rho) grid cell. Domain errors are
    recorded inline; any other exception is a fault and propagates."""
    if config.sweep is None:
        raise ConfigError("config.sweep: required for sweep")
    if config.map_spec["rotations"]:
        raise ConfigError(
            "config.map.rotations: sweep builds one rotation per grid cell, "
            "the base map must be linear")
    sw = config.sweep
    cells = []
    for theta in sw["theta_max"]:
        for rho in sw["rho"]:
            cell = {"theta_max": float(theta), "rho": float(rho)}
            rotations = []
            if theta > 0.0:
                rotations = [{"center": sw["center"],
                              "plane": list(_SWEEP_PLANE),
                              "rho": float(rho), "theta_max": float(theta)}]
            spec = {"linear": config.map_spec["linear"],
                    "rotations": rotations}
            try:
                map_ = TorusMap.from_dict(spec)
            except ValueError as e:  # the builder's checks, SupportTooLarge among them
                cells.append({**cell, "error": f"{type(e).__name__}: {e}"})
                continue
            try:
                rep = _detect_on_map(map_, config, threads=threads)
            except (ConfigError, *_DOMAIN_ERRORS) as e:
                cells.append({**cell, "error": f"{type(e).__name__}: {e}"})
                continue
            for key in ("verdict", "gap", "lambda_estimate", "lambda_stderr",
                        "chi", "failed_stage"):
                cell[key] = rep[key]
            cell["report"] = rep
            cells.append(cell)
    return {
        "grid": {"theta_max": [float(t) for t in sw["theta_max"]],
                 "rho": [float(r) for r in sw["rho"]],
                 "center": [float(c) for c in sw["center"]],
                 "plane": list(_SWEEP_PLANE)},
        "cells": cells,
    }
