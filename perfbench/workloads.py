"""The benchmark's workloads: the inputs each one generates, and the checks
every command run's reports must pass.

Each check compares against a computation made here, apart from pathlab
(eigenvalues by numpy.linalg.eigvals on the integer matrix), against the
pooled calibration in tests/baselines.json, or against a property the
method must have. None compares against a stored copy of earlier output.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# the linear part of the README quickstart and test_07 map
COMPANION = [[0, 0, 1], [1, 0, -6], [0, 1, 5]]

# Monte Carlo workloads hand the program this seed whatever the benchmark
# seed is. Over fresh sample sets the reported stderr of the weak-unstable
# integrand (kurtosis about 2.6e3) moves stderr^2 by an interquartile 35%
# of its median at 40k samples, which would swamp work_norm_var; a fixed
# sample set also makes the 3-sigma checks below deterministic.
MC_SEED = 0


def calibration(root):
    """The pooled detector calibration and the map it belongs to."""
    with open(Path(root) / "tests" / "baselines.json", encoding="utf-8") as fh:
        return json.load(fh)["detect_gap"]


def log_moduli(matrix):
    """ln|lambda_i|, strongest first, of an integer matrix."""
    values = np.linalg.eigvals(np.array(matrix, dtype=float))
    return sorted((math.log(abs(v)) for v in values), reverse=True)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    threads: int | None

    def argv(self, config_path, out_dir, threads=None):
        args = [self.command, "--config", str(config_path), "--out", str(out_dir)]
        threads = self.threads if threads is None else threads
        if threads is not None:
            args += ["--threads", str(threads)]
        return args


# why each workload exists is recorded in BENCHMARK.json and the README
WORKLOADS = {
    "detect-line": Workload("detect-line", "detect", 1),
    "growth-surface": Workload("growth-surface", "growth", None),
    "exponents-orbit": Workload("exponents-orbit", "exponents", None),
}


# full-size inputs, and the tiny ones the benchmark's own tests use
SIZES = {
    "full": {"detect_samples": 40000, "growth_delta": 0.006, "growth_steps": 3,
             "exp_samples": 5000, "exp_orbit": 20000, "exp_qr_steps": 1000},
    "tiny": {"detect_samples": 2000, "growth_delta": 0.009, "growth_steps": 3,
             "exp_samples": 500, "exp_orbit": 4000, "exp_qr_steps": 200},
}


def make_config(name, seed, root, size="full"):
    """The config one workload hands to pathlab for a benchmark seed."""
    sz = SIZES[size]
    cal = calibration(root)
    rotating = {"linear": cal["map"]["linear"], "rotations": cal["map"]["rotations"]}
    if name == "detect-line":
        return {"map": rotating,
                "mc": {"samples": sz["detect_samples"], "seed": MC_SEED}}
    if name == "growth-surface":
        # the seed picks the disk's base point; on the linear map the mesh
        # is the same up to translation, so the work does not depend on it
        point = np.random.default_rng(seed).random(3)
        return {"map": {"linear": COMPANION}, "selector": [1, 2],
                "leaf": {"points": [[float(x) for x in point]], "radii": [0.01],
                         "delta": sz["growth_delta"], "steps": sz["growth_steps"]}}
    if name == "exponents-orbit":
        return {"map": rotating, "selector": [2],
                "mc": {"samples": sz["exp_samples"], "seed": MC_SEED},
                "exponents": {"qr_steps": sz["exp_qr_steps"], "spectrum_points": 3,
                              "orbit": sz["exp_orbit"]}}
    raise KeyError(name)


# ------------------------------------------------------------ checks

_REJECT_LIMIT = 1e-3
_GATED = ("volume", "domination", "closedness", "homology", "rejections")
# the growth rate error the volume identity certifies; the growth run's
# variance term in work_norm_var
GROWTH_TOL = 1e-9


def _sigma_bound(estimate, target, stderr, pinned_stderr):
    return abs(estimate - target) <= 3.0 * math.hypot(stderr, pinned_stderr)


def check_detect(report, config, cal):
    fails = []
    if report.get("failed_stage") is not None:
        fails.append(f"failed_stage {report['failed_stage']}")
    pre = report.get("preflights", {})
    for stage in _GATED:
        if not pre.get(stage, {}).get("passed"):
            fails.append(f"preflight {stage} did not pass")
    rate = pre.get("rejections", {}).get("rate")
    if rate is None or rate > _REJECT_LIMIT:
        fails.append(f"rejection rate {rate}")
    ln2 = log_moduli(config["map"]["linear"])[1]
    chi = report.get("chi")
    if chi is None or abs(chi - ln2) > 1e-12:
        fails.append(f"chi {chi} vs ln|lambda2| {ln2}")
    se = report.get("lambda_stderr")
    if se is None or not se > 0.0:
        fails.append(f"lambda_stderr {se}")
    gap = report.get("gap")
    if gap is None or se is None or not _sigma_bound(
            gap, cal["gap"], se, cal["gap_stderr"]):
        fails.append(f"gap {gap} +- {se} vs calibrated {cal['gap']}")
    return fails


def check_growth(report, config, cal):
    fails = []
    lam = log_moduli(config["map"]["linear"])
    target = lam[0] + lam[1]
    got = report.get("target_ln_lambda")
    if got is None or abs(got - target) > 1e-12:
        fails.append(f"target_ln_lambda {got} vs ln|lambda1 lambda2| {target}")
    for run in report.get("runs", []):
        if run["truncated"]:
            fails.append(f"run {run['point_index']} truncated")
        table = run["table"]
        v0 = table[0]["volume"]
        for row in table:
            # a linear map moves every triangle affinely: exact up to roundoff
            err = abs(math.log(row["volume"] / v0) - row["n"] * target)
            if not err <= GROWTH_TOL:
                fails.append(f"step {row['n']} ln(V_n/V_0) off by {err:.3e}")
        nodes = [row["nodes"] for row in table]
        if any(b < a for a, b in zip(nodes, nodes[1:])):
            fails.append(f"node counts decrease: {nodes}")
    if not report.get("runs"):
        fails.append("no growth runs")
    return fails


def check_exponents(report, config, cal):
    fails = []
    rate = report.get("rejected_rate")
    if rate is None or rate > _REJECT_LIMIT:
        fails.append(f"rejected_rate {rate}")
    total = report.get("sum")
    if total is None or abs(total) > 1e-6:
        fails.append(f"exponent sum {total}")
    lam = log_moduli(config["map"]["linear"])
    for row in report.get("spectrum", []):
        ex = row["exponents"]
        if abs(sum(ex)) > 1e-9:
            fails.append(f"QR spectrum sums to {sum(ex):.3e}")
        if any(abs(a - b) > 1e-3 for a, b in zip(ex, lam)):
            fails.append(f"QR spectrum {ex} vs ln|lambda| {lam}")
    target = lam[1] + cal["gap"]
    for key in ("integrated", "birkhoff"):
        est = report.get(key) or {}
        if "estimate" not in est or not _sigma_bound(
                est["estimate"], target, est["stderr"], cal["gap_stderr"]):
            fails.append(f"{key} {est.get('estimate')} +- {est.get('stderr')} "
                         f"vs ln|lambda2| + gap {target}")
    return fails


CHECKS = {"detect-line": ("detect.json", check_detect),
          "growth-surface": ("growth.json", check_growth),
          "exponents-orbit": ("exponents.json", check_exponents)}


def check(name, out_dir, config, cal):
    """Failures of one command run's report; an empty list means it passed."""
    report_name, checker = CHECKS[name]
    path = Path(out_dir) / report_name
    if not path.exists():
        return [f"{report_name} not written"]
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    try:
        return checker(report, config, cal)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        return [f"{report_name} malformed: {type(e).__name__}: {e}"]


def variance_term(name, out_dir):
    """The squared error bar work_norm_var multiplies by run_s.

    Monte Carlo workloads use the stderr the report gives; the growth run
    is exact, so its error bar is the tolerance its volume check certifies.
    """
    if name == "growth-surface":
        return GROWTH_TOL ** 2
    report_name = CHECKS[name][0]
    with open(Path(out_dir) / report_name, encoding="utf-8") as fh:
        report = json.load(fh)
    if name == "detect-line":
        return report["lambda_stderr"] ** 2
    return report["agreement"]["joint_stderr"] ** 2
