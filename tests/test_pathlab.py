"""Orchestration tests: config validation, commands, CLI exit codes,
cross-thread byte determinism."""

import ast
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlab import bundles, cli, experiments, lyapunov, torusmap
from pathlab.bundles import NoGap
from pathlab.cli import main
from pathlab.config import ConfigError, ExperimentConfig
from pathlab.experiments import (
    CONSISTENT_WITH_AC,
    cmd_analyze,
    cmd_cycle,
    cmd_detect,
    cmd_exponents,
    cmd_growth,
    cmd_sweep,
)
from pathlab.homology import NonSimpleTopEigenvalue
from pathlab.lyapunov import DegenerateFrame
from pathlab.smallmat import DegenerateSpectrum, NonRealSpectrum, int_det

CAT = [[2, 1], [1, 1]]
COMPANION = [[0, 0, 1], [1, 0, -6], [0, 1, 5]]
CENTER = [0.625095466604667, 0.8972138009695755, 0.7756856902451935]

LAMBDA1 = 3.2469796037174667
LAMBDA2 = 1.5549581320873718


def cat_config(**extra):
    base = {
        "map": {"linear": CAT},
        "selector": [1],
        "leaf": {"points": [[0.1, 0.2], [0.35, 0.6]], "radii": [0.008],
                 "delta": 0.005, "steps": 8, "budget": 200000},
        "mc": {"samples": 2000, "seed": 0},
        "exponents": {"qr_steps": 300, "spectrum_points": 2, "orbit": 5000},
    }
    base.update(extra)
    return base


def detect_config(theta=0.5, samples=4000):
    rotations = []
    if theta > 0:
        rotations = [{"center": CENTER, "plane": [2, 1], "rho": 0.12,
                      "theta_max": theta}]
    return {
        "map": {"linear": COMPANION, "rotations": rotations},
        "mc": {"samples": samples, "seed": 0},
        "detect": {"preflight_samples": 100},
    }


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ------------------------------------------------------------- configuration


def test_unknown_keys_rejected_with_dotted_path():
    with pytest.raises(ConfigError, match=r"config\.mc: unknown keys \['nsamples'\]"):
        ExperimentConfig.from_dict({"map": {"linear": CAT},
                                    "mc": {"nsamples": 5}})
    with pytest.raises(ConfigError, match=r"config: unknown keys"):
        ExperimentConfig.from_dict({"map": {"linear": CAT}, "extra": 1})
    # the output directory is --out alone, and every sweep cell rotates in
    # the plane (2, 1)
    with pytest.raises(ConfigError, match=re.escape("config: unknown keys ['out']")):
        ExperimentConfig.from_dict({"map": {"linear": CAT}, "out": "o"})
    with pytest.raises(ConfigError,
                       match=re.escape("config.sweep: unknown keys ['plane']")):
        ExperimentConfig.from_dict({
            "map": {"linear": COMPANION},
            "sweep": {"theta_max": [0.5], "rho": [0.1], "center": CENTER,
                      "plane": [2, 1]}})


def test_numeric_ranges_checked():
    with pytest.raises(ConfigError, match=r"config\.mc\.samples"):
        ExperimentConfig.from_dict({"map": {"linear": CAT},
                                    "mc": {"samples": 0}})
    with pytest.raises(ConfigError, match=r"config\.leaf\.radii\[0\]"):
        ExperimentConfig.from_dict(cat_config(
            leaf={"points": [[0.1, 0.2]], "radii": [0.5], "delta": 0.001,
                  "steps": 4}))
    with pytest.raises(ConfigError, match=r"config\.leaf\.delta"):
        ExperimentConfig.from_dict(cat_config(
            leaf={"points": [[0.1, 0.2]], "radii": [0.004], "delta": 0.005,
                  "steps": 4}))
    with pytest.raises(ConfigError, match=r"config\.selector"):
        ExperimentConfig.from_dict({"map": {"linear": CAT},
                                    "selector": [2, 1]})
    with pytest.raises(ConfigError, match=r"config\.selector: index 5"):
        ExperimentConfig.from_dict({"map": {"linear": CAT}, "selector": [5]})


def test_booleans_are_not_numbers():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"map": {"linear": CAT},
                                    "mc": {"samples": True}})


def test_map_errors_become_config_errors():
    cfg = ExperimentConfig.from_dict({"map": {"linear": [[2, 1], [1, 2]]}})
    with pytest.raises(ConfigError, match="config.map"):
        cfg.build_map()


def test_build_map_keeps_the_eigen_data_of_its_rotations(monkeypatch):
    # the rotations are built in the eigen chart of the linear part; the
    # map keeps that data instead of computing it again on first use
    calls = []
    real = torusmap.eigen_real

    def counted(linear):
        calls.append(linear)
        return real(linear)

    monkeypatch.setattr(torusmap, "eigen_real", counted)
    map_ = ExperimentConfig.from_dict(detect_config()).build_map()
    assert map_.eigen.n == 3
    assert len(calls) == 1


def test_sweep_validation():
    with pytest.raises(ConfigError, match=r"config\.sweep\.center"):
        ExperimentConfig.from_dict({
            "map": {"linear": COMPANION},
            "sweep": {"theta_max": [0.5], "rho": [0.1]}})


def test_fixed_transport_depth_key_rejected(tmp_path, capsys):
    cfg = {"map": {"linear": CAT}, "mc": {"batch": 40}}
    with pytest.raises(ConfigError, match=r"config\.mc: unknown keys \['batch'\]"):
        ExperimentConfig.from_dict(cfg)
    assert main(["exponents", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "config.mc: unknown keys ['batch']" in capsys.readouterr().err


def test_removed_detect_knobs_rejected(tmp_path, capsys):
    for key, value in (("volume_tol", 1e-6), ("closedness_steps", 4),
                       ("significance", 3.0), ("gap_floor", 1e-9), ("c1_samples", 10)):
        cfg = {"map": {"linear": CAT}, "detect": {key: value}}
        msg = f"config.detect: unknown keys ['{key}']"
        with pytest.raises(ConfigError, match=re.escape(msg)):
            ExperimentConfig.from_dict(cfg)
        assert main(["detect", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert msg in capsys.readouterr().err


def test_config_defaults_filled():
    cfg = ExperimentConfig.from_dict({"map": {"linear": CAT}})
    assert cfg.mc["samples"] == 200000
    assert cfg.selector == (1,)
    assert cfg.leaf is None


@pytest.mark.parametrize("key, value", [
    ("rho", float("nan")),
    ("center", [float("nan"), 0.8972138009695755, 0.7756856902451935]),
    ("theta_max", float("inf")),
    ("plane", [2.7, 1]),
    ("rho", "0.12"),
])
def test_rotation_fields_must_be_finite_numbers(key, value):
    cfg = detect_config()
    cfg["map"]["rotations"][0][key] = value
    # a bad center entry is named by its index
    field = "center[0]" if key == "center" else key
    with pytest.raises(ConfigError,
                       match=rf"^config\.map\.rotations\[0\]\.{re.escape(field)}: "):
        ExperimentConfig.from_dict(cfg).build_map()


@pytest.mark.parametrize("key, value, message", [
    ("plane", [2, 2], ".plane: must name two distinct eigen indices in 1..3"),
    ("rho", 0.45, ": 2 * rho * |L| = "),
], ids=["plane", "rho"])
def test_rotation_builder_errors_name_the_rotation(key, value, message):
    cfg = detect_config()
    second = {"center": [0.2, 0.3, 0.4], "plane": [2, 1], "rho": 0.05, "theta_max": 0.5}
    second[key] = value
    cfg["map"]["rotations"].append(second)
    with pytest.raises(ConfigError,
                       match=rf"^config\.map\.rotations\[1\]{re.escape(message)}"):
        ExperimentConfig.from_dict(cfg).build_map()


def test_cli_nan_rotation_field_exit_2(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(detect_config()).replace('"rho": 0.12', '"rho": NaN'))
    assert "NaN" in path.read_text()
    assert main(["detect", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "config error: config.map.rotations[0].rho: " in capsys.readouterr().err


def test_cli_rotations_not_a_list_exit_2(tmp_path, capsys):
    cfg = detect_config()
    cfg["map"]["rotations"] = cfg["map"]["rotations"][0]
    path = write_config(tmp_path, cfg)
    assert main(["detect", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: config.map.rotations: must be a list\n"


_MAP_MESSAGES = {
    "ragged": ({"linear": [[0, 0, 1], [1, 0], [0, 1, 5]]},
               "config.map.linear[1]: must be an array of 3 integers"),
    "non-square": ({"linear": [[0, 0, 1], [1, 0, -6]]},
                   "config.map.linear[0]: must be an array of 2 integers"),
    "Infinity": ({"linear": [[0, 0, 1], [1, 0, math.inf], [0, 1, 5]]},
                 "config.map.linear[1][2]: must be an integer"),
    "object": ({"linear": [[0, 0, 1], [1, 0, {}], [0, 1, 5]]},
               "config.map.linear[1][2]: must be an integer"),
    "true": ({"linear": [[0, 0, 1], [1, 0, True], [0, 1, 5]]},
             "config.map.linear[1][2]: must be an integer"),
    "2.0": ({"linear": [[0, 0, 1], [1, 0, 2.0], [0, 1, 5]]},
            "config.map.linear[1][2]: must be an integer"),
    "1e30": ({"linear": [[0, 0, 1], [1, 0, 10 ** 30], [0, 1, 5]]},
             "config.map.linear: entries must be below 2**53 in magnitude"),
    "inverse-2**80": ({"linear": [[1, 2 ** 40, 0], [0, 1, 2 ** 40], [0, 0, 1]]},
                      "config.map.linear: entries of the inverse must be below 2**53 "
                      "in magnitude"),
    "9x9": ({"linear": [[int(i == j) for j in range(9)] for i in range(9)]},
            "config.map.linear: dimension 9 outside [2, 8]"),
    "det-3": ({"linear": [[2, 1], [1, 2]]},
              "config.map.linear: matrix is not unimodular: det = 3"),
    "plane-0-1": ({"plane": [0, 1]}, "config.map.rotations[0].plane: must name two "
                  "distinct eigen indices in 1..3, got [0, 1]"),
    "plane-2-2": ({"plane": [2, 2]}, "config.map.rotations[0].plane: must name two "
                  "distinct eigen indices in 1..3, got [2, 2]"),
    "plane-2.7-1": ({"plane": [2.7, 1]}, "config.map.rotations[0].plane: must name two "
                    "distinct eigen indices in 1..3, got [2.7, 1]"),
    "rho-0": ({"rho": 0}, "config.map.rotations[0].rho: must be greater than 0.0, got 0.0"),
    "rho-string": ({"rho": "0.12"}, "config.map.rotations[0].rho: must be a number"),
    "rho-NaN": ({"rho": math.nan}, "config.map.rotations[0].rho: must be finite"),
    "rho-1e400": ({"rho": 10 ** 400}, "config.map.rotations[0].rho: must be finite"),
    "support-too-large": ({"rho": 0.45}, "config.map.rotations[0]: 2 * rho * |L| = "
                          "1.4791 >= 1; support cannot embed"),
    "lattice-point": ({"center": [0.0, 0.0, 0.0]}, "config.map.rotations[0]: lattice "
                      "point inside support: chart distance 0.0000 < rho"),
    "dimension": ({"linear": CAT}, "config.map.linear: the detector needs at least two "
                  "expanding eigen-directions over a contracting one, so dimension >= 3"),
    "lambda_2": ({"linear": [[6, -5, 1], [1, 0, 0], [0, 1, 0]]},
                 "config.map.linear: the second eigen-direction must expand for the "
                 "weak-unstable foliation to exist"),
    "mixing-plane": ({"plane": [3, 1]}, "config.map.rotations[0].plane: the detector "
                     "measures the weak-unstable foliation, rotations must mix "
                     "eigen-directions 1 and 2"),
    "overlap": ({"overlap": True}, "config.map.rotations[1]: support overlaps the support "
                "of rotations[0] on the torus; the detector samples each support "
                "separately and needs them disjoint"),
}


@pytest.mark.parametrize("row", list(_MAP_MESSAGES))
def test_cli_map_errors_name_their_field(tmp_path, capsys, row):
    # a linear row replaces the map; any other row edits the one rotation,
    # or adds a second one over it
    change, message = _MAP_MESSAGES[row]
    cfg = detect_config(samples=100)
    if "linear" in change:
        cfg["map"] = change
    elif "overlap" in change:
        cfg["map"]["rotations"].append({"center": [CENTER[0] + 0.01, CENTER[1], CENTER[2]],
                                        "plane": [1, 2], "rho": 0.05, "theta_max": 0.2})
    else:
        cfg["map"]["rotations"][0].update(change)
    path = write_config(tmp_path, cfg)
    assert main(["detect", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


# each value is wrong for some field of the map spec: a wrong type, a
# non-finite or out-of-range number, or an integer that breaks |det| = 1
_BAD_VALUES = [None, True, math.inf, math.nan, "0.12", {}, [], [[1]], [[[1, 2]]],
               10 ** 30, 0, 2, 3, -7]
_MAP_FIELDS = ([("linear", i, j) for i in range(3) for j in range(3)]
               + [("linear",), ("rotations",), ("rotations", 0), ("extra",),
                  ("rotations", 0, "extra")]
               + [("rotations", 0, key) for key in ("center", "plane", "rho", "theta_max")])


def _field_path(field):
    return "config.map" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}"
                                  for p in field)


@given(field=st.sampled_from(_MAP_FIELDS), value=st.sampled_from(_BAD_VALUES))
@settings(max_examples=300, deadline=None)
def test_map_parser_names_the_field_of_any_bad_value(field, value):
    cfg = json.loads(json.dumps(detect_config()))  # a copy that owns its matrix
    *parents, key = field
    obj = cfg["map"]
    for p in parents:
        obj = obj[p]
    obj[key] = value
    path = _field_path(field)
    if key == "extra":
        # an unknown key is named on the object that holds it
        prefixes = [_field_path(parents) + ": unknown keys ['extra']"]
    else:
        # TorusMap.from_dict's errors name the matrix, or the whole rotation
        owner = field[:1] if field[0] == "linear" else field[:2]
        prefixes = [path + sep for sep in (": ", "[", ".")] + [_field_path(owner) + ": "]
    # values the spec admits: any finite theta_max, no rotations, and an
    # integer entry that keeps |det| = 1 (the spectrum or a rotation's
    # embedding may then still fail)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    unimodular = (field[0] == "linear" and len(field) == 3 and number
                  and isinstance(value, int) and abs(int_det(cfg["map"]["linear"])) == 1)
    admitted = (key == "theta_max" and number and math.isfinite(value)
                or (field == ("rotations",) and value == []) or unimodular)
    if unimodular:
        prefixes.append("config.map.rotations[0]: ")
    try:
        ExperimentConfig.from_dict(cfg).build_map()
    except ConfigError as e:
        assert str(e).startswith(tuple(prefixes)), (field, value, str(e))
    except (NonRealSpectrum, DegenerateSpectrum):
        assert unimodular, (field, value)
    else:
        assert admitted, (field, value)


def test_invalid_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "map": {,}\n}\n')
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "line 2" in capsys.readouterr().err


# ------------------------------------------------------------------ commands


def test_analyze_cat_oracles():
    rep = cmd_analyze(ExperimentConfig.from_dict({"map": {"linear": CAT}}))
    assert rep["char_poly"] == [1, -3, 1]
    assert abs(rep["eigenvalues"][0] - 2.618033988749895) < 1e-12
    unstable = next(s for s in rep["selections"] if s["selector"] == [1])
    assert abs(unstable["lambda_W"] - 2.618033988749895) < 1e-12
    hw = unstable["h_W"]
    assert abs(hw[0] - 0.8506508083520399) < 1e-10
    assert abs(hw[1] - 0.5257311121191336) < 1e-10
    # H_1 induced map is the matrix itself
    assert rep["induced"][0]["matrix"] == CAT


def test_analyze_companion_selection_table():
    rep = cmd_analyze(ExperimentConfig.from_dict({"map": {"linear": COMPANION}}))
    assert len(rep["selections"]) == 7
    by_sel = {tuple(s["selector"]): s for s in rep["selections"]}
    assert abs(by_sel[(1,)]["lambda_W"] - LAMBDA1) < 1e-10
    assert abs(by_sel[(2,)]["lambda_W"] - LAMBDA2) < 1e-10
    assert abs(by_sel[(1, 2)]["lambda_W"] - LAMBDA1 * LAMBDA2) < 1e-9
    assert "error" not in by_sel[(1, 2)]


def test_growth_cat_exact_and_point_independent():
    rep = cmd_growth(ExperimentConfig.from_dict(cat_config()))
    assert rep["target_ln_lambda"] == pytest.approx(0.9624236501192069, abs=1e-12)
    for run in rep["runs"]:
        assert run["deviation"] < 1e-10
    assert rep["max_spread"] < 1e-10
    assert rep["warnings"] == []


def test_growth_selector_must_be_leading_block():
    with pytest.raises(ConfigError, match="config.selector"):
        cmd_growth(ExperimentConfig.from_dict(cat_config(selector=[2])))


def test_growth_truncation_warns_but_continues():
    cfg = cat_config()
    cfg["leaf"]["budget"] = 400
    cfg["leaf"]["steps"] = 6
    rep = cmd_growth(ExperimentConfig.from_dict(cfg))
    assert rep["warnings"]
    assert any(r["truncated"] for r in rep["runs"])
    # the cat leaf stays affine, so the rate survives truncation exactly
    assert rep["runs"][0]["deviation"] < 1e-10


def test_cycle_cat_integer_classes_grow():
    cfg = cat_config()
    cfg["leaf"]["points"] = [[0.1, 0.2]]
    rep = cmd_cycle(ExperimentConfig.from_dict(cfg))
    table = rep["runs"][0]["table"]
    assert all(r["angle_to_v1"] < 1e-6 for r in table)
    assert table[-1]["integer_class"] != [0, 0]
    assert table[-1]["dx1_pairing"] == pytest.approx(0.8506508083520399, abs=1e-8)


def test_exponents_cat_linear_exactness():
    rep = cmd_exponents(ExperimentConfig.from_dict(cat_config()))
    assert [b["bundle"] for b in rep["bundles"]] == [[1], [2]]
    for b in rep["bundles"]:
        assert b["stderr"] == 0.0
    assert abs(rep["sum"]) <= 1e-6
    assert rep["sum_zero_ok"]
    assert rep["agreement"]["ok"]
    assert rep["rejected_rate"] == 0.0
    expo = rep["spectrum"][0]["exponents"]
    assert expo[0] == pytest.approx(0.9624236501192069, abs=1e-9)
    assert expo[1] == pytest.approx(-0.9624236501192069, abs=1e-9)


def _small_exponents(cfg, selector=(2,)):
    cfg.update(selector=list(selector),
               exponents={"qr_steps": 50, "spectrum_points": 1, "orbit": 400})
    return cmd_exponents(ExperimentConfig.from_dict(cfg))


def test_exponents_gap_check_on_the_chart_line():
    rep = _small_exponents(detect_config(samples=600))
    check = rep["gap_check"]
    assert set(check) == {"gap", "stderr", "z", "ok"}
    assert check["gap"] > 0.0 and check["stderr"] > 0.0
    gap = lyapunov.support_gap(ExperimentConfig.from_dict(
        detect_config(samples=600)).build_map(), 600, 0)
    assert (check["gap"], check["stderr"]) == (gap["estimate"], gap["stderr"])
    diff = rep["integrated"]["estimate"] - math.log(LAMBDA2) - check["gap"]
    want = abs(diff) / math.hypot(rep["integrated"]["stderr"], check["stderr"])
    assert check["z"] == pytest.approx(want, rel=1e-9)
    assert check["ok"] == (check["z"] <= 3.0)
    assert rep["birkhoff"]["m"] == 0


def test_exponents_gap_check_null_off_the_chart_line():
    assert _small_exponents(detect_config(theta=0, samples=300))["gap_check"] is None
    assert _small_exponents(detect_config(samples=300), (1,))["gap_check"] is None
    cfg = detect_config(samples=300)
    cfg["map"]["rotations"][0]["plane"] = [3, 1]
    assert _small_exponents(cfg)["gap_check"] is None


def test_exponents_transports_the_uniform_samples_once_per_rung(monkeypatch):
    # the splitting and the selected bundle share one flag pair per sample;
    # line [2] of the Birkhoff orbit and the gap check transport nothing
    calls, meets = [], []
    transport = bundles._transport_pair
    intersect = bundles.intersect_frames

    def counted(map_, xs, k, m, direction):
        calls.append((direction, m, xs.shape[0]))
        return transport(map_, xs, k, m, direction)

    def counted_meet(p, q):
        meets.append(p.shape[0])
        return intersect(p, q)

    monkeypatch.setattr(bundles, "_transport_pair", counted)
    monkeypatch.setattr(bundles, "intersect_frames", counted_meet)
    rep = _small_exponents(detect_config(samples=300))
    per_rung = Counter((direction, m) for direction, m, _ in calls)
    assert per_rung and max(per_rung.values()) == 1
    assert sorted((d, rows) for d, m, rows in calls if m == 40) == [(-1, 300), (1, 300)]
    # line 2 is also the selected bundle: one meet of the two flags
    assert meets == [300]
    assert rep["integrated"]["m"] == rep["bundles"][0]["m"]


def test_detect_requires_expanding_second_direction():
    cfg = {"map": {"linear": [[6, -5, 1], [1, 0, 0], [0, 1, 0]]},
           "mc": {"samples": 100}}
    with pytest.raises(ConfigError, match=r"^config\.map\.linear: the second eigen-direction"):
        cmd_detect(ExperimentConfig.from_dict(cfg))


def test_detect_pipeline_fields_and_gate():
    rep = cmd_detect(ExperimentConfig.from_dict(detect_config()))
    assert rep["chi_provenance"] == "exact-homology"
    assert rep["chi"] == pytest.approx(math.log(LAMBDA2), abs=1e-12)
    assert rep["failed_stage"] is None
    for stage in ("volume", "domination", "closedness", "homology",
                  "rejections"):
        assert rep["preflights"][stage]["passed"], stage
    # the verdict must be recomputable from the stored fields alone
    gate = (rep["gap"] > rep["thresholds"]["significance"] * rep["lambda_stderr"]
            + rep["thresholds"]["gap_floor"])
    expected = "NON_ABSOLUTELY_CONTINUOUS" if gate else CONSISTENT_WITH_AC
    assert rep["verdict"] == expected
    assert rep["measurement"]["N"] == 4000


def test_detect_c1_preflight_does_not_depend_on_the_seed():
    reps = []
    for seed in (0, 1):
        cfg = detect_config(samples=300)
        cfg["mc"]["seed"] = seed
        reps.append(cmd_detect(ExperimentConfig.from_dict(cfg))["preflights"]["c1"])
    assert reps[0] == reps[1]
    assert set(reps[0]) == {"c0_max", "c1_op_bound", "bound"}
    assert reps[0]["c0_max"] > 0.0


def test_detect_unperturbed_control_hits_gap_floor():
    rep = cmd_detect(ExperimentConfig.from_dict(detect_config(theta=0)))
    assert rep["verdict"] == CONSISTENT_WITH_AC
    assert rep["lambda_stderr"] == 0.0
    # the raw significance test is vacuous at stderr zero; the floor decides
    assert abs(rep["gap"]) < 1e-9
    assert rep["z"] is None and rep["samples_for_3sigma"] is None


def test_detect_measures_inside_the_support():
    rep = cmd_detect(ExperimentConfig.from_dict(detect_config()))
    meas = rep["measurement"]
    assert meas["support_samples"] == meas["N"] == 4000
    assert 0.0 < meas["support_volume"] < 1e-3
    assert rep["gap"] == meas["estimate"]
    assert rep["lambda_stderr"] == meas["stderr"] > 0.0
    assert rep["lambda_estimate"] == rep["chi"] + rep["gap"]
    assert rep["gap"] == meas["twist_integral"] + meas["return_correction"]
    assert 0 < meas["returned"] < meas["N"] and meas["horizon"] == 50
    assert rep["z"] == rep["gap"] / rep["lambda_stderr"] > 3.0
    assert rep["samples_for_3sigma"] == pytest.approx(
        4000 * (3.0 * rep["lambda_stderr"] / rep["gap"]) ** 2)


_DETECT_STAGES = ("volume", "c1", "domination", "closedness", "homology",
                  "rejections")


@pytest.mark.parametrize("stage, attr, outcome", [
    ("volume", "_VOLUME_TOL", -1.0),
    ("domination", "domination_check", NoGap("transport did not settle")),
    ("domination", "domination_check", {"holds": False}),
    ("closedness", "closedness_condition_check", NoGap("transport did not settle")),
    ("closedness", "closedness_condition_check", {"holds": False}),
    ("homology", "topological_growth", NonSimpleTopEigenvalue("|lambda_W| is shared")),
    ("rejections", "support_gap", DegenerateFrame("every sample was rejected")),
], ids=["volume", "domination-raises", "domination-fails", "closedness-raises",
        "closedness-fails", "homology", "rejections"])
def test_detect_estimator_failure_gates_rejections(monkeypatch, stage, attr, outcome):
    # each gate fails in turn, by raising a domain error or by its own test;
    # the run stops at that gate with every earlier one passed
    def stub(*args, **kwargs):
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setattr(experiments, attr,
                        outcome if isinstance(outcome, float) else stub)
    rep = cmd_detect(ExperimentConfig.from_dict(detect_config()))
    assert rep["verdict"] == "INCONCLUSIVE"
    assert rep["failed_stage"] == stage
    assert rep["measurement"] is None and rep["gap"] is None
    ran = list(rep["preflights"])
    assert ran == list(_DETECT_STAGES[:_DETECT_STAGES.index(stage) + 1])
    assert rep["preflights"][stage]["passed"] is False
    if isinstance(outcome, Exception):
        assert rep["preflights"][stage]["error"] == str(outcome)
    # c1 records no gate
    assert all(rep["preflights"][s].get("passed", True) is True for s in ran[:-1])


def test_detect_rejects_overlapping_supports():
    cfg = detect_config()
    shifted = [CENTER[0] + 0.01, CENTER[1], CENTER[2]]
    cfg["map"]["rotations"].append({"center": shifted, "plane": [1, 2],
                                    "rho": 0.05, "theta_max": 0.2})
    with pytest.raises(ConfigError,
                       match=r"^config\.map\.rotations\[1\]: support overlaps the support of rotations\[0\]"):
        cmd_detect(ExperimentConfig.from_dict(cfg))


def test_detect_wild_rotation_is_inconclusive():
    cfg = detect_config(samples=1500)
    cfg["map"]["rotations"][0].update({"theta_max": 8.0, "rho": 0.28})
    cfg["detect"]["preflight_samples"] = 400
    rep = cmd_detect(ExperimentConfig.from_dict(cfg))
    assert rep["verdict"] == "INCONCLUSIVE"
    assert rep["failed_stage"] == "domination"
    assert rep["preflights"]["domination"]["passed"] is False
    assert rep["gap"] is None


def test_volume_preflight_reads_the_rotation_supports(monkeypatch):
    # f = A off the supports, so a Jacobian whose determinant is off 1 can
    # only be found by points inside them
    real = torusmap.LocalizedRotation.differential

    def scaled(self, points, sign, _located=None):
        return real(self, points, sign, _located) * (1.0 + 1e-6)

    monkeypatch.setattr(torusmap.LocalizedRotation, "differential", scaled)
    rep = cmd_detect(ExperimentConfig.from_dict(detect_config()))
    assert rep["failed_stage"] == "volume"
    assert rep["preflights"]["volume"]["max_abs_det_minus_1"] == pytest.approx(3e-6, rel=1e-5)


def test_detect_requires_mixing_plane():
    cfg = detect_config()
    cfg["map"]["rotations"][0]["plane"] = [3, 1]
    with pytest.raises(ConfigError, match="mix"):
        cmd_detect(ExperimentConfig.from_dict(cfg))


def test_detect_rejects_two_dimensional_maps():
    with pytest.raises(ConfigError, match="dimension"):
        cmd_detect(ExperimentConfig.from_dict(
            {"map": {"linear": CAT}, "mc": {"samples": 100}}))


def test_sweep_grid_and_zero_row():
    cfg = {
        "map": {"linear": COMPANION},
        "mc": {"samples": 1500, "seed": 0},
        "detect": {"preflight_samples": 60},
        "sweep": {"theta_max": [0, 0.5], "rho": [0.12], "center": CENTER},
    }
    rep = cmd_sweep(ExperimentConfig.from_dict(cfg))
    assert len(rep["cells"]) == 2
    zero = rep["cells"][0]
    assert zero["theta_max"] == 0.0
    assert zero["verdict"] == CONSISTENT_WITH_AC
    assert zero["lambda_stderr"] == 0.0
    assert all("error" not in c for c in rep["cells"])


def test_sweep_records_cell_errors_and_continues():
    cfg = {
        "map": {"linear": COMPANION},
        "mc": {"samples": 800, "seed": 0},
        "detect": {"preflight_samples": 40},
        # second rho is far too large for a chart ball to fit in the torus
        "sweep": {"theta_max": [0.4], "rho": [0.12, 0.45], "center": CENTER},
    }
    rep = cmd_sweep(ExperimentConfig.from_dict(cfg))
    assert len(rep["cells"]) == 2
    assert "error" not in rep["cells"][0]
    assert rep["cells"][1]["error"].startswith("SupportTooLarge: rotations[0]: 2 * rho")


def test_sweep_propagates_programming_errors(monkeypatch):
    # a cell records only domain errors; a TypeError is a fault in the program
    def broken(*args, **kwargs):
        raise TypeError("broken estimator")

    monkeypatch.setattr(experiments, "support_gap", broken)
    cfg = {
        "map": {"linear": COMPANION},
        "mc": {"samples": 800, "seed": 0},
        "detect": {"preflight_samples": 40},
        "sweep": {"theta_max": [0.4], "rho": [0.12], "center": CENTER},
    }
    with pytest.raises(TypeError, match="broken estimator"):
        cmd_sweep(ExperimentConfig.from_dict(cfg))


# ----------------------------------------------------------------------- CLI


def test_cli_analyze_and_outputs(tmp_path):
    cfg_path = write_config(tmp_path, {"map": {"linear": CAT}})
    out = tmp_path / "out"
    rc = main(["analyze", "--config", cfg_path, "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "analyze.json").read_text())
    assert report["char_poly"] == [1, -3, 1]
    lines = (out / "runs.jsonl").read_text().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["command"] == "analyze"
    assert len(record["config_digest"]) == 64
    csv_text = (out / "analyze.csv").read_text()
    assert csv_text.startswith("selector,k,lambda_W")


def test_cli_config_error_exit_2(tmp_path):
    cfg_path = write_config(tmp_path, {"map": {"linear": CAT}, "bogus": 1})
    assert main(["analyze", "--config", cfg_path,
                 "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_cli_out_that_cannot_be_a_directory_exit_2(tmp_path, capsys, monkeypatch, out):
    def no_work(config):
        raise AssertionError("ran before --out was checked")

    monkeypatch.setattr(cli, "cmd_analyze", no_work)
    (tmp_path / "afile").write_text("keep")
    cfg_path = write_config(tmp_path, {"map": {"linear": CAT}})
    assert main(["analyze", "--config", cfg_path, "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --out: ") and "Traceback" not in err
    assert (tmp_path / "afile").read_text() == "keep"


@pytest.mark.parametrize("name", ["analyze.json", "runs.jsonl", "analyze.csv"])
def test_cli_report_name_taken_by_a_directory_exit_2(tmp_path, capsys, monkeypatch, name):
    def no_work(config):
        raise AssertionError("ran before the report names were checked")

    monkeypatch.setattr(cli, "cmd_analyze", no_work)
    (tmp_path / "out" / name).mkdir(parents=True)
    cfg_path = write_config(tmp_path, {"map": {"linear": CAT}})
    assert main(["analyze", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: --out: {tmp_path / 'out' / name} is a directory\n"


def test_cli_out_that_cannot_be_created_exit_2(tmp_path, capsys):
    # a path component longer than the file system allows
    cfg_path = write_config(tmp_path, {"map": {"linear": CAT}})
    assert main(["analyze", "--config", cfg_path, "--out", str(tmp_path / ("x" * 300))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --out: ") and "Traceback" not in err


def test_cli_identity_map_exit_3(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"map": {"linear": [[1, 0], [0, 1]]}})
    assert main(["analyze", "--config", cfg_path,
                 "--out", str(tmp_path / "o")]) == 3
    # a defective eigenvalue -1, which LAPACK splits by 6e-8, is rejected
    # before any work
    defective = [[5, 0, -2, 2], [0, 1, 2, -2], [-2, 0, 1, -1], [2, 2, 4, -3]]
    rotation = {"center": CENTER, "plane": [2, 1], "rho": 0.05, "theta_max": 0.5}
    capsys.readouterr()
    for linear, error in ((defective, "DegenerateSpectrum"),
                          ([[1, 1, 0], [0, 1, 0], [0, 0, 1]], "DegenerateSpectrum"),
                          ([[0, 1, 0], [0, 0, 1], [1, 1, 0]], "NonRealSpectrum")):
        runs = [(command, {"map": {"linear": linear}})
                for command in ("analyze", "detect", "exponents")]
        if len(linear) == 3:
            # the same exit once a rotation is built in the eigen chart,
            # and a sweep stops on it, with or without a theta_max = 0 row
            runs += [(command, {"map": {"linear": linear, "rotations": [rotation]}})
                     for command in ("analyze", "detect", "exponents")]
            runs += [("sweep", {"map": {"linear": linear},
                                "sweep": {"theta_max": thetas, "rho": [0.05],
                                          "center": CENTER}})
                     for thetas in ([0.5], [0.0, 0.5])]
        for command, cfg in runs:
            assert main([command, "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o")]) == 3
            assert f"preflight failure: {error}: " in capsys.readouterr().err


def test_cli_budget_exceeded_exit_4(tmp_path):
    cfg = cat_config()
    cfg["leaf"]["budget"] = 120
    cfg["leaf"]["on_budget"] = "raise"
    cfg_path = write_config(tmp_path, cfg)
    assert main(["growth", "--config", cfg_path,
                 "--out", str(tmp_path / "o")]) == 4


def test_cli_detect_inconclusive_exit_3(tmp_path):
    cfg = detect_config(samples=1500)
    cfg["map"]["rotations"][0].update({"theta_max": 8.0, "rho": 0.28})
    cfg["detect"]["preflight_samples"] = 400
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "o"
    assert main(["detect", "--config", cfg_path, "--out", str(out)]) == 3
    # the report is still written for inspection
    report = json.loads((out / "detect.json").read_text())
    assert report["verdict"] == "INCONCLUSIVE"


def test_cli_threads_do_not_change_bytes(tmp_path):
    cfg_path = write_config(tmp_path, detect_config(samples=3000))
    t1, t2 = tmp_path / "t1", tmp_path / "t2"
    assert main(["detect", "--config", cfg_path, "--out", str(t1),
                 "--threads", "1"]) == 0
    assert main(["detect", "--config", cfg_path, "--out", str(t2),
                 "--threads", "3"]) == 0
    for name in ("detect.json", "detect.csv", "runs.jsonl"):
        assert (t1 / name).read_bytes() == (t2 / name).read_bytes(), name


def test_cli_exponents_noncontiguous_selector_exit_2(tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before the selector was checked")

    monkeypatch.setattr(experiments, "qr_spectrum", no_work)
    monkeypatch.setattr(bundles, "_transport_pair", no_work)
    cfg = detect_config(samples=300)
    cfg.update(selector=[1, 3], exponents={"qr_steps": 50, "spectrum_points": 1,
                                           "orbit": 400})
    out = tmp_path / "o"
    assert main(["exponents", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 2
    assert ("config error: config.selector: selector (1, 3) must be contiguous"
            in capsys.readouterr().err)
    assert not out.exists()


def test_cli_exponents_threads_do_not_change_bytes(tmp_path, monkeypatch):
    # small chunks, so that every estimator runs several of them in the pool
    monkeypatch.setattr(lyapunov, "CHUNK", 150)
    cfg = detect_config(samples=600)
    cfg.update(selector=[2], exponents={"qr_steps": 50, "spectrum_points": 1,
                                        "orbit": 400})
    cfg_path = write_config(tmp_path, cfg)
    files = {}
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        assert main(["exponents", "--config", cfg_path, "--out", str(out),
                     "--threads", str(threads)]) == 0
        files[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert sorted(files[1]) == ["exponents.csv", "exponents.json", "runs.jsonl"]
    assert files[1] == files[2]


def test_cli_detect_headline_shows_z(tmp_path, capsys):
    cfg_path = write_config(tmp_path, detect_config(samples=1000))
    assert main(["detect", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "detect.json").read_text())
    line = capsys.readouterr().out
    assert line.startswith(
        f"detect: verdict {report['verdict']} (z = {report['z']:.1f}); ")
    ctrl_path = write_config(tmp_path, detect_config(theta=0), "ctrl.json")
    assert main(["detect", "--config", ctrl_path, "--out", str(tmp_path / "c")]) == 0
    assert "verdict CONSISTENT_WITH_AC (z = null);" in capsys.readouterr().out


def test_cli_dispatch_calls_the_commands_by_name(tmp_path, monkeypatch):
    # the benchmark's tracer rebinds cli's module-level cmd_* names; main
    # must call through those names, not through function objects it holds
    calls = {}

    def counted(name):
        real = getattr(experiments, name)

        def wrapper(*args, **kwargs):
            calls.setdefault(name, []).append(kwargs)
            return real(*args, **kwargs)
        return wrapper

    for name in ("cmd_analyze", "cmd_detect"):
        monkeypatch.setattr(cli, name, counted(name))
    assert main(["analyze", "--config", write_config(tmp_path, {"map": {"linear": CAT}}),
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["detect", "--config", write_config(tmp_path, detect_config(samples=300)),
                 "--out", str(tmp_path / "d"), "--threads", "2"]) == 0
    assert calls == {"cmd_analyze": [{}], "cmd_detect": [{"threads": 2}]}


def test_cli_thread_count_below_one_rejected(tmp_path, capsys):
    cfg_path = write_config(tmp_path, detect_config(samples=800))
    out = str(tmp_path / "o")
    for count in ("0", "-2"):
        assert main(["detect", "--config", cfg_path, "--out", out,
                     "--threads", count]) == 2
        assert (f"--threads: must be at least 1, got {count}"
                in capsys.readouterr().err)
    assert not os.path.exists(out)


def test_reports_are_strict_json_without_nan(tmp_path):
    cfg = cat_config()
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["growth", "--config", cfg_path, "--out", str(out)]) == 0
    text = (out / "growth.json").read_text()
    assert "NaN" not in text and "Infinity" not in text
    report = json.loads(text)
    # the first step has no ratio; it must serialize as null, not NaN
    assert report["runs"][0]["table"][0]["ratio"] is None


def test_growth_csv_one_row_per_step(tmp_path):
    cfg = cat_config()
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["growth", "--config", cfg_path, "--out", str(out)]) == 0
    lines = (out / "growth_steps.csv").read_text().splitlines()
    n_runs = 2 * 1
    assert len(lines) == 1 + n_runs * (cfg["leaf"]["steps"] + 1)


def test_cli_cycle_csv_one_row_per_step(tmp_path):
    cfg = cat_config(leaf={"points": [[0.1, 0.2]], "radii": [0.01],
                           "delta": 0.005, "steps": 4})
    out = tmp_path / "out"
    assert main(["cycle", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    lines = (out / "cycle_steps.csv").read_text().splitlines()
    assert lines[0] == ("point_index,radius,n,angle_to_v1,dx1_pairing,"
                        "integer_class,nodes,truncated")
    assert [line.split(",")[2] for line in lines[1:]] == ["0", "1", "2", "3", "4"]


def test_cli_sweep_headline_counts_verdicts_and_errors(tmp_path, capsys):
    cfg = {
        "map": {"linear": COMPANION},
        "mc": {"samples": 800, "seed": 0},
        "detect": {"preflight_samples": 40},
        "sweep": {"theta_max": [0.4], "rho": [0.12, 0.45], "center": CENTER},
    }
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["sweep", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith(
        "sweep: ERROR x1, NON_ABSOLUTELY_CONTINUOUS x1; ")
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("theta_max,rho,verdict")
    assert len(lines) == 3


def test_benchmark_command_lines_parse(monkeypatch):
    # the benchmark's workloads call the CLI with these argument lists; a
    # flag they pass that the parser no longer has would fail only there.
    # The module is registered while it runs, as its dataclass needs
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS.values():
        for threads in (None, 2):
            args = cli._parser().parse_args(
                workload.argv("cfg.json", "out", threads=threads))
            assert (args.command, args.config, args.out) == (
                workload.command, "cfg.json", "out")
            assert args.threads == (workload.threads if threads is None else threads)


def test_benchmark_trace_finds_every_layer():
    # the benchmark's traced run wraps pathlab functions by name; it patches
    # the imported package for good, so it runs in a fresh interpreter. The
    # leaf mesh carries its boundary, so the benchmark's boundary dedup
    # helper is gone; edge dedup stays measured through _unique_edges. The
    # bundle's integrated exponent has one estimator, splitting_exponents
    root = Path(__file__).resolve().parents[1]
    code = ("import importlib.util, json\n"
            "spec = importlib.util.spec_from_file_location('spans', {!r})\n"
            "spans = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(spans)\n"
            "recorder = spans.Recorder()\n"
            "spans.install(recorder)\n"
            "print(json.dumps(recorder.missing))\n").format(
                str(root / "perfbench" / "spans.py"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["lyapunov.integrated_exponent",
                                       "leafgrowth._boundary_edges"]


def _names_used(tree):
    # every Name read, Attribute and import alias in tree
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
    return used


def test_every_package_name_is_used():
    # each module-level def, class or assigned name of the package, and each
    # non-dunder method or property of its classes, is named somewhere
    # outside its own definition: elsewhere in src, or in the benchmark,
    # whose tracer also patches functions by their string names. A name that
    # only the tracer's strings use is a path kept alive for the tracer
    root = Path(__file__).resolve().parents[1]
    defined = {}
    used = set()
    traced = set()
    for path in sorted((root / "src" / "pathlab").glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            members = []
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                names = [top.name]
                if isinstance(top, ast.ClassDef):
                    members = [m for m in top.body if isinstance(m, ast.FunctionDef)
                               and not re.fullmatch(r"__\w+__", m.name)]
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                defined[name] = path.name
            for m in members:
                defined[m.name] = f"{path.name}:{top.name}"
            own = {id(m): m.name for m in members}
            for node in ast.iter_child_nodes(top) if members else [top]:
                used |= _names_used(node) - set(names) - {own.get(id(node))}
    for path in sorted((root / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        used |= _names_used(tree)
        traced |= {word for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)
                   for word in re.findall(r"\w+", node.value)}
    unused = sorted(f"{mod}:{name}" for name, mod in defined.items()
                    if name not in used | traced and name != "__version__")
    assert unused == []
    # the tracer's patch_method reads each traced TorusMap point operation
    # from TorusMap.__dict__, so that one must exist although no code calls it
    only_traced = sorted(name for name in defined if name in traced - used)
    assert only_traced == ["inverse_differential"]
