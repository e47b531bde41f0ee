"""Experiment configuration: one JSON object, validated at load.

Validation is strict by design: unknown keys are rejected at every level
and every numeric field is range-checked, so a typo fails fast with a
dotted-path message instead of silently running the wrong experiment.
"""

import sys
from dataclasses import dataclass

from .smallmat import MAX_DIM, MIN_DIM
from .torusmap import TorusMap


class ConfigError(ValueError):
    """Raised for malformed or out-of-range configuration input."""


def _expect_object(value, path):
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: must be an object")
    return value


def _check_keys(obj, path, allowed, required=()):
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}.{key}: required")


def _int_field(obj, key, path, default, lo):
    if key not in obj:
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}: must be an integer")
    if v < lo:
        raise ConfigError(f"{path}.{key}: must be at least {lo}, got {v}")
    return v


def _number(v, path):
    """v as a finite float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}: must be a number")
    if not abs(v) <= sys.float_info.max:  # NaN, inf, or an int past the floats
        raise ConfigError(f"{path}: must be finite")
    return float(v)


def _float_field(obj, key, path):
    """The required number obj[key], finite and greater than 0."""
    v = _number(obj[key], f"{path}.{key}")
    if v <= 0.0:
        raise ConfigError(f"{path}.{key}: must be greater than 0.0, got {v}")
    return v


def _vector(value, path, length=None):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: must be a non-empty array of numbers")
    out = [_number(x, f"{path}[{i}]") for i, x in enumerate(value)]
    if length is not None and len(out) != length:
        raise ConfigError(f"{path}: expected {length} entries, got {len(out)}")
    return out


def _selector(value, path, n=None):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: must be a non-empty array of eigen indices")
    out = []
    for i, x in enumerate(value):
        if isinstance(x, bool) or not isinstance(x, int):
            raise ConfigError(f"{path}[{i}]: must be an integer")
        if x < 1:
            raise ConfigError(f"{path}[{i}]: eigen indices are 1-based, got {x}")
        out.append(x)
    if sorted(set(out)) != out:
        raise ConfigError(f"{path}: indices must be strictly increasing")
    if n is not None and out[-1] > n:
        raise ConfigError(f"{path}: index {out[-1]} out of range for dimension {n}")
    return tuple(out)


def _int_rows(value, path):
    """A square matrix of integers, as a list of rows."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: must be a non-empty square array of integer rows")
    if not MIN_DIM <= len(value) <= MAX_DIM:
        raise ConfigError(f"{path}: dimension {len(value)} outside [{MIN_DIM}, {MAX_DIM}]")
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != len(value):
            raise ConfigError(f"{path}[{i}]: must be an array of {len(value)} integers")
        for j, x in enumerate(row):
            if isinstance(x, bool) or not isinstance(x, int):
                raise ConfigError(f"{path}[{i}][{j}]: must be an integer")
    return [list(row) for row in value]


_ROTATION_KEYS = ("center", "plane", "rho", "theta_max")


def _rotation(value, path, n):
    """One rotation: the keyword arguments of build_localized_rotation."""
    obj = _expect_object(value, path)
    _check_keys(obj, path, _ROTATION_KEYS, required=_ROTATION_KEYS)
    plane = obj["plane"]
    if (not isinstance(plane, list) or len(plane) != 2
            or any(isinstance(p, bool) or not isinstance(p, int) or not 1 <= p <= n
                   for p in plane) or plane[0] == plane[1]):
        raise ConfigError(
            f"{path}.plane: must name two distinct eigen indices in 1..{n}, got {plane!r}")
    return {"center": _vector(obj["center"], f"{path}.center", length=n),
            "plane": list(plane), "rho": _float_field(obj, "rho", path),
            "theta_max": _number(obj["theta_max"], f"{path}.theta_max")}


def _map(value):
    """config.map: the linear part's integer rows and the rotations."""
    obj = _expect_object(value, "config.map")
    _check_keys(obj, "config.map", ("linear", "rotations"), required=("linear",))
    linear = _int_rows(obj["linear"], "config.map.linear")
    rotations = obj.get("rotations", [])
    if not isinstance(rotations, list):
        raise ConfigError("config.map.rotations: must be a list")
    return {"linear": linear,
            "rotations": [_rotation(r, f"config.map.rotations[{k}]", len(linear))
                          for k, r in enumerate(rotations)]}


_TOP_KEYS = ("map", "selector", "leaf", "mc", "detect", "sweep", "exponents")

# each numeric section's integer keys: default and lower bound
_SECTIONS = {
    "mc": {"samples": (200000, 1), "seed": (0, 0)},
    "detect": {"preflight_samples": (200, 1)},
    "exponents": {"qr_steps": (2000, 1), "spectrum_points": (3, 1),
                  "orbit": (1000000, 1)},
}


def _section(raw, name):
    """The numeric section name of raw with its defaults filled in."""
    keys = _SECTIONS[name]
    path = f"config.{name}"
    obj = _expect_object(raw.get(name, {}), path)
    _check_keys(obj, path, keys)
    return {key: _int_field(obj, key, path, default, lo)
            for key, (default, lo) in keys.items()}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description.

    map_spec is the parsed map; build_map builds it and turns the failures
    only the built map shows (determinant, spectrum residual, a support
    that cannot embed) into ConfigError, so bad input has one error family.
    """

    map_spec: dict
    selector: tuple
    leaf: dict | None
    mc: dict
    detect: dict
    sweep: dict | None
    exponents: dict

    def build_map(self) -> TorusMap:
        try:
            return TorusMap.from_dict(self.map_spec)
        except ValueError as e:
            raise ConfigError(f"config.map.{e}") from e

    @classmethod
    def from_dict(cls, raw) -> "ExperimentConfig":
        raw = _expect_object(raw, "config")
        _check_keys(raw, "config", _TOP_KEYS, required=("map",))
        map_spec = _map(raw["map"])
        n = len(map_spec["linear"])

        selector = (1,)
        if "selector" in raw:
            selector = _selector(raw["selector"], "config.selector", n)

        leaf = None
        if "leaf" in raw:
            leaf = cls._leaf(raw["leaf"], n)

        mc = _section(raw, "mc")
        detect = _section(raw, "detect")
        sweep = None
        if "sweep" in raw:
            obj = _expect_object(raw["sweep"], "config.sweep")
            _check_keys(obj, "config.sweep", ("theta_max", "rho", "center"))
            if "theta_max" not in obj or "rho" not in obj:
                raise ConfigError("config.sweep: needs theta_max and rho arrays")
            thetas = _vector(obj["theta_max"], "config.sweep.theta_max")
            for i, t in enumerate(thetas):
                if t < 0:
                    raise ConfigError(
                        f"config.sweep.theta_max[{i}]: must be non-negative")
            rhos = _vector(obj["rho"], "config.sweep.rho")
            for i, r in enumerate(rhos):
                if r <= 0:
                    raise ConfigError(f"config.sweep.rho[{i}]: must be positive")
            if "center" not in obj:
                raise ConfigError("config.sweep.center: required")
            center = _vector(obj["center"], "config.sweep.center", length=n)
            sweep = {"theta_max": thetas, "rho": rhos, "center": center}

        exponents = _section(raw, "exponents")
        return cls(map_spec=map_spec, selector=selector, leaf=leaf, mc=mc,
                   detect=detect, sweep=sweep, exponents=exponents)

    @staticmethod
    def _leaf(value, n):
        obj = _expect_object(value, "config.leaf")
        allowed = ("points", "radii", "delta", "steps", "budget", "on_budget")
        _check_keys(obj, "config.leaf", allowed,
                    required=("points", "radii", "delta", "steps"))
        pts = obj["points"]
        if not isinstance(pts, list) or not pts:
            raise ConfigError("config.leaf.points: must be a non-empty array")
        points = [_vector(p, f"config.leaf.points[{i}]", length=n)
                  for i, p in enumerate(pts)]
        radii = _vector(obj["radii"], "config.leaf.radii")
        for i, r in enumerate(radii):
            if not 0.0 < r <= 0.01:
                raise ConfigError(
                    f"config.leaf.radii[{i}]: must lie in (0, 0.01], got {r}")
        delta = _float_field(obj, "delta", "config.leaf")
        if delta >= min(radii):
            raise ConfigError(
                f"config.leaf.delta: must be smaller than the smallest radius "
                f"{min(radii)}, got {delta}")
        steps = _int_field(obj, "steps", "config.leaf", None, 1)
        budget = _int_field(obj, "budget", "config.leaf", 2000000, 100)
        on_budget = obj.get("on_budget", "flag")
        if on_budget not in ("flag", "raise"):
            raise ConfigError(
                f"config.leaf.on_budget: must be 'flag' or 'raise', got {on_budget!r}")
        return {"points": points, "radii": radii, "delta": delta, "steps": steps,
                "budget": budget, "on_budget": on_budget}
