"""Experiment configuration: one JSON object, validated at load.

Validation is strict by design: unknown keys are rejected at every level
and every numeric field is range-checked, so a typo fails fast with a
dotted-path message instead of silently running the wrong experiment.
"""

import math
from dataclasses import dataclass

from .torusmap import TorusMap


class ConfigError(ValueError):
    """Raised for malformed or out-of-range configuration input."""


def _expect_object(value, path):
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: must be an object")
    return value


def _reject_unknown(obj, path, allowed):
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")


def _int_field(obj, key, path, default, lo=None, hi=None):
    if key not in obj:
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}: must be an integer")
    if lo is not None and v < lo:
        raise ConfigError(f"{path}.{key}: must be at least {lo}, got {v}")
    if hi is not None and v > hi:
        raise ConfigError(f"{path}.{key}: must be at most {hi}, got {v}")
    return v


def _float_field(obj, key, path, default, lo=None, hi=None, lo_open=False):
    if key not in obj:
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}: must be a number")
    v = float(v)
    if not math.isfinite(v):
        raise ConfigError(f"{path}.{key}: must be finite")
    if lo is not None and (v <= lo if lo_open else v < lo):
        bound = "greater than" if lo_open else "at least"
        raise ConfigError(f"{path}.{key}: must be {bound} {lo}, got {v}")
    if hi is not None and v > hi:
        raise ConfigError(f"{path}.{key}: must be at most {hi}, got {v}")
    return v


def _vector(value, path, length=None):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: must be a non-empty array of numbers")
    out = []
    for i, x in enumerate(value):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ConfigError(f"{path}[{i}]: must be a number")
        x = float(x)
        if not math.isfinite(x):
            raise ConfigError(f"{path}[{i}]: must be finite")
        out.append(x)
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


_TOP_KEYS = ("map", "selector", "leaf", "mc", "detect", "sweep", "exponents", "out")

# each numeric section's keys: default, integer or float, lower bound, and
# whether that bound is open
_SECTIONS = {
    "mc": {"samples": (200000, int, 1, False), "seed": (0, int, 0, False)},
    "detect": {
        "significance": (3.0, float, 0.0, True),
        "gap_floor": (1e-9, float, 0.0, False),
        "preflight_samples": (200, int, 1, False),
        "c1_samples": (10000, int, 1, False),
    },
    "exponents": {
        "qr_steps": (2000, int, 1, False),
        "spectrum_points": (3, int, 1, False),
        "orbit": (1000000, int, 1, False),
    },
}


def _section(raw, name):
    """The numeric section name of raw with its defaults filled in."""
    keys = _SECTIONS[name]
    path = f"config.{name}"
    obj = _expect_object(raw.get(name, {}), path)
    _reject_unknown(obj, path, keys)
    out = {}
    for key, (default, kind, lo, lo_open) in keys.items():
        if kind is int:
            out[key] = _int_field(obj, key, path, default, lo=lo)
        else:
            out[key] = _float_field(obj, key, path, default, lo=lo, lo_open=lo_open)
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description.

    map_spec stays a plain dict so reports can echo it verbatim; build_map
    constructs the live object and turns construction failures into
    ConfigError so the caller sees a single error family for bad input.
    """

    map_spec: dict
    selector: tuple
    leaf: dict | None
    mc: dict
    detect: dict
    sweep: dict | None
    exponents: dict
    out: str | None

    def build_map(self) -> TorusMap:
        try:
            return TorusMap.from_dict(self.map_spec)
        except ConfigError:
            raise
        except ValueError as e:
            raise ConfigError(f"config.map: {e}") from e

    @classmethod
    def from_dict(cls, raw) -> "ExperimentConfig":
        raw = _expect_object(raw, "config")
        _reject_unknown(raw, "config", _TOP_KEYS)
        if "map" not in raw:
            raise ConfigError("config.map: required")
        map_spec = _expect_object(raw["map"], "config.map")
        _reject_unknown(map_spec, "config.map", ("linear", "rotations"))
        linear = map_spec.get("linear")
        if not isinstance(linear, list) or not linear:
            raise ConfigError("config.map.linear: must be a non-empty matrix")
        n = len(linear)

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
            _reject_unknown(obj, "config.sweep", ("theta_max", "rho", "center", "plane"))
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
            plane = (2, 1)
            if "plane" in obj:
                p = obj["plane"]
                if (not isinstance(p, list) or len(p) != 2
                        or any(isinstance(x, bool) or not isinstance(x, int) for x in p)):
                    raise ConfigError("config.sweep.plane: must be two integers")
                if set(p) != {1, 2}:
                    raise ConfigError(
                        "config.sweep.plane: the detector measures the weak-unstable "
                        "foliation, rotations must mix eigen-directions 1 and 2")
                plane = (p[0], p[1])
            sweep = {"theta_max": thetas, "rho": rhos, "center": center,
                     "plane": plane}

        exponents = _section(raw, "exponents")
        out = raw.get("out")
        if out is not None and not isinstance(out, str):
            raise ConfigError("config.out: must be a path string")

        return cls(map_spec=map_spec, selector=selector, leaf=leaf, mc=mc,
                   detect=detect, sweep=sweep, exponents=exponents, out=out)

    @staticmethod
    def _leaf(value, n):
        obj = _expect_object(value, "config.leaf")
        allowed = ("points", "radii", "delta", "steps", "budget", "on_budget")
        _reject_unknown(obj, "config.leaf", allowed)
        for key in ("points", "radii", "delta", "steps"):
            if key not in obj:
                raise ConfigError(f"config.leaf.{key}: required")
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
        delta = _float_field(obj, "delta", "config.leaf", None, lo=0.0, lo_open=True)
        if delta >= min(radii):
            raise ConfigError(
                f"config.leaf.delta: must be smaller than the smallest radius "
                f"{min(radii)}, got {delta}")
        steps = _int_field(obj, "steps", "config.leaf", None, lo=1)
        budget = _int_field(obj, "budget", "config.leaf", 2000000, lo=100)
        on_budget = obj.get("on_budget", "flag")
        if on_budget not in ("flag", "raise"):
            raise ConfigError(
                f"config.leaf.on_budget: must be 'flag' or 'raise', got {on_budget!r}")
        return {"points": points, "radii": radii, "delta": delta, "steps": steps,
                "budget": budget, "on_budget": on_budget}
