"""Deterministic report serialization.

Identical report dicts must serialize to identical bytes regardless of how
many worker threads produced them, so everything here is order-stable:
keys sorted, floats written with shortest round-trip repr, no timestamps,
and non-finite floats mapped to null (JSON has no NaN).
"""

import csv
import hashlib
import json
import math


def clean(obj):
    """Recursively replace non-finite floats with None for strict JSON."""
    if isinstance(obj, dict):
        return {k: clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [clean(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def canonical_json(obj) -> str:
    return json.dumps(clean(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def config_digest(raw_config) -> str:
    return hashlib.sha256(canonical_json(raw_config).encode()).hexdigest()


def write_report(path, report):
    text = json.dumps(clean(report), sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def append_run(path, record):
    with open(path, "a", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_json(record) + "\n")


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v) if math.isfinite(v) else ""
    return str(v)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_cell(v) for v in row])
