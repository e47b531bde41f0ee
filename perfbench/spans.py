"""In-memory span recorder for the traced run, and the per-layer metrics.

A span is one call into a pathlab layer: a name, start and end on the
monotonic clock, the id of the span that caused it, the thread it ran on,
and counts taken from the call's arguments and result. `install` wraps the
layer boundaries of an imported pathlab; it runs only in a traced command
process, so untraced runs execute the program without any wrapper.
"""
from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from statistics import median

import numpy as np

MIB = 1024.0 * 1024.0

_MAP_POINT_OPS = ("apply", "inverse_apply", "lift_apply", "differential",
                  "inverse_differential")


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def current(self):
        return getattr(self._local, "span", None)

    def enter(self, parent):
        self._local.span = parent

    def wrap(self, name, fn, measure=None):
        """Wrap fn so each call records a span; measure(args, kwargs, out)
        returns the span's counts."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = rec.current()
            sid = next(rec._ids)
            rec._local.span = sid
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec._local.span = parent
            counts = measure(args, kwargs, out) if measure else {}
            rec.spans.append({"id": sid, "name": name, "start": start,
                              "end": end, "parent": parent,
                              "thread": threading.get_ident(),
                              "counts": counts})
            return out

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"missing": self.missing}) + "\n")
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(span) + "\n")


def read_spans(path):
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    return spans, header["missing"]


# ------------------------------------------------------------ counts


def _rows(x):
    arr = np.asarray(x)
    return 1 if arr.ndim == 1 else int(arr.shape[0])


def _map_points(args, kwargs, out):
    return {"points": _rows(args[1])}


def _frames_request(args, kwargs, out):
    status = out[1]
    return {"rows": int(status.shape[0]), "ok": int(np.count_nonzero(status == 0))}


def _transport(args, kwargs, out):
    map_, xs, k, m, direction = args
    rows, n = np.asarray(xs).shape
    return {"rows": int(rows), "m": int(m), "n": int(n)}


def _integrated(args, kwargs, out):
    return {"samples": out["N"], "rejected": out["rejected"],
            "stderr": out["stderr"]}


def _birkhoff(args, kwargs, out):
    return {"orbit_points": out["N"]}


def _edges_in(args, kwargs, out):
    return {"edges": 3 * int(np.asarray(args[0]).shape[0])}


def _growth(args, kwargs, out):
    disk = out["disk"]
    return {"node_steps": int(sum(r["nodes"] for r in out["records"])),
            "mesh_bytes": int(disk.params.nbytes + disk.points.nbytes
                              + disk.cells.nbytes)}


def _written(args, kwargs, out):
    # every command run writes into a fresh output directory, so a file's
    # size after the call is what this run wrote to it
    return {"bytes": os.path.getsize(args[0])}


# ------------------------------------------------------------ install


def install(recorder):
    """Wrap the layer boundaries of the imported pathlab package."""
    from concurrent.futures import ThreadPoolExecutor

    from pathlab import (bundles, config, experiments, homology, leafgrowth,
                         lyapunov, reporting, smallmat, torusmap)

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "pathlab" or name.startswith("pathlab.")]

    def patch(module, attr, measure=None):
        orig = getattr(module, attr, None)
        if orig is None:
            recorder.missing.append(f"{module.__name__.split('.')[-1]}.{attr}")
            return
        short = module.__name__.split(".")[-1]
        wrapped = recorder.wrap(f"{short}.{attr}", orig, measure)
        # rebind every module-level name that refers to the original, so
        # calls made through `from .x import f` are traced as well
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)

    def patch_method(cls, attr, span, measure=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(recorder.wrap(span, raw.__func__, measure)))
        else:
            setattr(cls, attr, recorder.wrap(span, raw, measure))

    for attr in _MAP_POINT_OPS:
        patch_method(torusmap.TorusMap, attr, f"torusmap.{attr}", _map_points)
    patch_method(torusmap.TorusMap, "from_dict", "torusmap.from_dict")
    patch_method(config.ExperimentConfig, "from_dict", "config.from_dict")

    for attr in ("strongest_frames", "weakest_frames"):
        patch(bundles, attr, _frames_request)
    for attr in ("intersect_frames", "bundle_frames", "splitting_frames",
                 "domination_check", "closedness_condition_check"):
        patch(bundles, attr)
    patch(lyapunov, "integrated_exponent", _integrated)
    patch(lyapunov, "birkhoff_exponent", _birkhoff)
    for attr in ("splitting_exponents", "qr_spectrum"):
        patch(lyapunov, attr)
    for attr in ("seed_disk", "iterate_refine", "current_eval"):
        patch(leafgrowth, attr)
    patch(leafgrowth, "track_growth", _growth)
    for attr in sorted(vars(experiments)):
        if attr.startswith("cmd_"):
            patch(experiments, attr)
    for attr in ("write_report", "append_run", "write_csv"):
        patch(reporting, attr, _written)
    patch(homology, "topological_growth")
    patch(smallmat, "eigen_real")

    # private helpers carry counts no public function exposes; a refactor
    # that removes one makes its metrics absent instead of breaking the run
    patch(bundles, "_transport_pair", _transport)
    patch(leafgrowth, "_unique_edges", _edges_in)
    patch(leafgrowth, "_boundary_edges", _edges_in)

    # worker threads start with no current span; hand them the submitter's
    class SpanPropagatingExecutor(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            parent = recorder.current()

            def run(*a, **k):
                recorder.enter(parent)
                try:
                    return fn(*a, **k)
                finally:
                    recorder.enter(None)

            return super().submit(run, *args, **kwargs)

    for mod in modules:
        if vars(mod).get("ThreadPoolExecutor") is ThreadPoolExecutor:
            mod.ThreadPoolExecutor = SpanPropagatingExecutor


# ------------------------------------------------------------ metrics


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for lo, hi in sorted(children.get(s["id"], ())):
            lo = max(lo, reach)
            hi = min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


# name, unit of every per-layer metric, in report order
LAYER_METRICS = (
    ("torusmap.calls", "count"),
    ("torusmap.points", "count"),
    ("torusmap.self_s", "s"),
    ("torusmap.us_per_call", "us"),
    ("torusmap.ns_per_point", "ns"),
    ("bundles.transport.self_s", "s"),
    ("bundles.transport.rows_requested", "count"),
    ("bundles.transport.rows_transported", "count"),
    ("bundles.ladder_retry_ratio", "ratio"),
    ("bundles.frame_products", "count"),
    ("bundles.frames_ok_ratio", "ratio"),
    ("bundles.orbit_mb", "MiB"),
    ("bundles.intersect.self_s", "s"),
    ("bundles.preflight.self_s", "s"),
    ("lyapunov.integrated.self_s", "s"),
    ("lyapunov.integrated.samples", "count"),
    ("lyapunov.integrated.rejected", "count"),
    ("lyapunov.integrated.wnv", "stderr2.s"),
    ("lyapunov.splitting.self_s", "s"),
    ("lyapunov.birkhoff.self_s", "s"),
    ("lyapunov.birkhoff.orbit_points", "count"),
    ("lyapunov.qr_spectrum.self_s", "s"),
    ("leafgrowth.refine.self_s", "s"),
    ("leafgrowth.edge_dedup.self_s", "s"),
    ("leafgrowth.edges_deduped", "count"),
    ("leafgrowth.current_eval.self_s", "s"),
    ("leafgrowth.node_steps", "count"),
    ("leafgrowth.nodes_per_s", "nodes/s"),
    ("leafgrowth.mesh_mb", "MiB"),
    ("experiments.self_s", "s"),
    ("config.load_s", "s"),
    ("reporting.write_s", "s"),
    ("reporting.bytes", "bytes"),
    ("homology.self_s", "s"),
    ("smallmat.self_s", "s"),
    ("trace.overhead_s", "s"),
)

# metrics that need a private helper, absent when none of them exists
_NEEDS = {
    "bundles.transport.rows_transported": ("bundles._transport_pair",),
    "bundles.ladder_retry_ratio": ("bundles._transport_pair",),
    "bundles.frame_products": ("bundles._transport_pair",),
    "bundles.orbit_mb": ("bundles._transport_pair",),
    "leafgrowth.edge_dedup.self_s": ("leafgrowth._unique_edges",
                                     "leafgrowth._boundary_edges"),
    "leafgrowth.edges_deduped": ("leafgrowth._unique_edges",
                                 "leafgrowth._boundary_edges"),
}

_TRANSPORT = ("bundles.strongest_frames", "bundles.weakest_frames",
              "bundles.bundle_frames", "bundles.splitting_frames",
              "bundles._transport_pair")
_REQUESTS = ("bundles.strongest_frames", "bundles.weakest_frames")
_DEDUP = ("leafgrowth._unique_edges", "leafgrowth._boundary_edges")
_REFINE = ("leafgrowth.seed_disk", "leafgrowth.iterate_refine",
           "leafgrowth.track_growth")
_REPORTING = ("reporting.write_report", "reporting.append_run",
              "reporting.write_csv")


def _ratio(num, den):
    return num / den if den else 0.0


def op_metrics(spans):
    """Per-layer metrics of one traced command run (trace.overhead_s aside).

    A layer that does no work in the run reads 0.
    """
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def self_sum(*names):
        return sum(selfs[s["id"]] for s in named(*names))

    def dur_sum(*names):
        return sum(s["end"] - s["start"] for s in named(*names))

    def count(key, *names):
        return sum(s["counts"][key] for s in named(*names))

    point_names = tuple(f"torusmap.{a}" for a in _MAP_POINT_OPS)
    top_points = [s for s in named(*point_names)
                  if not (s["parent"] in by_id
                          and by_id[s["parent"]]["name"].startswith("torusmap."))]
    calls = len(top_points)
    points = sum(s["counts"]["points"] for s in top_points)
    point_self = self_sum(*point_names)
    requested = count("rows", *_REQUESTS)
    transported = count("rows", "bundles._transport_pair")
    pairs = named("bundles._transport_pair")
    growth = named("leafgrowth.track_growth")
    node_steps = count("node_steps", "leafgrowth.track_growth")
    integrated = named("lyapunov.integrated_exponent")
    return {
        "torusmap.calls": calls,
        "torusmap.points": points,
        "torusmap.self_s": self_sum(*point_names, "torusmap.from_dict"),
        "torusmap.us_per_call": 1e6 * _ratio(point_self, calls),
        "torusmap.ns_per_point": 1e9 * _ratio(point_self, points),
        "bundles.transport.self_s": self_sum(*_TRANSPORT),
        "bundles.transport.rows_requested": requested,
        "bundles.transport.rows_transported": transported,
        "bundles.ladder_retry_ratio": _ratio(transported, requested),
        "bundles.frame_products": sum(
            s["counts"]["rows"] * (s["counts"]["m"] + 5) * 2 for s in pairs),
        "bundles.frames_ok_ratio": _ratio(count("ok", *_REQUESTS), requested),
        "bundles.orbit_mb": max(
            ((s["counts"]["m"] + 5) * s["counts"]["rows"] * s["counts"]["n"] * 8
             for s in pairs), default=0) / MIB,
        "bundles.intersect.self_s": self_sum("bundles.intersect_frames"),
        "bundles.preflight.self_s": self_sum("bundles.domination_check",
                                             "bundles.closedness_condition_check"),
        "lyapunov.integrated.self_s": self_sum("lyapunov.integrated_exponent"),
        "lyapunov.integrated.samples": count("samples", "lyapunov.integrated_exponent"),
        "lyapunov.integrated.rejected": count("rejected", "lyapunov.integrated_exponent"),
        "lyapunov.integrated.wnv": sum(
            s["counts"]["stderr"] ** 2 * (s["end"] - s["start"]) for s in integrated),
        "lyapunov.splitting.self_s": self_sum("lyapunov.splitting_exponents"),
        "lyapunov.birkhoff.self_s": self_sum("lyapunov.birkhoff_exponent"),
        "lyapunov.birkhoff.orbit_points": count("orbit_points",
                                                "lyapunov.birkhoff_exponent"),
        "lyapunov.qr_spectrum.self_s": self_sum("lyapunov.qr_spectrum"),
        "leafgrowth.refine.self_s": self_sum(*_REFINE),
        "leafgrowth.edge_dedup.self_s": self_sum(*_DEDUP),
        "leafgrowth.edges_deduped": count("edges", *_DEDUP),
        "leafgrowth.current_eval.self_s": self_sum("leafgrowth.current_eval"),
        "leafgrowth.node_steps": node_steps,
        "leafgrowth.nodes_per_s": _ratio(node_steps, dur_sum("leafgrowth.track_growth")),
        "leafgrowth.mesh_mb": max((s["counts"]["mesh_bytes"] for s in growth),
                                  default=0) / MIB,
        "experiments.self_s": sum(selfs[s["id"]] for s in spans
                                  if s["name"].startswith("experiments.cmd_")),
        "config.load_s": dur_sum("config.from_dict"),
        "reporting.write_s": dur_sum(*_REPORTING),
        "reporting.bytes": count("bytes", *_REPORTING),
        "homology.self_s": self_sum("homology.topological_growth"),
        "smallmat.self_s": self_sum("smallmat.eigen_real"),
    }


def layer_metrics(per_op, missing, overhead_s):
    """Median over traced command runs of each per-layer metric.

    A metric whose private helper no longer exists is reported with a null
    value and listed in `absent`.
    """
    absent = sorted(name for name, helpers in _NEEDS.items()
                    if all(h in missing for h in helpers))
    metrics = {}
    for name, unit in LAYER_METRICS:
        if name == "trace.overhead_s":
            value = overhead_s
        elif name in absent:
            value = None
        else:
            value = median(op[name] for op in per_op)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent
