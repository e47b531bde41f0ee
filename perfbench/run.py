"""End-to-end and per-layer benchmark of the pathlab command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seconds S] [--trace 0|1]   # every workload

Run it from the root of a pathlab source tree; it runs the program from
`src/` there. Each workload is a closed loop with one client: it starts a
`pathlab` command, waits for it to exit, checks its reports, and starts
the next, until S seconds have passed. Untraced runs (--trace 0) report
the end-to-end metrics as medians over those command runs. Traced runs
(--trace 1) alternate an untraced and a traced command run and report the
per-layer metrics from the spans of the traced ones. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import (WORKLOADS, calibration, check, make_config,  # noqa: E402
                       variance_term)

RESULTS = HERE / "results"
WORK = HERE / "_work"
OP_TIMEOUT_S = 60

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"),
              ("work_norm_var", "stderr2.s"))


def _env():
    env = dict(os.environ)
    # the thread count is part of each workload, never taken from outside
    env.pop("PATHLAB_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_op(workload, config_path, op_dir, trace=False, threads=None):
    """One command run in a fresh interpreter; its timings and status."""
    out_dir = op_dir / "out"
    result_path = op_dir / "result.json"
    trace_path = op_dir / "spans.jsonl" if trace else None
    args = workload.argv(config_path, out_dir, threads)
    op = {"traced": trace, "failures": []}
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), repr(t_spawn), str(result_path),
             str(trace_path) if trace else "-", "--", *args],
            cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the command and waited for it
        op["failures"].append(f"command ran past {OP_TIMEOUT_S} s")
        return op
    if proc.returncode != 0 or not result_path.exists():
        op["failures"].append(f"command process exited {proc.returncode}: "
                              f"{proc.stderr.strip()[-500:]}")
        return op
    with open(result_path, encoding="utf-8") as fh:
        op.update(json.load(fh))
    if op["rc"] != 0:
        op["failures"].append(f"pathlab exited {op['rc']}: {proc.stderr.strip()[-500:]}")
    return op


def measure(name, seed, seconds, trace):
    """Run one workload for `seconds`; returns the result object."""
    workload = WORKLOADS[name]
    cal = calibration(ROOT)
    config = make_config(name, seed, ROOT)
    work = WORK / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config, indent=1), encoding="utf-8")
        ops, op_spans = [], []

        def one(traced, warmup=False):
            op_dir = work / f"op{len(ops)}"
            op_dir.mkdir()
            op = run_op(workload, config_path, op_dir, trace=traced)
            op["warmup"] = warmup
            if not op["failures"]:
                op["check_failures"] = check(name, op_dir / "out", config, cal)
                op["failures"] += op["check_failures"]
            if not op["failures"]:
                op["variance"] = variance_term(name, op_dir / "out")
                if traced:
                    op_spans.append(spans.read_spans(op_dir / "spans.jsonl"))
            ops.append(op)
            shutil.rmtree(op_dir)

        # the first command run of a process tree loads files into the page
        # cache; it is checked but not timed, as a user's next run would not
        # pay for it again
        one(False, warmup=True)
        # a round is one command run, or in a traced run an untraced and a
        # traced one, so that their difference is the tracing overhead
        start = time.perf_counter()
        while True:
            for traced in ((False, True) if trace else (False,)):
                one(traced)
            if time.perf_counter() - start >= seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return _result(name, seed, trace, ops, op_spans)


def _result(name, seed, trace, ops, op_spans):
    good = [op for op in ops if not op["failures"]]
    failed = len(ops) - len(good)
    # an operation whose command ran but whose reports fail a check makes
    # the run incorrect; one whose command did not finish only counts failed
    correct = not any(op.get("check_failures") for op in ops)
    plain = [op for op in good if not op["traced"] and not op["warmup"]]
    if trace:
        traced = [op for op in good if op["traced"]]
        if not plain or not traced:
            return None
        overhead = (median(op["run_s"] for op in traced)
                    - median(op["run_s"] for op in plain))
        per_op = [spans.op_metrics(s) for s, _ in op_spans]
        metrics, absent = spans.layer_metrics(per_op, op_spans[0][1], overhead)
        _write_spans(name, seed, op_spans)
    else:
        if not plain:
            return None
        absent = []
        values = {
            "run_s": median(op["run_s"] for op in plain),
            "setup_s": median(op["setup_s"] for op in plain),
            "peak_rss_mb": median(op["peak_rss_mb"] for op in plain),
            "work_norm_var": median(op["variance"] * op["run_s"] for op in plain),
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
    result = {"correct": correct, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    detail = {"workload": name, "seed": seed, "trace": int(trace), "absent": absent,
              "result": result,
              "ops": ops}
    (RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    return result


def _write_spans(name, seed, op_spans):
    path = RESULTS / f"{name}-seed{seed}.spans.jsonl"
    RESULTS.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for i, (recorded, missing) in enumerate(op_spans):
            fh.write(json.dumps({"op": i, "missing": missing}) + "\n")
            for s in recorded:
                fh.write(json.dumps({"op": i, **s}) + "\n")


def _summary(name, result):
    lines = [f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
             f"correct {str(result['correct']).lower()}"]
    for metric, m in result["metrics"].items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        lines.append(f"  {metric} = {value} {m['unit']}")
    return "\n".join(lines)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="run one workload (default: every workload)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "pathlab" / "cli.py").is_file():
        print(f"perfbench: no pathlab source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "tests" / "baselines.json").is_file():
        print("perfbench: tests/baselines.json (the detector calibration) is missing",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace))
        if result is None:
            print(f"perfbench: {name}: no command run completed", file=sys.stderr)
            return 1
        results[name] = result
        print(_summary(name, result), flush=True)
    print(json.dumps(results[names[0]] if args.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
