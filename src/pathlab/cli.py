"""Command-line front end.

Every command reads one JSON config, writes a JSON report, appends one
JSONL record, and writes a CSV table into the output directory. Exit codes:
0 success, 2 config error, 3 numerical preflight failure, 4 refinement
budget exceeded.
"""

import argparse
import json
import os
import sys
from dataclasses import replace

from .config import ConfigError, ExperimentConfig
from .experiments import (
    _DOMAIN_ERRORS,
    cmd_analyze,
    cmd_cycle,
    cmd_detect,
    cmd_exponents,
    cmd_growth,
    cmd_sweep,
)
from .leafgrowth import BadRadius, BudgetExceeded
from .reporting import append_run, config_digest, ensure_dir, write_csv, write_report
from .smallmat import DegenerateSpectrum, NonRealSpectrum

# each command's CSV table, and whether it takes a thread count. main calls
# cmd_<command> by its module-level name at call time, so a wrapper bound to
# that name (the benchmark's tracer) sees the call
_COMMANDS = {
    "analyze": ("analyze.csv", False),
    "growth": ("growth_steps.csv", False),
    "cycle": ("cycle_steps.csv", False),
    "exponents": ("exponents.csv", True),
    "detect": ("detect.csv", True),
    "sweep": ("sweep.csv", True),
}

_NUMERIC_ERRORS = (DegenerateSpectrum, NonRealSpectrum, *_DOMAIN_ERRORS, BadRadius)


def _parser():
    p = argparse.ArgumentParser(
        prog="pathlab",
        description="Growth, homology, and Lyapunov experiments for "
                    "perturbed toral automorphisms.")
    sub = p.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config file")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the Monte Carlo seed")
        sp.add_argument("--threads", type=int, default=None,
                        help="worker threads, at least 1 (default 1)")
    return p


def _load(args):
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError(f"config: cannot read {args.config}: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config: invalid JSON at line {e.lineno}: {e.msg}")
    cfg = ExperimentConfig.from_dict(raw)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed: must be non-negative")
        cfg = replace(cfg, mc={**cfg.mc, "seed": args.seed})
    return raw, cfg


def _sel_label(indices):
    return "+".join(str(i) for i in indices)


def _csv_table(command, report):
    if command == "analyze":
        header = ["selector", "k", "lambda_W", "ln_lambda_W", "error"]
        rows = [[_sel_label(s["selector"]), s["k"], s.get("lambda_W"),
                 s.get("ln_lambda_W"), s.get("error")]
                for s in report["selections"]]
    elif command == "growth":
        header = ["point_index", "radius", "n", "volume", "ln_volume",
                  "ratio", "nodes", "truncated"]
        rows = [[run["point_index"], run["radius"], r["n"], r["volume"],
                 r["ln_volume"], r["ratio"], r["nodes"], r["truncated"]]
                for run in report["runs"] for r in run["table"]]
    elif command == "cycle":
        header = ["point_index", "radius", "n", "angle_to_v1", "dx1_pairing",
                  "integer_class", "nodes", "truncated"]
        rows = [[run["point_index"], run["radius"], r["n"], r["angle_to_v1"],
                 r["dx1_pairing"], " ".join(str(c) for c in r["integer_class"]),
                 r["nodes"], r["truncated"]]
                for run in report["runs"] for r in run["table"]]
    elif command == "exponents":
        header = ["bundle", "estimate", "stderr", "N", "rejected"]
        rows = [[_sel_label(b["bundle"]), b["estimate"], b["stderr"], b["N"],
                 b["rejected"]] for b in report["bundles"]]
        rows.append(["sum", report["sum"], report["sum_stderr"], None, None])
    elif command == "detect":
        header = ["verdict", "gap", "lambda_estimate", "lambda_stderr", "chi",
                  "chi_provenance", "failed_stage"]
        rows = [[report[k] for k in header]]
    else:
        header = ["theta_max", "rho", "verdict", "gap", "lambda_estimate",
                  "lambda_stderr", "chi", "failed_stage", "error"]
        rows = [[c["theta_max"], c["rho"], c.get("verdict"), c.get("gap"),
                 c.get("lambda_estimate"), c.get("lambda_stderr"),
                 c.get("chi"), c.get("failed_stage"), c.get("error")]
                for c in report["cells"]]
    return header, rows


def _headline(command, report):
    if command == "detect":
        z = "null" if report["z"] is None else f"{report['z']:.1f}"
        return f"verdict {report['verdict']} (z = {z})"
    if command == "sweep":
        counts = {}
        for c in report["cells"]:
            key = c.get("verdict", "ERROR")
            counts[key] = counts.get(key, 0) + 1
        return ", ".join(f"{v} x{counts[v]}" for v in sorted(counts))
    if command == "growth":
        return f"max spread {report['max_spread']:.3e}"
    return "done"


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.threads is not None and args.threads < 1:
            raise ConfigError(f"--threads: must be at least 1, got {args.threads}")
        raw, cfg = _load(args)
        out = args.out or cfg.out
        if out is None:
            raise ConfigError("output directory required (--out or config.out)")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    csv_name, threaded = _COMMANDS[args.command]
    run = globals()[f"cmd_{args.command}"]
    try:
        report = run(cfg, threads=args.threads) if threaded else run(cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as e:
        print(f"preflight failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 4

    ensure_dir(out)
    write_report(os.path.join(out, f"{args.command}.json"), report)
    append_run(os.path.join(out, "runs.jsonl"),
               {"command": args.command, "config_digest": config_digest(raw),
                "seed": cfg.mc["seed"], "report": report})
    header, rows = _csv_table(args.command, report)
    write_csv(os.path.join(out, csv_name), header, rows)
    print(f"{args.command}: {_headline(args.command, report)}; reports in {out}")

    if args.command == "detect" and report["failed_stage"] is not None:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
