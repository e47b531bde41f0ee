"""One command run, in its own interpreter, timed from interpreter start.

    python3 child.py T_SPAWN RESULT_JSON TRACE_JSONL|- -- <pathlab arguments>

T_SPAWN is the parent's time.perf_counter() just before it started this
process; on Linux that clock is CLOCK_MONOTONIC, shared by all processes.
Set-up is what every command does before its work: import pathlab, load
and validate the config, build the TorusMap. It is timed here by doing
exactly that, after which `pathlab.cli.main` runs the command as the
`pathlab` console script would. The command's own config load and map
build (about a millisecond) therefore also fall inside run_s.

With a trace path the span wrappers are installed after set-up, and the
spans are written when the command has finished.
"""
import json
import resource
import sys
import time


def main(argv):
    t_spawn = float(argv[0])
    result_path, trace_path = argv[1], argv[2]
    if argv[3] != "--":
        raise SystemExit("usage: child.py T_SPAWN RESULT TRACE|- -- ARGS...")
    command_argv = argv[4:]
    config_path = command_argv[command_argv.index("--config") + 1]

    from pathlab import cli
    from pathlab.config import ExperimentConfig

    with open(config_path, encoding="utf-8") as fh:
        ExperimentConfig.from_dict(json.load(fh)).build_map()
    t_setup = time.perf_counter()

    recorder = None
    if trace_path != "-":
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    rc = cli.main(command_argv)
    t_end = time.perf_counter()
    sys.stdout.flush()

    if recorder is not None:
        recorder.write(trace_path)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "setup_s": t_setup - t_spawn,
                   "run_s": t_end - t_setup, "peak_rss_mb": peak_kib / 1024.0}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
