#!/usr/bin/env python3
"""Diff the observable outputs of two builds of the simulator.

Usage:

    python3 tools/diff_outputs.py BUILD_A BUILD_B [--scale S]

Each BUILD is a CMake build directory (e.g. `build`). Both builds run
the same list of commands, each command in a fresh scratch directory:

  - every bench binary under BUILD/bench, bar the google-benchmark
    microbench (its timings are host wall clock), with
    MORPHEUS_BENCH_SCALE=S (default 0.05);
  - `morpheus-run serve` with the CI telemetry flags (breakdown, SLO,
    slow traces, full trace, timeline JSON/CSV, stats JSON), plus a
    hybrid 4-SSD run and a closed-loop run with writes.

For every command the exit status, stdout and every file the command
wrote (BENCH_*.json, traces, timelines, stats JSON) must be byte for
byte the same. stderr is not compared: benches print progress and host
timings there. Host wall-clock lines on stdout are masked by the
patterns in WALL_CLOCK_LINES, and by nothing else.

Exits 0 when the two builds agree, 1 otherwise.
"""

import argparse
import difflib
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

# Benches that are not deterministic simulator output.
SKIP_BENCHES = {"micro_parse_profile"}

# Extra arguments a bench gets (as in CI).
BENCH_ARGS = {"serving_fleet": ["--stats-json", "fleet_stats.json"]}

# stdout lines that carry host wall-clock time: (bench, regex).
WALL_CLOCK_LINES = [
    ("fig08_deser_speedup", re.compile(r"^host wall clock: ")),
]

SERVE_RUNS = {
    "serve_telemetry": [
        "serve", "--rate", "18000", "--skew", "4", "--breakdown",
        "--slo", "4000", "--slow-traces", "slow_traces.json",
        "--trace", "serve_trace.json", "--timeline", "serve_timeline.json",
        "--timeline-csv", "serve_timeline.csv",
        "--stats-json", "serve_stats.json"],
    "serve_hybrid_fleet": [
        "serve", "--hybrid", "--shed", "--ssds", "4", "--rate", "160000",
        "--skew", "4", "--host-cost-scale", "4",
        "--timeline-csv", "serve_timeline.csv",
        "--stats-json", "serve_stats.json"],
    "serve_closed_loop_writes": [
        "serve", "--closed-loop", "--requests", "400", "--ssds", "2",
        "--write-fraction", "0.25", "--stats-json", "serve_stats.json"],
}


def commands(build):
    """(name, argv) of every command to run from @p build."""
    out = []
    bench_dir = os.path.join(build, "bench")
    for name in sorted(os.listdir(bench_dir)):
        path = os.path.join(bench_dir, name)
        if (name in SKIP_BENCHES or not os.path.isfile(path)
                or not os.access(path, os.X_OK)):
            continue
        argv = [os.path.abspath(path)] + BENCH_ARGS.get(name, [])
        out.append((name, argv))
    run = os.path.abspath(os.path.join(build, "tools", "morpheus-run"))
    for name, args in SERVE_RUNS.items():
        out.append((name, [run] + args))
    return out


def run_one(argv, scale):
    """Run @p argv in a fresh directory: (exit code, {file: bytes})."""
    env = dict(os.environ, MORPHEUS_BENCH_SCALE=str(scale),
               MORPHEUS_LOG_LEVEL="quiet", MORPHEUS_GIT_REV="diff")
    env.pop("MORPHEUS_TRACE", None)
    with tempfile.TemporaryDirectory(prefix="diff_outputs.") as cwd:
        proc = subprocess.run(argv, cwd=cwd, env=env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
        files = {"<stdout>": proc.stdout}
        for f in sorted(os.listdir(cwd)):
            with open(os.path.join(cwd, f), "rb") as fh:
                files[f] = fh.read()
    return proc.returncode, files


def mask(name, text):
    lines = text.decode(errors="replace").splitlines()
    for bench, pattern in WALL_CLOCK_LINES:
        if bench == name:
            lines = ["<wall clock>" if pattern.match(line) else line
                     for line in lines]
    return lines


def compare(name, a, b):
    """Differences between two run_one() results, as printable lines."""
    (rc_a, files_a), (rc_b, files_b) = a, b
    out = []
    if rc_a != rc_b:
        out.append(f"exit status {rc_a} vs {rc_b}")
    for f in sorted(set(files_a) | set(files_b)):
        if f not in files_a or f not in files_b:
            out.append(f"{f}: only in {'A' if f in files_a else 'B'}")
            continue
        if files_a[f] == files_b[f]:
            continue
        la, lb = mask(name, files_a[f]), mask(name, files_b[f])
        if f == "<stdout>" and la == lb:
            continue
        diff = list(difflib.unified_diff(la, lb, f"A/{f}", f"B/{f}",
                                         n=0, lineterm=""))
        out.append(f"{f}: differs ({len(diff)} diff lines)")
        out.extend("    " + line for line in diff[:40])
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("build_a")
    ap.add_argument("build_b")
    ap.add_argument("--scale", type=float, default=0.05,
                    help="MORPHEUS_BENCH_SCALE for the benches")
    args = ap.parse_args()

    cmds_a = dict(commands(args.build_a))
    cmds_b = dict(commands(args.build_b))
    failed = False
    for name in sorted(set(cmds_a) ^ set(cmds_b)):
        print(f"{name}: only in {'A' if name in cmds_a else 'B'}")
        failed = True
    names = sorted(set(cmds_a) & set(cmds_b))
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [(n, pool.submit(run_one, cmds_a[n], args.scale),
                    pool.submit(run_one, cmds_b[n], args.scale))
                   for n in names]
        for name, fa, fb in futures:
            diffs = compare(name, fa.result(), fb.result())
            print(f"{name}: {'DIFFERS' if diffs else 'identical'}")
            for line in diffs:
                print("  " + line)
            failed = failed or bool(diffs)
    print("builds differ" if failed else
          f"all {len(names)} commands identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
