#!/usr/bin/env python3
"""Line coverage of src/ reached by the product alone (no unit tests).

Usage:

    cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \\
        -DCMAKE_CXX_FLAGS="--coverage -O0" \\
        -DCMAKE_EXE_LINKER_FLAGS="--coverage"
    cmake --build build-cov -j
    python3 tools/product_coverage.py build-cov

Runs the product commands CI runs, each in a fresh scratch directory:
the five gated benches, the nine `morpheus-run` lines of the CI jobs
and every example binary. A command's exit status is printed but does
not fail the script: a bench's wall-clock gate can trip in an -O0
build. Then prints, for every `.cc` file under src/, the executed and
executable lines gcov reports, and the total. A file whose objects no
command ran counts as 0% of its lines.

Run it on a build that ran nothing else (no ctest): the counters
accumulate across runs.
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile

# The benches CI runs, with the scale CI runs them at.
BENCHES = [
    ("ablations", "0.05"),
    ("fig08_deser_speedup", "0.05"),
    ("fig11_end_to_end", "0.05"),
    ("serving", "0.05"),
    ("serving_tail_latency", "0.05"),
]

# The `morpheus-run` lines of .github/workflows/ci.yml.
RUNS = [
    ["kmeans", "--mode", "morpheus", "--scale", "0.05", "--ssds", "4"],
    ["pagerank", "--mode", "p2p", "--scale", "0.05", "--ssds", "4"],
    ["kmeans", "--mode", "morpheus", "--scale", "0.05", "--ssds", "2",
     "--cache"],
    ["serve", "--closed-loop", "--requests", "70000", "--ssds", "4"],
    ["serve", "--closed-loop", "--requests", "10000"],
    ["serve", "--rate", "18000", "--skew", "4", "--breakdown", "--slo",
     "4000", "--slow-traces", "slow_traces.json", "--trace",
     "serve_trace.json", "--timeline", "serve_timeline.json",
     "--timeline-csv", "serve_timeline.csv"],
    ["pagerank", "--mode", "morpheus", "--recovery", "--fault-plan",
     "media=5e-3,dma=2e-3,crash=2e-2,seed=5", "--stats"],
    ["pagerank", "--mode", "baseline", "--recovery", "--fault-plan",
     "media=5e-3,dma=2e-3,seed=5"],
    ["pagerank", "--mode", "morpheus", "--scale", "0.05", "--recovery",
     "--fault-plan", "crash=0.05,seed=5"],
]


def commands(build):
    """(name, argv, env overrides) of every product command."""
    out = []
    for name, scale in BENCHES:
        out.append((name, [os.path.join(build, "bench", name)],
                    {"MORPHEUS_BENCH_SCALE": scale}))
    run = os.path.join(build, "tools", "morpheus-run")
    for args in RUNS:
        out.append(("morpheus-run " + " ".join(args), [run] + args, {}))
    examples = os.path.join(build, "examples")
    for name in sorted(os.listdir(examples)):
        path = os.path.join(examples, name)
        if os.path.isfile(path) and os.access(path, os.X_OK):
            out.append((name, [path], {}))
    return out


def run_commands(build):
    for name, argv, env in commands(build):
        with tempfile.TemporaryDirectory() as cwd:
            proc = subprocess.run(
                argv, cwd=cwd, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                env=dict(os.environ, MORPHEUS_LOG_LEVEL="quiet", **env))
        print(f"exit {proc.returncode:3d}  {name}", flush=True)


FILE_RE = re.compile(r"^File '(.*)'$")
LINES_RE = re.compile(r"^Lines executed:([0-9.]+)% of (\d+)$")


def source_dir(build):
    """The source tree @p build was configured from."""
    with open(os.path.join(build, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return os.path.realpath(line.split("=", 1)[1].strip())
    sys.exit(f"{build} is not a CMake build directory")


def coverage(build, src):
    """{src/ .cc path: (executed, executable)} from every .gcno."""
    notes = []
    for root, _, files in os.walk(os.path.join(build, "src")):
        notes += [os.path.join(root, f) for f in files
                  if f.endswith(".cc.gcno")]
    result = {}
    with tempfile.TemporaryDirectory() as cwd:
        for note in sorted(notes):
            # gcov reads <name>.gcda next to <name>.gcno; a missing
            # .gcda reads as nothing executed.
            proc = subprocess.run(["gcov", "-n", note], cwd=cwd,
                                  capture_output=True, text=True)
            current = None
            for line in proc.stdout.splitlines():
                m = FILE_RE.match(line)
                if m:
                    current = os.path.realpath(m.group(1))
                    continue
                m = LINES_RE.match(line)
                if (m and current and current.endswith(".cc")
                        and current.startswith(src + os.sep)):
                    total = int(m.group(2))
                    hit = round(float(m.group(1)) * total / 100)
                    result[current] = (hit, total)
                    current = None
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("build", help="CMake build directory built with "
                    "--coverage")
    build = os.path.abspath(ap.parse_args().build)
    run_commands(build)
    source = source_dir(build)
    cov = coverage(build, os.path.join(source, "src"))
    if not cov:
        sys.exit(f"no src/ coverage data under {build}")
    hit_sum = total_sum = 0
    print(f"{'file':44s} {'lines':>6s} {'run':>6s} {'cover':>7s}")
    for path in sorted(cov):
        hit, total = cov[path]
        hit_sum += hit
        total_sum += total
        pct = 100.0 * hit / total if total else 100.0
        print(f"{os.path.relpath(path, source):44s} {total:6d} {hit:6d} "
              f"{pct:6.1f}%")
    print(f"{'total':44s} {total_sum:6d} {hit_sum:6d} "
          f"{100.0 * hit_sum / total_sum:6.1f}%")


if __name__ == "__main__":
    main()
