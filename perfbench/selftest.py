#!/usr/bin/env python3
"""Self-test of the benchmark itself.

Usage, from the repository root:

    python3 perfbench/selftest.py

Checks, exiting non-zero on any failure:

1. Consistency: at fig08/fig11's scale (0.25) and seed (42), paper_suite
   reproduces the means those benches print (Fig 8 deserialization
   speedup; Fig 11 Morpheus and Morpheus+P2P end-to-end speedups). Both
   call the same runWorkload, so any difference is a benchmark bug.
2. Determinism: two runs of a workload with the same seed give
   bit-identical simulated metrics, untraced and traced. Host metrics are
   excluded. (Trace invariance is checked inside every traced run: the
   driver compares its traced repetitions with the untraced ones and
   reports correct=false on any difference.)
3. Held-out seed: every workload also runs at a seed the model was not
   tuned at; both seeds must have no failed operation, and the paper's
   fit error is printed next to the held-out error.

fig08_deser_speedup and fig11_end_to_end are built from the repository's
own CMake project into .bench_build/repo.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_BUILD = os.path.join(ROOT, ".bench_build", "repo")
WORKLOADS = ("paper_suite", "serving_small", "serving_mixed_rw")
FIT_SEED = 42       # the seed the model was calibrated at
HELD_OUT_SEED = 7
SECONDS = 1
# Host-cost metrics: they vary run to run, so determinism skips them.
HOST_METRICS = {"setup_s", "wall_s", "peak_rss_mb", "sim.host_us_per_cmd",
                "obs.trace_overhead_pct"}
HOST_PREFIXES = ("workloads.generate_s", "workloads.kernel_s",
                 "workloads.run_s.", "serde.")

failures = []


def check(ok, what):
    print("%-4s %s" % ("ok" if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def bench(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def sim_metrics(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if k not in HOST_METRICS and not k.startswith(HOST_PREFIXES)}


def figure_means():
    """Means printed by the repository's fig08 and fig11 benches."""
    subprocess.run(["cmake", "-S", ROOT, "-B", REPO_BUILD],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", REPO_BUILD, "-j", "4", "--target",
                    "fig08_deser_speedup", "fig11_end_to_end"],
                   stdout=sys.stderr, check=True)
    env = {k: v for k, v in os.environ.items()
           if k != "MORPHEUS_BENCH_SCALE"}

    def mean_line(binary):
        # fig08 writes BENCH_fig08.json into its working directory.
        out = subprocess.run([os.path.join(REPO_BUILD, "bench", binary)],
                             cwd=REPO_BUILD, env=env, stdout=subprocess.PIPE,
                             text=True, check=True).stdout
        line = next(l for l in out.splitlines() if l.startswith("mean"))
        return [float(x) for x in re.findall(r"([0-9.]+)x", line)]

    (deser,) = mean_line("fig08_deser_speedup")
    morph, p2p = mean_line("fig11_end_to_end")
    return {"deser_speedup": deser, "e2e_speedup": morph,
            "p2p_e2e_speedup": p2p}


def main():
    runs = {}
    for w in WORKLOADS:
        for seed, trace, rep in ((FIT_SEED, 0, 0), (FIT_SEED, 0, 1),
                                 (FIT_SEED, 1, 0), (FIT_SEED, 1, 1),
                                 (HELD_OUT_SEED, 1, 0)):
            r = bench(w, seed, trace)
            runs[(w, seed, trace, rep)] = r
            check(r["correct"], "%s seed %d trace %d: correct (validation, "
                  "determinism across repetitions, trace invariance)"
                  % (w, seed, trace))

    print("\n-- consistency with fig08 / fig11 (scale 0.25, seed 42)")
    paper = runs[("paper_suite", FIT_SEED, 1, 0)]["metrics"]
    for name, printed in figure_means().items():
        ours = paper[name]["value"]
        check("%.2f" % ours == "%.2f" % printed,
              "%s: paper_suite %.4f, figure bench prints %.2f"
              % (name, ours, printed))

    print("\n-- determinism across processes (simulated metrics only)")
    for w in WORKLOADS:
        for trace in (0, 1):
            a = sim_metrics(runs[(w, FIT_SEED, trace, 0)])
            b = sim_metrics(runs[(w, FIT_SEED, trace, 1)])
            diff = sorted(k for k in a if a[k] != b.get(k))
            check(not diff, "%s trace %d: %d simulated metrics identical%s"
                  % (w, trace, len(a), (", differ: %s" % diff) if diff
                     else ""))

    print("\n-- held-out seed (fit seed %d vs held-out seed %d)"
          % (FIT_SEED, HELD_OUT_SEED))
    print("%-18s %-6s %12s %16s" % ("workload", "seed", "failed_frac",
                                    "paper_error_pct"))
    for w in WORKLOADS:
        for seed in (FIT_SEED, HELD_OUT_SEED):
            r = runs[(w, seed, 1, 0)]
            m = r["metrics"]
            print("%-18s %-6d %12g %16s" % (
                w, seed, m["failed_frac"]["value"],
                "%.3f" % m["paper_error_pct"]["value"]
                if w == "paper_suite" else "-"))
            check(r["failed"] == 0 and m["failed_frac"]["value"] == 0,
                  "%s seed %d: no failed operation" % (w, seed))

    print("\n%s" % ("all checks passed" if not failures
                    else "%d check(s) FAILED" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
