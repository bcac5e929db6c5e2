#!/usr/bin/env python3
"""Check BENCH_<name>.json results against the committed baselines.

Usage, after running the benches that write BENCH_*.json files
(ablations, fig08_deser_speedup, fig11_end_to_end, serving and
serving_tail_latency) with MORPHEUS_BENCH_SCALE set to the scale every
baseline was made at (0.05), from the directory that holds their
BENCH_*.json (CI: the repository root):

    python3 tools/check_bench.py

Every baseline in bench/baselines/ is compared: its headline metric
("value") fails the check when the fresh result is more than 10% worse
than the baseline, in the direction "higherIsBetter" gives, and a
baseline with no fresh BENCH file in the working directory fails too.
Every sub-metric of the "metrics" block is printed with its change for
information only, so a re-baseline shows what moved. A result and a
baseline made at different scales, or with different "config" blocks
(device count, placement, pipeline, cache), are refused.

Exits 0 when every bench passes, 1 otherwise.
"""

import glob
import json
import os
import sys

TOLERANCE = 0.10
BASELINES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "..", "bench", "baselines")


def change(base, now):
    """Relative change from base to now, or None when base is 0."""
    if base == 0:
        return 0.0 if now == 0 else None
    return (now - base) / abs(base)


def fmt_change(delta):
    return "n/a" if delta is None else f"{delta:+.2%}"


def check(name):
    """Print one bench's comparison; return its failure or None."""
    if not os.path.isfile(f"BENCH_{name}.json"):
        print(f"{name}: no BENCH_{name}.json in {os.getcwd()} [MISSING]")
        return f"{name} (missing)"
    with open(f"BENCH_{name}.json") as f:
        cur = json.load(f)
    with open(os.path.join(BASELINES, f"BENCH_{name}.json")) as f:
        base = json.load(f)
    if cur["scale"] != base["scale"]:
        print(f"{name}: scale {cur['scale']} vs baseline {base['scale']} "
              f"[MIXED SCALES]")
        return f"{name} (mixed scales)"
    if cur.get("config") != base.get("config"):
        print(f"{name}: config {json.dumps(cur.get('config'))} vs baseline "
              f"{json.dumps(base.get('config'))} [MIXED CONFIG]")
        return f"{name} (mixed config)"

    b, c = base["value"], cur["value"]
    delta = change(b, c)
    if delta is None:
        worse = float("inf") if c != b else 0.0
    else:
        worse = -delta if cur["higherIsBetter"] else delta
    status = "REGRESSION" if worse > TOLERANCE else "ok"
    print(f"{name}.{cur['metric']}: base={b:.6g} now={c:.6g} "
          f"({fmt_change(delta)}) [{status}]")

    base_metrics = base.get("metrics", {})
    cur_metrics = cur.get("metrics", {})
    for key in sorted(set(base_metrics) | set(cur_metrics)):
        if key not in cur_metrics:
            print(f"    {key}: gone (base={base_metrics[key]['value']:.6g})")
        elif key not in base_metrics:
            print(f"    {key}: new (now={cur_metrics[key]['value']:.6g})")
        else:
            mb = base_metrics[key]["value"]
            mc = cur_metrics[key]["value"]
            print(f"    {key}: base={mb:.6g} now={mc:.6g} "
                  f"({fmt_change(change(mb, mc))})")
    return name if worse > TOLERANCE else None


def main():
    benches = sorted(os.path.basename(p)[len("BENCH_"):-len(".json")]
                     for p in glob.glob(os.path.join(BASELINES,
                                                     "BENCH_*.json")))
    failures = [f for f in map(check, benches) if f]
    if failures:
        print(f"bench check failed (>{TOLERANCE:.0%} worse, missing, mixed "
              f"scales or mixed config): {failures}")
        return 1
    print("bench regression check OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
