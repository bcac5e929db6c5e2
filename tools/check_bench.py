#!/usr/bin/env python3
"""Check BENCH_<name>.json results against the committed baselines.

Usage, after running the eight benches with MORPHEUS_BENCH_SCALE set to
the scale the baselines were made at, from the directory that holds
their BENCH_*.json (CI: the repository root):

    python3 tools/check_bench.py

For each bench, the headline metric ("value") fails the check when it
is more than 10% worse than its baseline in bench/baselines/;
"higherIsBetter" gives the direction. Every sub-metric of the "metrics"
block is printed with its change for information only, so a re-baseline
shows what moved. A result and a baseline made at different scales are
refused.

Exits 0 when every bench passes, 1 otherwise.
"""

import json
import os
import sys

TOLERANCE = 0.10
BENCHES = ("ablation_pipeline", "fig03", "fig08", "serving_fleet",
           "serving_cache", "serving_breakdown", "serving_overload",
           "traffic_reduction")
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
    with open(f"BENCH_{name}.json") as f:
        cur = json.load(f)
    with open(os.path.join(BASELINES, f"BENCH_{name}.json")) as f:
        base = json.load(f)
    if cur["scale"] != base["scale"]:
        print(f"{name}: scale {cur['scale']} vs baseline {base['scale']} "
              f"[MIXED SCALES]")
        return f"{name} (mixed scales)"

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
    failures = [f for f in map(check, BENCHES) if f]
    if failures:
        print(f"bench check failed (>{TOLERANCE:.0%} worse or mixed "
              f"scales): {failures}")
        return 1
    print("bench regression check OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
