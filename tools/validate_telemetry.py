#!/usr/bin/env python3
"""Schema validator for the observability artifacts.

Validates the JSON documents the serving driver exports so CI catches
format drift before a human tries to load one in Perfetto or a
plotting notebook:

  --chrome FILE.json    slow-trace / full-trace Chrome trace-event JSON
  --timeline FILE.json  obs::Timeline JSON
  --csv FILE.csv        obs::Timeline CSV (checked against --timeline)
  --bench FILE.json     a bench's BENCH_<name>.json (repeatable): the
                        schema, and for every run that federated serving
                        metrics, the request ledger at total and tenant
                        scope (submitted == completed + rejected + lost,
                        fallbacks == the sum of the per-reason fallbacks)

Exit 0 when every named artifact validates; the first violation is
reported with its path and the offending record.
"""

import argparse
import csv
import json
import sys


def fail(path, msg):
    print(f"FAIL {path}: {msg}", file=sys.stderr)
    sys.exit(1)


def validate_chrome(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        fail(path, "top level is not an object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(path, '"traceEvents" is not a list')
    durations = 0
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            fail(path, f"{where} is not an object")
        ph = ev.get("ph")
        if ph not in ("X", "i", "M"):
            fail(path, f"{where} has unknown phase {ph!r}")
        if not isinstance(ev.get("pid"), int):
            fail(path, f"{where} pid is not an integer")
        if not isinstance(ev.get("tid"), int):
            fail(path, f"{where} tid is not an integer")
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            fail(path, f"{where} has no name")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(path, f"{where} ts {ts!r} is not a non-negative number")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                fail(path, f"{where} dur {dur!r} is invalid")
            durations += 1
        if ph == "i" and ev.get("s") not in ("t", "p", "g"):
            fail(path, f"{where} instant has invalid scope")
    print(f"ok {path}: {len(events)} events ({durations} spans)")
    return doc


def validate_timeline(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc.get("intervalUs"), (int, float)) or \
            doc["intervalUs"] <= 0:
        fail(path, '"intervalUs" is not a positive number')
    columns = doc.get("columns")
    if not isinstance(columns, list) or \
            not all(isinstance(c, str) and c for c in columns):
        fail(path, '"columns" is not a list of non-empty strings')
    rows = doc.get("rows")
    if not isinstance(rows, list):
        fail(path, '"rows" is not a list')
    prev_t = -1.0
    for i, row in enumerate(rows):
        where = f"rows[{i}]"
        t = row.get("t_us")
        if not isinstance(t, (int, float)) or t < 0:
            fail(path, f"{where} t_us {t!r} is invalid")
        if t <= prev_t:
            fail(path, f"{where} t_us {t} is not strictly increasing")
        prev_t = t
        values = row.get("values")
        if not isinstance(values, list) or len(values) != len(columns):
            fail(path, f"{where} has {len(values or [])} values for "
                       f"{len(columns)} columns")
        for v in values:
            if not isinstance(v, (int, float)):
                fail(path, f"{where} holds non-numeric value {v!r}")
    print(f"ok {path}: {len(rows)} rows x {len(columns)} columns")
    return doc


def validate_timeline_csv(path, timeline_doc):
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            fail(path, "empty file")
        body = list(reader)
    if header[0] != "t_us":
        fail(path, f"first column is {header[0]!r}, expected 't_us'")
    for line in body:
        if len(line) != len(header):
            fail(path, f"row width {len(line)} != header {len(header)}")
        for cell in line:
            float(cell)  # raises (and fails the run) on non-numbers
    if timeline_doc is not None:
        if header[1:] != timeline_doc["columns"]:
            fail(path, "CSV columns disagree with the timeline JSON")
        if len(body) != len(timeline_doc["rows"]):
            fail(path, f"{len(body)} CSV rows vs "
                       f"{len(timeline_doc['rows'])} JSON rows")
    print(f"ok {path}: {len(body)} rows")


BENCH_KEYS = {"bench": str, "metric": str, "value": (int, float),
              "unit": str, "higherIsBetter": bool, "scale": (int, float),
              "gitRev": str, "config": dict, "metrics": dict}
CONFIG_KEYS = {"ssds": int, "shardPolicy": str, "pipeline": bool,
               "cacheEnabled": bool, "cacheBytes": int, "cachePolicy": str}


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_types(path, doc, keys, where):
    for key, kind in keys.items():
        v = doc.get(key)
        if v is None or not isinstance(v, kind) or \
                (kind is not bool and isinstance(v, bool)):
            fail(path, f"{where}{key!r} is {v!r}, expected {kind}")


def check_registry(path, node, where):
    """Every leaf of a MetricsRegistry JSON dump is a number."""
    if not isinstance(node, dict) or not node:
        fail(path, f"{where} is not a non-empty object")
    for key, v in node.items():
        if isinstance(v, dict):
            check_registry(path, v, f"{where}.{key}")
        elif not is_number(v):
            fail(path, f"{where}.{key} holds non-numeric value {v!r}")


def check_ledger(path, scope, where):
    """The outcome ledger of one serving scope closes."""
    got = {k: scope.get(k) for k in
           ("submitted", "completed", "rejected", "lost", "fallbacks")}
    fb = scope.get("fallback")
    if any(not isinstance(v, int) for v in got.values()) or \
            not isinstance(fb, dict):
        fail(path, f"{where} lacks a ledger counter: {got}")
    if got["submitted"] != got["completed"] + got["rejected"] + got["lost"]:
        fail(path, f"{where}: submitted {got['submitted']} != completed "
                   f"{got['completed']} + rejected {got['rejected']} + "
                   f"lost {got['lost']}")
    reasons = [fb.get(r) for r in ("breaker", "overload", "probe")]
    if any(not isinstance(v, int) for v in reasons) or \
            got["fallbacks"] != sum(reasons):
        fail(path, f"{where}: fallbacks {got['fallbacks']} != "
                   f"breaker + overload + probe {reasons}")


def validate_bench(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        fail(path, "top level is not an object")
    check_types(path, doc, BENCH_KEYS, "")
    check_types(path, doc["config"], CONFIG_KEYS, "config.")
    if doc["config"]["shardPolicy"] not in ("hash", "none") or \
            doc["config"]["cachePolicy"] not in ("lru", "none"):
        fail(path, f"config has an unknown policy: {doc['config']}")
    for name, m in doc["metrics"].items():
        if not isinstance(m, dict) or not is_number(m.get("value")) or \
                not isinstance(m.get("unit"), str):
            fail(path, f"metrics.{name} is not {{value, unit}}: {m!r}")
    runs = doc.get("runs", {})
    if not isinstance(runs, dict):
        fail(path, '"runs" is not an object')
    ledgers = 0
    for name, reg in runs.items():
        check_registry(path, reg, f"runs.{name}")
        serving = reg.get("serving")
        if not isinstance(serving, dict):
            continue
        check_ledger(path, serving, f"runs.{name}.serving")
        ledgers += 1
        for tid, tenant in serving.get("tenant", {}).items():
            check_ledger(path, tenant, f"runs.{name}.serving.tenant.{tid}")
            ledgers += 1
    print(f"ok {path}: {len(doc['metrics'])} metrics, {len(runs)} runs, "
          f"{ledgers} ledgers closed")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--chrome", action="append", default=[],
                    help="Chrome trace-event JSON to validate")
    ap.add_argument("--timeline", help="timeline JSON to validate")
    ap.add_argument("--csv", help="timeline CSV to validate")
    ap.add_argument("--bench", action="append", default=[],
                    help="BENCH_<name>.json to validate")
    args = ap.parse_args()
    if not (args.chrome or args.timeline or args.csv or args.bench):
        ap.error("nothing to validate")
    for path in args.bench:
        validate_bench(path)
    for path in args.chrome:
        validate_chrome(path)
    timeline_doc = None
    if args.timeline:
        timeline_doc = validate_timeline(args.timeline)
    if args.csv:
        validate_timeline_csv(args.csv, timeline_doc)


if __name__ == "__main__":
    main()
