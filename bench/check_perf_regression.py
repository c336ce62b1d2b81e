#!/usr/bin/env python3
"""Compare a fresh bench JSON against its committed baseline.

Machine portability is the whole design: CI runners differ in clock
speed, so absolute nanoseconds are never compared across machines.

* bench_sim_speed publishes scalar/optimized *ratios* measured within
  one run on one machine; those ratios transfer across hosts, so each
  kernel and end-to-end speedup must stay within --tolerance of the
  committed baseline ratio (and the bench's own acceptance bar must
  have passed).  An arm the run publishes and the baseline lacks
  fails too: it would otherwise go ungated until someone re-pins.

* bench_compile_time publishes absolute per-benchmark times.  Those
  are first normalized by the run's geometric mean, which cancels the
  host speed factor; a benchmark fails only if its share of the run
  grew by more than --tolerance relative to the baseline's share --
  i.e. it got slower relative to its peers, not the machine.

Exit status 0 when nothing regressed, 1 otherwise.  Repin a baseline
by copying the fresh JSON over bench/baselines/<name>.json.

Usage:
  check_perf_regression.py sim_speed     <current.json> <baseline.json>
  check_perf_regression.py compile_time  <current.json> <baseline.json>
"""

import argparse
import json
import math
import sys


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def check_sim_speed(cur, base, tol):
    failures = []
    if not cur.get("passed", False):
        failures.append("bench_sim_speed's own acceptance gate failed")

    def ratios(doc):
        out = {}
        for k in doc.get("kernels", []):
            out["kernel:" + k["kernel"]] = k["speedup"]
        for e in doc.get("e2e", []):
            out["e2e:" + e["name"]] = e["speedup"]
        return out

    cur_r, base_r = ratios(cur), ratios(base)
    for name, baseline in sorted(base_r.items()):
        if name not in cur_r:
            failures.append(f"{name}: missing from current run")
            continue
        current = cur_r[name]
        floor = baseline / (1.0 + tol)
        status = "ok" if current >= floor else "REGRESSED"
        print(f"  {name:28s} baseline {baseline:7.2f}x  "
              f"current {current:7.2f}x  floor {floor:6.2f}x  {status}")
        if current < floor:
            failures.append(
                f"{name}: speedup {current:.2f}x fell more than "
                f"{tol:.0%} below baseline {baseline:.2f}x")
    for name in sorted(cur_r.keys() - base_r.keys()):
        print(f"  {name:28s} current {cur_r[name]:7.2f}x  UNGATED")
        failures.append(
            f"{name}: not in the baseline, so nothing gates it; "
            f"re-pin the baseline to gate it")
    return failures


UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def compile_time_shares(doc):
    times = {}
    for b in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev) if present.
        if b.get("run_type") == "aggregate":
            continue
        # cpu_time is expressed in the benchmark's own time_unit.
        times[b["name"]] = (float(b["cpu_time"])
                            * UNIT_NS[b.get("time_unit", "ns")])
    if not times:
        return {}
    geomean = math.exp(sum(math.log(t) for t in times.values())
                       / len(times))
    return {name: t / geomean for name, t in times.items()}


def check_compile_time(cur, base, tol):
    failures = []
    cur_s, base_s = compile_time_shares(cur), compile_time_shares(base)
    if not cur_s:
        return ["current compile-time JSON has no benchmarks"]
    for name, baseline in sorted(base_s.items()):
        if name not in cur_s:
            failures.append(f"{name}: missing from current run")
            continue
        current = cur_s[name]
        ceiling = baseline * (1.0 + tol)
        status = "ok" if current <= ceiling else "REGRESSED"
        print(f"  {name:32s} baseline share {baseline:8.4f}  "
              f"current {current:8.4f}  ceiling {ceiling:8.4f}  {status}")
        if current > ceiling:
            failures.append(
                f"{name}: normalized time {current:.4f} grew more than "
                f"{tol:.0%} over baseline {baseline:.4f}")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("mode", choices=["sim_speed", "compile_time"])
    ap.add_argument("current")
    ap.add_argument("baseline")
    ap.add_argument("--tolerance", type=float, default=0.20,
                    help="allowed relative regression (default 0.20)")
    args = ap.parse_args()

    cur, base = load(args.current), load(args.baseline)
    print(f"== {args.mode}: {args.current} vs {args.baseline} "
          f"(tolerance {args.tolerance:.0%}) ==")
    if args.mode == "sim_speed":
        failures = check_sim_speed(cur, base, args.tolerance)
    else:
        failures = check_compile_time(cur, base, args.tolerance)

    if failures:
        print("\nPERF REGRESSION:")
        for f in failures:
            print("  - " + f)
        return 1
    print("no regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
