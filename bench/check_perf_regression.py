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

* bench_compile_time publishes absolute per-benchmark times.  The
  gate reads the `median` aggregate rows of runs made with
  --benchmark_repetitions=5 --benchmark_report_aggregates_only=true,
  by their wall-clock real_time (threaded arms run off the calling
  thread, so its cpu_time misses their work).  Given several current
  runs (separate processes), each arm's time is the median of its
  per-run medians: a whole process can land on a busy core, which
  no repetition inside it averages out.  The times are then
  normalized by their geometric mean, which cancels the host speed
  factor; a benchmark fails only if its share grew by more than
  --tolerance relative to the baseline's share -- i.e. it got slower
  relative to its peers, not the machine.  As for sim_speed, an arm
  the baseline lacks fails.

Exit status 0 when nothing regressed, 1 otherwise.  Repin the
sim_speed baseline by copying a fresh JSON over
bench/baselines/BENCH_sim_speed.json; repin the compile_time one with
pin_compile_time, which writes the per-arm median over the given runs.

Usage:
  check_perf_regression.py sim_speed     <current.json> <baseline.json>
  check_perf_regression.py compile_time  <current.json>... <baseline.json>
  check_perf_regression.py pin_compile_time <baseline.json> <run.json>...
"""

import argparse
import copy
import json
import math
import statistics
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


def median_rows(doc):
    return [b for b in doc.get("benchmarks", [])
            if b.get("run_type") == "aggregate"
            and b.get("aggregate_name") == "median"]


def compile_time_ns(docs):
    """Each arm's real time (ns): the median over @docs of its median
    row."""
    samples = {}
    for doc in docs:
        for b in median_rows(doc):
            # real_time is expressed in the benchmark's own time_unit.
            samples.setdefault(b["run_name"], []).append(
                float(b["real_time"]) * UNIT_NS[b.get("time_unit", "ns")])
    return {name: statistics.median(v) for name, v in samples.items()}


def compile_time_shares(docs):
    times = compile_time_ns(docs)
    if not times:
        return {}
    geomean = math.exp(sum(math.log(t) for t in times.values())
                       / len(times))
    return {name: t / geomean for name, t in times.items()}


def pin_compile_time(runs):
    """A baseline from several runs: the first run's context and median
    rows, each row's real_time replaced by the arm's median over the
    runs."""
    times = compile_time_ns(runs)
    out = copy.deepcopy(runs[0])
    out["context"]["pinned_from_runs"] = len(runs)
    out["benchmarks"] = median_rows(out)
    for b in out["benchmarks"]:
        b["real_time"] = (times[b["run_name"]]
                          / UNIT_NS[b.get("time_unit", "ns")])
    return out


def check_compile_time(cur_runs, base, tol):
    failures = []
    cur_s = compile_time_shares(cur_runs)
    base_s = compile_time_shares([base])
    if not cur_s:
        return ["current compile-time JSON has no median rows "
                "(run with --benchmark_repetitions)"]
    if not base_s:
        return ["baseline compile-time JSON has no median rows"]
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
    for name in sorted(cur_s.keys() - base_s.keys()):
        print(f"  {name:32s} current {cur_s[name]:8.4f}  UNGATED")
        failures.append(
            f"{name}: not in the baseline, so nothing gates it; "
            f"re-pin the baseline to gate it")
    return failures


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode",
                    choices=["sim_speed", "compile_time",
                             "pin_compile_time"])
    ap.add_argument("files", nargs="+")
    ap.add_argument("--tolerance", type=float, default=0.20,
                    help="allowed relative regression (default 0.20)")
    args = ap.parse_args()
    if len(args.files) < 2 or (args.mode == "sim_speed"
                               and len(args.files) != 2):
        ap.error("wrong number of files for " + args.mode)

    if args.mode == "pin_compile_time":
        out, runs = args.files[0], [load(f) for f in args.files[1:]]
        with open(out, "w", encoding="utf-8") as f:
            json.dump(pin_compile_time(runs), f, indent=2)
            f.write("\n")
        print(f"pinned {out} from {len(runs)} runs")
        return 0

    current, baseline = args.files[:-1], args.files[-1]
    base = load(baseline)
    print(f"== {args.mode}: {' '.join(current)} vs {baseline} "
          f"(tolerance {args.tolerance:.0%}) ==")
    if args.mode == "sim_speed":
        failures = check_sim_speed(load(current[0]), base,
                                   args.tolerance)
    else:
        failures = check_compile_time([load(f) for f in current], base,
                                      args.tolerance)

    if failures:
        print("\nPERF REGRESSION:")
        for f in failures:
            print("  - " + f)
        return 1
    print("no regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
