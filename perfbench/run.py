#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Builds the qzz library, the compile_server daemon and the perfbench
binary from this checkout's sources (CMake, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), copies
calib/ into a per-run pulse cache, runs one workload and prints the
binary's output; its last line is the result object.  Exits non-zero,
printing no result, when the build, the run or a guard fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold", "warm", "tiered_mixed", "fidelity")
# perfbench must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configure once, then bring the two binaries up to date."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", str(out), "-j", "4",
           "--target", "perfbench", "compile_server"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return out


def source_stamp():
    """A digest of the measured sources, after the git commit when the
    checkout is a repository."""
    head = ""
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha1()
    paths = [ROOT / "CMakeLists.txt", ROOT / "examples" / "compile_server.cpp"]
    for tree in (ROOT / "src", HERE):
        paths += sorted(p for p in tree.rglob("*") if p.is_file())
    for path in paths:
        if path.exists():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    stamp = "tree-sha1:" + digest.hexdigest()
    return f"{head}+{stamp}" if head else stamp


def pulse_cache(work):
    """A per-run copy of calib/, so every run loads the same committed
    calibration and nothing a run writes outlives it."""
    calib = ROOT / "calib"
    files = sorted(calib.glob("*.txt")) if calib.is_dir() else []
    if not files:
        log(f"no pulse calibration under {calib}")
        return None
    cache = work / "pulse_cache"
    cache.mkdir(parents=True)
    for f in files:
        shutil.copy2(f, cache / f.name)
    return cache


def declared_metrics(trace):
    spec = ROOT / "BENCHMARK.json"
    if not spec.exists():
        return None
    doc = json.loads(spec.read_text())
    return {m["name"] for m in doc["per_layer" if trace else "end_to_end"]}


def run(args):
    out = build()
    if out is None:
        log("build failed")
        return 1
    work = out / "run" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cache = pulse_cache(work)
    if cache is None:
        return 1
    before = set(os.listdir(cache))

    env = dict(os.environ)
    env["QZZ_PULSE_CACHE"] = str(cache)
    env["PERFBENCH_COMMIT"] = source_stamp()
    cmd = [str(out / "perfbench"), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--daemon", str(out / "compile_server")]
    proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        # perfbench stops its daemons; this catches any it could not.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        log(f"perfbench exited with {proc.returncode}")
        return 1

    added = set(os.listdir(cache)) - before
    if added:
        log("a pulse calibration was re-optimized during the run "
            f"({sorted(added)}); calib/ does not cover the workload")
        return 1
    lines = stdout.strip().splitlines()
    if not lines:
        log("perfbench printed no result")
        return 1
    result = json.loads(lines[-1])
    declared = declared_metrics(args.trace)
    if declared is not None and set(result["metrics"]) != declared:
        log("metrics differ from BENCHMARK.json: "
            f"{sorted(set(result['metrics']) ^ declared)}")
        return 1
    if args.workload == "fidelity" and not same_fidelities(out, args.seed,
                                                           lines):
        result["correct"] = False
        result["failed"] += 1
        lines[-1] = json.dumps(result)
    print("\n".join(lines), flush=True)
    return 0


def same_fidelities(out, seed, lines):
    """Fidelities must be bit-identical across runs of one build: keep
    each seed's digest beside the build and compare later runs."""
    digest = None
    for line in lines[:-1]:
        try:
            digest = json.loads(line)["detail"]["fidelity_digest"]
        except (ValueError, KeyError, TypeError):
            continue
    if digest is None:
        log("fidelity run printed no fidelity digest")
        return False
    store = out / "fidelity_digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    binary = out / "perfbench"
    key = f"{binary.stat().st_mtime_ns}:{seed}"
    if key in known and known[key] != digest:
        log(f"fidelities differ from an earlier run of this build (seed {seed})")
        return False
    known[key] = digest
    store.write_text(json.dumps(known))
    return True


def selftest():
    out = build()
    if out is None:
        log("build failed")
        return 1
    return subprocess.run([str(out / "perfbench"), "selftest"]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check the quantile helper and the request "
                             "streams' determinism, then exit")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
