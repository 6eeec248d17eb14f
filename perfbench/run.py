#!/usr/bin/env python3
"""Builds and runs the deltamon benchmark.

    python3 perfbench/run.py --workload oltp_commits --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root (or anywhere: paths resolve from this file).
The first call configures and builds the repository's libraries, deltamond
and the perfbench driver into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later calls only rebuild what changed. The last
line of standard output is the JSON result of the run.

--smoke runs every workload for one second, untraced and traced, with all
correctness checks on, and checks each result line against BENCHMARK.json;
it exits non-zero on any failure.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["oltp_commits", "bulk_wave", "recursive_reroute"]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def run_quiet(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    return proc.returncode, proc.stdout


def build():
    """Configures (once) and builds perfbench + deltamond; returns the build dir."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                   os.path.join("tools", "deltamond.cc")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"repository sources not found ({needed} missing under {ROOT})")
            sys.exit(2)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache):
        # A tree configured from another checkout path cannot be reused.
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(out)
    code, text = 0, ""
    if not os.path.exists(cache):
        code, text = run_quiet(["cmake", "-S", HERE, "-B", out,
                                "-DCMAKE_BUILD_TYPE=Release"])
    if code == 0:
        code, text = run_quiet(["cmake", "--build", out, "--target",
                                "perfbench", "deltamond", "-j", jobs])
    if code != 0:
        sys.stderr.write(text)
        log("build failed")
        sys.exit(1)
    return out


def binaries(out):
    perfbench = os.path.join(out, "perfbench")
    deltamond = os.path.join(out, "deltamon", "tools", "deltamond")
    for path in (perfbench, deltamond):
        if not os.access(path, os.X_OK):
            log(f"missing binary {path}")
            sys.exit(1)
    return perfbench, deltamond


def run_once(out, workload, seed, seconds, trace, echo=True):
    perfbench, deltamond = binaries(out)
    cmd = [perfbench, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--deltamond", deltamond]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=float(seconds) + 150)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish in time")
        return 1, ""
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return proc.returncode, proc.stdout


def declared_metrics():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layer, [w["name"] for w in spec["workloads"]]


def smoke(out):
    e2e, layer, declared = declared_metrics()
    ok = True
    if sorted(declared) != sorted(WORKLOADS):
        log(f"BENCHMARK.json workloads {declared} != {WORKLOADS}")
        ok = False
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, text = run_once(out, workload, 7, 1, trace, echo=False)
            lines = text.strip().splitlines()
            problems = []
            result = None
            if code != 0 or not lines:
                problems.append(f"exit code {code}")
            else:
                try:
                    result = json.loads(lines[-1])
                except json.JSONDecodeError:
                    problems.append("last line is not JSON")
            if result is not None:
                if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                    problems.append(f"result keys {sorted(result)}")
                if result.get("correct") is not True:
                    problems.append("outputs incorrect")
                if result.get("failed") != 0:
                    problems.append(f"{result.get('failed')} failed operations")
                if not result.get("attempted"):
                    problems.append("nothing attempted")
                want = layer if trace else e2e
                got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
                if got != want:
                    problems.append("metrics differ from BENCHMARK.json")
                if not trace:
                    zero = [k for k, v in result["metrics"].items()
                            if not v["value"] > 0]
                    if zero:
                        problems.append(f"non-positive metrics {zero}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"smoke {workload} trace={trace}: {status}")
            if problems:
                ok = False
                sys.stdout.write("".join(line + "\n" for line in lines[-40:]))
    print("smoke: " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload or --smoke is required")
    out = build()
    if args.smoke:
        return smoke(out)
    code, _ = run_once(out, args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
