#!/usr/bin/env python3
"""Builds and runs the bdisk benchmark.

    python3 perfbench/run.py --workload ipp_heavy --seed 1 --seconds 30 --trace 0

Run from the root of a bdisk checkout. The first run configures and
builds the library, bdisk_serve and the bdbench harness (Release) into
.bench_build/; later runs rebuild only what changed. bdbench's stdout is
passed through; its last line is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 its per-layer metrics; a per-layer metric the
workload does not exercise is reported as 0 and named on a line above.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
RUN_DIR = os.path.join(BUILD_ROOT, "run")
BDBENCH_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_plan():
    with open(os.path.join(HERE, "plan.json")) as f:
        return json.load(f)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                   os.path.join("tools", "bdisk_serve.cc")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("bdisk sources not found (missing %s); run from a checkout"
                 % needed)
    with open(os.path.join(BUILD_ROOT, "build.log"), "a") as log:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=log, stderr=log, check=True)
        subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "bdbench",
                        "bdisk_serve", "-j", "4"],
                       stdout=log, stderr=log, check=True)


def run_bdbench(cmd):
    """Runs bdbench in its own process group, so that the bdisk_serve
    processes it launches cannot outlive it, even when it is killed."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=BDBENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        stop_group(proc)
    if stdout is None:
        fail("bdbench exceeded %d s" % BDBENCH_TIMEOUT_S)
    return stdout, proc.returncode


def stop_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    plan = load_plan()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(plan["workloads"]))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seed = (args.seed if args.seed is not None
            else plan["workloads"][args.workload]["default_seed"])
    benchmark = load_benchmark()

    os.makedirs(RUN_DIR, exist_ok=True)
    try:
        build()
    except subprocess.CalledProcessError:
        fail("build failed; see .bench_build/build.log")

    cmd = [os.path.join(BUILD_DIR, "bdbench"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-binary", os.path.join(BUILD_DIR, "bdisk", "tools",
                                          "bdisk_serve"),
           "--run-dir", RUN_DIR]
    stdout, returncode = run_bdbench(cmd)
    lines = stdout.rstrip("\n").split("\n")
    if returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("bdbench exited with %d" % returncode)
    result = json.loads(lines[-1])

    # Exactly the metrics BENCHMARK.json names for this kind of run.
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - {m["name"] for m in declared})
    if unknown:
        fail("bdbench reported undeclared metrics: " + ", ".join(unknown))
    absent = [m for m in declared if m["name"] not in metrics]
    if absent and not args.trace:
        fail("end-to-end metrics missing: "
             + ", ".join(m["name"] for m in absent))
    wrong_unit = sorted(m["name"] for m in declared if m["name"] in metrics
                        and metrics[m["name"]]["unit"] != m["unit"])
    if wrong_unit:
        fail("bdbench units differ from BENCHMARK.json: " + ", ".join(wrong_unit))
    for line in lines[:-1]:
        print(line)
    if absent:
        print("not exercised by %s (reported as 0): %s"
              % (args.workload, ", ".join(m["name"] for m in absent)))
    result["metrics"] = {
        m["name"]: metrics.get(m["name"], {"value": 0, "unit": m["unit"]})
        for m in declared}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
