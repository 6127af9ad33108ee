#!/usr/bin/env python3
"""FlexTOE repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload echo_64 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

Builds perfbench/flexbench.exe and calib.exe (the host-speed
reference loop) with dune; the first build compiles the library and
takes a minute or two. Then runs the workload in a fresh process so
that heap and GC figures are its own. The process prints a
human-readable report and, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 gives the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run (spans are written to .perfbench/). The exit code is 0
when every check passed, 1 when a check failed (the JSON is still
printed), and 2 or 3 when the benchmark could not run at all (no build,
crash, timeout), in which case no result is printed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["echo_64", "stream_64k", "flows_1k_open"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "flexbench.exe")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def die(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        die(2, "no dune-project and lib/ at %s: the benchmark needs the "
               "repository's sources to build" % ROOT)
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "--cache=disabled",
             "./perfbench/flexbench.exe", "./perfbench/calib.exe"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        die(2, "dune not found on PATH")
    except subprocess.TimeoutExpired:
        die(3, "build timed out")
    if r.returncode != 0 or not os.path.isfile(EXE):
        die(2, "build failed")


def run_one(workload, seed, seconds, trace):
    """Run one workload in its own process; return (exit code, result)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", os.path.join(ROOT, ".perfbench")]
    # Its own session, so a timeout can stop the forked world processes
    # along with it.
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=sys.stderr, text=True,
                         start_new_session=True)
    try:
        stdout, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        die(3, "%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stderr.write(stdout)
        die(2, "%s exited %d without a result line" % (workload, p.returncode))
    if p.returncode not in (0, 1):
        sys.stderr.write(stdout)
        die(2, "%s exited %d" % (workload, p.returncode))
    print("\n".join(lines[:-1]))
    return p.returncode, result, lines[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    build()
    if args.workload != "all":
        code, _, line = run_one(args.workload, args.seed, args.seconds,
                                args.trace)
        print(line)
        sys.exit(code)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        code, result, _ = run_one(w, args.seed, args.seconds, args.trace)
        worst = max(worst, code)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][w + "." + k] = v
    print(json.dumps(combined))
    sys.exit(worst)


if __name__ == "__main__":
    main()
