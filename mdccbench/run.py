#!/usr/bin/env python3
"""Build and run the MDCC benchmark.

    python3 mdccbench/run.py --workload wire-read --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Builds mdccbench/bin/main.exe with dune,
runs it, passes its notes through, and prints as the last line one JSON
object with "correct", "attempted", "failed" and "metrics": every
end-to-end metric of BENCHMARK.json with --trace 0, every per-layer metric
with --trace 1 (a per-layer metric of a layer the workload does not
exercise reads 0).  Exit status: 0 when every output check passed, 1 when
one failed, 2 when the benchmark could not run at all (no result line).
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "mdccbench", "bin", "main.exe")
WORKLOADS = ["wire-read", "wire-write", "sim-tpcw", "chaos-sweep"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("mdccbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")) or not os.path.isdir(
        os.path.join(ROOT, "lib", "wire")
    ):
        fail("no MDCC sources (dune-project, lib/) next to the benchmark")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet", "--cache", "disabled",
         "mdccbench/bin/main.exe"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stdout)
        fail("build failed")


def select(spec, trace, produced):
    """The metrics object of the result line, in BENCHMARK.json order."""
    out = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        name, unit = m["name"], m["unit"]
        got = produced.get(name)
        if got is None:
            if not trace:
                fail("end-to-end metric %s was not measured" % name)
            got = {"value": 0.0, "unit": unit}
        if got["unit"] != unit:
            fail("metric %s measured in %s, declared in %s" % (name, got["unit"], unit))
        value = got["value"]
        if value is None or not math.isfinite(value):
            fail("metric %s is not a finite number" % name)
        out[name] = {"value": value, "unit": unit}
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        fail("benchmark exited with status %d" % proc.returncode)
    if args.workload == "all":
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode)
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("no result line")
    for line in lines[:-1]:
        print(line)
    result = {
        "correct": bool(raw["correct"]) and proc.returncode == 0,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": select(spec, args.trace == 1, raw["metrics"]),
    }
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
