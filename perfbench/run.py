#!/usr/bin/env python3
"""Build the benchmark's measuring program and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is built from source with dune into the checkout's _build.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: with --trace 0 the end-to-end
metrics of BENCHMARK.json, with --trace 1 its per-layer metrics (a layer
the workload does not use reads 0).  The lines before it hold the
reference timings.  Exits non-zero, printing no result, when the program
cannot be built or run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if shutil.which("dune"):
        cmd = ["dune", "build", "--root", ".", "./perfbench/main.exe"]
    elif shutil.which("opam"):
        cmd = ["opam", "exec", "--", "dune", "build", "--root", ".",
               "./perfbench/main.exe"]
    else:
        fail("dune is not installed")
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def no_aslr():
    """The prefix that starts the measuring program without address-space
    layout randomisation, or nothing where that is not possible.  The
    random layout moves the heap's pages from process to process: eight
    fuzz runs read a peak RSS of 21.0, 22.3 or 22.5 MiB with it, and
    22.06-22.11 MiB without.  It acts on the measuring process only."""
    if shutil.which("setarch"):
        probe = subprocess.run(["setarch", "-R", "true"],
                               stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL)
        if probe.returncode == 0:
            return ["setarch", "-R"]
    return []


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %s" % args.workload)
    if not os.path.isfile(os.path.join("perfbench", "dune")):
        fail("run from the root of the checkout")
    build()

    proc = subprocess.run(
        no_aslr() + [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", args.trace],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("measuring program failed (exit %d)" % proc.returncode)
    result = json.loads(lines[-1])
    got = result["metrics"]

    wanted = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]
    names = [m["name"] for m in wanted]
    for extra in sorted(set(got) - set(names)):
        print("perfbench: metric %s is not in BENCHMARK.json" % extra,
              file=sys.stderr)
    metrics = {}
    for m in wanted:
        if m["name"] in got:
            metrics[m["name"]] = got[m["name"]]
        elif args.trace == "1":
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            fail("metric %s missing" % m["name"])

    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
