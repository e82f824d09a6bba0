#!/usr/bin/env python3
"""Run one workload k times and show how much each metric moves.

    python3 perfbench/repeat.py --workload NAME [-k 5] [--seed N]
        [--seconds S] [--trace 0|1]

Runs perfbench/run.py k times with one seed and prints every metric's
min, median and max, with the quartile spread as a share of the median,
then the same for the reference timings.  Fails (exit 1) if a run is not
correct, if the share of failed operations differs between runs, or if a
count metric differs between runs (words by more than one in a thousand).
Count metrics are all but the times (unit s) and peak_rss_mb.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(args):
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    ref = {}
    for line in lines[:-1]:
        ref.update(json.loads(line).get("reference", {}))
    return json.loads(lines[-1]), ref


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("-k", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    results = []
    for i in range(args.k):
        results.append(run_once(args))
        print("run %d done" % (i + 1), file=sys.stderr)

    ok = True
    shares = {r["failed"] / r["attempted"] for r, _ in results}
    if not all(r["correct"] for r, _ in results):
        print("FAIL: a run was not correct")
        ok = False
    if len(shares) > 1:
        print("FAIL: failed/attempted differs between runs: %s" % sorted(shares))
        ok = False

    print("%-44s %14s %14s %14s %8s" % ("metric", "min", "median", "max",
                                        "iqr/med"))
    for table, key in ((lambda r, ref: r["metrics"], "value"),
                       (lambda r, ref: ref, None)):
        names = sorted({n for r, ref in results for n in table(r, ref)})
        for name in names:
            vals = []
            for r, ref in results:
                v = table(r, ref).get(name)
                if v is not None:
                    vals.append(v[key] if key else v)
            if not vals:
                continue
            label = name if key else "ref:" + name
            print("%-44s %14.6g %14.6g %14.6g %8.4f" % (
                label, min(vals), statistics.median(vals), max(vals),
                spread(vals)))
            unit = results[0][0]["metrics"][name]["unit"] if key else "s"
            if unit == "s" or name == "peak_rss_mb" or len(set(vals)) < 2:
                continue
            # the seqd server's select loop takes more or fewer turns
            # depending on timing (up to 6 words in 10^4 seen); every other
            # count repeats to the word
            tol = 1e-3 * max(abs(v) for v in vals) if unit == "Mword" else 0
            if max(vals) - min(vals) > tol:
                print("FAIL: count metric %s differs between runs" % name)
                ok = False
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
