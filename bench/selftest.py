"""Self-test of the benchmark's exact counts and of trace transparency.

    python3 bench/selftest.py

For each workload, runs the first few items twice with tracing on and once
with tracing off, each in a fresh interpreter, and fails unless every
exact count repeats and every item's stdout is byte-identical across the
three runs.  Later changes may cite a count only while this passes.
"""

import json
import os
import sys

import run

ITEMS = 6


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    problems = []
    for name in names:
        first = run.spawn(name, run.DIGEST_SEED, trace=True, limit=ITEMS)
        second = run.spawn(name, run.DIGEST_SEED, trace=True, limit=ITEMS)
        plain = run.spawn(name, run.DIGEST_SEED, limit=ITEMS)
        if first["counts"] != second["counts"]:
            problems.append("%s: counts differ between traced runs" % name)
        if not any(first["counts"].values()):
            problems.append("%s: traced run counted nothing" % name)
        for a, b, c in zip(first["items"], second["items"], plain["items"]):
            if a["failure"] or not a["digest"] == b["digest"] == c["digest"]:
                problems.append("%s: %s stdout differs or failed" % (name, a["id"]))
        print("%-14s %d items, %d counts repeat exactly"
              % (name, len(plain["items"]), len(first["counts"])))
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
