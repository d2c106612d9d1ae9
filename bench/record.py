"""Record the benchmark's reference data.

    python3 bench/record.py digests
        Re-record ``bench/digests.json``: the sha256 of every item's stdout
        at seed 7.  Run it only on a commit whose stdout is the reference.

    python3 bench/record.py baseline [--seeds 10]
        Run the benchmark command ``bench/run.py`` once per seed (1..N) on
        each workload with tracing off, then once at seed 7 with tracing
        on, and write the medians, quartiles and spreads of every
        end-to-end metric, the per-layer numbers and the host records to
        ``bench/BENCH_baseline.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import run

BASELINE = os.path.join(run.BENCH, "BENCH_baseline.json")


def record_digests():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    out = {}
    for name in names:
        result = run.spawn(name, run.DIGEST_SEED)
        failed = [i["id"] for i in result["items"] if i["failure"]]
        if failed:
            sys.exit("%s: items failed, digests not recorded: %s" % (name, failed))
        out[name] = {i["id"]: i["digest"] for i in result["items"]}
    with open(run.DIGESTS, "w") as fh:
        json.dump({"seed": run.DIGEST_SEED, "workloads": out}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        sys.exit("%s seed %d failed:\n%s%s" % (workload, seed, proc.stdout, proc.stderr))
    summary = next(json.loads(l[8:]) for l in lines if l.startswith("summary "))
    return json.loads(lines[-1]), summary


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def record_baseline(seeds):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"revision": run.git_revision(), "run_seconds": spec["run_seconds"],
           "workloads": {}}
    for name in [w["name"] for w in spec["workloads"]]:
        results, summaries = [], []
        for seed in range(1, seeds + 1):
            result, summary = bench(name, seed, 0)
            results.append(result)
            summaries.append(summary)
            print(name, seed, {k: round(v["value"], 4)
                               for k, v in result["metrics"].items()}, flush=True)
        entry = {"end_to_end": {}, "seeds": list(range(1, seeds + 1))}
        for metric in bounds:
            q = quartiles([r["metrics"][metric]["value"] for r in results])
            q["bound"] = bounds[metric]
            entry["end_to_end"][metric] = q
            print("  %-12s median %.5g spread %.3f (bound %.2f)"
                  % (metric, q["median"], q["spread"], q["bound"]), flush=True)
        p90 = [s["item_p90_s"] for s in summaries if "item_p90_s" in s]
        if len(p90) == len(summaries):
            entry["item_p90_s"] = quartiles(p90)
        entry["failed_share"] = max(s["failed_share"] for s in summaries)
        entry["items_per_run"] = [s["items"] for s in summaries]
        entry["raw"] = {key: quartiles([s["raw"][key] for s in summaries])
                        for key in summaries[0]["raw"]}
        entry["records"] = [s["record"] for s in summaries]
        result, summary = bench(name, run.DIGEST_SEED, 1)
        entry["per_layer"] = summary["layers"]
        entry["absent"] = summary["absent"]
        entry["traced_record"] = summary["record"]
        out["workloads"][name] = entry
        with open(BASELINE, "w") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("what", choices=("digests", "baseline"))
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    if args.what == "digests":
        record_digests()
    else:
        record_baseline(args.seeds)


if __name__ == "__main__":
    main()
