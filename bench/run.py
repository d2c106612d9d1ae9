"""Benchmark of seqcm: time to a certified answer, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload corpus-verify --seed 7 --seconds 40 --trace 0

A closed loop with one client: the items of a workload run one after
another in one single-threaded process, and each run of the item list is a
fresh interpreter (``bench/child.py``) with ``SEQCM_CACHE_DIR`` removed and
a fresh work directory, so neither the in-process gin memo nor the disk
cache carries results from one run into the next.  Runs repeat until
``--seconds`` is used up; the metrics are medians over them.

Every time is scaled to a reference host speed: each child process times
a fixed pure-Python loop after its set-up and after its items, and its
times are multiplied by ``hostspeed.REFERENCE_S`` over that loop time, so
a shared host's fast and slow phases cancel out (``bench/hostspeed.py``).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace
1`` alternates untraced and traced runs and reports the per-layer metrics
of the traced ones, plus ``trace_overhead_s``.  Each item's stdout must be
the same in every run, traced or not, and at seed 7 equal to the digest
recorded in ``bench/digests.json``; every item also passes the second-route
checks of ``bench/workloads.py``.  The last line of stdout is one JSON
object; the exit code is nonzero when any item failed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work")
DIGESTS = os.path.join(BENCH, "digests.json")
DIGEST_SEED = 7       # the ROADMAP's reference seed; stdout digests are kept for it
SETUPS = 9            # set-ups measured per run; the median is setup_s
MIN_RUNS = 3
CHILD_TIMEOUT = 120
P50_MIN_ITEMS = 20    # a percentile needs ten samples beyond it
P90_MIN_ITEMS = 100


class ChildError(RuntimeError):
    pass


def spawn(workload, seed, trace=False, setup_only=False, limit=None):
    """Run child.py once in a fresh interpreter and return its JSON result."""
    work = os.path.join(WORK, workload)
    shutil.rmtree(work, ignore_errors=True)
    env = dict(os.environ)
    env.pop("SEQCM_CACHE_DIR", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = str(seed % (1 << 32))
    options = ["--trace"] * trace + ["--setup-only"] * setup_only
    if limit is not None:
        options += ["--limit", str(limit)]
    argv = [sys.executable, os.path.join(BENCH, "child.py"), workload,
            str(seed), work, repr(time.monotonic())] + options
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise ChildError("%s run exceeded %d s" % (workload, CHILD_TIMEOUT))
    if proc.returncode != 0:
        raise ChildError("%s run exited %d:\n%s"
                         % (workload, proc.returncode, proc.stderr[-4000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spans = os.path.join(work, "spans.jsonl")
    if os.path.exists(spans):
        os.replace(spans, os.path.join(WORK, "spans-%s.jsonl" % workload))
    shutil.rmtree(work, ignore_errors=True)
    return result


def git_revision():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record():
    return {"git_revision": git_revision(),
            "python": sys.version.split()[0],
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "loadavg": list(os.getloadavg()),
            "calibration_s": hostspeed.calibration_s()}


def measure(workload, seed, seconds, trace):
    """Set-ups plus as many runs as fit in the time; when tracing, runs
    alternate untraced and traced and there are no separate set-ups."""
    setups = [spawn(workload, seed, setup_only=True)
              for _ in range(0 if trace else SETUPS)]
    runs = []
    start = time.monotonic()
    while True:
        traced = trace and len(runs) % 2 == 1
        runs.append((traced, spawn(workload, seed, trace=traced)))
        elapsed = time.monotonic() - start
        if len(runs) >= MIN_RUNS and elapsed * (len(runs) + 1) / len(runs) > seconds:
            return setups, runs


def failures(workload, seed, runs):
    """(attempted, list of (item id, reason)) over every run."""
    expected = None
    if seed == DIGEST_SEED:
        with open(DIGESTS) as fh:
            expected = json.load(fh)["workloads"].get(workload, {})
    first = {item["id"]: item["digest"] for item in runs[0][1]["items"]}
    attempted, failed = 0, []
    for traced, result in runs:
        for item in result["items"]:
            attempted += 1
            if item["failure"]:
                failed.append((item["id"], item["failure"]))
            elif item["digest"] != first[item["id"]]:
                failed.append((item["id"], "stdout differs between runs%s"
                               % (" (traced)" if traced else "")))
            elif expected is not None and item["digest"] != expected.get(item["id"]):
                failed.append((item["id"], "stdout differs from the digest "
                               "recorded for seed %d" % DIGEST_SEED))
    traced_counts = [r["counts"] for t, r in runs if t]
    if any(c != traced_counts[0] for c in traced_counts):
        failed.append(("trace", "exact counts differ between traced runs"))
    return attempted, failed


def scaled(result, key):
    """A time of one child's result, scaled to the reference host by the
    loop times of that same process (see ``hostspeed``)."""
    return result[key] * hostspeed.scale(result["calibration_s"])


def end_to_end(setups, runs):
    """(metrics, summary extras) of the untraced runs; the summary keeps the
    raw medians beside the scaled ones."""
    results = [r for _, r in runs]
    latencies = [item["s"] * hostspeed.scale(r["calibration_s"])
                 for r in results for item in r["items"]]
    if len(latencies) < P50_MIN_ITEMS:
        raise ChildError("only %d items; item_p50_s needs %d"
                         % (len(latencies), P50_MIN_ITEMS))
    out = {"setup_s": statistics.median(scaled(s, "setup_s") for s in setups),
           "run_s": statistics.median(scaled(r, "run_s") for r in results),
           "item_p50_s": statistics.median(latencies),
           "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results)}
    raw = {"setup_s": statistics.median(s["setup_s"] for s in setups),
           "run_s": statistics.median(r["run_s"] for r in results),
           "item_p50_s": statistics.median(item["s"] for r in results
                                           for item in r["items"]),
           "host_scale": statistics.median(hostspeed.scale(r["calibration_s"])
                                           for r in results)}
    extra = {"runs": len(runs), "items": len(latencies), "raw": raw}
    if len(latencies) >= P90_MIN_ITEMS:
        extra["item_p90_s"] = statistics.quantiles(latencies, n=10,
                                                   method="inclusive")[8]
    return out, extra


def per_layer(runs):
    """Per-layer numbers of the traced runs; times scaled as in end_to_end."""
    traced = [r for t, r in runs if t]
    plain = [r for t, r in runs if not t]
    out = {}
    for key in traced[0]["layers"]:
        values = [r["layers"][key] * (hostspeed.scale(r["calibration_s"])
                                      if key.endswith("_s") else 1)
                  for r in traced]
        out[key] = (values[0] if isinstance(values[0], int)
                    else statistics.median(values))
    out["trace_overhead_s"] = (
        statistics.median(scaled(r, "run_s") for r in traced)
        - statistics.median(scaled(r, "run_s") for r in plain))
    return out


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DIGEST_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "seqcm", "cli.py")):
        sys.exit("no seqcm sources under %s" % os.path.join(ROOT, "src"))

    record = host_record()
    try:
        setups, runs = measure(args.workload, args.seed, args.seconds,
                               bool(args.trace))
        if args.trace:
            values, metrics = per_layer(runs), spec["per_layer"]
            extra = {"runs": len(runs), "layers": values,
                     "absent": runs[1][1]["absent"]}
        else:
            (values, extra), metrics = end_to_end(setups, runs), spec["end_to_end"]
    except ChildError as exc:
        sys.exit("benchmark run failed: %s" % exc)
    attempted, failed = failures(args.workload, args.seed, runs)
    record["calibration_end_s"] = hostspeed.calibration_s()
    record["loadavg_end"] = list(os.getloadavg())

    summary = {"workload": args.workload, "seed": args.seed,
               "attempted": attempted, "failed_share": len(failed) / attempted,
               "record": record}
    summary.update(extra)
    for item_id, reason in failed:
        print("FAILED %s: %s" % (item_id, reason.splitlines()[0]))
    print("summary " + json.dumps(summary, sort_keys=True))
    out = {}
    for m in metrics:
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("%-48s %14.6g %s" % (m["name"], values[m["name"]], m["unit"]))
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": out}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
