"""One run of one workload, in a fresh interpreter started by ``run.py``.

Usage: child.py WORKLOAD SEED WORK_DIR SPAWNED_AT [--trace] [--setup-only]
[--limit N]

SPAWNED_AT is the parent's ``time.monotonic()`` just before it started this
process, so set-up time covers interpreter start, ``import seqcm``, input
generation and writing the files.  The host-speed loop of ``hostspeed`` is
timed right after set-up and right after the items.  Prints one JSON object
on stdout.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_item(spec, seqcm):
    """(stdout, failure text or None) of one item."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if isinstance(spec, tuple):
                _, path, seed = spec
                with open(path) as fh:
                    data = json.load(fh)
                ideal = seqcm.groebner.PolynomialIdeal.from_strings(
                    int(data["n"]), data["generators"])
                result = seqcm.groebner.saturation(ideal, seed)
                print(json.dumps(result.to_json(), sort_keys=True,
                                 separators=(",", ":")))
                code = 0
            else:
                code = seqcm.cli.main(spec)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        return out.getvalue(), "traceback:\n" + traceback.format_exc()
    if code != 0:
        return out.getvalue(), "exit %s: %s" % (code, err.getvalue().strip())
    return out.getvalue(), None


def main(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("work")
    parser.add_argument("spawned", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--limit", type=int, default=None,
                        help="run only the first N items (checks stay valid: "
                             "each reads only its own and earlier items)")
    args = parser.parse_args(argv)

    import seqcm
    import seqcm.cli
    src = os.path.join(ROOT, "src", "seqcm")
    if os.path.dirname(os.path.abspath(seqcm.__file__)) != src:
        sys.exit("seqcm was imported from %s, not from %s" % (seqcm.__file__, src))
    import hostspeed
    import workloads
    plan = workloads.build(args.workload, args.seed, args.work,
                           os.path.join(ROOT, "corpus"))
    plan.write()
    if args.limit is not None:
        kept = plan.items[:args.limit]
        ids = {item_id for item_id, _ in kept}
        plan.items = kept
        plan.checks = [(i, c) for i, c in plan.checks if i in ids]

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    first = time.monotonic()
    result = {"setup_s": first - args.spawned}
    # Host speed, timed after set-up so it is not part of setup_s.
    calibration = [hostspeed.calibration_s()]
    if args.setup_only:
        result["calibration_s"] = calibration
        print(json.dumps(result))
        return

    outputs, items = {}, []
    start = time.perf_counter()
    for item_id, spec in plan.items:
        if tracer is not None:
            tracer.item = item_id
        t0 = time.perf_counter()
        stdout, failure = run_item(spec, seqcm)
        items.append({"id": item_id, "s": time.perf_counter() - t0,
                      "digest": hashlib.sha256(stdout.encode()).hexdigest(),
                      "failure": failure})
        outputs[item_id] = stdout
    run_s = time.perf_counter() - start
    calibration.append(hostspeed.calibration_s())
    if tracer is not None:
        tracer.item = None

    by_id = {item["id"]: item for item in items}
    for item_id, check in plan.checks:
        if by_id[item_id]["failure"] is None:
            try:
                failure = check(outputs)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                failure = "output check could not read the output: %r" % exc
            by_id[item_id]["failure"] = failure

    result.update(run_s=run_s, items=items, calibration_s=calibration,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        tracer.write_spans(os.path.join(args.work, "spans.jsonl"))
        result.update(layers=tracer.layer_metrics(run_s),
                      counts=tracer.exact_counts(), absent=tracer.absent)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
