"""Command line front end.

JSON on stdout, diagnostics on stderr.  Identical inputs and seeds give
byte-identical stdout: objects are serialized with sorted keys and fixed
separators.  Math-level "no" verdicts (not sequentially CM, tables differ)
still exit 0; nonzero exits are reserved for usage errors (2), capacity or
certification limits (3), and internal cross-check failures (4), each read
off the error class (see `errors`).  Each command returns its payload and
its tsv text, None for a command with no tsv form; `main` alone writes.
"""

import argparse
import functools
import json
import os
import re
import secrets
import sys

from .decide import (
    checked_window,
    is_sequentially_cm,
    main_theorem_check,
    theorem41_check,
)
from .errors import InconsistencyError, ParseError, SeqcmError
from .groebner import GinCache, PolynomialIdeal, gin, initial_ideal
from .monomial import (
    default_cohomology_window,
    hilbert_function,
    local_cohomology_strongly_stable,
)
from .oracles import cech_local_cohomology, koszul_betti
from .rings import MAX_DIGITS
from .simplicial import (
    SimplicialComplex,
    alexander_dual,
    complex_of,
    hochster_betti,
    local_cohomology_face_ring,
    shifted_complex,
    stanley_reisner_ideal,
)
from .version import __version__

def _load_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError("cannot read: %s" % (exc.strerror or exc))
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON: %s" % exc.msg, exc.lineno, exc.colno)
    except ValueError as exc:
        # bytes that are not UTF-8, or an integer past int()'s digit limit
        raise ParseError("invalid JSON: %s" % exc)


def _sniff(data):
    if not isinstance(data, dict) or "n" not in data:
        raise ParseError("expected an object with an \"n\" key")
    if "generators" in data and "facets" in data:
        raise ParseError("both \"generators\" and \"facets\"; an input is an "
                         "ideal or a complex, not both")
    if "generators" in data:
        return "ideal"
    if "facets" in data:
        return "complex"
    raise ParseError("need \"generators\" or \"facets\"")


def _load(path, kind=None):
    """The ideal or complex in the JSON at path ("-" is stdin), read once;
    kind, "ideal" or "complex", is the only kind accepted when given.  Every
    parse error names the path, and keeps its line and column."""
    try:
        data = _load_json(path)
        found = _sniff(data)
        if kind is not None and found != kind:
            raise ParseError("expected %s file"
                             % ("an ideal" if kind == "ideal" else "a complex"))
        if found == "complex":
            return SimplicialComplex.from_json(data)
        return PolynomialIdeal.from_json(data)
    except ParseError as exc:
        raise ParseError("%s: %s" % (path, exc.message),
                         exc.line, exc.column) from None


# Each bound is ASCII digits, at most MAX_DIGITS of them, as in polynomial text.
_WINDOW = re.compile(r"(-?[0-9]{1,%d})\.\.(-?[0-9]{1,%d})"
                     % (MAX_DIGITS, MAX_DIGITS))


def _parse_window(text):
    match = _WINDOW.fullmatch(text)
    if match is None:
        raise ParseError("window must look like -8..4, got %r" % text)
    lo, hi = int(match[1]), int(match[2])
    if lo > hi:
        raise ParseError("window %r is empty: %d > %d" % (text, lo, hi))
    return checked_window(lo, hi, "window width")


def _resolve_seed(args):
    if args.seed is not None:
        return args.seed
    seed = secrets.randbits(32)
    print("seed %d (chosen from entropy; pass --seed to reproduce)" % seed,
          file=sys.stderr)
    return seed


def _cmd_gin(args):
    poly = _load(args.input, "ideal")
    seed = _resolve_seed(args)
    result = gin(poly, seed, cache=GinCache(
        args.cache_dir or os.environ.get("SEQCM_CACHE_DIR")))
    payload = {"command": "gin", "seed": seed,
               "input": poly.to_json(), "gin": result.to_json()}
    tsv = "".join(str(g) + "\n" for g in result.gens)
    return payload, tsv


def _cmd_hilbert(args):
    poly = _load(args.input, "ideal")
    window = _parse_window(args.window) if args.window else (0, 10)
    # R/I and R/in(I) have the same Hilbert function.
    hf = hilbert_function(poly.as_monomial_ideal() if poly.is_monomial()
                          else initial_ideal(poly), window)
    payload = {"command": "hilbert", "window": list(window),
               "hilbert": hf.to_json()}
    tsv = "".join("%d\t%d\n" % (d, hf.values.get(d, 0))
                  for d in range(window[0], window[1] + 1))
    return payload, tsv


def _cmd_betti(args):
    poly = _load(args.input, "ideal")
    monomial = poly.as_monomial_ideal() if poly.is_monomial() else None
    # Only the Koszul route takes a degree bound, so a given one selects it.
    if (args.oracle or args.bound is not None or monomial is None
            or not monomial.is_squarefree()):
        route = "koszul"
        table = koszul_betti(monomial if monomial is not None else poly,
                             args.bound)
    else:
        route = "hochster"
        table = hochster_betti(complex_of(monomial))
    payload = {"command": "betti", "route": route, "betti": table.to_json()}
    return payload, table.to_tsv()


def _cmd_localcoh(args):
    obj = _load(args.input, "ideal" if args.route == "filtration" else None)
    window = _parse_window(args.window) if args.window else None
    payload = {"command": "localcoh", "route": args.route}
    if args.route in ("filtration", "cech"):
        if isinstance(obj, SimplicialComplex):
            monomial = stanley_reisner_ideal(obj)
        else:
            monomial = obj.as_monomial_ideal()
        # Both routes default to this window; hold it to the cap up front.
        window = window or checked_window(*default_cohomology_window(monomial),
                                          "window width")
        route = (local_cohomology_strongly_stable if args.route == "filtration"
                 else cech_local_cohomology)
        table = route(monomial, window)
    else:  # enrico-style closed formula, always cross-checked against Cech
        cx = obj if isinstance(obj, SimplicialComplex) else complex_of(
            obj.as_monomial_ideal())
        ideal = stanley_reisner_ideal(cx)
        table = local_cohomology_face_ring(
            cx, window or default_cohomology_window(ideal))
        cech = cech_local_cohomology(ideal, table.window).to_json()
        if cech != table.to_json():
            raise InconsistencyError(
                "face-ring table differs from its Cech check on window %r"
                % (table.window,))
        payload["cech"] = cech
        payload["cech_diff"] = []
    payload["window"] = list(table.window)
    payload["table"] = table.to_json()
    return payload, table.to_tsv()


def _cmd_dual(args):
    cx = _load(args.input, "complex")
    dual = alexander_dual(cx)
    payload = {"command": "dual", "complex": cx.to_json(),
               "dual": dual.to_json()}
    tsv = "".join("\t".join(str(v) for v in f) + "\n" for f in dual.facets)
    return payload, tsv


def _cmd_shift(args):
    cx = _load(args.input, "complex")
    seed = _resolve_seed(args)
    shifted = shifted_complex(cx, seed)
    payload = {"command": "shift", "seed": seed, "complex": cx.to_json(),
               "shifted": shifted.to_json()}
    tsv = "".join("\t".join(str(v) for v in f) + "\n" for f in shifted.facets)
    return payload, tsv


def _cmd_seqcm(args):
    obj = _load(args.input)
    if not isinstance(obj, SimplicialComplex):
        obj = complex_of(obj.as_monomial_ideal())
    seed = _resolve_seed(args)
    verdict = is_sequentially_cm(obj, seed)
    payload = {"command": "seqcm", "seed": seed, "complex": obj.to_json(),
               "verdict": verdict.to_json()}
    return payload, None


def _check(obj, seed, window):
    """(report, verdict): Theorem 4.1's check of a complex with its
    sequentially CM verdict, or the main theorem's check of an ideal with
    None."""
    if isinstance(obj, SimplicialComplex):
        return theorem41_check(obj, seed, window)
    return main_theorem_check(obj, seed, window), None


def _cmd_verify(args):
    seed = _resolve_seed(args)
    window = _parse_window(args.window) if args.window else None
    if args.what == "corpus":
        return _verify_corpus(args.target, seed, window), None
    kind = "ideal" if args.what == "main-theorem" else "complex"
    report, verdict = _check(_load(args.target, kind), seed, window)
    payload = {"command": "verify", "what": args.what, "seed": seed,
               "report": report.to_json()}
    if verdict is not None:
        payload["seqcm"] = verdict.to_json()
    return payload, None


def _verify_corpus(directory, seed, window):
    try:
        names = sorted(f for f in os.listdir(directory) if f.endswith(".json"))
    except OSError as exc:
        raise ParseError("%s: cannot list: %s" % (directory,
                                                  exc.strerror or exc))
    if not names:
        raise ParseError("no .json files under %s" % directory)
    results = {}
    counts = {"ideals": 0, "complexes": 0, "equal": 0,
              "unequal": 0, "left-skipped": 0}
    for name in names:
        report, verdict = _check(_load(os.path.join(directory, name)),
                                 seed, window)
        counts[report.verdict] += 1
        if verdict is None:
            counts["ideals"] += 1
            results[name] = {"kind": "ideal", "verdict": report.verdict}
        else:
            counts["complexes"] += 1
            results[name] = {"kind": "complex", "verdict": report.verdict,
                             "sequentially_cm": verdict.value}
    return {"command": "verify", "what": "corpus", "seed": seed,
            "results": results, "summary": counts}


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="seqcm",
        description="Generic initial ideals, shifting, and local cohomology "
                    "of monomial quotients over Q.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, window=False, cache=False, bound=False,
               tsv=True):
        p.add_argument("--format", choices=("json", "tsv"), default="json")
        p.set_defaults(tsv=tsv)
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="integer seed; chosen from entropy if absent")
        if window:
            p.add_argument("--window", default=None, metavar="LO..HI")
        if cache:
            p.add_argument("--cache-dir", default=None,
                           help="gin cache directory (or $SEQCM_CACHE_DIR)")
        if bound:
            p.add_argument("--bound", type=int, default=None,
                           help="degree bound for the Koszul oracle; "
                                "selects that route")

    p = sub.add_parser("gin", help="generic initial ideal of an ideal file")
    p.add_argument("input")
    common(p, seed=True, cache=True)
    p.set_defaults(func=_cmd_gin)

    p = sub.add_parser("hilbert", help="Hilbert function of the quotient")
    p.add_argument("input")
    common(p, window=True)
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("betti", help="graded Betti numbers of the quotient")
    p.add_argument("input")
    p.add_argument("--oracle", action="store_true",
                   help="force the Koszul-complex oracle")
    common(p, bound=True)
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("localcoh", help="local cohomology Hilbert functions")
    p.add_argument("input")
    p.add_argument("--route", choices=("cech", "filtration", "enrico"),
                   default="cech")
    common(p, window=True)
    p.set_defaults(func=_cmd_localcoh)

    p = sub.add_parser("dual", help="Alexander dual of a complex file")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("shift", help="algebraically shifted complex")
    p.add_argument("input")
    common(p, seed=True)
    p.set_defaults(func=_cmd_shift)

    p = sub.add_parser("seqcm", help="sequential Cohen-Macaulay verdict")
    p.add_argument("input")
    common(p, seed=True, tsv=False)
    p.set_defaults(func=_cmd_seqcm)

    p = sub.add_parser("verify", help="cross-route theorem checks")
    p.add_argument("what", choices=("main-theorem", "thm41", "corpus"))
    p.add_argument("target")
    common(p, seed=True, window=True, tsv=False)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.format == "tsv" and not args.tsv:
            raise ParseError("this command has no tsv form; use --format json")
        payload, tsv = args.func(args)
    except SeqcmError as exc:
        print("error[%s]: %s" % (exc.code, exc), file=sys.stderr)
        return exc.exit_status
    sys.stdout.write(tsv if args.format == "tsv" else json.dumps(
        payload, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
