"""Command line front end.

JSON on stdout, diagnostics on stderr.  Identical inputs and seeds give
byte-identical stdout: objects are serialized with sorted keys and fixed
separators.  Math-level "no" verdicts (not sequentially CM, tables differ)
still exit 0; nonzero exits are reserved for usage errors (2), capacity or
certification limits (3), and internal cross-check failures (4).
"""

import argparse
import functools
import json
import os
import secrets
import sys

from .decide import (
    MAX_WINDOW_WIDTH,
    is_sequentially_cm,
    main_theorem_check,
    theorem41_check,
)
from .errors import CapacityError, ParseError, SeqcmError
from .groebner import GinCache, PolynomialIdeal, gin, initial_ideal
from .monomial import (
    MonomialIdeal,
    hilbert_function,
    local_cohomology_strongly_stable,
)
from .oracles import cech_local_cohomology, koszul_betti
from .simplicial import (
    SimplicialComplex,
    _face_ring_cohomology,
    alexander_dual,
    complex_of,
    dual_ideal,
    hochster_betti,
    shifted_complex,
    stanley_reisner_ideal,
)
from .version import __version__

_USAGE_CODES = {
    "parse-error", "undefined-input", "not-homogeneous", "not-squarefree",
    "ambient-mismatch", "ambient-growth", "not-strongly-stable",
    "bound-too-small",
}
_CAPACITY_CODES = {"capacity", "genericity-failure", "certification-failure"}


def _exit_code(exc):
    if exc.code in _USAGE_CODES:
        return 2
    if exc.code in _CAPACITY_CODES:
        return 3
    return 4


def _emit(payload, fmt, tsv_text=None):
    if fmt == "tsv":
        if tsv_text is None:
            raise ParseError("this command has no tsv form; use --format json")
        sys.stdout.write(tsv_text)
    else:
        sys.stdout.write(json.dumps(payload, sort_keys=True,
                                    separators=(",", ":")) + "\n")
    return 0


def _load_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ParseError("%s: invalid JSON: %s" % (path, exc))


def _sniff(data, path):
    if not isinstance(data, dict) or "n" not in data:
        raise ParseError("%s: expected an object with an \"n\" key" % path)
    if type(data["n"]) is not int:
        raise ParseError("%s: \"n\" must be an integer, got %r"
                         % (path, data["n"]))
    if "generators" in data:
        return "ideal"
    if "facets" in data:
        return "complex"
    raise ParseError("%s: need \"generators\" or \"facets\"" % path)


def _load(path, kind=None):
    """The ideal or complex in the JSON at path ("-" is stdin), read once;
    kind, "ideal" or "complex", is the only kind accepted when given."""
    data = _load_json(path)
    found = _sniff(data, path)
    if kind is not None and found != kind:
        raise ParseError("%s: expected %s file"
                         % (path, "an ideal" if kind == "ideal" else "a complex"))
    if found == "complex":
        return SimplicialComplex.from_json(data)
    return PolynomialIdeal.from_json(data)


def _parse_window(text):
    try:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ParseError("window must look like -8..4, got %r" % text)
    if lo > hi:
        raise ParseError("window %r is empty: %d > %d" % (text, lo, hi))
    if hi - lo + 1 > MAX_WINDOW_WIDTH:
        raise CapacityError("window width", MAX_WINDOW_WIDTH, hi - lo + 1)
    return lo, hi


def _resolve_seed(args):
    if args.seed is not None:
        return args.seed
    seed = secrets.randbits(32)
    print("seed %d (chosen from entropy; pass --seed to reproduce)" % seed,
          file=sys.stderr)
    return seed


def _monomial_of(poly):
    """Monomial ideal with the same Hilbert data: itself, or its initial ideal."""
    if isinstance(poly, MonomialIdeal):
        return poly
    if poly.is_monomial():
        return poly.as_monomial_ideal()
    return initial_ideal(poly)


def _cmd_gin(args):
    poly = _load(args.input, "ideal")
    seed = _resolve_seed(args)
    result = gin(poly, seed, cache=GinCache(
        args.cache_dir or os.environ.get("SEQCM_CACHE_DIR")))
    payload = {"command": "gin", "seed": seed,
               "input": poly.to_json(), "gin": result.to_json()}
    tsv = "".join(str(g) + "\n" for g in result.gens)
    return _emit(payload, args.format, tsv)


def _cmd_hilbert(args):
    poly = _load(args.input, "ideal")
    window = _parse_window(args.window) if args.window else (0, 10)
    hf = hilbert_function(_monomial_of(poly), window)
    payload = {"command": "hilbert", "window": list(window),
               "hilbert": hf.to_json()}
    tsv = "".join("%d\t%d\n" % (d, hf.values.get(d, 0))
                  for d in range(window[0], window[1] + 1))
    return _emit(payload, args.format, tsv)


def _cmd_betti(args):
    poly = _load(args.input, "ideal")
    monomial = poly.as_monomial_ideal() if poly.is_monomial() else None
    if args.oracle or monomial is None or not monomial.is_squarefree():
        route = "koszul"
        table = koszul_betti(monomial if monomial is not None else poly,
                             args.bound)
    else:
        route = "hochster"
        table = hochster_betti(complex_of(monomial))
    payload = {"command": "betti", "route": route, "betti": table.to_json()}
    return _emit(payload, args.format, table.to_tsv())


def _cmd_localcoh(args):
    obj = _load(args.input)
    window = _parse_window(args.window) if args.window else None
    payload = {"command": "localcoh", "route": args.route}
    if args.route == "filtration":
        if isinstance(obj, SimplicialComplex):
            raise ParseError("filtration route expects an ideal file")
        monomial = _monomial_of(obj)
        table = local_cohomology_strongly_stable(monomial, window)
    elif args.route == "cech":
        monomial = (stanley_reisner_ideal(obj)
                    if isinstance(obj, SimplicialComplex) else _monomial_of(obj))
        table = cech_local_cohomology(monomial, window)
    else:  # enrico-style closed formula, always cross-checked against Cech
        cx = obj if isinstance(obj, SimplicialComplex) else complex_of(
            _monomial_of(obj))
        dual = alexander_dual(cx)
        table = _face_ring_cohomology(dual, window)
        cech = cech_local_cohomology(dual_ideal(dual), table.window)
        payload["cech"] = cech.to_json()
        payload["cech_diff"] = [list(t) for t in table.diff(cech)]
    payload["window"] = list(table.window)
    payload["table"] = table.to_json()
    return _emit(payload, args.format, table.to_tsv())


def _cmd_dual(args):
    cx = _load(args.input, "complex")
    dual = alexander_dual(cx)
    payload = {"command": "dual", "complex": cx.to_json(),
               "dual": dual.to_json()}
    tsv = "".join("\t".join(str(v) for v in f) + "\n" for f in dual.facets)
    return _emit(payload, args.format, tsv)


def _cmd_shift(args):
    cx = _load(args.input, "complex")
    seed = _resolve_seed(args)
    shifted = shifted_complex(cx, seed)
    payload = {"command": "shift", "seed": seed, "complex": cx.to_json(),
               "shifted": shifted.to_json()}
    tsv = "".join("\t".join(str(v) for v in f) + "\n" for f in shifted.facets)
    return _emit(payload, args.format, tsv)


def _cmd_seqcm(args):
    obj = _load(args.input)
    if not isinstance(obj, SimplicialComplex):
        obj = complex_of(_monomial_of(obj))
    seed = _resolve_seed(args)
    verdict = is_sequentially_cm(obj, seed)
    payload = {"command": "seqcm", "seed": seed, "complex": obj.to_json(),
               "verdict": verdict.to_json()}
    return _emit(payload, args.format)


def _cmd_verify(args):
    seed = _resolve_seed(args)
    window = _parse_window(args.window) if args.window else None
    if args.what == "main-theorem":
        poly = _load(args.target, "ideal")
        report = main_theorem_check(poly, seed, window)
        payload = {"command": "verify", "what": "main-theorem", "seed": seed,
                   "report": report.to_json()}
    elif args.what == "thm41":
        cx = _load(args.target, "complex")
        report, verdict = theorem41_check(cx, seed, window)
        payload = {"command": "verify", "what": "thm41", "seed": seed,
                   "report": report.to_json(), "seqcm": verdict.to_json()}
    else:
        payload = _verify_corpus(args.target, seed, window)
    return _emit(payload, args.format)


def _verify_corpus(directory, seed, window):
    try:
        names = sorted(f for f in os.listdir(directory) if f.endswith(".json"))
    except OSError as exc:
        raise ParseError("cannot list %s: %s" % (directory, exc))
    if not names:
        raise ParseError("no .json files under %s" % directory)
    results = {}
    counts = {"ideals": 0, "complexes": 0, "equal": 0,
              "unequal": 0, "left-skipped": 0}
    for name in names:
        path = os.path.join(directory, name)
        obj = _load(path)
        if isinstance(obj, SimplicialComplex):
            report, verdict = theorem41_check(obj, seed, window)
            counts["complexes"] += 1
            counts[report.verdict] += 1
            results[name] = {"kind": "complex", "verdict": report.verdict,
                             "sequentially_cm": verdict.value}
        else:
            report = main_theorem_check(obj, seed, window)
            counts["ideals"] += 1
            counts[report.verdict] += 1
            results[name] = {"kind": "ideal", "verdict": report.verdict}
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

    def common(p, seed=False, window=False, cache=False, bound=False):
        p.add_argument("--format", choices=("json", "tsv"), default="json")
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
                           help="degree bound for the Koszul oracle")

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
    common(p, seed=True)
    p.set_defaults(func=_cmd_seqcm)

    p = sub.add_parser("verify", help="cross-route theorem checks")
    p.add_argument("what", choices=("main-theorem", "thm41", "corpus"))
    p.add_argument("target")
    common(p, seed=True, window=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SeqcmError as exc:
        print("error[%s]: %s" % (exc.code, exc), file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
