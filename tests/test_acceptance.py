"""End-to-end acceptance checks.

Twelve numbered criteria, one test each, covering the full pipeline: generic
initial ideals, the dimension filtration, both local cohomology routes, the
Hochster and Koszul Betti oracles, algebraic shifting, the closed cohomology
formula with its integer inverse, and the command line reconciliation runs.
Each test prints a single pass/fail line (visible under pytest -s)."""

import functools
import json
import random
from fractions import Fraction

from seqcm.cli import main as cli_main
from seqcm.decide import main_theorem_check, is_sequentially_cm, theorem41_check
from seqcm.groebner import PolynomialIdeal, gin, initial_ideal, saturation
from seqcm.monomial import (
    MonomialIdeal,
    default_cohomology_window,
    dimension_filtration,
    hilbert_function,
    is_strongly_stable,
    local_cohomology_strongly_stable,
)
from seqcm.oracles import cech_local_cohomology, depth_and_dim, koszul_betti
from seqcm.simplicial import (
    alexander_dual,
    betti_from_cohomology,
    betti_numbers_of_ideal,
    build_A_matrix,
    complex_of,
    hochster_betti,
    shifted_complex,
    stanley_reisner_ideal,
)
from corpus_entries import COMPLEXES, IDEALS, PATHS, corpus_complex, corpus_ideal
from test_linalg import det, matmul

SEED = 11
SECOND_SEED = 97


def criterion(num, slug):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print("criterion %02d %s: FAIL" % (num, slug))
                raise
            print("criterion %02d %s: PASS" % (num, slug))
        return wrapper
    return deco


def corpus_gins():
    return {name: gin(corpus_ideal(name), SEED) for name in sorted(IDEALS)}


def strongly_stable_collection():
    """All corpus gin outputs plus hand-built strongly stable ideals."""
    pool = list(corpus_gins().values())
    pool += [
        MonomialIdeal(2, [(2, 0), (1, 1), (0, 3)]),
        MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)]),
        MonomialIdeal(2, [(1, 0)]),
        MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (1, 0, 1)]),
        MonomialIdeal.zero(2),
        MonomialIdeal.zero(3),
    ]
    seen = []
    for ideal in pool:
        if ideal not in seen:
            seen.append(ideal)
    return seen


@criterion(1, "gin determinism, strong stability, Hilbert preservation")
def test_criterion_01_gin_correctness():
    assert len(IDEALS) >= 10
    window = (0, 10)
    for name in sorted(IDEALS):
        ideal = corpus_ideal(name)
        assert ideal.n <= 4 and ideal.max_gen_degree() <= 3
        first = gin(ideal, SEED)
        second = gin(ideal, SECOND_SEED)
        assert first == second, name
        ok, witness = is_strongly_stable(first)
        assert ok, (name, witness)
        before = hilbert_function(initial_ideal(ideal), window)
        after = hilbert_function(first, window)
        for d in range(window[0], window[1] + 1):
            assert before.value(d) == after.value(d), (name, d)


@criterion(2, "gin preserves depth and dimension; commutes with saturation")
def test_criterion_02_gin_invariants():
    for name in sorted(IDEALS):
        ideal = corpus_ideal(name)
        assert depth_and_dim(ideal) == depth_and_dim(gin(ideal, SEED)), name
    commuting = ["A1", "A2", "A4", "A5", "A8", "A9"]
    assert len(commuting) >= 5
    for name in commuting:
        ideal = corpus_ideal(name)
        sat_then_gin = gin(saturation(ideal, seed=31), seed=33)
        gin_then_sat = saturation(
            PolynomialIdeal.from_monomial_ideal(gin(ideal, seed=33)), seed=31)
        assert gin_then_sat.is_monomial(), name
        assert sat_then_gin == gin_then_sat.as_monomial_ideal(), name


@criterion(3, "dimension filtration: chain, layer dims, telescoping sum")
def test_criterion_03_dimension_filtration():
    collection = strongly_stable_collection()
    assert len(collection) >= 10
    for ideal in collection:
        filt = dimension_filtration(ideal)
        chain = filt.chain()
        assert chain[0] == ideal
        assert chain[-1].is_unit()
        for prev, nxt in zip(chain, chain[1:]):
            assert nxt.contains_ideal(prev) and nxt != prev, ideal
        dims = filt.dims()
        assert dims == sorted(dims) and len(set(dims)) == len(dims), ideal
        window = (0, ideal.max_gen_degree() + ideal.n + 2)
        total_h = hilbert_function(ideal, window)
        for d in range(window[0], window[1] + 1):
            stacked = sum(layer.hilbert_as_module(window).value(d)
                          for layer in filt.layers)
            assert stacked == total_h.value(d), (ideal, d)


@criterion(4, "filtration route equals the Cech oracle on strongly stable input")
def test_criterion_04_filtration_vs_cech():
    collection = strongly_stable_collection()
    assert any(i.is_zero() for i in collection)
    assert any(not i.is_zero() and depth_and_dim(i)[1] == 0 for i in collection)
    for ideal in collection:
        window = default_cohomology_window(ideal)
        left = cech_local_cohomology(ideal, window)
        right = local_cohomology_strongly_stable(ideal, window)
        assert left.diff(right, window) == [], ideal


@criterion(5, "Hochster tables equal the Koszul oracle")
def test_criterion_05_betti_oracles():
    assert len(COMPLEXES) >= 15
    for name in sorted(COMPLEXES):
        cx = corpus_complex(name)
        assert cx.n <= 6
        viaface = hochster_betti(cx)
        viaszyzygy = koszul_betti(stanley_reisner_ideal(cx))
        assert viaface.entries == viaszyzygy.entries, name


@criterion(6, "cohomology equality in both directions, strictness included")
def test_criterion_06_main_comparison():
    expectations = {"A4": "equal", "A5": "equal", "A8": "unequal"}
    for name, wanted in expectations.items():
        monomial = corpus_ideal(name).as_monomial_ideal()
        report = main_theorem_check(monomial, SEED)
        assert report.verdict == wanted, name
        if wanted == "unequal":
            assert report.diff, name
            i, d, a, b = report.diff[0]
            assert a < b
        else:
            assert report.diff == [], name
        verdict = is_sequentially_cm(complex_of(monomial), SEED)
        assert verdict.value == (wanted == "equal"), name


@criterion(7, "left table never exceeds the right in any comparison")
def test_criterion_07_degreewise_domination():
    checked = 0
    for name in sorted(IDEALS):
        report = main_theorem_check(corpus_ideal(name), SEED)
        if report.left is None:
            continue
        assert report.left.leq_on(report.right, report.wide_window), name
        checked += 1
    for name in sorted(COMPLEXES):
        report, _ = theorem41_check(corpus_complex(name), SEED)
        assert report.left.leq_on(report.right, report.wide_window), name
        checked += 1
    assert checked >= 20


@criterion(8, "shifting commutes with duality and only grows Betti numbers")
def test_criterion_08_shift_dual_identities():
    assert len(COMPLEXES) >= 10
    for name in sorted(COMPLEXES):
        cx = corpus_complex(name)
        assert alexander_dual(alexander_dual(cx)) == cx, name
        lhs = shifted_complex(alexander_dual(cx), SEED)
        rhs = alexander_dual(shifted_complex(cx, SEED))
        assert lhs == rhs, name
        before = betti_numbers_of_ideal(cx)
        after = betti_numbers_of_ideal(shifted_complex(cx, SEED))
        assert before.entrywise_leq(after), name


@criterion(9, "comparison verdict always concords with the shifting decider")
def test_criterion_09_verdict_concordance():
    unequal = set()
    for name in sorted(COMPLEXES):
        report, verdict = theorem41_check(corpus_complex(name), SEED)
        assert (report.verdict == "equal") == verdict.value, name
        if report.verdict == "unequal":
            unequal.add(name)
    assert unequal == {"C6", "C12", "C16"}


@criterion(10, "composition-count matrix: exact inversion and nonsingularity")
def test_criterion_10_matrix_machinery():
    rng = random.Random(1021)
    solved = 0
    for n in range(2, 7):
        a = build_A_matrix(n)
        for _ in range(20):
            b = [[rng.randrange(10) for _ in range(n + 1)]
                 for _ in range(n + 1)]
            product = matmul(a, b)
            h_matrix = [[product[j][i] for j in range(n + 1)]
                        for i in range(n + 1)]
            recovered = betti_from_cohomology(h_matrix, n, raw=True)
            assert recovered == [[Fraction(x) for x in row] for row in b]
            solved += 1
    assert solved == 100
    for n in range(1, 13):
        assert det(build_A_matrix(n)) != 0, n


@criterion(11, "closed formula reconciles with the Cech route end to end")
def test_criterion_11_formula_reconciliation(capsys):
    ran = 0
    for name in sorted(COMPLEXES):
        code = cli_main(["localcoh", PATHS[name], "--route", "enrico"])
        out, _ = capsys.readouterr()
        assert code == 0, name
        assert json.loads(out)["cech_diff"] == [], name
        ran += 1
    for name in sorted(IDEALS):
        ideal = corpus_ideal(name)
        if not (ideal.is_monomial()
                and ideal.as_monomial_ideal().is_squarefree()):
            continue
        code = cli_main(["localcoh", PATHS[name], "--route", "enrico"])
        out, _ = capsys.readouterr()
        assert code == 0, name
        assert json.loads(out)["cech_diff"] == [], name
        ran += 1
    assert ran == 22


@criterion(12, "spot values: cohomology of two points, depth of two edges")
def test_criterion_12_spot_values():
    two_points = cech_local_cohomology(
        stanley_reisner_ideal(corpus_complex("C1")))
    assert two_points.value(1, 0) == 1
    assert two_points.value(1, -1) == 2
    edges = corpus_ideal("A8").as_monomial_ideal()
    assert depth_and_dim(edges) == (1, 2)
