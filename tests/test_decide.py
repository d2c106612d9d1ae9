"""Deciders and dual-route comparisons."""

from fractions import Fraction

import pytest

from seqcm import decide, simplicial
from seqcm.corpus import COMPLEXES, corpus_complex
from seqcm.decide import (
    BettiComparison,
    is_componentwise_linear,
    is_sequentially_cm,
    main_theorem_check,
    theorem41_check,
    widen_window,
)
from seqcm.errors import (
    InconsistencyError,
    ShiftedViolationError,
    UndefinedInputError,
)
from seqcm.groebner import PolynomialIdeal
from seqcm.monomial import MonomialIdeal
from seqcm.rings import Monomial
from seqcm.simplicial import (
    SimplicialComplex,
    alexander_dual,
    local_cohomology_face_ring,
    shifted_complex,
    stanley_reisner_ideal,
)
from seqcm.tables import BettiTable, CohomologyTable, HilbertFunction

hollow_triangle = SimplicialComplex(3, [(1, 2), (1, 3), (2, 3)])
disjoint_edges = SimplicialComplex(4, [(1, 2), (3, 4)])
edge_plus_vertex = SimplicialComplex(3, [(2, 3), (1,)])
bowtie = SimplicialComplex(5, [(1, 2, 3), (1, 4, 5)])


def test_widen_window():
    assert widen_window((-4, 1), 3) == (-9, 3)
    assert widen_window((0, 0), 2) == (-4, 2)


def test_componentwise_linear_verdicts():
    linear = stanley_reisner_ideal(SimplicialComplex.irrelevant(3))
    verdict = is_componentwise_linear(linear, seed=11)
    assert verdict.value is True
    assert verdict.route == "betti-vs-shifted"
    assert verdict.details.equal

    dual_ideal = stanley_reisner_ideal(alexander_dual(disjoint_edges))
    verdict = is_componentwise_linear(dual_ideal, seed=11)
    assert verdict.value is False
    assert verdict.details.first_difference == (0, 3)
    assert verdict.details.left.entries == {(0, 2): 2, (1, 4): 1}


def test_sequentially_cm_verdicts():
    assert is_sequentially_cm(hollow_triangle, seed=11).value is True
    assert is_sequentially_cm(edge_plus_vertex, seed=11).value is True
    assert is_sequentially_cm(disjoint_edges, seed=11).value is False
    assert is_sequentially_cm(bowtie, seed=11).value is False
    verdict = is_sequentially_cm(hollow_triangle, seed=11)
    assert verdict.route == "dual-componentwise-linear"
    assert verdict.to_json()["value"] is True


def test_main_theorem_equal_case():
    report = main_theorem_check(MonomialIdeal(2, [(1, 1)]), seed=11)
    assert report.verdict == "equal"
    assert report.diff == []
    assert report.left_label == "cech R/I"
    assert report.left.leq_on(report.right, report.wide_window)


def test_main_theorem_unequal_case():
    ideal = MonomialIdeal(4, [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)])
    report = main_theorem_check(ideal, seed=11)
    assert report.verdict == "unequal"
    assert report.diff
    # Sbarra: the gin side dominates degreewise.
    assert report.left.leq_on(report.right, report.wide_window)
    assert all(a <= b for _, _, a, b in report.diff)


def test_main_theorem_left_skipped():
    ideal = PolynomialIdeal.from_strings(3, ["x1^2 + x2*x3", "x2^2"])
    report = main_theorem_check(ideal, seed=11)
    assert report.verdict == "left-skipped"
    assert report.left is None and report.right is not None
    assert report.wide_window is None
    assert report.notes


def test_main_theorem_zero_and_unit():
    report = main_theorem_check(MonomialIdeal.zero(2), seed=11)
    assert report.verdict == "equal"
    with pytest.raises(UndefinedInputError):
        main_theorem_check(MonomialIdeal.unit(2), seed=11)


def test_main_theorem_report_json():
    report = main_theorem_check(MonomialIdeal(2, [(1, 1)]), seed=11)
    data = report.to_json()
    assert data["verdict"] == "equal"
    assert data["seed"] == 11
    assert set(data) == {"left", "right", "window", "wide_window", "verdict",
                         "diff", "tables", "seed", "notes"}


def test_theorem41_concordance():
    report, verdict = theorem41_check(hollow_triangle, seed=11)
    assert report.verdict == "equal" and verdict.value is True
    report, verdict = theorem41_check(disjoint_edges, seed=11)
    assert report.verdict == "unequal" and verdict.value is False
    assert report.diff
    report, verdict = theorem41_check(edge_plus_vertex, seed=11)
    assert report.verdict == "equal" and verdict.value is True
    assert report.left_label == "cech face ring"


def spot_table(window, degree, tails=((), ())):
    lo, hi = window
    values = {degree: 1} if lo <= degree <= hi else {}
    return CohomologyTable(window, {1: HilbertFunction(window, values, tails)})


def test_same_function_sees_below_the_base_window():
    base = (-2, 1)
    wide = widen_window(base, 2)
    left = CohomologyTable(wide, {})  # every index missing: the zero function
    right = spot_table(wide, base[0] - 1)
    assert left.equal_on(right, base)
    assert not left.same_function(right)
    assert not right.same_function(left)


def test_same_function_compares_left_tails():
    window = (-2, 1)
    # (d + 2)(d + 1) / 2 vanishes at -2 and -1 and is 1 at -3.
    rising = (Fraction(1), Fraction(3, 2), Fraction(1, 2))
    left = CohomologyTable(window, {1: HilbertFunction(window, {}, ((), ()))})
    right = CohomologyTable(window, {1: HilbertFunction(window, {}, (rising, ()))})
    assert left.equal_on(right, window)
    assert right.value(1, -3) == 1
    assert not left.same_function(right)


def test_same_function_equal_tables():
    wide = widen_window((-2, 1), 2)
    left, right = spot_table(wide, 0), spot_table(wide, 0)
    assert wide == (-6, 3)
    assert left.same_function(right) and left.equal_on(right, wide)
    with pytest.raises(ValueError):
        left.same_function(spot_table((-5, 3), 0))
    # Tails are compared as polynomials, so trailing zero terms do not count.
    ones = {0: 1, 1: 1}
    flat = HilbertFunction((0, 1), ones, ((1,), (1,)))
    padded = HilbertFunction((0, 1), ones, ((1, 0), (1,)))
    assert CohomologyTable((0, 1), {2: flat}).same_function(
        CohomologyTable((0, 1), {2: padded}))


def test_same_function_needs_tails():
    wide = (-6, 3)
    with pytest.raises(InconsistencyError):
        spot_table(wide, 0, (None, ())).same_function(spot_table(wide, 0))
    with pytest.raises(InconsistencyError):
        CohomologyTable(wide, {}).same_function(spot_table(wide, 0, ((), None)))


def test_betti_comparison_shape():
    a = BettiTable("ideal", {(0, 2): 1})
    b = BettiTable("ideal", {(0, 2): 1, (1, 3): 1})
    cmp = BettiComparison("left", "right", a, b)
    assert not cmp.equal
    assert cmp.first_difference == (1, 3)
    assert cmp.to_json()["first_difference"] == [1, 3]
    same = BettiComparison("left", "right", a, a)
    assert same.equal and same.first_difference is None


def test_one_subset_enumeration_per_transfer(monkeypatch):
    # complex_of holds the transfer's only loop over vertex subsets.
    calls = []
    real = simplicial.complex_of

    def counted(ideal):
        calls.append(ideal)
        return real(ideal)

    monkeypatch.setattr(simplicial, "complex_of", counted)
    monkeypatch.setattr(decide, "complex_of", counted)
    for name in COMPLEXES:
        calls.clear()
        theorem41_check(corpus_complex(name), seed=7)
        # The dual's complex, built once for the face ideal and the decider,
        # then the shifted dual's.
        assert len(calls) == 2, name
    calls.clear()
    local_cohomology_face_ring(bowtie)
    assert len(calls) == 1


def test_non_shifted_sigma_image_is_refused(monkeypatch):
    true_sigma = simplicial.sigma
    monkeypatch.setattr(simplicial, "sigma",
                        lambda u: Monomial(true_sigma(u).exponents[::-1]))
    with pytest.raises(ShiftedViolationError):
        shifted_complex(disjoint_edges, seed=21)
    with pytest.raises(ShiftedViolationError):
        is_componentwise_linear(stanley_reisner_ideal(disjoint_edges), seed=21)
    with pytest.raises(ShiftedViolationError):
        theorem41_check(disjoint_edges, seed=21)
