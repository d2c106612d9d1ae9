"""Deciders and dual-route comparisons."""

from fractions import Fraction
import random

import pytest

from seqcm import decide, simplicial
from seqcm.decide import (
    BettiComparison,
    is_componentwise_linear,
    is_sequentially_cm,
    main_theorem_check,
    theorem41_check,
    widen_window,
)
from seqcm.errors import (
    CapacityError,
    InconsistencyError,
    ShiftedViolationError,
    UndefinedInputError,
)
from seqcm.groebner import PolynomialIdeal
from seqcm.monomial import MonomialIdeal
from seqcm.rings import Monomial
from seqcm.simplicial import (
    SimplicialComplex,
    _dual_complex,
    _skeleta_cm,
    alexander_dual,
    betti_numbers_of_ideal,
    dual_ideal,
    local_cohomology_face_ring,
    shifted_complex,
    shifted_ideal,
    stanley_reisner_ideal,
)
from seqcm.tables import BettiTable, CohomologyTable, HilbertFunction
from corpus_entries import COMPLEXES, corpus_complex

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

    cofacets = stanley_reisner_ideal(alexander_dual(disjoint_edges))
    verdict = is_componentwise_linear(cofacets, seed=11)
    assert verdict.value is False
    assert verdict.details.first_difference == (0, 3)
    assert verdict.details.left.entries == {(0, 2): 2, (1, 4): 1}


def direct_dual_verdict(cx, seed=7):
    """The decider's oracle: the ideal of the Alexander dual shifted
    directly, where the decider reads the dual of the face ideal's shift."""
    return is_componentwise_linear(dual_ideal(cx), seed)


def glued_complex(seed):
    """Two random pieces on 3 or 4 vertices, with facets of 2 or 3 vertices,
    on disjoint vertex sets (even seeds) or sharing one vertex (odd seeds):
    disjoint unions and wedges, mostly not sequentially Cohen-Macaulay."""
    rng = random.Random(seed)
    a, b, wedge = rng.randint(3, 4), rng.randint(3, 4), seed % 2

    def piece(first, k):
        vertices = range(first, first + k)
        return [rng.sample(vertices, rng.randint(2, 3))
                for _ in range(rng.randint(1, k))]

    return SimplicialComplex(a + b - wedge,
                             piece(1, a) + piece(a + 1 - wedge, b))


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


def lowered_below(left, right):
    """right, lowered to one below left at left's top degree of its top H^i."""
    i = max(left.indices())
    d = max(left.functions[i].values)
    hf = right.functions[i]
    values = {**hf.values, d: left.value(i, d) - 1}
    return CohomologyTable(right.window, {
        **right.functions, i: HilbertFunction(hf.window, values, hf.tails)})


def lower_the_shifted_side(monkeypatch):
    # _compare computes the face ring's table, then the shifted one's.
    real = decide.cech_local_cohomology
    tables = []

    def patched(ideal, window):
        tables.append(real(ideal, window))
        return tables[-1] if len(tables) % 2 else lowered_below(*tables[-2:])

    monkeypatch.setattr(decide, "cech_local_cohomology", patched)


def test_theorem41_bound_is_asserted(monkeypatch):
    # Two disjoint edges already give unequal tables, so the verdict still
    # concords with the decider; only the bound left <= right can object.
    lower_the_shifted_side(monkeypatch)
    with pytest.raises(InconsistencyError, match="exceeds"):
        theorem41_check(disjoint_edges, seed=11)


def raise_a_hochster_entry(monkeypatch, key=(0, 2)):
    # Both Betti tables of the decider gain 1 at the same entry, so their
    # comparison, and the verdict, stay as they were.
    real = decide.betti_numbers_of_ideal

    def patched(cx):
        table = real(cx)
        return BettiTable(table.module,
                          {**table.entries, key: table.value(*key) + 1})

    monkeypatch.setattr(decide, "betti_numbers_of_ideal", patched)


def test_theorem41_checks_the_recovered_betti_tables(monkeypatch):
    # One verdict of each kind; only the tables recovered from the Cech
    # side can object.
    verdicts = {cx: theorem41_check(cx, seed=11)[1].value
                for cx in (hollow_triangle, disjoint_edges)}
    assert sorted(verdicts.values()) == [False, True]
    raise_a_hochster_entry(monkeypatch)
    for cx in verdicts:
        assert is_sequentially_cm(cx, seed=11).value == verdicts[cx]
        with pytest.raises(InconsistencyError,
                           match="left Cech table gives the dual Betti table"):
            theorem41_check(cx, seed=11)


def random_complex(seed):
    rng = random.Random(seed)
    n = 3 + seed % 5
    return SimplicialComplex(n, [
        rng.sample(range(1, n + 1), rng.randint(1, min(4, n)))
        for _ in range(rng.randint(2, 2 * n))])


def test_the_dual_of_the_shift_has_the_direct_dual_shift_betti_table():
    # (D^v)^s = (D^s)^v: the right side both deciders now read off the
    # shifted face ideal has the Betti table of the dual's direct shift.
    for cx in [corpus_complex(name) for name in sorted(COMPLEXES)] + [
            random_complex(seed) for seed in range(40)]:
        oracle = direct_dual_verdict(cx)
        shifted_dual = _dual_complex(
            shifted_ideal(stanley_reisner_ideal(cx), seed=7))
        assert (betti_numbers_of_ideal(shifted_dual).entries
                == oracle.details.right.entries), cx
        verdict = is_sequentially_cm(cx, seed=7)
        assert verdict.value == oracle.value, cx
        assert verdict.details.right.entries == oracle.details.right.entries


def test_skeleta_agree_with_the_direct_dual_oracle():
    plain = [random_complex(seed) for seed in range(200)]
    glued = [glued_complex(seed) for seed in range(50)]
    for cxs, least_no in ((plain, 40), (glued, 30)):
        verdicts = [_skeleta_cm(cx) for cx in cxs]
        assert verdicts == [direct_dual_verdict(cx).value for cx in cxs]
        assert verdicts.count(False) >= least_no


def test_skeleta_on_small_complexes():
    assert _skeleta_cm(hollow_triangle) and _skeleta_cm(edge_plus_vertex)
    assert not _skeleta_cm(disjoint_edges) and not _skeleta_cm(bowtie)
    for cx in (SimplicialComplex.void(3), SimplicialComplex.irrelevant(3),
               SimplicialComplex.full(3)):
        assert _skeleta_cm(cx)
    # The boundary of the 12-simplex: 8,191 faces, whose links are one
    # sphere per dimension up to relabelling.
    sphere = SimplicialComplex(13, [[v for v in range(1, 14) if v != k]
                                    for k in range(1, 14)])
    assert _skeleta_cm(sphere)


def flip_the_skeleta(monkeypatch):
    real = decide._skeleta_cm
    monkeypatch.setattr(decide, "_skeleta_cm", lambda cx: not real(cx))


def test_skeleta_disagreement_is_an_inconsistency(monkeypatch):
    flip_the_skeleta(monkeypatch)
    for cx in (hollow_triangle, disjoint_edges):
        with pytest.raises(InconsistencyError, match="skeleta"):
            theorem41_check(cx, seed=11)
        with pytest.raises(InconsistencyError, match="skeleta"):
            is_sequentially_cm(cx, seed=11)


def test_theorem41_on_random_complexes():
    # Each check asserts left <= right in every degree and the concordance
    # of its verdict with the shifting decider, beyond the corpus's three
    # complexes that are not sequentially Cohen-Macaulay.
    verdicts = [theorem41_check(random_complex(seed), seed=7)[1].value
                for seed in range(40)]
    assert verdicts.count(False) >= 8


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
        # The dual's complex, built once for the face ideal and the decider;
        # the shifted dual is read off the shifted face ideal's generators.
        assert len(calls) == 1, name
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


def test_cech_work_cap_is_checked_before_gin(monkeypatch):
    # prod(1 + 2 rho_k) is known from the input: 3^13 steps on the 13-cycle's
    # face ideal and on x1*...*x13 are refused before gin runs.
    def no_gin(*args, **kwargs):
        raise AssertionError("gin ran before the Cech work cap")

    monkeypatch.setattr(decide, "gin", no_gin)
    monkeypatch.setattr(simplicial, "gin", no_gin)
    cycle = SimplicialComplex(13, [(i, i % 13 + 1) for i in range(1, 14)])
    with pytest.raises(CapacityError, match="Cech oracle work"):
        theorem41_check(cycle, seed=7)
    with pytest.raises(CapacityError, match="Cech oracle work"):
        main_theorem_check(MonomialIdeal(13, [(1,) * 13]), seed=7)
    with pytest.raises(CapacityError, match="Cech oracle work"):
        main_theorem_check(PolynomialIdeal.from_strings(
            13, ["*".join("x%d" % i for i in range(1, 14))]), seed=7)
