"""Monomial ideals: Hilbert functions, the dimension filtration, and local
cohomology of strongly stable quotients."""

from fractions import Fraction
from itertools import product
from math import comb, factorial
import random

import pytest
from hypothesis import given, settings, strategies as st

from seqcm.errors import NotStronglyStableError, UndefinedInputError
from seqcm.groebner import gin, initial_ideal
from seqcm.monomial import (
    MonomialIdeal,
    _exchange_witness,
    _graded_tail,
    _graded_values,
    colon_saturate_variable,
    default_cohomology_window,
    dimension_filtration,
    hilbert_function,
    is_strongly_stable,
    k_polynomial,
    krull_dimension,
    local_cohomology_strongly_stable,
    m_of,
    monomials_of_degree,
)
from seqcm.oracles import brute_hilbert
from seqcm.rings import Monomial
from seqcm.simplicial import stanley_reisner_ideal
from corpus_entries import COMPLEXES, IDEALS, corpus_complex, corpus_ideal


def count_outside(ideal, d):
    # Direct count of standard monomials in degree d.
    return sum(1 for u in monomials_of_degree(ideal.n, d)
               if not ideal.contains(u))


def test_minimal_generators():
    ideal = MonomialIdeal(2, [(1, 0), (2, 0), (1, 1)])
    assert [g.exponents for g in ideal.gens] == [(1, 0)]
    assert MonomialIdeal(2, [(0, 0), (1, 0)]).is_unit()
    assert MonomialIdeal.zero(3).is_zero()


def test_membership():
    ideal = MonomialIdeal(3, [(1, 1, 0), (0, 0, 2)])
    assert ideal.contains(Monomial((2, 1, 0)))
    assert not ideal.contains(Monomial((1, 0, 1)))
    assert ideal.contains_ideal(MonomialIdeal(3, [(1, 1, 1)]))


def test_monomials_of_degree():
    assert len(list(monomials_of_degree(3, 2))) == 6
    assert len(list(monomials_of_degree(4, 3))) == 20
    assert [u.exponents for u in monomials_of_degree(2, 0)] == [(0, 0)]


def test_m_of():
    assert m_of(Monomial((2, 0, 1))) == 3
    assert m_of(Monomial((0, 3, 0))) == 2
    with pytest.raises(UndefinedInputError):
        m_of(Monomial((0, 0)))


def test_strong_stability():
    assert is_strongly_stable(MonomialIdeal(2, [(2, 0), (1, 1), (0, 3)])) == (True, None)
    ok, witness = is_strongly_stable(MonomialIdeal(2, [(1, 1)]))
    assert not ok
    assert witness == (Monomial((1, 1)), 2, 1)
    ok, witness = is_strongly_stable(MonomialIdeal(2, [(2, 0), (0, 2)]))
    assert not ok and witness[1:] == (2, 1)
    assert is_strongly_stable(MonomialIdeal.zero(2))[0]
    assert is_strongly_stable(MonomialIdeal.unit(2))[0]


def test_colon_saturate_variable():
    got = colon_saturate_variable(MonomialIdeal(2, [(2, 0), (1, 1)]), 2)
    assert [str(g) for g in got.gens] == ["x1"]
    got = colon_saturate_variable(MonomialIdeal(3, [(3, 0, 0), (1, 2, 0), (0, 1, 1)]), 3)
    assert sorted(str(g) for g in got.gens) == ["x1^3", "x2"]


def test_hilbert_frozen():
    h = hilbert_function(MonomialIdeal(2, [(2, 0), (1, 1)]), (0, 6))
    assert h.values == {0: 1, 1: 2, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1}
    assert h.value(50) == 1
    z = hilbert_function(MonomialIdeal.zero(2), (0, 5))
    assert z.value(9) == 10
    u = hilbert_function(MonomialIdeal.unit(2), (0, 3))
    assert u.values == {} and u.value(100) == 0


small_ideals = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    min_size=0, max_size=4,
).map(lambda exps: MonomialIdeal(3, [e for e in exps if sum(e)]))


@given(small_ideals, st.integers(0, 7))
@settings(max_examples=60)
def test_hilbert_matches_direct_count(ideal, d):
    h = hilbert_function(ideal, (0, 8))
    assert h.value(d) == count_outside(ideal, d)


def _lcm_fold(n, exponents):
    # Inclusion-exclusion: {lcm exponent tuple: signed multiplicity} over the
    # generator subsets, folded one generator at a time so that coinciding
    # lcms collapse early.  Exponential in the generator count.
    acc = {(0,) * n: 1}
    for g in exponents:
        nxt = dict(acc)
        for m, c in acc.items():
            lm = tuple(map(max, m, g))
            v = nxt.get(lm, 0) - c
            if v:
                nxt[lm] = v
            else:
                del nxt[lm]
        acc = nxt
    return acc


def fold_numerator(n, exponents):
    out = {}
    for m, c in _lcm_fold(n, exponents).items():
        out[sum(m)] = out.get(sum(m), 0) + c
    return {d: c for d, c in out.items() if c}


def exponents(ideal):
    return [g.exponents for g in ideal.gens]


def test_k_polynomial_frozen():
    assert k_polynomial(3, []) == {0: 1}
    assert k_polynomial(2, [(0, 0), (1, 0)]) == {}
    assert k_polynomial(2, [(2, 0), (1, 1)]) == {0: 1, 2: -2, 3: 1}
    # Non-minimal and repeated generators change nothing.
    assert k_polynomial(2, [(2, 0), (1, 1), (2, 1), (1, 1)]) == {0: 1, 2: -2, 3: 1}
    assert k_polynomial(3, [(1, 0, 0), (0, 2, 0)]) == {0: 1, 1: -1, 2: -1, 3: 1}


@pytest.mark.parametrize("name", sorted(IDEALS) + sorted(COMPLEXES))
def test_k_polynomial_matches_lcm_fold_on_the_corpus(name):
    # Each corpus ideal's lead ideal (itself when monomial), each corpus
    # complex's face ideal, and their seed-7 gins.
    if name in IDEALS:
        base = corpus_ideal(name)
        ideals = [initial_ideal(base), gin(base, seed=7)]
    else:
        base = stanley_reisner_ideal(corpus_complex(name))
        ideals = [base] + ([] if base.is_zero() else [gin(base, seed=7)])
    for ideal in ideals:
        assert (k_polynomial(ideal.n, exponents(ideal))
                == fold_numerator(ideal.n, exponents(ideal))), ideal


monomial_ideals = st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=8)))


@given(monomial_ideals)
@settings(max_examples=200)
def test_k_polynomial_matches_lcm_fold(case):
    n, exps = case
    assert k_polynomial(n, exps) == fold_numerator(n, exps)


def check_right_tail(ideal, h):
    # A right tail is emitted exactly when hi - 1 >= deg N - n + 1, and from
    # that degree on it gives the value, inside the window and past it.
    lo, hi = h.window
    start = max(k_polynomial(ideal.n, exponents(ideal)), default=0) - ideal.n + 1
    right = h.tails[1]
    assert (right is not None) == (ideal.is_unit() or hi - 1 >= start)
    if right is not None:
        for d in range(max(lo, start), hi + 3):
            assert sum(c * d ** k for k, c in enumerate(right)) == count_outside(ideal, d)


@given(monomial_ideals, st.integers(0, 8))
@settings(max_examples=100)
def test_right_tail_holds_from_the_numerator_degree(case, hi):
    ideal = MonomialIdeal(*case)
    check_right_tail(ideal, hilbert_function(ideal, (0, hi)))


def test_right_tail_after_the_top_degree_cancels():
    # The largest lcm has degree 8 but the numerator degree 7, so the tail
    # holds from degree 7 - 5 + 1 = 3, one degree below the fold's bound.
    exps = [(1, 0, 2, 2, 0), (2, 1, 1, 0, 1), (1, 0, 1, 0, 0), (0, 2, 0, 0, 0),
            (1, 1, 0, 2, 2), (0, 1, 2, 0, 2), (0, 1, 2, 1, 0)]
    ideal = MonomialIdeal(5, exps)
    assert max(sum(m) for m in _lcm_fold(5, exponents(ideal))) == 8
    assert max(k_polynomial(5, exps)) == 7
    h = hilbert_function(ideal, (0, 4))
    assert h.tails[1] is not None
    check_right_tail(ideal, h)
    assert all(h.value(d) == count_outside(ideal, d) for d in range(12))


def test_krull_dimension():
    assert krull_dimension(MonomialIdeal(2, [(1, 1)])) == 1
    assert krull_dimension(MonomialIdeal.zero(3)) == 3
    assert krull_dimension(MonomialIdeal.unit(2)) == -1
    assert krull_dimension(MonomialIdeal(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])) == 0
    # Two disjoint edges: cover number 2.
    assert krull_dimension(MonomialIdeal(
        4, [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)])) == 2


def test_filtration_two_layers():
    filt = dimension_filtration(MonomialIdeal(2, [(2, 0), (1, 1)]))
    assert filt.dims() == [0, 1]
    assert [str(i) for i in filt.chain()] == ["(x1*x2, x1^2)", "(x1)", "(1)"]
    first, second = filt.layers
    assert (first.s, first.socle.values) == (2, {1: 1})
    assert (second.s, second.socle.values) == (1, {0: 1})


def test_filtration_primary_single_layer():
    filt = dimension_filtration(MonomialIdeal(2, [(2, 0), (1, 1), (0, 3)]))
    assert filt.dims() == [0]
    assert filt.layers[0].socle.values == {0: 1, 1: 2, 2: 1}


def test_filtration_zero_ideal():
    filt = dimension_filtration(MonomialIdeal.zero(2))
    assert filt.dims() == [2]
    assert filt.layers[0].socle.values == {0: 1}
    assert [str(i) for i in filt.chain()] == ["(0)", "(1)"]


def test_filtration_rejects():
    with pytest.raises(UndefinedInputError):
        dimension_filtration(MonomialIdeal.unit(2))
    with pytest.raises(NotStronglyStableError):
        dimension_filtration(MonomialIdeal(2, [(1, 1)]))


def brute_socle(layer, n, d):
    # Monomials supported on x1..xs that entered the saturation at this step.
    total = 0
    for u in monomials_of_degree(n, d):
        if u.max_var > layer.s and u.degree > 0:
            continue
        if layer.next_ideal.contains(u) and not layer.ideal.contains(u):
            total += 1
    return total


def test_socle_against_enumeration():
    for gens in ([(2, 0), (1, 1)], [(2, 0), (1, 1), (0, 3)], [(3, 0), (2, 1)]):
        ideal = MonomialIdeal(2, gens)
        for layer in dimension_filtration(ideal).layers:
            # Past the largest generator degree plus the x_s exponent the
            # socle is zero; the bound does not come from the socle itself.
            rho = max(g.exponent(layer.s) for g in layer.ideal.gens)
            for d in range(0, ideal.max_gen_degree() + rho + 1):
                assert layer.socle.values.get(d, 0) == brute_socle(layer, 2, d)


def test_module_hilbert_far_above_zero():
    # Degree d of a layer is the sum over its socle of h(a) copies of
    # K[x_{s+1}..x_n] shifted by a, for d near 10^8 as near 0.
    ideal = MonomialIdeal(3, [(2, 0, 0), (1, 2, 0)])
    for layer in dimension_filtration(ideal).layers:
        for lo in (0, 10 ** 8):
            hf = layer.hilbert_as_module((lo, lo + 2))
            for d in range(lo, lo + 3):
                assert hf.value(d) == sum(
                    h * comb(layer.dim - 1 + d - a, layer.dim - 1)
                    for a, h in layer.socle.values.items() if a <= d)


def test_telescoping_sum():
    ideal = MonomialIdeal(2, [(2, 0), (1, 1)])
    filt = dimension_filtration(ideal)
    window = (0, 8)
    h = hilbert_function(ideal, window)
    for d in range(window[0], window[1] + 1):
        total = sum(layer.hilbert_as_module(window).value(d)
                    for layer in filt.layers)
        assert total == h.value(d)


def test_local_cohomology_depth_zero_line():
    table = local_cohomology_strongly_stable(MonomialIdeal(2, [(2, 0)]))
    assert table.window == (-6, 2)
    assert table.indices() == [1]
    h1 = table.functions[1]
    assert h1.value(0) == 1
    assert all(h1.value(-j) == 2 for j in range(1, 7))
    assert h1.value(-40) == 2
    assert h1.value(1) == 0 and h1.value(30) == 0


def test_local_cohomology_polynomial_ring():
    table = local_cohomology_strongly_stable(MonomialIdeal.zero(2), (-5, 2))
    assert table.indices() == [2]
    h2 = table.functions[2]
    assert {d: h2.value(d) for d in range(-5, 0)} == {-5: 4, -4: 3, -3: 2, -2: 1, -1: 0}
    assert h2.value(-10) == 9


def test_local_cohomology_primary_is_h0():
    table = local_cohomology_strongly_stable(MonomialIdeal(2, [(2, 0), (1, 1), (0, 3)]))
    assert table.indices() == [0]
    assert table.functions[0].values == {0: 1, 1: 2, 2: 1}


def test_local_cohomology_rejects_non_stable():
    with pytest.raises(NotStronglyStableError):
        local_cohomology_strongly_stable(MonomialIdeal(2, [(1, 1)]))


def test_default_window():
    assert default_cohomology_window(MonomialIdeal(2, [(2, 0)])) == (-6, 2)
    assert default_cohomology_window(MonomialIdeal.zero(2)) == (-4, 0)


def lattice_count(a, m, e):
    # Vectors in Z^m with entries <= -1 summing to e - a; each entry is at
    # least e - a + m - 1, as the other m - 1 are at most -1.
    return sum(1 for v in product(range(e - a + m - 1, 0), repeat=m)
               if sum(v) == e - a)


def test_graded_count_matches_lattice_points():
    # A summand (a, m, h) counts h vectors per degree e; its tail is the
    # count below every summand, where each is polynomial in e.
    rng = random.Random(18)
    for _ in range(40):
        parts = [(rng.randint(-3, 4), rng.randint(0, 3), rng.randint(1, 3))
                 for _ in range(rng.randint(1, 4))]
        lo = rng.randint(-8, 1)
        window = (lo, lo + rng.randint(0, 6))

        def count(e):
            return sum(h * lattice_count(a, m, e) for a, m, h in parts)

        assert _graded_values(window, parts) == {
            e: count(e) for e in range(lo, window[1] + 1) if count(e)}, parts
        tail = _graded_tail(parts)
        assert len(tail) == max(m for _, m, _ in parts), parts
        below = min(a - max(m, 1) for a, m, _ in parts)
        for e in range(below - 4, below + 1):
            assert sum(c * e ** k for k, c in enumerate(tail)) == count(e), \
                (parts, e)


def binomial_in_minus_d(shift, k):
    """Coefficients of the polynomial e -> C(shift - e - 1, k), in Fractions:
    the reference for the integer tails of `_graded_tail`."""
    coeffs = [Fraction(1)]
    for t in range(1, k + 1):
        # multiply by (shift - e - t) / t handled at the end
        shifted = [Fraction(0)] + coeffs          # e * coeffs
        scaled = [Fraction(shift - t) * a for a in coeffs] + [Fraction(0)]
        coeffs = [b - a for a, b in zip(shifted, scaled)]
    f = Fraction(1, factorial(k))
    return tuple(f * a for a in coeffs)


def fraction_tail(parts):
    poly = [Fraction(0)] * max((m for _, m, _ in parts), default=0)
    for a, m, h in parts:
        if m:
            for k, coef in enumerate(binomial_in_minus_d(a, m - 1)):
                poly[k] += h * coef
    return tuple(poly)


def test_integer_tails_match_the_fraction_reference():
    # Up to six parts with m up to 14, so the tail's denominator reaches
    # 13!; each value is read off the Fraction polynomial of its part.
    assert _graded_tail([]) == fraction_tail([]) == ()
    rng = random.Random(27)
    for _ in range(300):
        parts = [(rng.randint(-20, 20), rng.randint(0, 14), rng.randint(1, 50))
                 for _ in range(rng.randint(1, 6))]
        tail = _graded_tail(parts)
        assert tail == fraction_tail(parts), parts
        assert all(type(c) is Fraction for c in tail)
        lo = rng.randint(-40, 20)
        window = (lo, lo + rng.randint(0, 12))

        def value(e):
            total = 0
            for a, m, h in parts:
                if m and e <= a - m:
                    poly = binomial_in_minus_d(a, m - 1)
                    total += h * sum(c * e ** k for k, c in enumerate(poly))
                elif not m and e == a:
                    total += h
            return total

        assert _graded_values(window, parts) == {
            e: value(e) for e in range(lo, window[1] + 1) if value(e)}, parts


def test_right_tails_match_brute_counts_up_to_8_variables():
    # The right tail of R/I in n variables has denominator (n - 1)!, 7! at
    # n = 8; from deg N - n + 1 on it gives the standard monomial count.
    assert hilbert_function(MonomialIdeal.zero(8), (0, 1)).tails[1][-1] \
        == Fraction(1, factorial(7))
    rng = random.Random(28)
    for _ in range(40):
        n = rng.randint(2, 8)
        gens = [tuple(rng.randint(0, 2) if rng.random() < 0.4 else 0
                      for _ in range(n)) for _ in range(rng.randint(0, 4))]
        ideal = MonomialIdeal(n, [g for g in gens if sum(g)])
        start = max(k_polynomial(n, exponents(ideal))) - n + 1
        hi = max(start + 1, 1)
        right = hilbert_function(ideal, (0, hi)).tails[1]
        assert right is not None, ideal
        brute = brute_hilbert(ideal, (0, hi + 2))
        for d in range(max(start, 0), hi + 3):
            assert sum(c * d ** k for k, c in enumerate(right)) == \
                brute.value(d), (ideal, d)


def exchange_witness_by_division(ideal, squarefree=False):
    """`_exchange_witness` with Monomial division and membership: the
    reference for its exponent-list test."""
    var = [Monomial.variable(i, ideal.n) for i in range(1, ideal.n + 1)]
    for u in ideal.gens:
        for i in u.support():
            for j in range(1, i):
                if squarefree and u.exponent(j):
                    continue
                if not ideal.contains(u / var[i - 1] * var[j - 1]):
                    return u, i, j
    return None


def exchange_closure(n, gens, squarefree):
    # Close the generators under the exchanges the test tries, so that
    # some ideals pass it.
    todo, seen = list(gens), set(gens)
    while todo:
        u = todo.pop()
        for i in range(n):
            for j in range(i):
                if u[i] and not (squarefree and u[j]):
                    v = list(u)
                    v[i] -= 1
                    v[j] += 1
                    if tuple(v) not in seen:
                        seen.add(tuple(v))
                        todo.append(tuple(v))
    return seen


def test_exchange_witness_matches_monomial_division():
    rng = random.Random(29)
    found = {True: 0, False: 0}
    for _ in range(200):
        n = rng.randint(2, 8)
        top = 1 if rng.random() < 0.5 else 3
        gens = {tuple(rng.randint(0, top) if rng.random() < 0.5 else 0
                      for _ in range(n)) for _ in range(rng.randint(1, 5))}
        gens.discard((0,) * n)
        squarefree = rng.random() < 0.5
        if rng.random() < 0.4 and max(map(sum, gens), default=0) <= 4:
            gens = exchange_closure(n, gens, squarefree)
        ideal = MonomialIdeal(n, gens)
        witness = _exchange_witness(ideal, squarefree=squarefree)
        assert witness == exchange_witness_by_division(ideal, squarefree), ideal
        found[witness is None] += 1
    assert min(found.values()) >= 40, found
