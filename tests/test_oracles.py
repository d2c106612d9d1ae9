"""Independent oracles: enumerated Hilbert functions, Koszul Betti numbers,
and Cech local cohomology."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from seqcm import groebner, monomial, oracles
from seqcm.errors import BoundTooSmallError, CapacityError, UndefinedInputError
from seqcm.corpus import COMPLEXES, IDEALS, corpus_complex, corpus_ideal
from seqcm.groebner import (
    _STEPS,
    PolynomialIdeal,
    _divide,
    _generators,
    _groebner,
    _leads,
    _pack,
    _substitute,
    _to_polynomial,
    gin,
)
from seqcm.linalg import rank
from seqcm.monomial import (
    MonomialIdeal,
    hilbert_function,
    local_cohomology_strongly_stable,
    monomials_of_degree,
)
from seqcm.oracles import (
    CECH_MAX_WORK,
    _cech_blocks,
    _cech_piece,
    _cech_spots,
    _koszul_general,
    _koszul_monomial,
    _koszul_spots,
    _subsets_by_size,
    brute_cech_window,
    brute_hilbert,
    cech_local_cohomology,
    depth_and_dim,
    koszul_betti,
)
from seqcm.rings import Monomial, random_unipotent
from seqcm.simplicial import (
    SimplicialComplex,
    complex_of,
    hochster_betti,
    local_cohomology_face_ring,
    stanley_reisner_ideal,
)

disjoint_edges_ideal = MonomialIdeal(
    4, [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)])


def test_brute_hilbert_examples():
    got = brute_hilbert(MonomialIdeal(2, [(1, 1)]), (0, 5))
    assert got.values == {0: 1, 1: 2, 2: 2, 3: 2, 4: 2, 5: 2}
    assert brute_hilbert(MonomialIdeal.unit(3), (0, 2)).values == {}
    assert brute_hilbert(disjoint_edges_ideal, (0, 4)).values == \
        {0: 1, 1: 4, 2: 6, 3: 8, 4: 10}


small_ideals = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    min_size=0, max_size=4,
).map(lambda exps: MonomialIdeal(3, [e for e in exps if sum(e)]))


@given(small_ideals)
@settings(max_examples=40)
def test_brute_hilbert_matches_closed_form(ideal):
    window = (0, 8)
    assert brute_hilbert(ideal, window).values == \
        hilbert_function(ideal, window).values


def test_koszul_monomial_route():
    assert koszul_betti(MonomialIdeal(2, [(1, 1)])).entries == \
        {(0, 0): 1, (1, 2): 1}
    assert koszul_betti(MonomialIdeal(2, [(1, 0), (0, 1)])).entries == \
        {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    assert koszul_betti(MonomialIdeal(3, [(1, 1, 0), (1, 0, 1)])).entries == \
        {(0, 0): 1, (1, 2): 2, (2, 3): 1}


def test_koszul_general_route():
    ci = PolynomialIdeal.from_strings(3, ["x1^2", "x2^2"])
    assert koszul_betti(ci).entries == {(0, 0): 1, (1, 2): 2, (2, 4): 1}
    tc = PolynomialIdeal.from_strings(
        4, ["x1*x3 - x2^2", "x2*x4 - x3^2", "x1*x4 - x2*x3"])
    assert koszul_betti(tc).entries == {(0, 0): 1, (1, 2): 3, (2, 3): 2}


def test_koszul_agrees_with_hochster():
    for cx in (SimplicialComplex(3, [(1, 2), (1, 3), (2, 3)]),
               SimplicialComplex(2, [(1,), (2,)]),
               SimplicialComplex(4, [(1, 2), (3, 4)]),
               SimplicialComplex(3, [(2, 3), (1,)])):
        ideal = stanley_reisner_ideal(cx)
        assert koszul_betti(ideal).entries == hochster_betti(cx).entries


def test_koszul_agrees_with_hochster_on_seeded_complexes():
    rng = random.Random(20)
    for _ in range(20):
        n = rng.randint(3, 6)
        cx = SimplicialComplex(n, [
            rng.sample(range(1, n + 1), rng.randint(1, n - 1))
            for _ in range(rng.randint(2, 6))])
        ideal = stanley_reisner_ideal(cx)
        assert koszul_betti(ideal).entries == hochster_betti(cx).entries, cx


def test_koszul_bound_too_small():
    with pytest.raises(BoundTooSmallError):
        koszul_betti(PolynomialIdeal.from_strings(3, ["x1^2", "x2^2"]), bound=2)


def test_koszul_capacity():
    wide = MonomialIdeal(11, [tuple(1 if i < 2 else 0 for i in range(11))])
    with pytest.raises(CapacityError):
        koszul_betti(wide)
    # Both caps name the route that takes squarefree input past them.
    for oracle in (koszul_betti, depth_and_dim):
        with pytest.raises(CapacityError, match="betti without --oracle"):
            oracle(wide)


def test_depth_and_dim():
    assert depth_and_dim(disjoint_edges_ideal) == (1, 2)
    assert depth_and_dim(MonomialIdeal(2, [(1, 1)])) == (1, 1)
    assert depth_and_dim(MonomialIdeal(2, [(1, 0), (0, 1)])) == (0, 0)
    assert depth_and_dim(MonomialIdeal.zero(3)) == (3, 3)
    with pytest.raises(UndefinedInputError):
        depth_and_dim(MonomialIdeal.unit(2))


def test_cech_depth_zero_example():
    table = cech_local_cohomology(MonomialIdeal(2, [(1, 1)]))
    h1 = table.functions[1]
    assert h1.value(0) == 1
    assert all(h1.value(-j) == 2 for j in range(1, 5))
    assert h1.value(-30) == 2
    assert table.value(2, -2) == 0


def test_cech_disjoint_edges():
    table = cech_local_cohomology(disjoint_edges_ideal)
    assert table.window == (-8, 2)
    assert table.functions[1].values == {0: 1}
    h2 = table.functions[2]
    assert {d: h2.value(d) for d in range(-4, 1)} == {-4: 6, -3: 4, -2: 2, -1: 0, 0: 0}
    assert h2.value(-20) == 38


def test_cech_polynomial_ring_and_unit():
    table = cech_local_cohomology(MonomialIdeal.zero(2), (-5, 2))
    assert table.indices() == [2]
    assert table.functions[2].value(-7) == 6
    assert cech_local_cohomology(MonomialIdeal.unit(2), (-3, 1)).functions == {}


def test_cech_matches_filtration_route():
    for gens in ([(2, 0)], [(2, 0), (1, 1), (0, 3)], [(2, 0), (1, 1)], []):
        ideal = MonomialIdeal(2, gens)
        window = (-6, 3)
        left = cech_local_cohomology(ideal, window)
        right = local_cohomology_strongly_stable(ideal, window)
        assert left.equal_on(right, window)
        assert left.diff(right, window) == []


def test_cech_matches_filtration_route_on_every_window():
    # Windows below, across and above each H^i's support: the two routes
    # give the same table, including an H^i with no values on the window.
    for name in sorted(IDEALS):
        g = gin(corpus_ideal(name), 7)
        for lo in range(-12, 10, 3):
            for width in (0, 1, 2, 5):
                window = (lo, lo + width)
                assert (cech_local_cohomology(g, window).to_json()
                        == local_cohomology_strongly_stable(g, window).to_json()), \
                    (name, window)


def test_brute_cech_matches_patterns():
    for ideal, window in ((MonomialIdeal(2, [(1, 1)]), (-4, 1)),
                          (disjoint_edges_ideal, (-4, 1)),
                          (MonomialIdeal.zero(2), (-4, 0)),
                          (MonomialIdeal(3, [(1, 1, 1)]), (-5, 1))):
        fast = cech_local_cohomology(ideal, window)
        brute = brute_cech_window(ideal, window, slack=1)
        assert fast.equal_on(brute, window)


def test_cech_capacity(monkeypatch):
    # The cap bounds the spot pass's step count prod(1 + 2 rho_k), not the
    # variables, and is checked before any pattern is enumerated.
    def no_pattern(*args):
        raise AssertionError("a pattern was enumerated")

    monkeypatch.setattr(oracles, "_cech_piece", no_pattern)
    for ideal in (MonomialIdeal(13, [(1,) * 13]),          # 3^13 steps
                  MonomialIdeal(1, [(CECH_MAX_WORK // 2 + 1,)])):
        with pytest.raises(CapacityError, match="Cech oracle work"):
            cech_local_cohomology(ideal)
    with pytest.raises(CapacityError, match="Cech oracle work"):
        brute_cech_window(MonomialIdeal(9, [(1,) * 9]), (-2, 0))
    # Variables alone are not work: x1*x2 in nine variables is 9 steps.
    monkeypatch.undo()
    wide = MonomialIdeal(9, [tuple(1 if i < 2 else 0 for i in range(9))])
    assert cech_local_cohomology(wide).indices() == [8]


def _cycle(n):
    return SimplicialComplex(n, [(i, i % n + 1) for i in range(1, n + 1)])


def _cech_agrees_with_the_face_ring(cx):
    face_ring = local_cohomology_face_ring(cx)
    cech = cech_local_cohomology(stanley_reisner_ideal(cx), face_ring.window)
    assert cech.same_function(face_ring), cx


def test_cech_matches_the_face_ring_on_the_9_cycle():
    # Nine variables, 3^9 steps of the spot pass.
    _cech_agrees_with_the_face_ring(_cycle(9))


def _random_complex(seed, n):
    rng = random.Random(seed)
    return SimplicialComplex(n, [rng.sample(range(1, n + 1), rng.randint(1, 4))
                                 for _ in range(2 * n)])


@pytest.mark.parametrize("cx", [_cycle(10), _cycle(11), _cycle(12),
                                _random_complex(1, 10)],
                         ids=["cycle-10", "cycle-11", "cycle-12", "random-10"])
def test_cech_matches_the_face_ring_on_the_ladder(cx):
    _cech_agrees_with_the_face_ring(cx)


def evaluate_tail(tail, e):
    return sum(Fraction(c) * e ** k for k, c in enumerate(tail))


def test_alternating_sum_recovers_hilbert_polynomial():
    """H(e) - P(e) = sum_i (-1)^i dim H^i_m(R/I)_e, with P read off the
    eventual polynomial tail of the Hilbert function."""
    ideals = [
        MonomialIdeal(2, [(1, 1)]),
        MonomialIdeal(2, [(2, 0), (1, 1)]),
        disjoint_edges_ideal,
        MonomialIdeal(3, [(1, 1, 1)]),
        MonomialIdeal(3, [(1, 1, 0), (1, 0, 1)]),
        MonomialIdeal.zero(2),
    ]
    for ideal in ideals:
        h = hilbert_function(ideal, (0, 10))
        tail = h.tails[1]
        assert tail is not None
        table = cech_local_cohomology(ideal)
        lo, hi = table.window
        for e in range(lo, hi + 1):
            value = h.value(e) if e >= 0 else 0
            alternating = sum((-1) ** i * table.value(i, e)
                              for i in range(ideal.n + 1))
            assert value - evaluate_tail(tail, e) == alternating, (ideal, e)


def cech_spot_reference(n, gen_exps, a):
    cech = [set() for _ in range(n + 1)]
    for mask in range(1 << n):
        held = all(mask >> k & 1 for k in range(n) if a[k] < 0)
        blocked = any(all(mask >> k & 1 or u[k] <= a[k]
                          for k in range(n)) for u in gen_exps)
        if held and not blocked:
            cech[bin(mask).count("1")].add(mask)
    return cech


def test_spot_masks_match_the_membership_predicates():
    # The Cech and Koszul spots are mask tests; pin them to the plain
    # predicates on non-squarefree ideals and on degrees with negative entries.
    rng = random.Random(11)
    for _ in range(80):
        n = rng.randint(1, 5)
        gens = [tuple(rng.randint(0, 3) for _ in range(n))
                for _ in range(rng.randint(0, 5))]
        ideal = MonomialIdeal(n, [g for g in gens if sum(g)])
        gen_exps = [g.exponents for g in ideal.gens]
        subsets = _subsets_by_size(n)
        for _ in range(8):
            a = tuple(rng.randint(-2, 3) for _ in range(n))
            cech = cech_spot_reference(n, gen_exps, a)
            assert [set(level) for level in _cech_spots(n, gen_exps, a)] == cech

            b = tuple(max(v, 0) for v in a)
            koszul = [set() for _ in range(n + 2)]
            for mask in range(1 << n):
                rest = tuple(b[k] - (mask >> k & 1) for k in range(n))
                if min(rest, default=0) >= 0 and not ideal.contains(Monomial(rest)):
                    koszul[bin(mask).count("1")].add(mask)
            got = _koszul_spots(gen_exps, b, subsets)
            assert [set(level) for level in got] == koszul

    # Squarefree patterns: a is 0/-1, and a pattern whose negative set is a
    # nonface (holds a generator's support) has no spots, the early exit.
    exits = 0
    for _ in range(40):
        n = rng.randint(1, 7)
        gens = [tuple(int(rng.random() < 0.4) for _ in range(n))
                for _ in range(rng.randint(0, 5))]
        ideal = MonomialIdeal(n, [g for g in gens if sum(g)])
        gen_exps = [g.exponents for g in ideal.gens]
        for _ in range(8):
            a = tuple(-rng.randint(0, 1) for _ in range(n))
            neg = tuple(int(v < 0) for v in a)
            spots = [set(level) for level in _cech_spots(n, gen_exps, a)]
            assert spots == cech_spot_reference(n, gen_exps, a)
            if ideal.contains(Monomial(neg)):
                exits += 1
                assert not any(spots)
    assert exits > 50


# The three chain-complex sites without clearing: every boundary map through
# rank with all of its rows.


def all_rows_koszul_monomial(ideal, bound):
    n = ideal.n
    gen_exps = [g.exponents for g in ideal.gens]
    lcm_exps = [max((u[k] for u in gen_exps), default=0) for k in range(n)]
    entries = {}
    subsets = _subsets_by_size(n)
    for a in product(*(range(e + 1) for e in lcm_exps)):
        if sum(a) > bound:
            continue
        spots = _koszul_spots(gen_exps, a, subsets)
        ranks = [0] * (n + 2)
        for i in range(1, n + 1):
            rows = []
            for mask in spots[i]:
                row, sign = {}, 1
                for k in range(n):
                    if mask >> k & 1:
                        sub = mask ^ (1 << k)
                        if sub in spots[i - 1]:
                            row[spots[i - 1][sub]] = sign
                        sign = -sign
                rows.append(row)
            ranks[i] = rank(rows)
        for i in range(n + 1):
            h = len(spots[i]) - ranks[i] - ranks[i + 1]
            if h:
                entries[(i, sum(a))] = entries.get((i, sum(a)), 0) + h
    return entries


def all_rows_koszul_general(n, elements, lead_ideal, bound):
    if lead_ideal.is_unit():
        return {}
    std = {d: [_pack(m.exponents) for m in monomials_of_degree(n, d)
               if not lead_ideal.contains(m)] for d in range(bound + 1)}
    subsets = _subsets_by_size(n)

    def basis(i, j):
        if i < 0 or i > n or j - i < 0 or j - i > bound:
            return []
        return [(mask, m) for mask in subsets[i] for m in std[j - i]]

    def boundary_rank(i, j):
        target = {key: idx for idx, key in enumerate(basis(i - 1, j))}
        rows = []
        for mask, m in basis(i, j):
            row, sign = {}, 1
            for k in range(n):
                if mask >> k & 1:
                    sub = mask ^ (1 << k)
                    nf = _divide(n, {m + _STEPS[n][k]: 1}, elements)
                    for mono, c in nf.items():
                        idx = target[(sub, mono)]
                        row[idx] = row.get(idx, 0) + sign * c
                    sign = -sign
            rows.append(row)
        return rank(rows)

    entries = {}
    for j in range(bound + 1):
        for i in range(n + 1):
            h = (len(basis(i, j)) - boundary_rank(i, j)
                 - boundary_rank(i + 1, j))
            if h:
                entries[(i, j)] = h
    return entries


def all_rows_cech_piece(n, gen_exps, a, blocks):
    spots = _cech_spots(n, gen_exps, a, blocks)
    ranks = [0] * (n + 2)
    for i in range(n):
        rows = []
        for mask in spots[i]:
            row = {}
            for j in range(n):
                up = mask | (1 << j)
                if not mask >> j & 1 and up in spots[i + 1]:
                    below = bin(mask & ((1 << j) - 1)).count("1")
                    row[spots[i + 1][up]] = -1 if below % 2 else 1
            rows.append(row)
        ranks[i + 1] = rank(rows)
    dims = {}
    for i in range(n + 1):
        h = len(spots[i]) - ranks[i + 1] - ranks[i]
        if h:
            dims[i] = h
    return dims


def clearing_ideals():
    # Corpus ideals and their gins, the face ideals of the corpus complexes,
    # seeded monomial and binomial ideals, and the edge inputs: the face
    # ideals of the irrelevant and the void complex, unit and zero ideals,
    # and one variable.
    out = []
    for name in sorted(IDEALS):
        out += [corpus_ideal(name), gin(corpus_ideal(name), 7)]
    out += [stanley_reisner_ideal(corpus_complex(name))
            for name in sorted(COMPLEXES)]
    out += [stanley_reisner_ideal(edge(n)) for n in (1, 3)
            for edge in (SimplicialComplex.irrelevant, SimplicialComplex.void)]
    out += [MonomialIdeal.unit(n) for n in (1, 3)]
    out += [MonomialIdeal.zero(n) for n in (1, 3)]
    out += [PolynomialIdeal.from_strings(1, ["x1^3"]),
            PolynomialIdeal.from_strings(3, []),
            PolynomialIdeal.from_strings(2, ["1"]),
            PolynomialIdeal.from_strings(2, ["x1 - x2", "x2"]),
            MonomialIdeal(1, [(2,)]),
            # its Cech piece in degree (0, 0, 0, 1, 1) loses rank if the row
            # after each pivot is cleared instead of the pivot's own
            MonomialIdeal(5, [(1, 1, 0, 0, 0), (0, 1, 2, 1, 1),
                              (1, 0, 2, 2, 2)])]
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(1, 5)
        gens = [tuple(rng.randint(0, 2) for _ in range(n))
                for _ in range(rng.randint(1, 5))]
        out.append(MonomialIdeal(n, [g for g in gens if sum(g)]))
    for _ in range(4):
        n = rng.randint(2, 3)
        gens = []
        for _ in range(rng.randint(1, 2)):
            a, b = (rng.sample(range(1, n + 1), 2), rng.sample(range(1, n + 1), 2))
            gens.append("x%d*x%d - %d*x%d*x%d" % (a[0], a[1], rng.randint(2, 3),
                                                 b[0], b[1]))
        out.append(PolynomialIdeal.from_strings(n, gens))
    return out


def test_cleared_sites_match_the_all_rows_references():
    rng = random.Random(13)
    general = 0
    for ideal in clearing_ideals():
        n = ideal.n
        if isinstance(ideal, MonomialIdeal):
            gen_exps = [g.exponents for g in ideal.gens]
            rho = [max((u[k] for u in gen_exps), default=0) for k in range(n)]
            bound = sum(rho) + 2
            assert (_koszul_monomial(ideal, bound)
                    == all_rows_koszul_monomial(ideal, bound)), ideal
            blocks = _cech_blocks(n, gen_exps)
            degrees = list(product(*(range(-1, r) for r in rho)))
            degrees += [tuple(rng.randint(-2, 3) for _ in range(n))
                        for _ in range(10)]
            for a in degrees:
                assert (_cech_piece(n, gen_exps, a, blocks)
                        == all_rows_cech_piece(n, gen_exps, a, blocks)), \
                    (ideal, a)
        else:
            elements = _groebner(n, _generators(ideal))
            lead = MonomialIdeal(n, _leads(n, elements))
            general += not lead.is_unit()
            bound = 2 + sum(max(col) for col in zip(*(
                g.exponents for g in lead.gens)))
            assert (_koszul_general(n, elements, lead, bound)
                    == all_rows_koszul_general(n, elements, lead, bound)), ideal
    assert general >= 10


def test_koszul_general_route_reads_packed_integers_only(monkeypatch):
    # The general Koszul route grows its standard monomials from packed
    # leads and reduces with `_remainder`: no rational division, no
    # Monomial enumeration and no membership scan.  The Fraction reference
    # above, which uses all three, gives the expected tables first.
    cases = []
    for ideal in clearing_ideals():
        if isinstance(ideal, MonomialIdeal):
            continue
        n = ideal.n
        elements = _groebner(n, _generators(ideal))
        lead = MonomialIdeal(n, _leads(n, elements))
        bound = 2 + sum(max(col) for col in zip(*(
            g.exponents for g in lead.gens)))
        cases.append((n, elements, lead, bound,
                      all_rows_koszul_general(n, elements, lead, bound)))
    tc = PolynomialIdeal.from_strings(
        4, ["x1*x3 - x2^2", "x2*x4 - x3^2", "x1*x4 - x2*x3"])
    expected = koszul_betti(tc).entries

    def refuse(*args, **kwargs):
        raise AssertionError("the general Koszul route left packed integers")

    monkeypatch.setattr(groebner, "_divide", refuse)
    monkeypatch.setattr(monomial, "monomials_of_degree", refuse)
    monkeypatch.setattr(oracles, "monomials_of_degree", refuse)
    monkeypatch.setattr(MonomialIdeal, "contains", refuse)
    for n, elements, lead, bound, table in cases:
        assert _koszul_general(n, elements, lead, bound) == table
    assert koszul_betti(tc).entries == expected
    assert len(cases) >= 10


def _transformed(ideal, seed):
    """u . I for u = random_unipotent(n, seed), as a PolynomialIdeal."""
    n, rows = ideal.n, random_unipotent(ideal.n, seed)
    return PolynomialIdeal(n, [_to_polynomial(n, _substitute(n, p, rows))
                               for p in _generators(ideal)])


def test_koszul_betti_survives_a_change_of_coordinates():
    # Third route: graded Betti numbers do not move under a graded change of
    # coordinates, so the general route on u . I must give the monomial
    # route's table of I, and Hochster's where I is squarefree.
    rng = random.Random(16)
    squarefree = 0
    for s in range(30):
        n = rng.randint(2, 4)
        top = rng.choice((1, 2))
        gens = [tuple(rng.randint(0, top) for _ in range(n))
                for _ in range(rng.randint(1, 3))]
        ideal = MonomialIdeal(n, [g for g in gens if sum(g)])
        table = koszul_betti(ideal).entries
        assert koszul_betti(_transformed(ideal, s)).entries == table, ideal
        if ideal.is_squarefree():
            squarefree += 1
            assert hochster_betti(complex_of(ideal)).entries == table, ideal
    assert squarefree >= 10
