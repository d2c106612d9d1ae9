"""Independent oracles: enumerated Hilbert functions, Koszul Betti numbers,
and Cech local cohomology."""

import hashlib
import json
import random
import sys
from fractions import Fraction
from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from seqcm import groebner, linalg, monomial, oracles, simplicial
from seqcm.errors import BoundTooSmallError, CapacityError, UndefinedInputError
from seqcm.groebner import (
    _STEPS,
    PolynomialIdeal,
    _generators,
    _groebner,
    _leads,
    _pack,
    _remainder,
    _substitute,
    _to_polynomial,
    gin,
)
from seqcm.linalg import pivots
from seqcm.monomial import (
    MonomialIdeal,
    _graded_sum,
    default_cohomology_window,
    dimension_filtration,
    hilbert_function,
    local_cohomology_strongly_stable,
    monomials_of_degree,
)
from seqcm.oracles import (
    CECH_MAX_WORK,
    KOSZUL_MAX_BASIS,
    KOSZUL_MAX_BOUND,
    _cech_blocks,
    _cech_piece,
    _cech_spots,
    _cech_walk,
    _koszul_general,
    _koszul_monomial,
    _koszul_spots,
    brute_hilbert,
    cech_local_cohomology,
    depth_and_dim,
    koszul_betti,
)
from seqcm.rings import Monomial, random_unipotent
from seqcm.tables import CohomologyTable, HilbertFunction
from seqcm.simplicial import (
    SimplicialComplex,
    complex_of,
    hochster_betti,
    local_cohomology_face_ring,
    shifted_complex,
    stanley_reisner_ideal,
)
from corpus_entries import COMPLEXES, IDEALS, corpus_complex, corpus_ideal
from test_groebner import _cross_polytope
from test_linalg import rank

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


def borel_closure(n, exponents):
    """The strongly stable ideal generated by the monomials: closed under
    x_j * u / x_i for x_i | u and j < i."""
    seen = set(map(tuple, exponents))
    todo = list(seen)
    while todo:
        u = todo.pop()
        for i in range(1, n):
            for j in range(i if u[i] else 0):
                v = u[:j] + (u[j] + 1,) + u[j + 1:i] + (u[i] - 1,) + u[i + 1:]
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
    return MonomialIdeal(n, seen)


# sha256 of the grid below, recorded before the Cech and filtration routes
# shared their graded count: any change to a value, a tail or a socle moves it.
PINNED_GRID_DIGEST = (
    "9a78872357ab6d1c2afe70bc3c38e59712b755ab37d722ad81f58ae7fd7f26ce")


def test_cohomology_and_hilbert_json_on_a_pinned_grid():
    rng = random.Random(18)
    ideals = [MonomialIdeal.zero(2), MonomialIdeal(1, [(2,)])]
    for _ in range(10):
        n = rng.randint(1, 3)
        gens = [tuple(rng.randint(0, 2) for _ in range(n))
                for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if any(g)] or [(1,) + (0,) * (n - 1)]
        ideals.append(MonomialIdeal(n, gens))
    windows = [(lo, lo + w) for lo in (-7, -4, -2, -1, 0, 2) for w in (0, 1, 3)]
    out = []
    for ideal in ideals:
        stable = borel_closure(ideal.n, [g.exponents for g in ideal.gens])
        layers = dimension_filtration(stable).layers
        out.append([[layer.s, sorted(layer.socle.values.items())]
                    for layer in layers])
        for w in windows:
            out.append(cech_local_cohomology(ideal, w).to_json())
            out.append(local_cohomology_strongly_stable(stable, w).to_json())
            out.append(hilbert_function(ideal, w).to_json())
            out.append([layer.hilbert_as_module(w).to_json() for layer in layers])
    blob = json.dumps(out, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PINNED_GRID_DIGEST


def _cech_pattern(a, blocks):
    """(neg, free blocks) of the degree a: the mask of its negative entries,
    and blocks[k][a_k] for each other variable k, in order."""
    neg = sum(1 << k for k, v in enumerate(a) if v < 0)
    return neg, [b[min(v, len(b) - 1)] for b, v in zip(blocks, a) if v >= 0]


def brute_cech_window(ideal, window, slack=0):
    """Windowed Cech cohomology by raw multidegree enumeration in a box.

    Independent of the pattern bookkeeping in cech_local_cohomology: every
    multidegree in a provably sufficient box is evaluated on the nose.
    The box is then widened by one on every side and the totals must not
    move; ``slack`` widens the starting box.  The widened box's size times
    2^n is held to CECH_MAX_WORK.
    """
    if not isinstance(ideal, MonomialIdeal):
        raise UndefinedInputError("Cech route needs a monomial ideal")
    n = ideal.n
    lo, hi = window
    gen_exps = [g.exponents for g in ideal.gens]
    rho = [max((u[k] for u in gen_exps), default=0) for k in range(n)]
    # Every axis of the widened box spans sum(rho) + n*slack - lo + slack + 2
    # values, and each multidegree visits at most 2^n spots.
    work = max(0, sum(rho) + (n + 1) * slack - lo + 2) ** n << n
    if work > CECH_MAX_WORK:
        raise CapacityError("Cech oracle work (box size x 2^n)",
                            CECH_MAX_WORK, work)
    blocks = _cech_blocks(gen_exps, rho)
    every = (1 << len(gen_exps)) - 1

    def totals(extra):
        upper = [rho[k] - 1 + extra for k in range(n)]
        lower = [lo - sum(upper[t] for t in range(n) if t != k) - extra
                 for k in range(n)]
        out = {}
        for a in product(*(range(lower[k], upper[k] + 1) for k in range(n))):
            j = sum(a)
            if not lo <= j <= hi:
                continue
            for i, h in _cech_piece(n, *_cech_pattern(a, blocks),
                                    every).items():
                out[(i, j)] = out.get((i, j), 0) + h
        return out

    first = totals(slack)
    assert first == totals(slack + 1), \
        "windowed Cech totals changed when the box was widened"
    funcs = {}
    for (i, j), h in sorted(first.items()):
        funcs.setdefault(i, {})[j] = h
    return CohomologyTable(
        (lo, hi),
        {i: HilbertFunction((lo, hi), vals) for i, vals in funcs.items()})


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
    # variables, and is checked before any pattern is enumerated.  Every
    # live pattern of the walk goes through _cech_piece, so the patch sees
    # the first one: x1*x2 under the cap reaches it.
    def no_pattern(*args):
        raise AssertionError("a pattern was enumerated")

    monkeypatch.setattr(oracles, "_cech_piece", no_pattern)
    with pytest.raises(AssertionError, match="a pattern was enumerated"):
        cech_local_cohomology(MonomialIdeal(2, [(1, 1)]))
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


def test_cech_walk_yields_the_covering_patterns_in_product_order():
    # The walk drops a prefix once its free blocks, with the value-0 blocks
    # of the variables after it, cannot cover every generator.  It must
    # yield exactly the product-order patterns whose free blocks cover, in
    # that order, with their (neg, free blocks).
    rng = random.Random(28)
    ideals = [MonomialIdeal.zero(n) for n in (1, 3)]
    for _ in range(150):
        n = rng.randint(1, 6)
        top = rng.choice((1, 2, 3))
        gens = [tuple(rng.randint(0, top) if rng.random() < 0.6 else 0
                      for _ in range(n)) for _ in range(rng.randint(1, 5))]
        ideals.append(MonomialIdeal(n, [g for g in gens if sum(g)]))
    kinds = {"squarefree": 0, "not squarefree": 0, "rho_k = 0": 0}
    for ideal in ideals:
        n = ideal.n
        gen_exps = [g.exponents for g in ideal.gens]
        rho = rho_of(gen_exps, n)
        blocks = _cech_blocks(gen_exps, rho)
        every = (1 << len(gen_exps)) - 1
        expected = []
        for c in product(*(range(-1, r) for r in rho)):
            neg, free_blocks = _cech_pattern(c, blocks)
            if reduce(int.__or__, free_blocks, 0) == every:
                expected.append((c, neg, free_blocks))
        assert list(_cech_walk(rho, blocks, every)) == expected, ideal
        kinds["squarefree" if max(rho) <= 1 else "not squarefree"] += 1
        kinds["rho_k = 0"] += 0 in rho
    assert min(kinds.values()) >= 30, kinds
    # On a face ideal the live patterns are -1 on a face and 0 elsewhere,
    # one per face: 25 on the 12-cycle, 81 on the boundary of cross4.
    for cx, faces in ((_cycle(12), 25), (_cross_polytope(4), 81)):
        ideal = stanley_reisner_ideal(cx)
        gen_exps = [g.exponents for g in ideal.gens]
        rho = rho_of(gen_exps, cx.n)
        live = list(_cech_walk(rho, _cech_blocks(gen_exps, rho),
                               (1 << len(gen_exps)) - 1))
        assert len(live) == faces
        for c, _, _ in live:
            assert not ideal.contains(Monomial(tuple(-v for v in c))), c


def cech_all_patterns(ideal, window):
    """The Cech table summed over every clamped pattern, covering or not:
    the product loop that the walk replaced."""
    n = ideal.n
    gen_exps = [g.exponents for g in ideal.gens]
    rho = rho_of(gen_exps, n)
    blocks = _cech_blocks(gen_exps, rho)
    contributions = {}
    for c in product(*(range(-1, r) for r in rho)):
        for i, h in degree_piece(n, gen_exps, c, blocks).items():
            contributions.setdefault(i, []).append(
                (sum(v for v in c if v > 0), c.count(-1), h))
    return CohomologyTable(window, {
        i: _graded_sum(window, parts)
        for i, parts in sorted(contributions.items())})


def test_the_walk_gives_the_tables_of_every_pattern(monkeypatch):
    ideals = [gin(corpus_ideal(name), 7) for name in sorted(IDEALS)]
    ideals += [corpus_ideal(name).as_monomial_ideal() for name in sorted(IDEALS)
               if corpus_ideal(name).is_monomial()]
    ideals += [stanley_reisner_ideal(corpus_complex(name))
               for name in sorted(COMPLEXES)]
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(1, 5)
        top = rng.choice((1, 2))
        gens = [tuple(rng.randint(0, top) for _ in range(n))
                for _ in range(rng.randint(0, 4))]
        ideals.append(MonomialIdeal(n, [g for g in gens if sum(g)]))
    for ideal in ideals:
        lo, hi = default_cohomology_window(ideal)
        for window in ((lo, hi), (lo - 3, hi + 2)):
            assert (cech_local_cohomology(ideal, window).to_json()
                    == cech_all_patterns(ideal, window).to_json()), \
                (ideal, window)

    # Dead patterns had empty pieces, so elimination sees the same calls
    # and rows as over every pattern: 108 calls and 272 rows on cross4's
    # face ideal, 14 and 24 on the 12-cycle's.
    counts = []

    def counted(rows):
        rows = list(rows)
        counts.append(len(rows))
        return pivots(rows)

    monkeypatch.setattr(linalg, "pivots", counted)
    for cx, calls, rows in ((_cross_polytope(4), 108, 272),
                            (_cycle(12), 14, 24)):
        counts.clear()
        cech_local_cohomology(stanley_reisner_ideal(cx))
        assert (len(counts), sum(counts)) == (calls, rows)


def test_koszul_monomial_capacity(monkeypatch):
    # The monomial Koszul route's spot pass takes the same prod(1 + 2 rho_k)
    # steps as Cech's, and is refused over CECH_MAX_WORK before any
    # multidegree: (x1^3, ..., x8^3, x1*...*x8) takes 7^8 steps.
    def no_spots(*args):
        raise AssertionError("a multidegree was visited")

    monkeypatch.setattr(oracles, "_koszul_spots", no_spots)
    cubes = MonomialIdeal(8, [tuple(3 * (k == i) for k in range(8))
                              for i in range(8)] + [(1,) * 8])
    with pytest.raises(CapacityError, match="Koszul oracle work") as exc:
        koszul_betti(cubes)
    assert exc.value.requested == 7 ** 8
    with pytest.raises(CapacityError, match="Koszul oracle work"):
        depth_and_dim(cubes)


def test_koszul_general_capacity(monkeypatch):
    # The general route counts its basis up to the bound, sum over j and i
    # of C(n, i) HF(R/in I)(j - i), from the K-polynomial of the lead ideal,
    # and is refused over KOSZUL_MAX_BASIS before any standard monomial.
    def no_complex(*args):
        raise AssertionError("the Koszul complex was built")

    monkeypatch.setattr(oracles, "_koszul_general", no_complex)
    pair = PolynomialIdeal.from_strings(10, ["x1^2 + x2*x3", "x4*x5 - x6^2"])
    with pytest.raises(CapacityError, match="Koszul complex basis") as exc:
        koszul_betti(pair, bound=KOSZUL_MAX_BOUND)
    assert (exc.value.requested, exc.value.limit) == (
        81_311_391_216, KOSZUL_MAX_BASIS)
    # Bound 8 is admitted, bound 9 is not.
    monkeypatch.setattr(oracles, "KOSZUL_MAX_BASIS", 0)
    for bound, size in ((6, 117_744), (8, 996_336), (9, 2_486_000)):
        with pytest.raises(CapacityError) as exc:
            koszul_betti(pair, bound=bound)
        assert exc.value.requested == size
        assert (size > KOSZUL_MAX_BASIS) == (bound == 9)
    # depth_and_dim takes the same path at the default bound.
    cubic = PolynomialIdeal.from_strings(
        4, ["x1*x3 - x2^2", "x2*x4 - x3^2", "x1*x4 - x2*x3"])
    with pytest.raises(CapacityError, match="Koszul complex basis"):
        depth_and_dim(cubic)


def _cycle(n):
    return SimplicialComplex(n, [(i, i % n + 1) for i in range(1, n + 1)])


def _cech_agrees_with_the_face_ring(cx):
    face_ring = local_cohomology_face_ring(cx)
    cech = cech_local_cohomology(stanley_reisner_ideal(cx), face_ring.window)
    assert cech.same_function(face_ring), cx
    assert cech.to_json() == face_ring.to_json(), cx


def test_cech_matches_the_face_ring_on_the_9_cycle():
    # Nine variables, 3^9 steps of the spot pass.
    _cech_agrees_with_the_face_ring(_cycle(9))


def _random_complex(seed, n):
    rng = random.Random(seed)
    return SimplicialComplex(n, [rng.sample(range(1, n + 1),
                                            rng.randint(1, min(4, n)))
                                 for _ in range(2 * n)])


@pytest.mark.parametrize("cx", [_cycle(10), _cycle(11), _cycle(12),
                                _random_complex(1, 10), _cross_polytope(4),
                                _cross_polytope(5)],
                         ids=["cycle-10", "cycle-11", "cycle-12", "random-10",
                              "cross4", "cross5"])
def test_cech_matches_the_face_ring_on_the_ladder(cx):
    _cech_agrees_with_the_face_ring(cx)


def test_face_ring_and_cech_tables_are_equal_on_corpus_windows():
    # Both routes end in the one graded count, so their tables are equal as
    # JSON, tails and empty indices included, on every window: 1,309 tables.
    for name in COMPLEXES:
        cx = corpus_complex(name)
        ideal = stanley_reisner_ideal(cx)
        for lo in range(-8, 3):
            for hi in range(lo, 4):
                assert (local_cohomology_face_ring(cx, (lo, hi)).to_json()
                        == cech_local_cohomology(ideal, (lo, hi)).to_json()), \
                    (name, lo, hi)


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


def degree_spots(n, gen_exps, a, blocks):
    """The Cech spots of any degree a, through its (neg, free blocks)."""
    return _cech_spots(n, *_cech_pattern(a, blocks), (1 << len(gen_exps)) - 1)


def degree_piece(n, gen_exps, a, blocks):
    return _cech_piece(n, *_cech_pattern(a, blocks), (1 << len(gen_exps)) - 1)


def cech_spot_reference(n, gen_exps, a):
    cech = [set() for _ in range(n + 1)]
    for mask in range(1 << n):
        held = all(mask >> k & 1 for k in range(n) if a[k] < 0)
        blocked = any(all(mask >> k & 1 or u[k] <= a[k]
                          for k in range(n)) for u in gen_exps)
        if held and not blocked:
            cech[bin(mask).count("1")].add(mask)
    return cech


def rho_of(gen_exps, n):
    return [max((u[k] for u in gen_exps), default=0) for k in range(n)]


def test_spot_masks_match_the_membership_predicates():
    # The Cech and Koszul spots come from one covering pass; pin them to the
    # plain predicates on non-squarefree ideals and on degrees with negative
    # entries.  A Koszul multidegree has no spots early when a generator
    # u <= a lies strictly below a on supp(a), so that all of supp(a)
    # misses its tight set.
    rng = random.Random(11)
    koszul_exits = 0
    for _ in range(80):
        n = rng.randint(1, 5)
        gens = [tuple(rng.randint(0, 3) for _ in range(n))
                for _ in range(rng.randint(0, 5))]
        ideal = MonomialIdeal(n, [g for g in gens if sum(g)])
        gen_exps = [g.exponents for g in ideal.gens]
        blocks = _cech_blocks(gen_exps, rho_of(gen_exps, n))
        for _ in range(8):
            a = tuple(rng.randint(-2, 3) for _ in range(n))
            cech = cech_spot_reference(n, gen_exps, a)
            spots = degree_spots(n, gen_exps, a, blocks)
            assert [set(level) for level in spots] == cech

            b = tuple(max(v, 0) for v in a)
            koszul = [set() for _ in range(n + 1)]
            for mask in range(1 << n):
                rest = tuple(b[k] - (mask >> k & 1) for k in range(n))
                if min(rest, default=0) >= 0 and not ideal.contains(Monomial(rest)):
                    koszul[bin(mask).count("1")].add(mask)
            got = _koszul_spots(gen_exps, b)
            assert [set(level) for level in got] == koszul
            if any(all(u[k] <= b[k] for k in range(n))
                   and all(u[k] < b[k] for k in range(n) if b[k])
                   for u in gen_exps):
                koszul_exits += 1
                assert not any(got)
    assert koszul_exits > 50

    # Squarefree patterns: a is 0/-1, and a pattern whose negative set is a
    # nonface (holds a generator's support) has no spots, the early exit.
    exits = 0
    for _ in range(40):
        n = rng.randint(1, 7)
        gens = [tuple(int(rng.random() < 0.4) for _ in range(n))
                for _ in range(rng.randint(0, 5))]
        ideal = MonomialIdeal(n, [g for g in gens if sum(g)])
        gen_exps = [g.exponents for g in ideal.gens]
        blocks = _cech_blocks(gen_exps, rho_of(gen_exps, n))
        for _ in range(8):
            a = tuple(-rng.randint(0, 1) for _ in range(n))
            neg = tuple(int(v < 0) for v in a)
            spots = [set(level)
                     for level in degree_spots(n, gen_exps, a, blocks)]
            assert spots == cech_spot_reference(n, gen_exps, a)
            if ideal.contains(Monomial(neg)):
                exits += 1
                assert not any(spots)
    assert exits > 50


# The three chain-complex sites without clearing: every boundary map through
# rank with all of its rows.


def subsets_by_size(n):
    by_size = [[] for _ in range(n + 1)]
    for mask in range(1 << n):
        by_size[bin(mask).count("1")].append(mask)
    return by_size


def all_rows_koszul_monomial(ideal, bound):
    # Spots by the plain predicate: S in supp(a), x^(a-S) outside the ideal.
    n = ideal.n
    gen_exps = [g.exponents for g in ideal.gens]
    entries = {}
    subsets = subsets_by_size(n)
    for a in product(*(range(r + 1) for r in rho_of(gen_exps, n))):
        if sum(a) > bound:
            continue
        spots = []
        for level in subsets:
            spots.append({})
            for mask in level:
                rest = tuple(a[k] - (mask >> k & 1) for k in range(n))
                if min(rest) >= 0 and not ideal.contains(Monomial(rest)):
                    spots[-1][mask] = len(spots[-1])
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
    subsets = subsets_by_size(n)

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
                    scale, nf = _remainder(n, {m + _STEPS[n][k]: 1}, elements)
                    for mono, c in nf.items():
                        idx = target[(sub, mono)]
                        row[idx] = row.get(idx, 0) + sign * Fraction(c, scale)
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


def all_rowsdegree_piece(n, gen_exps, a, blocks):
    spots = degree_spots(n, gen_exps, a, blocks)
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
            rho = rho_of(gen_exps, n)
            bound = sum(rho) + 2
            assert (_koszul_monomial(ideal, bound)
                    == all_rows_koszul_monomial(ideal, bound)), ideal
            blocks = _cech_blocks(gen_exps, rho)
            degrees = list(product(*(range(-1, r) for r in rho)))
            degrees += [tuple(rng.randint(-2, 3) for _ in range(n))
                        for _ in range(10)]
            for a in degrees:
                assert (degree_piece(n, gen_exps, a, blocks)
                        == all_rowsdegree_piece(n, gen_exps, a, blocks)), \
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


def test_every_pivots_caller_passes_nonzero_integer_dict_rows(monkeypatch):
    # pivots consumes {column: int} dicts with no zero entry and normalises
    # nothing, so each caller must build its rows in that form: a list row,
    # a Fraction or a zero entry fails here.
    callers = set()

    def checked(rows):
        rows = list(rows)
        for row in rows:
            assert type(row) is dict, row
            assert all(type(x) is int and x for x in row.values()), row
        callers.add(sys._getframe(1).f_code.co_name)
        return pivots(rows)

    monkeypatch.setattr(linalg, "pivots", checked)
    monkeypatch.setattr(oracles, "pivots", checked)
    for ideal in clearing_ideals():
        koszul_betti(ideal)
        if isinstance(ideal, MonomialIdeal) and not ideal.is_unit():
            cech_local_cohomology(ideal)
    for name in sorted(COMPLEXES):
        cx = corpus_complex(name)
        for face_ring in (cx, shifted_complex(cx, 7)):
            hochster_betti(face_ring)
            local_cohomology_face_ring(face_ring)
    assert callers == {"level_ranks", "boundary_pivots"}


def test_each_site_keeps_its_clearing_direction(monkeypatch):
    # The rows each site hands to pivots, one input per site.  Reversing a
    # site's levels gives the same ranks from other rows: Hochster on cross4
    # bottom-up hands over [12, 12, 12, 12, 24, 15], Koszul on the
    # octahedron's face ideal bottom-up 259 rows, and the Cech piece at
    # degree 0 of cross4's face ideal top-down [16, 17, 7, 1].
    counts = []

    def counted(rows):
        rows = list(rows)
        counts.append(len(rows))
        return pivots(rows)

    monkeypatch.setattr(linalg, "pivots", counted)
    hochster_betti(_cross_polytope(4))
    assert counts == [8, 8, 8, 8, 16, 17]
    counts.clear()
    _koszul_monomial(stanley_reisner_ideal(_cross_polytope(3)), 8)
    assert sum(counts) == 252
    counts.clear()
    ideal = stanley_reisner_ideal(_cross_polytope(4))
    gen_exps = [g.exponents for g in ideal.gens]
    blocks = _cech_blocks(gen_exps, [1] * 8)
    assert degree_piece(8, gen_exps, (0,) * 8, blocks) == {4: 1}
    assert counts == [1, 7, 17, 15]


def test_koszul_general_route_reads_packed_integers_only(monkeypatch):
    # The general Koszul route grows its standard monomials from packed
    # leads and reduces with `_remainder`: no Fraction Polynomial of a
    # remainder, no Monomial enumeration and no membership scan.  The
    # Fraction reference above, which divides each remainder by its scale
    # and enumerates and scans, gives the expected tables first.
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

    monkeypatch.setattr(groebner, "_to_polynomial", refuse)
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
