"""Simplicial complexes, Stanley-Reisner transfer, Alexander duality,
homology, Hochster tables, shifting, and the face-ring cohomology formula."""

import random
import sys
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from seqcm import simplicial
from seqcm.errors import (
    AmbientGrowthError,
    InconsistencyError,
    NotSquarefreeError,
)
from seqcm.monomial import MonomialIdeal, default_cohomology_window, k_polynomial
from seqcm.oracles import cech_local_cohomology
from seqcm.rings import Monomial
from seqcm.simplicial import (
    SimplicialComplex,
    _skeleta_cm,
    alexander_dual,
    betti_from_cohomology,
    betti_numbers_of_ideal,
    build_A_matrix,
    complex_of,
    dual_ideal,
    hochster_betti,
    is_shifted,
    local_cohomology_face_ring,
    reduced_homology,
    shifted_complex,
    sigma,
    stanley_reisner_ideal,
)
from seqcm.tables import CohomologyTable, HilbertFunction
from corpus_entries import COMPLEXES, corpus_complex
from test_groebner import _cross_polytope
from test_linalg import dense_rank, rank
from test_oracles import _random_complex

hollow_triangle = SimplicialComplex(3, [(1, 2), (1, 3), (2, 3)])
two_points = SimplicialComplex(2, [(1,), (2,)])
disjoint_edges = SimplicialComplex(4, [(1, 2), (3, 4)])
edge_plus_vertex = SimplicialComplex(3, [(2, 3), (1,)])


def has_face(cx, vertices):
    # Whether the vertices lie in one facet.
    return any(set(vertices) <= set(f) for f in cx.facets)


def restriction(cx, vertices):
    # The subcomplex of the faces inside the vertex set, same ambient.
    return SimplicialComplex(
        cx.n, [tuple(v for v in f if v in vertices) for f in cx.facets])


def test_facets_are_maximal():
    cx = SimplicialComplex(3, [(1,), (1, 2), (2, 1), (3,)])
    assert cx.facets == ((3,), (1, 2))
    assert cx.dim() == 1
    assert has_face(cx, (1,)) and has_face(cx, ()) and not has_face(cx, (2, 3))


def test_void_and_irrelevant():
    void = SimplicialComplex.void(3)
    irr = SimplicialComplex.irrelevant(3)
    assert void.dim() == -2 and void.is_void()
    assert irr.dim() == -1 and irr.is_irrelevant()
    assert void.faces() == [] and irr.faces() == [()]
    assert void.f_vector() == () and irr.f_vector() == (1,)
    assert not has_face(void, ())


def test_faces_and_f_vector():
    assert hollow_triangle.f_vector() == (1, 3, 3)
    assert SimplicialComplex.full(3).f_vector() == (1, 3, 3, 1)
    assert disjoint_edges.f_vector() == (1, 4, 2)
    assert len(hollow_triangle.faces()) == 7


def test_restriction():
    got = restriction(hollow_triangle, (1, 2))
    assert got.facets == ((1, 2),)
    assert got.n == 3
    assert restriction(disjoint_edges, (1, 3)).facets == ((1,), (3,))


def test_json_roundtrip():
    for cx in (hollow_triangle, SimplicialComplex.void(2),
               SimplicialComplex.irrelevant(4)):
        assert SimplicialComplex.from_json(cx.to_json()) == cx


def test_stanley_reisner_transfer():
    assert str(stanley_reisner_ideal(hollow_triangle)) == "(x1*x2*x3)"
    assert sorted(str(g) for g in stanley_reisner_ideal(disjoint_edges).gens) == \
        ["x1*x3", "x1*x4", "x2*x3", "x2*x4"]
    assert stanley_reisner_ideal(SimplicialComplex.full(3)).is_zero()
    assert stanley_reisner_ideal(SimplicialComplex.void(2)).is_unit()
    assert sorted(str(g) for g in
                  stanley_reisner_ideal(SimplicialComplex.irrelevant(2)).gens) == \
        ["x1", "x2"]


def test_complex_of_inverse():
    for cx in (hollow_triangle, disjoint_edges, SimplicialComplex.void(2),
               SimplicialComplex.full(4), SimplicialComplex.irrelevant(3)):
        assert complex_of(stanley_reisner_ideal(cx)) == cx
    with pytest.raises(NotSquarefreeError):
        complex_of(MonomialIdeal(2, [(2, 0)]))


def brute_dual(cx):
    # Faces of the dual are complements of nonfaces; maximalize directly.
    n = cx.n
    verts = range(1, n + 1)
    faces = []
    for k in range(n + 1):
        for w in combinations(verts, k):
            rest = tuple(v for v in verts if v not in w)
            if not has_face(cx, rest):
                faces.append(w)
    return SimplicialComplex(n, faces)


def test_dual_examples():
    assert alexander_dual(hollow_triangle) == SimplicialComplex.irrelevant(3)
    assert alexander_dual(SimplicialComplex.full(3)) == SimplicialComplex.void(3)
    assert alexander_dual(SimplicialComplex.void(3)) == SimplicialComplex.full(3)
    assert alexander_dual(disjoint_edges) == brute_dual(disjoint_edges)


complexes = st.integers(2, 5).flatmap(
    lambda n: st.lists(
        st.sets(st.integers(1, n), max_size=n).map(tuple),
        max_size=5,
    ).map(lambda fs: SimplicialComplex(n, fs)))


@given(complexes)
@settings(max_examples=60)
def test_dual_matches_brute_and_involutes(cx):
    dual = alexander_dual(cx)
    assert dual == brute_dual(cx)
    assert alexander_dual(dual) == cx


def test_homology_examples():
    assert reduced_homology(hollow_triangle) == {1: 1}
    assert reduced_homology(two_points) == {0: 1}
    assert reduced_homology(SimplicialComplex.irrelevant(3)) == {-1: 1}
    assert reduced_homology(SimplicialComplex.void(3)) == {}
    assert reduced_homology(SimplicialComplex.full(4)) == {}
    sphere = SimplicialComplex(4, [f for f in combinations(range(1, 5), 3)])
    assert reduced_homology(sphere) == {2: 1}
    cycle4 = SimplicialComplex(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert reduced_homology(cycle4) == {1: 1}
    bowtie = SimplicialComplex(5, [(1, 2, 3), (1, 4, 5)])
    assert reduced_homology(bowtie) == {}


@given(complexes)
@settings(max_examples=60)
def test_homology_euler_characteristic(cx):
    # Reduced Euler characteristic from faces equals the homology one.
    from_faces = sum((-1) ** (len(f) - 1) for f in cx.faces())
    hom = reduced_homology(cx)
    from_homology = sum((-1) ** i * r for i, r in hom.items())
    assert from_faces == from_homology


def restriction_homology(cx):
    # Reference: the augmented chain complex of the listed faces, dense rows.
    if cx.is_void():
        return {}
    if cx.facets[0] and set.intersection(*(set(f) for f in cx.facets)):
        return {}
    by_card = {}
    for f in cx.faces():
        by_card.setdefault(len(f), []).append(f)
    top = max(by_card)
    ranks = {}
    for k in range(1, top + 1):
        lower = {f: i for i, f in enumerate(by_card.get(k - 1, ()))}
        rows = []
        for f in by_card.get(k, ()):
            row = [0] * len(lower)
            for pos in range(len(f)):
                row[lower[f[:pos] + f[pos + 1:]]] = -1 if pos % 2 else 1
            rows.append(row)
        ranks[k] = dense_rank(rows)
    out = {}
    for k in range(top + 1):
        h = len(by_card.get(k, ())) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        if h:
            out[k - 1] = h
    return out


def restriction_hochster(cx):
    # Reference: one restricted SimplicialComplex per vertex set.
    entries = {} if cx.is_void() else {(0, 0): 1}
    for j in range(1, cx.n + 1):
        for verts in combinations(range(1, cx.n + 1), j):
            for deg, dim in restriction_homology(restriction(cx, verts)).items():
                if j - deg - 1 >= 1:
                    key = (j - deg - 1, j)
                    entries[key] = entries.get(key, 0) + dim
    return entries


def seeded_complexes():
    rng = random.Random(8)
    out = [SimplicialComplex.void(4), SimplicialComplex.irrelevant(4),
           SimplicialComplex.full(5), SimplicialComplex.void(0),
           SimplicialComplex.irrelevant(0),
           # vertex 4 is in no face: restricting to {4} gives the irrelevant
           # complex, and {1, 4} a cone
           SimplicialComplex(4, [(1, 2), (2, 3), (1, 3)]),
           SimplicialComplex(5, [(1, 2, 5), (2, 3, 5), (3, 4, 5), (1, 4, 5)]),
           SimplicialComplex(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])]
    for _ in range(60):
        n = rng.randint(1, 9)
        facets = [rng.sample(range(1, n + 1), rng.randint(0, min(n, 5)))
                  for _ in range(rng.randint(1, 8))]
        out.append(SimplicialComplex(n, facets))
    for _ in range(20):
        # many small facets, so restrictions have homology in several degrees
        n = rng.randint(6, 9)
        facets = [rng.sample(range(1, n + 1), rng.randint(2, 3))
                  for _ in range(rng.randint(6, 14))]
        out.append(SimplicialComplex(n, facets))
    return out


def test_mask_kernel_matches_restriction_reference():
    for cx in seeded_complexes():
        assert reduced_homology(cx) == restriction_homology(cx), cx
        assert hochster_betti(cx).entries == restriction_hochster(cx), cx
        if not cx.is_void():
            assert complex_of(stanley_reisner_ideal(cx)) == cx


def all_rank_mask_homology(maximal):
    # The vertex-mask kernel with every boundary map through rank, the ones
    # into the empty face and into the vertices included.
    if not maximal or reduce(int.__and__, maximal):
        return {}
    faces = {0}
    for m in maximal:
        sub = m
        while sub:
            faces.add(sub)
            sub = (sub - 1) & m
    by_card = {}
    for f in faces:
        by_card.setdefault(f.bit_count(), []).append(f)
    top = max(by_card)
    ranks = {}
    for k in range(1, top + 1):
        lower = {f: i for i, f in enumerate(by_card.get(k - 1, ()))}
        rows = []
        for f in by_card.get(k, ()):
            row, sign, rest = {}, 1, f
            while rest:
                bit = rest & -rest
                row[lower[f ^ bit]] = sign
                sign, rest = -sign, rest ^ bit
            rows.append(row)
        ranks[k] = rank(rows)
    out = {}
    for k in range(top + 1):
        h = len(by_card.get(k, ())) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        if h:
            out[k - 1] = h
    return out


def all_rank_hochster(cx):
    # Every vertex set, faces included, through the all-rank kernel.
    entries = {} if cx.is_void() else {(0, 0): 1}
    masks = [sum(1 << (v - 1) for v in f) for f in cx.facets]
    for w in range(1, 1 << cx.n):
        cut = {fm & w for fm in masks}
        maximal = frozenset(m for m in cut
                            if not any(m != k and m & k == m for k in cut))
        j = w.bit_count()
        for deg, dim in all_rank_mask_homology(maximal).items():
            if j - deg - 1 >= 1:
                entries[(j - deg - 1, j)] = entries.get((j - deg - 1, j), 0) + dim
    return entries


def kernel_complexes():
    graphs = [SimplicialComplex(7, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6),
                                    (4, 6)]),
              SimplicialComplex(8, [(1, 2), (2, 3), (5, 6), (7,)]),
              SimplicialComplex(6, [(1, 2), (3, 4), (5, 6)])]
    return ([SimplicialComplex.irrelevant(n) for n in range(5)]
            + [SimplicialComplex.void(n) for n in range(5)]
            + [SimplicialComplex(5, [(1,), (3,), (4,)]),      # isolated vertices
               SimplicialComplex(6, [(1,), (2, 3), (4, 5, 6)]),
               # cones: over a hollow triangle, and over two points
               SimplicialComplex(4, [(1, 2, 4), (1, 3, 4), (2, 3, 4)]),
               SimplicialComplex(3, [(1, 3), (2, 3)]),
               SimplicialComplex(10, combinations(range(1, 11), 9)),
               # a hollow tetrahedron with a triangle hung at vertex 4:
               # vertices 5 and 6 are dominated, so the core drops them
               SimplicialComplex(6, list(combinations(range(1, 5), 3))
                                 + [(4, 5, 6)])]
            + graphs + seeded_complexes())


def test_kernel_matches_the_all_rank_reference():
    for cx in kernel_complexes():
        masks = frozenset(sum(1 << (v - 1) for v in f) for f in cx.facets)
        assert reduced_homology(cx) == all_rank_mask_homology(masks), cx
        assert hochster_betti(cx).entries == all_rank_hochster(cx), cx
    assert (reduced_homology(SimplicialComplex(10, combinations(range(1, 11), 9)))
            == {8: 1})


def test_graphs_need_no_rank(monkeypatch):
    # Ranks into the empty face and into the vertices come from components.
    def no_elimination(n, levels):
        raise AssertionError("elimination called on a graph")

    monkeypatch.setattr(simplicial, "level_homology", no_elimination)
    for cx in kernel_complexes():
        if cx.dim() <= 1:
            reduced_homology(cx)
            hochster_betti(cx)


def test_hochster_restricts_only_to_nonfaces(monkeypatch):
    # A vertex set that is a face restricts to a simplex, with no homology.
    # Restrictions are counted where hochster_betti takes them, not inside
    # the core's own calls to _maximal.
    calls = []
    maximal = simplicial._maximal

    def counted(masks):
        if sys._getframe(1).f_code is hochster_betti.__code__:
            calls.append(1)
        return maximal(masks)

    monkeypatch.setattr(simplicial, "_maximal", counted)
    for cx in kernel_complexes():
        calls.clear()
        hochster_betti(cx)
        nonempty_faces = len(cx.faces()) - (not cx.is_void())
        assert len(calls) == (1 << cx.n) - 1 - nonempty_faces, cx


def dominated(maximal):
    # Vertices v with some u != v in every maximal face through v.
    union = reduce(int.__or__, maximal)
    vertices = [1 << i for i in range(union.bit_length()) if union >> i & 1]
    return [v for v in vertices
            if any(all(m & u for m in maximal if m & v)
                   for u in vertices if u != v)]


def test_core_keeps_the_homology_and_leaves_no_dominated_vertex():
    for cx in kernel_complexes():
        masks = [sum(1 << (v - 1) for v in f) for f in cx.facets]
        restrictions = {simplicial._maximal([m & w for m in masks])
                        for w in range(1, 1 << cx.n)} - {frozenset()}
        for maximal in restrictions:
            core = simplicial._core(maximal)
            assert not dominated(core), (cx, maximal, core)
            assert (all_rank_mask_homology(core)
                    == all_rank_mask_homology(maximal)), (cx, maximal)


@pytest.mark.parametrize("k, dual, calls", [(4, False, 15), (4, True, 16),
                                             (5, False, 31), (5, True, 32)],
                         ids=["cross4", "cross4-dual", "cross5", "cross5-dual"])
def test_hochster_homology_calls_on_cross_polytopes(monkeypatch, k, dual,
                                                    calls):
    # Restrictions with the same strong-collapse core share one homology, so
    # the calls count distinct cores, not distinct restrictions.
    counted = []
    homology = simplicial._mask_homology
    monkeypatch.setattr(simplicial, "_mask_homology",
                        lambda maximal: counted.append(1) or homology(maximal))
    cx = _cross_polytope(k)
    hochster_betti(alexander_dual(cx) if dual else cx)
    assert len(counted) == calls


@pytest.mark.parametrize("cx, repeated", [
    (SimplicialComplex(13, combinations(range(1, 14), 12)), False),
    (_random_complex(2, 9), True)], ids=["sphere-12", "random-9"])
def test_skeleta_computes_one_homology_per_core(monkeypatch, cx, repeated):
    # In one _skeleta_cm call, the links that reach the homology entry and
    # are not cones get one _mask_homology call per distinct core; on the
    # random complex, some links share a core.
    requests, counted = [], []
    entry, homology = simplicial._homology, simplicial._mask_homology
    monkeypatch.setattr(simplicial, "_homology", lambda maximal, memo:
                        requests.append(maximal) or entry(maximal, memo))
    monkeypatch.setattr(simplicial, "_mask_homology", lambda maximal:
                        counted.append(maximal) or homology(maximal))
    _skeleta_cm(cx)
    cores = [simplicial._core(m) if any(f.bit_count() > 2 for f in m) else m
             for m in requests if not reduce(int.__and__, m)]
    assert counted and len(counted) == len(set(counted)) == len(set(cores))
    assert (len(cores) > len(set(cores))) == repeated


def f_vector_numerator(cx):
    # N(t) = sum_i f_{i-1} t^i (1 - t)^(n - i) from the face counts alone
    # (Stanley, Combinatorics and Commutative Algebra, II.1).
    out = {}
    for i, f in enumerate(cx.f_vector()):
        for j in range(cx.n - i + 1):
            out[i + j] = out.get(i + j, 0) + (-1) ** j * f * comb(cx.n - i, j)
    return {d: c for d, c in out.items() if c}


def test_face_ideal_k_polynomial_matches_the_f_vector():
    # A third route beside the pivot recursion and the lcm fold, also on the
    # 9- to 14-cycles (27 to 77 generators), where the fold is out of reach.
    cycles = [SimplicialComplex(n, [(i, i % n + 1) for i in range(1, n + 1)])
              for n in range(9, 15)]
    for cx in seeded_complexes() + cycles:
        face = stanley_reisner_ideal(cx)
        assert (k_polynomial(cx.n, [g.exponents for g in face.gens])
                == f_vector_numerator(cx)), cx


def reference_stanley_reisner_ideal(cx):
    # The minimal nonfaces by enumerating vertex masks: a mask inside a facet
    # is a face, one containing a known nonface is not minimal.
    n = cx.n
    facet_masks = [sum(1 << (v - 1) for v in f) for f in cx.facets]
    gens, gen_masks = [], []
    for mask in range(1 << n):
        if any(mask & ~fm == 0 for fm in facet_masks):
            continue
        if any(mask & gm == gm for gm in gen_masks):
            continue
        gen_masks.append(mask)
        gens.append(Monomial(tuple(mask >> i & 1 for i in range(n))))
    return MonomialIdeal(n, gens)


def test_transfer_matches_nonface_reference():
    for cx in seeded_complexes():
        assert stanley_reisner_ideal(cx) == reference_stanley_reisner_ideal(cx), cx
        assert dual_ideal(cx) == reference_stanley_reisner_ideal(brute_dual(cx)), cx


def test_hochster_tables():
    assert hochster_betti(two_points).entries == {(0, 0): 1, (1, 2): 1}
    assert hochster_betti(hollow_triangle).entries == {(0, 0): 1, (1, 3): 1}
    assert hochster_betti(disjoint_edges).entries == \
        {(0, 0): 1, (1, 2): 4, (2, 3): 4, (3, 4): 1}
    assert hochster_betti(SimplicialComplex.full(3)).entries == {(0, 0): 1}
    assert hochster_betti(SimplicialComplex.void(2)).entries == {}
    assert hochster_betti(two_points).module == "quotient"


def test_betti_numbers_of_ideal():
    assert betti_numbers_of_ideal(hollow_triangle).entries == {(0, 3): 1}
    assert betti_numbers_of_ideal(SimplicialComplex.full(2)).entries == {}
    assert betti_numbers_of_ideal(SimplicialComplex.void(2)).entries == {(0, 0): 1}
    t = betti_numbers_of_ideal(disjoint_edges)
    assert t.module == "ideal"
    assert t.entries == {(0, 2): 4, (1, 3): 4, (2, 4): 1}


def test_sigma():
    assert sigma(Monomial((2, 0, 1, 0, 0))) == Monomial((1, 1, 0, 0, 1))
    assert sigma(Monomial((3, 0, 0))) == Monomial((1, 1, 1))
    assert sigma(Monomial((1, 1, 0))) == Monomial((1, 0, 1))
    with pytest.raises(AmbientGrowthError):
        sigma(Monomial((0, 2)))


def test_is_shifted():
    assert is_shifted(SimplicialComplex(3, [(1,), (2, 3)])) == (True, None)
    ok, witness = is_shifted(disjoint_edges)
    assert not ok
    assert witness == (Monomial((0, 1, 0, 1)), 4, 1)
    assert is_shifted(SimplicialComplex.full(3))[0]
    assert is_shifted(SimplicialComplex.void(2))[0]


def test_shifted_complex_values():
    got = shifted_complex(disjoint_edges, seed=21)
    assert got.facets == ((1,), (2, 4), (3, 4))
    assert is_shifted(got)[0]
    assert shifted_complex(edge_plus_vertex, seed=21) == \
        SimplicialComplex(3, [(1,), (2, 3)])
    full = SimplicialComplex.full(4)
    assert shifted_complex(full, seed=21) == full


def test_shifting_preserves_f_vector():
    for cx in (disjoint_edges, hollow_triangle, two_points, edge_plus_vertex):
        assert shifted_complex(cx, seed=21).f_vector() == cx.f_vector()


def test_shifted_complex_is_idempotent():
    once = shifted_complex(disjoint_edges, seed=21)
    assert shifted_complex(once, seed=37) == once


def test_face_ring_cohomology_values():
    table = local_cohomology_face_ring(hollow_triangle, (-4, 1))
    assert table.indices() == [2]
    h2 = table.functions[2]
    assert {d: h2.value(d) for d in range(-4, 2)} == \
        {-4: 12, -3: 9, -2: 6, -1: 3, 0: 1, 1: 0}
    assert h2.value(-10) == 30

    table = local_cohomology_face_ring(edge_plus_vertex, (-3, 1))
    assert table.indices() == [1, 2]
    assert all(table.value(1, -j) == 1 for j in range(4))
    assert table.value(2, -3) == 2 and table.value(2, -2) == 1
    assert table.functions[1].value(-25) == 1

    table = local_cohomology_face_ring(two_points, (-3, 1))
    assert table.value(1, 0) == 1
    assert table.value(1, -1) == 2 and table.value(1, -3) == 2


def test_face_ring_cohomology_of_field():
    # K[irrelevant] = K: only H^0, concentrated in degree 0.
    table = local_cohomology_face_ring(SimplicialComplex.irrelevant(3), (-4, 1))
    assert table.indices() == [0]
    assert table.functions[0].values == {0: 1}


def local_cohomology_face_ring_printed(cx, window=None):
    """Variant with the binomial-weighted coefficients and quotient Betti data.

    Kept verbatim for comparison: dim H^i at -j is read as

        sum_h C(n,h) * C(h+j-1, j) * beta_{i-h+1, n-h}(face ring of dual),

    with C(-1, 0) taken to be 1.  It disagrees with the checked route on
    some complexes (the irrelevant complex already shows a spurious class),
    so only the quarantine test below reads it.  `build_A_matrix` and
    `betti_from_cohomology` run the checked formula, not this one.
    """
    n = cx.n
    dual = alexander_dual(cx)
    if window is None:
        window = default_cohomology_window(dual_ideal(dual))
    lo, hi = window
    dual_quotient = hochster_betti(dual)
    funcs = {}
    for i in range(n + 1):
        values = {}
        for e in range(lo, hi + 1):
            if e > 0:
                continue
            j = -e
            total = 0
            for h in range(n + 1):
                if h == 0 and j == 0:
                    weight = 1  # C(-1, 0) read as 1
                else:
                    weight = comb(h + j - 1, j)
                total += comb(n, h) * weight * dual_quotient.value(
                    i - h + 1, n - h)
            if total:
                values[e] = Fraction(total)
        if values:
            funcs[i] = HilbertFunction((lo, hi), values)
    return CohomologyTable((lo, hi), funcs)


def test_printed_variant_is_quarantined():
    # The verbatim printed formula manufactures cohomology for the field.
    table = local_cohomology_face_ring_printed(SimplicialComplex.irrelevant(3),
                                               (-4, 1))
    ghost = table.functions[2]
    assert {d: ghost.value(d) for d in range(-4, 1)} == \
        {-4: 15, -3: 10, -2: 6, -1: 3, 0: 1}


def cohomology_matrix(table, n):
    # H[i][j] = dim H^i in degree -j, as betti_from_cohomology reads it.
    return [[table.value(i, -j) for j in range(n + 1)] for i in range(n + 1)]


def test_build_A_matrix():
    # c_h(j) counts the compositions of j into h positive parts.
    assert build_A_matrix(3) == [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 1, 1, 0],
        [0, 1, 2, 1],
    ]


def test_betti_recovery_roundtrip():
    # Back-substitution on either route's table gives the Betti table of
    # the dual ideal.
    cxs = [corpus_complex(name) for name in sorted(COMPLEXES)]
    cxs += [_random_complex(seed, n) for seed in (1, 2) for n in range(5, 10)]
    cxs += [make(4) for make in (SimplicialComplex.void,
                                 SimplicialComplex.irrelevant,
                                 SimplicialComplex.full)]
    for cx in cxs:
        n, window = cx.n, (-cx.n - 2, 2)
        expected = betti_numbers_of_ideal(alexander_dual(cx))
        for table in (cech_local_cohomology(stanley_reisner_ideal(cx), window),
                      local_cohomology_face_ring(cx, window)):
            got = betti_from_cohomology(cohomology_matrix(table, n), n)
            assert got == expected, cx


def test_betti_recovery_refuses_what_no_face_ring_gives():
    # n = 2: H^2 = 1 in degree -1 alone solves to beta_{0,0} = -1, and
    # H^0 = 1 there to an entry at i < h.
    with pytest.raises(InconsistencyError, match=r"beta_\{0,0\} = -1"):
        betti_from_cohomology([[0, 0, 0], [0, 0, 0], [0, 1, 0]], 2)
    with pytest.raises(InconsistencyError, match=r"beta_\{-1,1\} = 1"):
        betti_from_cohomology([[0, 1, 0], [0, 0, 0], [0, 0, 0]], 2)
    with pytest.raises(InconsistencyError, match="must be"):
        betti_from_cohomology([[0, 0, 0], [0, 0, 0]], 2)
