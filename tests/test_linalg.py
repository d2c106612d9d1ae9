"""Exact rational rank, pivots, determinant, and inverse, and clearing in
chain complexes."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from seqcm.linalg import (
    det,
    invert,
    level_homology,
    level_ranks,
    levels,
    matmul,
    pivots,
)


def int_rows(matrix):
    # The row form of pivots, from rows that are sequences or {column:
    # value} dicts of int or Fraction entries: fresh {column: int} dicts,
    # each scaled by the lcm of its denominators, with no zero entry.
    out = []
    for row in matrix:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        row = {c: Fraction(x) for c, x in items if x}
        mult = lcm(*(x.denominator for x in row.values()))
        out.append({c: int(x * mult) for c, x in row.items()})
    return out


def rank(matrix):
    # Exact rank of a matrix given as for int_rows.
    return len(pivots(int_rows(matrix)))


def cofactor_det(m):
    # Independent reference, fine for n <= 4.
    n = len(m)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(m[0][0])
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * Fraction(m[0][j]) * cofactor_det(minor)
    return total


entries = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def square(n):
    return st.lists(st.lists(entries, min_size=n, max_size=n),
                    min_size=n, max_size=n)


@given(square(3))
def test_det_matches_cofactor(m):
    assert det(m) == cofactor_det(m)


@given(square(3), square(3))
@settings(max_examples=60)
def test_det_multiplicative(a, b):
    assert det(matmul(a, b)) == det(a) * det(b)


@given(square(4))
@settings(max_examples=60)
def test_rank_bounds(m):
    r = rank(m)
    assert 0 <= r <= 4
    assert (r == 4) == (det(m) != 0)


def dense_rank(matrix):
    return len(dense_pivots(matrix))


def dense_pivots(matrix):
    # Reference: fraction-free elimination on dense rows, column by column;
    # the columns where a pivot is found.
    m = []
    for row in matrix:
        mult = lcm(*(Fraction(x).denominator for x in row))
        m.append([int(Fraction(x) * mult) for x in row])
    if not m or not m[0]:
        return []
    nrows, ncols = len(m), len(m[0])
    r, cols = 0, []
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][col]), None)
        if piv is None:
            continue
        cols.append(col)
        m[r], m[piv] = m[piv], m[r]
        p = m[r][col]
        for i in range(r + 1, nrows):
            a = m[i][col]
            if a:
                row = [m[i][j] * p - m[r][j] * a for j in range(ncols)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        r += 1
        if r == nrows:
            break
    return cols


@st.composite
def rectangular(draw):
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    # Small values give zero rows, zero columns and non-unit pivots often.
    value = st.one_of(st.integers(-3, 3), st.sampled_from([0, 0, 0, 2, 6]),
                      st.fractions(min_value=-3, max_value=3,
                                   max_denominator=4))
    return [[draw(value) for _ in range(ncols)] for _ in range(nrows)]


@given(rectangular())
@settings(max_examples=200)
def test_sparse_rank_matches_dense_reference(m):
    expected = dense_rank(m)
    assert rank(m) == expected
    # The lowest columns of an echelon basis depend on the row space alone.
    assert pivots(int_rows(m)) == set(dense_pivots(m))
    assert rank([{c: x for c, x in enumerate(row) if x} for row in m]) == expected
    assert rank([dict(enumerate(row)) for row in m]) == expected
    assert rank([list(col) for col in zip(*m)]) == (expected if m else 0)


def boundary_matrices(facets):
    # Dense boundary matrices of the complex with these facet masks, the
    # maps into the vertices and the empty face included: by_card[k] lists
    # the faces of k vertices, and maps[k] has a row per face of by_card[k]
    # and a column per face of by_card[k - 1].
    faces = {0}
    for m in facets:
        sub = m
        while sub:
            faces.add(sub)
            sub = (sub - 1) & m
    by_card = {}
    for f in sorted(faces):
        by_card.setdefault(f.bit_count(), []).append(f)
    maps = {}
    for k in range(1, max(by_card) + 1):
        lower = {f: i for i, f in enumerate(by_card[k - 1])}
        rows = []
        for f in by_card[k]:
            row, sign, rest = [0] * len(lower), 1, f
            while rest:
                bit = rest & -rest
                row[lower[f ^ bit]] = sign
                sign, rest = -sign, rest ^ bit
            rows.append(row)
        maps[k] = rows
    return maps


def test_clearing_keeps_boundary_ranks_of_seeded_complexes():
    # Every map from the top down, without the rows that are pivots of the
    # map above, has the dense rank of the whole map.
    rng = random.Random(15)
    for _ in range(60):
        n = rng.randint(1, 8)
        facets = [rng.getrandbits(n) for _ in range(rng.randint(1, 6))]
        maps = boundary_matrices(facets)
        cleared = set()
        for k in sorted(maps, reverse=True):
            cleared = pivots(int_rows(row for i, row in enumerate(maps[k])
                                       if i not in cleared))
            assert len(cleared) == dense_rank(maps[k]), (facets, k)


def mask_levels(masks):
    # The masks by size, from the smallest size to the largest, as the
    # {mask: index} dicts of level_ranks; sizes with no mask give {}.
    lo = min(m.bit_count() for m in masks)
    levels = [{} for _ in range(max(m.bit_count() for m in masks) - lo + 1)]
    for m in sorted(masks):
        level = levels[m.bit_count() - lo]
        level[m] = len(level)
    return levels


def signed_map(n, level, after):
    # Dense matrix of the map from level to after: entry (f, g) is
    # (-1)^(vertices of f below v) when f and g differ in one vertex v.
    rows = [[0] * len(after) for _ in level]
    for f, i in level.items():
        for g, j in after.items():
            v = f ^ g
            if v.bit_count() == 1:
                below = sum(f >> u & 1 for u in range(n) if 1 << u < v)
                rows[i][j] = (-1) ** below
    return rows


def test_level_ranks_match_the_dense_reference_in_both_orders():
    # A family of masks that holds every mask between two of its own (the
    # masks under some of a few tops and over some of a few bottoms) is a
    # complex in both directions, so clearing keeps each map's rank, also
    # across a size that has no mask.  The reference ranks every map on
    # its own, without clearing; each level's homology is its size minus
    # the ranks into and out of it.
    rng = random.Random(21)
    gaps = 0
    for case in range(200):
        n = rng.randint(1, 7)
        tops = [rng.getrandbits(n) for _ in range(rng.randint(1, 4))]
        bottoms = (tops if rng.getrandbits(1)
                   else [t & rng.getrandbits(n) for t in tops])
        if case % 5 == 0:
            # two intervals on disjoint vertices, of sizes 1-2 and 4-5:
            # maps of rank 1 on both sides of the empty size 3
            n, v = 8, [1 << u for u in rng.sample(range(8), 8)]
            tops = [v[0] | v[1], sum(v[3:])]
            bottoms = [v[0], tops[1] ^ rng.choice(v[3:])]
        masks = [m for m in range(1 << n)
                 if any(m & t == m for t in tops)
                 and any(m & b == b for b in bottoms)]
        if not masks:
            continue
        by_size = mask_levels(masks)
        lo = min(m.bit_count() for m in masks)
        assert levels(n, masks)[lo:lo + len(by_size)] == by_size
        gaps += not all(by_size)
        for order in (by_size, by_size[::-1]):
            expected = [dense_rank(signed_map(n, a, b))
                        for a, b in zip(order, order[1:])]
            assert level_ranks(n, order) == expected, (n, tops, bottoms)
            assert level_homology(n, order) == [
                len(level) - into - out for level, into, out
                in zip(order, [0, *expected], [*expected, 0])]
    assert gaps >= 40


@pytest.mark.parametrize("facets", [
    [0b11111 ^ 1 << v for v in range(5)],   # boundary of the 4-simplex
    [a | b | c for a in (1, 2) for b in (4, 8) for c in (16, 32)],
])
def test_level_ranks_of_a_complex_reverse_with_the_order(facets):
    # Top-down the maps are boundaries, bottom-up their transposes.
    n = max(facets).bit_length()
    faces = {sub for m in facets for sub in range(m + 1) if sub & m == sub}
    levels = mask_levels(sorted(faces))
    down = level_ranks(n, levels[::-1])
    assert down == level_ranks(n, levels)[::-1]
    maps = boundary_matrices(facets)
    assert down == [dense_rank(maps[k]) for k in sorted(maps, reverse=True)]


@st.composite
def chain_pair(draw):
    # Integer matrices a (rows of d_(k+1)) and b (rows of d_k) with a.b = 0:
    # a = [x | 0].q and b = q^-1.[0 ; y], for a unimodular q built from
    # random elementary row operations together with its inverse.
    m = draw(st.integers(0, 6))
    s = draw(st.integers(0, m))
    q_rows, p = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    small = st.integers(-2, 2)
    x = [[draw(small) for _ in range(s)] for _ in range(q_rows)]
    y = [[draw(small) for _ in range(p)] for _ in range(m - s)]
    q = [[int(i == j) for j in range(m)] for i in range(m)]
    q_inv = [row[:] for row in q]
    for _ in range(draw(st.integers(0, 12)) if m > 1 else 0):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        c = draw(st.integers(-2, 2))
        if i == j or not c:
            continue
        # row_i += c row_j on q; column_j -= c column_i on its inverse
        q[i] = [u + c * v for u, v in zip(q[i], q[j])]
        for row in q_inv:
            row[j] -= c * row[i]
    a = [[sum(row[t] * q[t][col] for t in range(s)) for col in range(m)]
         for row in x]
    b = [[sum(q_inv[r][s + t] * y[t][col] for t in range(m - s))
          for col in range(p)] for r in range(m)]
    return a, b


@given(chain_pair())
@settings(max_examples=200)
def test_clearing_keeps_the_rank_of_any_composable_pair(pair):
    a, b = pair
    assert all(not any(v) for v in matmul(a, b))
    cleared = pivots(int_rows(a))
    assert rank([row for i, row in enumerate(b) if i not in cleared]) \
        == dense_rank(b)


def test_rank_examples():
    assert rank([]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 2], [3, 4]]) == 2
    assert rank([[1, 0, 1], [0, 1, 1]]) == 2
    assert rank([[Fraction(1, 2)], [Fraction(1, 3)]]) == 1
    assert pivots(int_rows([[0, 2, 1], [0, 4, 0], [0, 0, 0]])) == {1, 2}
    assert pivots([{3: 1}, {1: -1, 3: 2}]) == {1, 3}
    assert pivots([{0: 2, 1: 3}, {0: 3, 1: 2}, {0: 1, 1: 1}]) == {0, 1}


def test_rank_rectangular():
    m = [[1, 0, 2, 0], [0, 1, 3, 0]]
    assert rank(m) == 2
    assert rank([[1], [2], [3]]) == 1


def test_det_examples():
    assert det([[2]]) == 2
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[Fraction(1, 2), 0], [0, Fraction(2, 3)]]) == Fraction(1, 3)
    assert det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0


@given(square(3))
@settings(max_examples=60)
def test_invert_roundtrip(m):
    if det(m) == 0:
        with pytest.raises(ValueError):
            invert(m)
        return
    eye = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert matmul(m, invert(m)) == eye


def test_invert_exact():
    inv = invert([[1, 2], [3, 4]])
    assert inv == [[Fraction(-2), Fraction(1)], [Fraction(3, 2), Fraction(-1, 2)]]


def test_matmul_shapes():
    a = [[1, 2, 3]]
    b = [[1], [0], [1]]
    assert matmul(a, b) == [[Fraction(4)]]
