"""Exact rational rank, determinant, and inverse."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from seqcm.linalg import det, invert, matmul, rank


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
    # Reference: fraction-free elimination on dense rows, column by column.
    m = []
    for row in matrix:
        mult = lcm(*(Fraction(x).denominator for x in row))
        m.append([int(Fraction(x) * mult) for x in row])
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][col]), None)
        if piv is None:
            continue
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
    return r


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
    assert rank([{c: x for c, x in enumerate(row) if x} for row in m]) == expected
    assert rank([dict(enumerate(row)) for row in m]) == expected
    assert rank([list(col) for col in zip(*m)]) == (expected if m else 0)


def test_rank_examples():
    assert rank([]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 2], [3, 4]]) == 2
    assert rank([[1, 0, 1], [0, 1, 1]]) == 2
    assert rank([[Fraction(1, 2)], [Fraction(1, 3)]]) == 1


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
