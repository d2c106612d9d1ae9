"""Monomials, the degrevlex order, polynomial arithmetic, parsing, and
coordinate changes."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from seqcm.errors import AmbientMismatchError, ParseError
from seqcm.rings import (
    Monomial,
    Polynomial,
    RationalMatrix,
    apply_coordinate_change,
    compare,
    degrevlex_key,
    parse_polynomial,
    substitute,
)


def mono(*exps):
    return Monomial(exps)


def test_monomial_basics():
    u = mono(2, 1, 0)
    v = mono(0, 1, 3)
    assert (u * v).exponents == (2, 2, 3)
    assert u.lcm(v) == mono(2, 1, 3)
    assert u.gcd(v) == mono(0, 1, 0)
    assert u.degree == 3
    assert u.support() == (1, 2)
    assert u.max_var == 2
    assert v.max_var == 3
    assert not u.is_squarefree()
    assert mono(1, 0, 1).is_squarefree()
    assert Monomial.one(3) == mono(0, 0, 0)
    assert Monomial.variable(2, 3) == mono(0, 1, 0)
    assert u.is_coprime(mono(0, 0, 5)) is True
    assert u.is_coprime(v) is False


def test_monomial_division():
    u = mono(2, 1)
    assert mono(1, 0).divides(u)
    assert not mono(0, 2).divides(u)
    assert u / mono(1, 1) == mono(1, 0)
    with pytest.raises(ValueError):
        u / mono(3, 0)


def test_monomial_ambient_checks():
    with pytest.raises(AmbientMismatchError):
        mono(1, 0) * mono(1, 0, 0)
    # The 16 variable ambient cap is enforced where polynomials are built.
    with pytest.raises(AmbientMismatchError):
        Polynomial.zero(17)
    with pytest.raises(AmbientMismatchError):
        parse_polynomial("x1", 17)


def test_degrevlex_chain():
    # Degree 2 in 3 variables, strictly decreasing.
    chain = [mono(2, 0, 0), mono(1, 1, 0), mono(0, 2, 0),
             mono(1, 0, 1), mono(0, 1, 1), mono(0, 0, 2)]
    for a, b in zip(chain, chain[1:]):
        assert compare(a, b) > 0
        assert compare(b, a) < 0
    assert compare(chain[0], chain[0]) == 0
    # Degree dominates everything else.
    assert compare(mono(0, 0, 3), mono(2, 0, 0)) > 0


small_exps = st.tuples(*(st.integers(min_value=0, max_value=4),) * 3)


@given(small_exps, small_exps, small_exps)
def test_degrevlex_multiplicative(a, b, c):
    u, v, w = Monomial(a), Monomial(b), Monomial(c)
    lhs = compare(u, v)
    rhs = compare(u * w, v * w)
    assert (lhs > 0) == (rhs > 0) and (lhs == 0) == (rhs == 0)


@given(small_exps, small_exps)
def test_degrevlex_key_total(a, b):
    u, v = Monomial(a), Monomial(b)
    assert (degrevlex_key(u) == degrevlex_key(v)) == (u == v)


coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
polys = st.lists(st.tuples(small_exps, coeffs), max_size=5).map(
    lambda pairs: Polynomial(3, [(Monomial(e), c) for e, c in pairs]))
points = st.tuples(*(coeffs,) * 3)


@given(polys, polys, points)
def test_arithmetic_via_evaluation(f, g, p):
    assert (f + g).evaluate(p) == f.evaluate(p) + g.evaluate(p)
    assert (f - g).evaluate(p) == f.evaluate(p) - g.evaluate(p)
    assert (f * g).evaluate(p) == f.evaluate(p) * g.evaluate(p)
    assert (-f).evaluate(p) == -f.evaluate(p)


@given(polys)
def test_parse_str_roundtrip(f):
    assert parse_polynomial(str(f), 3) == f


def test_parse_examples():
    f = parse_polynomial("x1^2 - 3/4*x2*x3 + 1", 3)
    assert str(f) == "x1^2 - 3/4*x2*x3 + 1"
    assert f.degree() == 2
    assert not f.is_homogeneous()
    assert parse_polynomial("0", 2).is_zero()
    assert parse_polynomial("-x1 + 2*x2", 2) == parse_polynomial("2*x2 - x1", 2)


def test_parse_error_positions():
    cases = [
        ("x1 +", 1, 5),
        ("x0", 1, 1),
        ("x1^", 1, 4),
        ("x4", 1, 1),
        ("2x1", 1, 2),
        ("", 1, 1),
        ("x1 +\n * x2", 2, 2),
    ]
    for text, line, column in cases:
        with pytest.raises(ParseError) as exc:
            parse_polynomial(text, 3)
        assert (exc.value.line, exc.value.column) == (line, column)


def test_leading_data():
    f = parse_polynomial("x2^2 + x1*x3", 3)
    # x2^2 beats x1*x3 in degrevlex.
    assert f.leading_monomial() == mono(0, 2, 0)
    assert f.leading_coefficient() == 1
    g = parse_polynomial("2*x1*x2 + x2^2", 2)
    assert g.monic() == parse_polynomial("x1*x2 + 1/2*x2^2", 2)


def test_homogeneous_flag():
    assert parse_polynomial("x1^2 + x2*x3", 3).is_homogeneous()
    assert not parse_polynomial("x1^2 + x2", 3).is_homogeneous()
    assert Polynomial.zero(3).is_homogeneous()


def test_coordinate_change_known():
    m = RationalMatrix([[1, 1], [0, 1]])
    assert str(apply_coordinate_change(parse_polynomial("x1", 2), m)) == "x1 + x2"
    assert str(apply_coordinate_change(parse_polynomial("x2", 2), m)) == "x2"
    f = parse_polynomial("x1*x2", 2)
    assert apply_coordinate_change(f, m) == parse_polynomial("x1*x2 + x2^2", 2)


@given(polys, st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_coordinate_change_roundtrip(f, seed):
    m = RationalMatrix.random_unipotent(3, seed)
    g = apply_coordinate_change(apply_coordinate_change(f, m), m.inverse())
    assert g == f


@given(polys, st.integers(min_value=0, max_value=2 ** 32 - 1), points)
@settings(max_examples=25, deadline=None)
def test_substitute_via_evaluation(f, seed, p):
    # (g.f)(p) = f(A p) for the substitution x_i -> sum_j a_ij x_j.
    rows = RationalMatrix.random_unipotent(3, seed).rows
    image = substitute({m.exponents: c for m, c in f.terms()}, rows)
    moved = Polynomial(3, [(Monomial(e), c) for e, c in image.items()])
    ap = [sum(a * x for a, x in zip(row, p)) for row in rows]
    assert moved.evaluate(p) == f.evaluate(ap)


def test_substitute_keeps_integers():
    image = substitute({(2, 0): 3, (0, 1): -1}, [[1, 2], [0, 5]])
    assert image == {(2, 0): 3, (1, 1): 12, (0, 2): 12, (0, 1): -5}
    assert all(type(c) is int for c in image.values())


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=25)
def test_random_invertible(seed):
    m = RationalMatrix.random_unipotent(4, seed)
    assert m.det() != 0
    assert m * m.inverse() == RationalMatrix.identity(4)


@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=25)
def test_random_unipotent(n, seed):
    # x_i -> x_i + sum_{j<i} a_ij x_j: determinant 1 and an integral inverse.
    m = RationalMatrix.random_unipotent(n, seed)
    assert all(m.rows[i][j] == int(i == j)
               for i in range(n) for j in range(i, n))
    assert m.det() == 1
    assert all(a.denominator == 1 for row in m.inverse().rows for a in row)
    assert m == RationalMatrix.random_unipotent(n, seed)


def test_matrix_ops():
    a = RationalMatrix([[1, 2], [3, 4]])
    assert a.det() == -2
    assert a.is_invertible()
    assert a.inverse() == RationalMatrix(
        [[Fraction(-2), Fraction(1)], [Fraction(3, 2), Fraction(-1, 2)]])
    b = RationalMatrix([[1, 1], [1, 1]])
    assert b.det() == 0
    assert not b.is_invertible()
