"""Monomials, the degrevlex order, polynomial arithmetic, parsing, and
coordinate changes, substituted into packed dicts by the Groebner engine."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from seqcm import groebner
from seqcm.errors import AmbientMismatchError, ParseError
from seqcm.rings import (
    RANDOM_ENTRY_BOUND,
    Monomial,
    Polynomial,
    degrevlex_key,
    parse_polynomial,
    random_unipotent,
    unipotent_inverse,
)
from test_linalg import det, matmul


def mono(*exps):
    return Monomial(exps)


def compare(u, v):
    # -1, 0, or 1 as u <, =, > v in degrevlex.
    ku, kv = degrevlex_key(u), degrevlex_key(v)
    return (ku > kv) - (ku < kv)


def evaluate(f, point):
    # The value of a Polynomial at a rational point.
    total = Fraction(0)
    for m, c in f.terms():
        for x, e in zip(point, m.exponents):
            c *= Fraction(x) ** e
        total += c
    return total


def test_monomial_basics():
    u = mono(2, 1, 0)
    v = mono(0, 1, 3)
    assert (u * v).exponents == (2, 2, 3)
    assert u.degree == 3
    assert u.support() == (1, 2)
    assert u.max_var == 2
    assert v.max_var == 3
    assert not u.is_squarefree()
    assert mono(1, 0, 1).is_squarefree()
    assert Monomial.one(3) == mono(0, 0, 0)
    assert Monomial.variable(2, 3) == mono(0, 1, 0)


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
    assert evaluate(f + g, p) == evaluate(f, p) + evaluate(g, p)
    assert evaluate(f - g, p) == evaluate(f, p) - evaluate(g, p)
    assert evaluate(f * g, p) == evaluate(f, p) * evaluate(g, p)
    assert evaluate(-f, p) == -evaluate(f, p)


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
    g = parse_polynomial("2*x1*x2 + x2^2", 2)
    assert g.leading_monomial() == mono(1, 1)
    assert Polynomial.zero(2).leading_monomial() is None


def test_homogeneous_flag():
    assert parse_polynomial("x1^2 + x2*x3", 3).is_homogeneous()
    assert not parse_polynomial("x1^2 + x2", 3).is_homogeneous()
    assert Polynomial.zero(3).is_homogeneous()


def _packed(f):
    # A Polynomial as the engine holds it: {packed monomial: coefficient}.
    return {groebner._pack(m.exponents): c for m, c in f.terms()}


def _polynomial(n, p):
    return Polynomial(n, [(Monomial(groebner._unpack(n, m)), c)
                          for m, c in p.items()])


def test_coordinate_change_known():
    rows = [[1, 1], [0, 1]]
    for text, image in (("x1", "x1 + x2"), ("x2", "x2"),
                        ("x1*x2", "x1*x2 + x2^2")):
        moved = groebner._substitute(2, _packed(parse_polynomial(text, 2)), rows)
        assert _polynomial(2, moved) == parse_polynomial(image, 2)


_SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)


@given(polys, _SEEDS)
@settings(max_examples=25, deadline=None)
def test_coordinate_change_roundtrip(f, seed):
    rows = random_unipotent(3, seed)
    moved = groebner._substitute(3, _packed(f), rows)
    assert groebner._substitute(3, moved, unipotent_inverse(rows)) == _packed(f)


# Numbers of variables of the substitution tests: 16 fills the top field.
_SUBSTITUTION_NS = (1, 3, 5, 16)


def _dense_rows(n, seed):
    rng = random.Random(seed)
    return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]


@st.composite
def _small_polys(draw, n):
    # One to four terms of degree at most 3, so dense rows in 16 variables
    # stay small; each term is a multiset of variables, and the first holds
    # x_n, the top packed field.
    variables = st.lists(st.integers(0, n - 1), max_size=2)
    terms = draw(st.lists(st.tuples(variables, coeffs.filter(bool)),
                          min_size=1, max_size=4))
    terms[0][0].append(n - 1)
    return Polynomial(n, [(Monomial([v.count(i) for i in range(n)]), c)
                          for v, c in terms])


@given(st.sampled_from(_SUBSTITUTION_NS).flatmap(lambda n: st.tuples(
    _small_polys(n), st.tuples(*(coeffs,) * n), st.booleans())), _SEEDS)
@settings(max_examples=40, deadline=None)
def test_substitute_via_evaluation(case, seed):
    # (g.f)(p) = f(A p) for the substitution x_i -> sum_j a_ij x_j.
    f, p, dense = case
    n = f.n
    rows = _dense_rows(n, seed) if dense else random_unipotent(n, seed)
    moved = _polynomial(n, groebner._substitute(n, _packed(f), rows))
    ap = [sum(a * x for a, x in zip(row, p)) for row in rows]
    assert evaluate(moved, p) == evaluate(f, ap)


def test_substitute_keeps_integers():
    p = {groebner._pack((2, 0)): 3, groebner._pack((0, 1)): -1}
    image = groebner._substitute(2, p, [[1, 2], [0, 5]])
    assert _polynomial(2, image) == parse_polynomial(
        "3*x1^2 + 12*x1*x2 + 12*x2^2 - 5*x2", 2)
    for n in _SUBSTITUTION_NS:
        f = parse_polynomial("2*x%d^2 - 3*x1*x%d" % (n, n), n)
        point = list(range(2, n + 2))
        for rows in (random_unipotent(n, n), _dense_rows(n, n)):
            image = groebner._substitute(
                n, {m: int(c) for m, c in _packed(f).items()}, rows)
            assert image and all(type(c) is int for c in image.values())
            ap = [sum(a * x for a, x in zip(row, point)) for row in rows]
            assert evaluate(_polynomial(n, image), point) == evaluate(f, ap)


@given(st.integers(min_value=1, max_value=6), _SEEDS)
@settings(max_examples=25)
def test_random_unipotent(n, seed):
    # x_i -> x_i + sum_{j<i} a_ij x_j: int rows, determinant 1.
    rows = random_unipotent(n, seed)
    assert all(rows[i][j] == int(i == j)
               for i in range(n) for j in range(i, n))
    assert all(type(a) is int and abs(a) <= RANDOM_ENTRY_BOUND
               for row in rows for a in row)
    assert det(rows) == 1
    assert rows == random_unipotent(n, seed)


def test_random_unipotent_draws_are_pinned():
    # The draws behind every seeded gin and saturation digest.
    assert random_unipotent(3, 7) == [[1, 0, 0], [611, 1, 0], [-5057, 2937, 1]]
    assert random_unipotent(4, 0) == [
        [1, 0, 0, 0], [2623, 1, 0, 0], [3781, -8674, 1, 0],
        [-1516, 6753, 5922, 1]]


@pytest.mark.parametrize("n", range(1, 17))
def test_unipotent_inverse_is_integral_and_exact(n):
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    for seed in range(3):
        rows = random_unipotent(n, seed)
        inverse = unipotent_inverse(rows)
        assert all(type(a) is int for row in inverse for a in row)
        assert matmul(rows, inverse) == identity
        assert matmul(inverse, rows) == identity
