"""Buchberger, normal forms, saturation, and generic initial ideals."""

import pytest
from hypothesis import given, settings, strategies as st

from seqcm import groebner
from seqcm.errors import CertificationError, UndefinedInputError
from seqcm.groebner import (
    GinCache,
    PolynomialIdeal,
    buchberger,
    equal_ideals,
    gin,
    ideal_content_hash,
    initial_ideal,
    normal_form,
    saturate_by_last_variable,
    saturation,
)
from seqcm.monomial import MonomialIdeal, is_strongly_stable
from seqcm.rings import Monomial, parse_polynomial


def ideal(n, *texts):
    return PolynomialIdeal.from_strings(n, texts)


def gens(poly_ideal):
    return sorted(str(g) for g in poly_ideal.generators)


def test_reduced_basis_shape():
    gb = buchberger(ideal(2, "x1^2", "x1*x2 + x2^2"))
    assert gb.reduced
    assert [str(g) for g in gb] == ["x1*x2 + x2^2", "x1^2", "x2^3"]
    for g in gb:
        assert g.leading_coefficient() == 1
    # No tail term of any element is divisible by another leading monomial.
    leads = gb.leading_monomials()
    for g in gb:
        for m in g.monomials()[1:]:
            assert not any(u.divides(m) for u in leads)


def test_twisted_cubic_basis():
    gb = buchberger(ideal(4, "x1*x3 - x2^2", "x2*x4 - x3^2", "x1*x4 - x2*x3"))
    assert [str(g) for g in gb] == ["x3^2 - x2*x4", "x2*x3 - x1*x4", "x2^2 - x1*x3"]


def test_certification_catches_a_dropped_element(monkeypatch):
    # The final interreduction loses an element; the certifier, which does
    # its own division, must notice that a generator no longer reduces to 0.
    real = groebner._interreduce
    calls = []

    def dropping(elements):
        out = real(elements)
        calls.append(out)
        return out[:-1] if len(calls) == 2 else out

    monkeypatch.setattr(groebner, "_interreduce", dropping)
    with pytest.raises(CertificationError):
        buchberger(ideal(2, "x1", "x2"))
    assert len(calls) == 2


def test_initial_ideal():
    lead = initial_ideal(ideal(2, "x1^2", "x1*x2 + x2^2"))
    assert lead == MonomialIdeal(2, [(2, 0), (1, 1), (0, 3)])


def test_normal_form_values():
    gb = buchberger(ideal(2, "x1^2", "x1*x2 + x2^2"))
    assert str(normal_form(parse_polynomial("x2^2", 2), gb)) == "x2^2"
    assert normal_form(parse_polynomial("x1^2*x2 + x2^3", 2), gb).is_zero()
    assert normal_form(parse_polynomial("x1*x2", 2), gb) == parse_polynomial("-x2^2", 2)


def test_normal_form_is_linear():
    gb = buchberger(ideal(3, "x1*x2 - x3^2", "x2^2"))
    f = parse_polynomial("x1^2*x2 + x2*x3", 3)
    g = parse_polynomial("x3^3 - 2*x1*x2", 3)
    lhs = normal_form(f + g, gb)
    assert lhs == normal_form(f, gb) + normal_form(g, gb)


def test_membership_stability():
    basis = buchberger(ideal(3, "x1*x2 - x3^2", "x2^2"))
    f = parse_polynomial("x1*x3", 3)
    shifted = f + parse_polynomial("x2^2*x3 - 5*x1*x2 + 5*x3^2", 3)
    assert normal_form(f, basis) == normal_form(shifted, basis)


def test_equal_ideals():
    assert equal_ideals(ideal(2, "x1", "x2"), ideal(2, "x1 + x2", "x2"))
    assert not equal_ideals(ideal(2, "x1"), ideal(2, "x1", "x2"))
    assert equal_ideals(ideal(2), ideal(2))


def test_saturate_by_last_variable():
    # Stripping x2 powers from the reduced basis.
    assert gens(saturate_by_last_variable(ideal(2, "x1*x2", "x2^2"))) == ["1"]
    assert gens(saturate_by_last_variable(ideal(2, "x1^2", "x1*x2"))) == ["x1"]
    assert gens(saturate_by_last_variable(ideal(3, "x1*x3 - x2*x3"))) == ["x1 - x2"]


def test_saturation_values():
    assert gens(saturation(ideal(2, "x1^2", "x1*x2"), seed=31)) == ["x1"]
    sq = saturation(ideal(2, "x1^2", "x1*x2", "x2^2"), seed=31)
    assert gens(sq) == ["1"]
    # A saturated ideal is a fixed point.
    tc = ideal(4, "x1*x3 - x2^2", "x2*x4 - x3^2", "x1*x4 - x2*x3")
    assert equal_ideals(saturation(tc, seed=31), tc)


def monomial_saturation(ideal_m):
    """Independent oracle: I : m^oo for monomial I is the intersection over
    all variables of the x_i-strippings, intersected pairwise through lcms."""
    n = ideal_m.n
    if ideal_m.is_zero():
        return ideal_m
    current = None
    for i in range(n):
        stripped = MonomialIdeal(
            n,
            [Monomial(g.exponents[:i] + (0,) + g.exponents[i + 1:])
             for g in ideal_m.gens],
        )
        if current is None:
            current = stripped
        else:
            current = MonomialIdeal(
                n,
                [a.lcm(b) for a in current.gens for b in stripped.gens],
            )
    return current


def test_monomial_saturation_oracle_examples():
    assert monomial_saturation(MonomialIdeal(2, [(2, 0), (1, 1)])) == \
        MonomialIdeal(2, [(1, 0)])
    assert monomial_saturation(MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])).is_unit()
    assert monomial_saturation(MonomialIdeal(3, [(1, 1, 0)])) == \
        MonomialIdeal(3, [(1, 1, 0)])


exps3 = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))


@given(st.lists(exps3, min_size=1, max_size=3))
@settings(max_examples=12, deadline=None)
def test_saturation_matches_monomial_oracle(exp_list):
    exp_list = [e for e in exp_list if sum(e)]
    if not exp_list:
        return
    mono_ideal = MonomialIdeal(3, exp_list)
    expected = monomial_saturation(mono_ideal)
    got = saturation(PolynomialIdeal.from_monomial_ideal(mono_ideal), seed=23)
    assert got.is_monomial()
    assert got.as_monomial_ideal() == expected


def test_gin_frozen_values():
    assert gin(ideal(2, "x1*x2"), seed=5) == MonomialIdeal(2, [(2, 0)])
    assert gin(ideal(2, "x1^2", "x2^2"), seed=5) == \
        MonomialIdeal(2, [(2, 0), (1, 1), (0, 3)])
    assert gin(ideal(3, "x1*x2", "x1*x3"), seed=5) == \
        MonomialIdeal(3, [(2, 0, 0), (1, 1, 0)])
    assert gin(ideal(3, "x1*x2*x3"), seed=5) == MonomialIdeal(3, [(3, 0, 0)])


def test_gin_seed_independent():
    base = ideal(3, "x1*x2 + x3^2", "x1*x3", "x2^3")
    results = {gin(base, seed=s) for s in (1, 2, 97)}
    assert len(results) == 1
    ok, witness = is_strongly_stable(results.pop())
    assert ok and witness is None


def test_gin_accepts_monomial_ideal():
    got = gin(MonomialIdeal(2, [(1, 1)]), seed=9)
    assert got == MonomialIdeal(2, [(2, 0)])


def test_gin_of_zero_rejected():
    with pytest.raises(UndefinedInputError):
        gin(PolynomialIdeal(2, ()), seed=1)


def test_content_hash_ignores_generator_order():
    a = ideal(2, "x1^2", "x2^2")
    b = ideal(2, "x2^2", "x1^2")
    assert ideal_content_hash(a) == ideal_content_hash(b)
    assert ideal_content_hash(a) != ideal_content_hash(ideal(2, "x1^2"))


def variable_colon(ideal_m, var):
    # (J : x_var) for monomial J: divide each generator by its x_var part.
    out = []
    for g in ideal_m.gens:
        e = g.exponents
        if e[var - 1]:
            out.append(e[:var - 1] + (e[var - 1] - 1,) + e[var:])
        else:
            out.append(e)
    return MonomialIdeal(ideal_m.n, out)


def test_last_variable_regular_iff_no_generator_uses_it():
    """After the generic change, x_n is regular on R/gin(I) exactly when no
    minimal generator of the gin involves x_n; both sides are checked
    independently (colon computation vs depth)."""
    from seqcm.oracles import depth_and_dim

    samples = [
        ideal(2, "x1^2", "x2^2"),
        ideal(2, "x1*x2"),
        ideal(3, "x1*x2", "x1*x3"),
        ideal(3, "x1*x2*x3"),
        ideal(4, "x1*x3", "x1*x4", "x2*x3", "x2*x4"),
        ideal(3, "x1 + x2 + x3"),
    ]
    for base in samples:
        g = gin(base, seed=11)
        n = g.n
        uses_last = any(m.exponents[n - 1] for m in g.gens)
        colon_grows = variable_colon(g, n) != g
        assert uses_last == colon_grows
        depth = depth_and_dim(g)[0]
        assert (depth > 0) == (not uses_last)


def test_gin_cache_roundtrip(tmp_path):
    cache = GinCache(str(tmp_path))
    base = ideal(2, "x1*x2")
    assert cache.get(base, 5) is None
    result = gin(base, seed=5)
    cache.put(base, 5, result)
    assert cache.get(base, 5) == result
    assert cache.get(base, 6) is None


def test_gin_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(groebner, "GIN_MEMO_CAP", 2)
    monkeypatch.setattr(groebner, "_GIN_MEMO", {})
    base = ideal(2, "x1*x2")
    for seed in range(5):
        result = gin(base, seed=seed)
        assert len(groebner._GIN_MEMO) <= 2
        assert groebner._GIN_MEMO[(ideal_content_hash(base), seed)] == result
