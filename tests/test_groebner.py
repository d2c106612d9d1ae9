"""Buchberger, normal forms, saturation, and generic initial ideals."""

from fractions import Fraction
import itertools
import json
from math import comb, gcd, lcm
import os
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from seqcm import groebner, oracles
from seqcm.cli import main as cli_main
from seqcm.errors import (
    CapacityError,
    CertificationError,
    GenericityError,
    ParseError,
    UndefinedInputError,
)
from seqcm.groebner import (
    GIN_MAX_TERMS,
    GIN_RETRY_BUDGET,
    GinCache,
    PolynomialIdeal,
    buchberger,
    gin,
    ideal_content_hash,
    initial_ideal,
    normal_form,
    saturation,
)
from seqcm.monomial import (
    MonomialIdeal,
    colon_saturate_variable,
    hilbert_function,
    is_strongly_stable,
)
from seqcm.oracles import depth_and_dim, koszul_betti
from seqcm.rings import (
    MAX_VARIABLES,
    Monomial,
    Polynomial,
    degrevlex_key,
    parse_polynomial,
    random_unipotent,
)
from seqcm.simplicial import (
    SimplicialComplex,
    shifted_complex,
    stanley_reisner_ideal,
)
from corpus_entries import COMPLEXES, IDEALS, corpus_complex, corpus_ideal
from test_linalg import det


def ideal(n, *texts):
    return PolynomialIdeal.from_strings(n, texts)


def gens(poly_ideal):
    return sorted(str(g) for g in poly_ideal.generators)


def saturate_by_last_variable(base):
    # (I : x_n^infinity) by the code that saturation runs, as an ideal.
    n = base.n
    basis = groebner._groebner(
        n, groebner._saturate_last(n, groebner._generators(base)))
    return PolynomialIdeal(n, groebner._polynomials(n, basis))


def test_reduced_basis_shape():
    gb = buchberger(ideal(2, "x1^2", "x1*x2 + x2^2"))
    assert type(gb) is tuple
    assert [str(g) for g in gb] == ["x1*x2 + x2^2", "x1^2", "x2^3"]
    for g in gb:
        assert g.terms()[0][1] == 1
    # No tail term of any element is divisible by another leading monomial.
    leads = [g.leading_monomial() for g in gb]
    for g in gb:
        for m, _ in g.terms()[1:]:
            assert not any(u.divides(m) for u in leads)


def test_twisted_cubic_basis():
    gb = buchberger(ideal(4, "x1*x3 - x2^2", "x2*x4 - x3^2", "x1*x4 - x2*x3"))
    assert [str(g) for g in gb] == ["x3^2 - x2*x4", "x2*x3 - x1*x4", "x2^2 - x1*x3"]


def test_certification_catches_a_dropped_element(monkeypatch):
    # The final interreduction loses an element; the certifier, which does
    # its own division, must notice that a generator no longer reduces to 0.
    real = groebner._interreduce
    calls = []

    def dropping(n, elements):
        out = real(n, elements)
        calls.append(out)
        return out[:-1] if len(calls) == 2 else out

    monkeypatch.setattr(groebner, "_interreduce", dropping)
    with pytest.raises(CertificationError):
        buchberger(ideal(2, "x1", "x2"))
    assert len(calls) == 2


# The documented engine degree cap; a narrower field cannot hold it.
_CAP = 2**15 - 1


@st.composite
def _packable(draw, n, total=_CAP):
    # An exponent tuple in n variables of degree at most total (the total
    # itself among the draws): a degree cut into n parts.
    d = draw(st.one_of(st.just(total), st.integers(0, total)))
    cuts = sorted(draw(st.lists(st.integers(0, d), min_size=n - 1,
                                max_size=n - 1)))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [d]))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_packing_is_linear_and_orders_and_divides_like_tuples(data):
    n = data.draw(st.integers(1, MAX_VARIABLES))
    a, b = data.draw(_packable(n)), data.draw(_packable(n))
    c = data.draw(_packable(n, _CAP - sum(a)))
    ac = tuple(x + y for x, y in zip(a, c))
    pa, pb, pc, pac = map(groebner._pack, (a, b, c, ac))
    assert groebner._unpack(n, pa) == a
    assert (pa < pb) == (degrevlex_key(Monomial(a)) > degrevlex_key(Monomial(b)))
    assert pa + pc == pac
    guard = groebner._GUARD[n]
    for x, y, px, py in ((a, b, pa, pb), (b, a, pb, pa), (a, ac, pa, pac),
                         (ac, a, pac, pa)):
        assert (not (py - px) & guard) == all(u <= v for u, v in zip(x, y))
    top = tuple(map(max, a, b))
    if sum(top) <= _CAP:
        assert groebner._lcm(n, pa, pb) == groebner._pack(top)
    else:
        with pytest.raises(CapacityError):
            groebner._lcm(n, pa, pb)
    with pytest.raises(CapacityError):
        groebner._pack((0,) * (n - 1) + (_CAP + 1,))


def _key(exps):
    # Degrevlex on exponent tuples, the order the packed ints encode.
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _reference_element(p):
    # The tuple-form element of a dict with rational coefficients: integer
    # primitive with a positive coefficient at its lead, or None when empty.
    if not p:
        return None
    lead = max(p, key=_key)
    mult = lcm(*(Fraction(c).denominator for c in p.values()))
    ints = {m: int(c * mult) for m, c in p.items()}
    g = gcd(*ints.values()) * (1 if ints[lead] > 0 else -1)
    return lead, {m: c // g for m, c in ints.items()}


def _packed(p):
    # An exponent-tuple dict as the engine holds it.
    return {groebner._pack(e): c for e, c in p.items()}


def _unpacked_dict(n, p):
    return {groebner._unpack(n, m): c for m, c in p.items()}


def _unpacked(n, element):
    if element is None:
        return None
    lead, terms = element
    return groebner._unpack(n, lead), _unpacked_dict(n, terms)


def interreduce_until_unchanged(elements):
    # Passes until one changes nothing: the loop before its early stop, on
    # exponent tuples, each element reduced by the reference division.
    elements = list(elements)
    while True:
        elements.sort(key=lambda e: _key(e[0]))
        changed = False
        for idx, e in enumerate(elements):
            others = [o[1] for k, o in enumerate(elements) if k != idx and o]
            r = _reference_element(_reference_remainder(e[1], others))
            if r != e:
                elements[idx] = r
                changed = True
        elements = [e for e in elements if e]
        if not changed:
            return elements


def _dicts(n, coefficients, max_size):
    # Dicts on exponent tuples in n variables, exponents 0..2.
    return st.dictionaries(st.tuples(*[st.integers(0, 2)] * n), coefficients,
                           min_size=1, max_size=max_size)


# Numbers of variables of the engine's property tests.
_NS = st.sampled_from([1, 3, 5])


@given(_NS.flatmap(lambda n: st.tuples(st.just(n), st.lists(
    _dicts(n, st.integers(-3, 3).filter(bool), 4), min_size=1, max_size=5))))
@settings(max_examples=100, deadline=None)
def test_interreduce_stops_where_the_fixpoint_loop_does(case):
    n, dicts = case
    got = groebner._interreduce(n, groebner._divisors(map(_packed, dicts)))
    assert [_unpacked(n, e) for e in got] == \
        interreduce_until_unchanged([_reference_element(p) for p in dicts])


def test_initial_ideal():
    lead = initial_ideal(ideal(2, "x1^2", "x1*x2 + x2^2"))
    assert lead == MonomialIdeal(2, [(2, 0), (1, 1), (0, 3)])


def test_normal_form_values():
    gb = buchberger(ideal(2, "x1^2", "x1*x2 + x2^2"))
    assert str(normal_form(parse_polynomial("x2^2", 2), gb)) == "x2^2"
    assert normal_form(parse_polynomial("x1^2*x2 + x2^3", 2), gb).is_zero()
    assert normal_form(parse_polynomial("x1*x2", 2), gb) == parse_polynomial("-x2^2", 2)
    assert normal_form(Polynomial(2), gb).is_zero()


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
    # Reduced bases are unique, so equal ideals have equal bases.
    assert buchberger(ideal(2, "x1", "x2")) == \
        buchberger(ideal(2, "x1 + x2", "x2"))
    assert buchberger(ideal(2, "x1")) != buchberger(ideal(2, "x1", "x2"))
    assert buchberger(ideal(2)) == ()
    assert initial_ideal(ideal(2)) == MonomialIdeal.zero(2)


@pytest.mark.parametrize("n", [1, 3, 5, 16])
def test_saturate_by_last_variable_matches_the_monomial_colon(n):
    # The engine lowers the packed x_n field; the monomial route strips the
    # last entry of exponent tuples.  x_n is in most generators.
    rng = random.Random(n)
    for _ in range(20):
        monomials = [[rng.choice((0, 0, 1, 2)) for _ in range(n - 1)]
                     + [rng.choice((0, 1, 1, 2, 3))]
                     for _ in range(rng.randint(1, 6))]
        base = MonomialIdeal(n, [e for e in monomials if any(e)])
        if base.is_zero():
            continue
        assert saturate_by_last_variable(base).as_monomial_ideal() == \
            colon_saturate_variable(base, n)


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
    assert buchberger(saturation(tc, seed=31)) == buchberger(tc)


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
                [tuple(map(max, a.exponents, b.exponents))
                 for a in current.gens for b in stripped.gens],
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
    # The second ideal is in 16 variables, the engine's widest packing.
    for base in (ideal(3, "x1*x2 + x3^2", "x1*x3", "x2^3"),
                 ideal(16, "x1*x16 - x2*x15", "x3^2 + x8*x9 - x16^2")):
        results = {gin(base, seed=s) for s in (1, 2, 97)}
        assert len(results) == 1
        result = results.pop()
        ok, witness = is_strongly_stable(result)
        assert ok and witness is None
        # gin and the lead ideal of the reduced basis have R/I's Hilbert
        # function.
        lead = MonomialIdeal(
            base.n, [g.leading_monomial() for g in buchberger(base)])
        assert hilbert_function(result, (0, 6)) == \
            hilbert_function(lead, (0, 6))


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


def test_gin_cache_roundtrip(monkeypatch, tmp_path):
    # A file miss is served from the in-process map, so start it empty.
    monkeypatch.setattr(GinCache, "_memory", {})
    cache = GinCache(str(tmp_path))
    base = ideal(2, "x1*x2")
    assert cache.get(base, 5) is None
    result = gin(base, seed=5)
    cache.put(base, 5, result)
    assert cache.get(base, 5) == result
    assert cache.get(base, 6) is None


def test_gin_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(groebner, "GIN_MEMO_CAP", 2)
    monkeypatch.setattr(GinCache, "_memory", {})
    base = ideal(2, "x1*x2")
    for seed in range(5):
        result = gin(base, seed=seed)
        assert len(GinCache._memory) <= 2
        assert GinCache._memory[(ideal_content_hash(base), seed)] == result


def counted_engine_runs(monkeypatch):
    runs = []
    real = groebner._groebner

    def counting(n, gens, *args, **kwargs):
        runs.append(len(gens))
        return real(n, gens, *args, **kwargs)

    monkeypatch.setattr(groebner, "_groebner", counting)
    return runs


def test_cli_gin_cache_dir_serves_a_later_plain_gin(monkeypatch, tmp_path,
                                                   capsys):
    monkeypatch.setattr(GinCache, "_memory", {})
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps({"n": 3, "generators": ["x1*x2 - x3^2", "x2^2"]}))
    assert cli_main(["gin", str(path), "--seed", "5",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
    printed = json.loads(capsys.readouterr().out)["gin"]
    runs = counted_engine_runs(monkeypatch)
    assert gin(ideal(3, "x1*x2 - x3^2", "x2^2"), seed=5).to_json() == printed
    assert runs == []


def alternate_identity(monkeypatch):
    # Every other coordinate change is the identity, so the two derived
    # seeds of each attempt disagree and the whole retry budget is spent.
    real = groebner.random_unipotent
    draws = []

    def alternating(n, seed):
        draws.append(seed)
        if len(draws) % 2:
            return [[int(i == j) for j in range(n)] for i in range(n)]
        return real(n, seed)

    monkeypatch.setattr(groebner, "random_unipotent", alternating)


def test_gin_spends_the_retry_budget_then_raises(monkeypatch):
    monkeypatch.setattr(GinCache, "_memory", {})
    alternate_identity(monkeypatch)
    runs = counted_engine_runs(monkeypatch)
    with pytest.raises(GenericityError):
        gin(ideal(2, "x2^2"), seed=5)
    assert len(runs) == 2 * GIN_RETRY_BUDGET == 6
    assert GinCache._memory == {}


def test_saturation_spends_the_retry_budget_then_raises(monkeypatch):
    alternate_identity(monkeypatch)
    runs = counted_engine_runs(monkeypatch)
    with pytest.raises(CertificationError):
        saturation(ideal(2, "x1*x2"), seed=5)
    # Per derived seed: the basis, then the divided one changed back.
    assert len(runs) == 4 * GIN_RETRY_BUDGET == 12


def test_gin_cache_file_hit_runs_no_engine(monkeypatch, tmp_path):
    base = ideal(3, "x1*x2 - x3^2", "x2^2")
    cache = GinCache(str(tmp_path))
    result = gin(base, seed=5, cache=cache)
    monkeypatch.setattr(GinCache, "_memory", {})
    runs = counted_engine_runs(monkeypatch)
    assert gin(base, seed=5, cache=cache) == result
    assert runs == []


def test_gin_cache_file_miss_is_served_from_the_map(monkeypatch, tmp_path):
    base = ideal(3, "x1*x2 - x3^2", "x2^2")
    result = gin(base, 5)
    runs = counted_engine_runs(monkeypatch)
    assert gin(base, 5, cache=GinCache(str(tmp_path))) == result
    assert runs == []
    assert len(os.listdir(tmp_path)) == 1
    monkeypatch.setattr(GinCache, "_memory", {})
    assert GinCache(str(tmp_path)).get(base, 5) == result


def test_gin_cache_file_that_is_not_strongly_stable_is_a_miss(
        monkeypatch, tmp_path):
    # gin(x1*x2) = (x1^2); a file holding (x2^2) fails the exchange test.
    monkeypatch.setattr(GinCache, "_memory", {})
    base = ideal(2, "x1*x2")
    cache = GinCache(str(tmp_path))
    result = gin(base, 5, cache=cache)
    (entry,) = os.listdir(tmp_path)
    data = json.loads((tmp_path / entry).read_text())
    data["gin"]["generators"] = ["x2^2"]
    (tmp_path / entry).write_text(json.dumps(data))
    held = dict(GinCache._memory)
    monkeypatch.setattr(GinCache, "_memory", {})
    assert cache.get(base, 5) is None
    # With the map holding the gin, it is served and the file rewritten.
    monkeypatch.setattr(GinCache, "_memory", held)
    assert cache.get(base, 5) == result
    assert json.loads((tmp_path / entry).read_text())["gin"] == result.to_json()


def test_gin_cache_directory_errors_are_parse_errors(tmp_path):
    # The directory is made with the cache; one that is gone when an entry
    # is written is refused as a ParseError that names it, not an OSError.
    base = ideal(2, "x1*x2")
    gone = tmp_path / "gone"
    cache = GinCache(str(gone))
    assert gone.is_dir()
    gone.rmdir()
    with pytest.raises(ParseError, match="gone: cannot use as the gin cache: "):
        cache.put(base, 5, gin(base, 5))
    assert not gone.exists()


def test_gin_of_monomial_ideal_keys_like_its_polynomial_ideal(tmp_path):
    m = MonomialIdeal(3, [(1, 1, 0), (0, 0, 2)])
    poly = PolynomialIdeal.from_monomial_ideal(m)
    assert gin(m, seed=5) == gin(poly, seed=5)
    assert ideal_content_hash(m) == ideal_content_hash(poly)
    # File names are those of earlier versions, so their cache dirs still hit.
    name = "5dd437d2a49af7690cbb0f17971fe2b9f081fe7ac61f5c6d918278f255c6b564.json"
    gin(m, seed=5, cache=GinCache(str(tmp_path)))
    assert os.listdir(tmp_path) == [name]


@pytest.mark.parametrize("n", [2.5, True, "a"])
def test_from_json_rejects_non_integer_n(n):
    with pytest.raises(ParseError):
        PolynomialIdeal.from_json({"n": n, "generators": ["x1"]})


def test_from_json_reads_generators_as_the_cli_does():
    unit = PolynomialIdeal.from_json({"n": 2, "generators": [1]})
    assert unit.as_monomial_ideal().is_unit()
    got = PolynomialIdeal.from_json({"n": 3, "generators": ["x1*x2 - x3^2"]})
    assert got == ideal(3, "x1*x2 - x3^2")
    with pytest.raises(ParseError):
        PolynomialIdeal.from_json({"n": 2, "generators": "x1"})


def test_from_strings_names_the_generator_and_keeps_its_position():
    with pytest.raises(ParseError) as exc:
        PolynomialIdeal.from_strings(2, ["x1*x2", "x1 +\n x9"])
    assert exc.value.message == ("generator 2: variable x9 outside ambient "
                                 "Q[x1..x2]")
    assert (exc.value.line, exc.value.column) == (2, 2)
    assert str(exc.value).startswith("line 2, column 2: generator 2: ")
    # a ParseError given no position cites none
    assert str(ParseError("no position")) == "no position"


SCALED_CASES = [
    ideal(3, "x1*x2 - x3^2", "x2^2"),
    ideal(4, "x1*x3 - x2^2", "x2*x4 - x3^2", "x1*x4 - x2*x3"),
    ideal(3, "1/2*x1^2 + x2*x3", "x1*x3 - 3/4*x2^2"),
]


@pytest.mark.parametrize("base", SCALED_CASES, ids=str)
def test_rational_scaling_of_generators_changes_nothing(base, monkeypatch):
    # Denominators are cleared once per generator; rational multiples of the
    # generators present the same ideal and must give the same answers.
    monkeypatch.setattr(GinCache, "_memory", {})
    factors = [Fraction(2, 3), Fraction(-5, 7)]
    scaled = PolynomialIdeal(base.n, [
        g.scale(factors[k % 2]) for k, g in enumerate(base.generators)])
    assert gin(scaled, seed=13) == gin(base, seed=13)
    assert saturation(scaled, seed=13) == saturation(base, seed=13)
    assert koszul_betti(scaled).entries == koszul_betti(base).entries


def test_engine_routes_skip_polynomial_entry_points(monkeypatch):
    # gin, saturation and the Koszul oracle run on the engine's dict form:
    # the Polynomial-level entry points are never called, and the Koszul
    # oracle computes its Groebner basis once.
    def forbidden(*args, **kwargs):
        raise AssertionError("Polynomial-level entry point called")

    for module in (groebner, oracles):
        for name in ("buchberger", "normal_form", "initial_ideal"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    monkeypatch.setattr(GinCache, "_memory", {})
    runs = []
    real = groebner._groebner

    def counting(n, gens):
        runs.append(len(gens))
        return real(n, gens)

    monkeypatch.setattr(oracles, "_groebner", counting)
    base = ideal(3, "x1*x2 - x3^2", "x2^2")
    assert is_strongly_stable(gin(base, seed=3))[0]
    # The complete intersection is saturated, and x3 vanishes at its point.
    assert gens(saturation(base, seed=3)) == \
        ["x1*x2 - x3^2", "x2*x3^2", "x2^2", "x3^4"]
    assert gens(saturate_by_last_variable(base)) == ["1"]
    assert koszul_betti(base).entries == {(0, 0): 1, (1, 2): 2, (2, 4): 1}
    assert runs == [2]


def test_engine_routes_unpack_only_leads(monkeypatch):
    # The packed dict is the one engine form: gin and the Koszul oracle
    # unpack only leads, and saturation only the Polynomials it returns.
    real = groebner._unpack
    callers = []

    def spy(n, m):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension
            frame = frame.f_back
        callers.append(frame.f_code.co_name)
        return real(n, m)

    monkeypatch.setattr(groebner, "_unpack", spy)
    monkeypatch.setattr(GinCache, "_memory", {})
    base = ideal(3, "x1*x2 - x3^2", "x2^2")
    leads = len(gin(base, seed=3).gens)
    assert set(callers) == {"_leads"} and len(callers) >= 2 * leads
    callers.clear()
    koszul_betti(base)
    assert set(callers) == {"_leads"}
    callers.clear()
    saturated = saturation(base, seed=3)
    assert set(callers) == {"_to_polynomial"}
    assert len(callers) == sum(len(g) for g in saturated.generators)


def test_gin_refuses_the_term_cap_before_any_substitution(monkeypatch):
    # Under x_i -> x_i + sum_{j<i} a_ij x_j a generator of degree d whose
    # last variable is x_t can take all C(t - 1 + d, d) monomials of degree
    # d in x_1..x_t: here 1 + 6 + C(24, 11) = 2,496,151 in all.
    def no_substitution(*args):
        raise AssertionError("substituted before the term cap")

    monkeypatch.setattr(groebner, "_substitute", no_substitution)
    monkeypatch.setattr(GinCache, "_memory", {})
    over = MonomialIdeal(14, [(2,) + (0,) * 13, (0, 1, 1) + (0,) * 11,
                              (0,) * 3 + (1,) * 11])
    with pytest.raises(CapacityError) as exc:
        gin(over, seed=7)
    assert exc.value.limit == GIN_MAX_TERMS == 10 ** 6
    assert exc.value.requested == 1 + 6 + comb(24, 11)
    # The same generator on 13 vertices is admitted: C(22, 10) terms.
    under = groebner._generators(MonomialIdeal(13, [(0,) * 3 + (1,) * 10]))
    assert groebner._image_terms(13, under[0]) == comb(22, 10) <= GIN_MAX_TERMS


def _basis_as_sets(polys):
    return {frozenset((m.exponents, c) for m, c in g.terms()) for g in polys}


def _sympy_basis(sympy, base):
    xs = sympy.symbols("x1:%d" % (base.n + 1))
    names = {str(x): x for x in xs}
    exprs = [sympy.sympify(str(g).replace("^", "**"), locals=names)
             for g in base.generators]
    gb = sympy.groebner(exprs, *xs, order="grevlex", domain="QQ")
    out = []
    for e in gb.exprs:
        terms = sympy.Poly(e, *xs, domain="QQ").terms(order="grevlex")
        lc = terms[0][1]
        out.append(Polynomial(base.n, [
            (Monomial(exps), Fraction(int((c / lc).p), int((c / lc).q)))
            for exps, c in terms]))
    return out


def _random_quadrics(seed):
    rng = random.Random(seed)
    n = rng.choice((3, 4))
    quadrics = [tuple(int(k == a) + int(k == b) for k in range(n))
                for a in range(n) for b in range(a, n)]
    gens = []
    for _ in range(rng.choice((2, 3))):
        terms = [(Monomial(e), Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                        rng.randint(1, 5)))
                 for e in rng.sample(quadrics, 3)]
        gens.append(Polynomial(n, terms))
    return PolynomialIdeal(n, gens)


NON_MONOMIAL_CORPUS = [name for name in sorted(IDEALS)
                       if not corpus_ideal(name).is_monomial()]


@pytest.mark.parametrize(
    "base",
    [corpus_ideal(name) for name in NON_MONOMIAL_CORPUS]
    + [_random_quadrics(seed) for seed in range(4)],
    ids=NON_MONOMIAL_CORPUS + ["random-%d" % seed for seed in range(4)])
def test_buchberger_matches_sympy(base):
    # A third, independent route: sympy's reduced grevlex basis over QQ with
    # x1 > ... > xn, compared as a set of monic polynomials.
    sympy = pytest.importorskip("sympy")
    assert _basis_as_sets(buchberger(base)) == \
        _basis_as_sets(_sympy_basis(sympy, base))


def _cycle(n):
    return SimplicialComplex(n, [(i, i % n + 1) for i in range(1, n + 1)])


def _cycle_ideal(n):
    return PolynomialIdeal.from_monomial_ideal(stanley_reisner_ideal(_cycle(n)))


def _dense_matrix(n, seed):
    rng = random.Random(seed)
    while True:
        rows = [[rng.randint(-100, 100) for _ in range(n)] for _ in range(n)]
        if det(rows) != 0:
            return rows


def _dense_image(f, rows):
    # f(x_i -> sum_j rows[i][j] x_j) as Polynomial products of the linear
    # forms of the rows, apart from the engine's packed substitution.
    n = f.n
    forms = [Polynomial(n, [(Monomial.variable(j + 1, n), a)
                            for j, a in enumerate(row)]) for row in rows]
    image = Polynomial.zero(n)
    for m, c in f.terms():
        term = Polynomial.from_monomial(Monomial.one(n), c)
        for form, e in zip(forms, m.exponents):
            for _ in range(e):
                term = term * form
        image = image + term
    return image


# -- The Hilbert-driven engine against the full-pair engine ------------------

def _cross_polytope(k):
    return SimplicialComplex(2 * k, [
        [2 * i + 1 + b for i, b in enumerate(bits)]
        for bits in itertools.product((0, 1), repeat=k)])


def _target_of(base):
    # The Hilbert series of R/base, as gin takes it: from a lead ideal.
    return groebner._HilbertTarget(
        base.n, [g.exponents for g in initial_ideal(base).gens])


def _leads(basis):
    return sorted(lead for lead, _ in basis)


def _engine_leads_agree(base, moved):
    # The full-pair engine (target None) is the oracle for both outputs of a
    # Hilbert-driven run: the reduced basis and the minimal one.
    target = _target_of(base)
    full = _leads(groebner._groebner(base.n, moved))
    assert _leads(groebner._groebner(base.n, moved, target)) == full
    assert _leads(groebner._groebner(base.n, moved, target, minimal=True)) \
        == full


def full_pair_gin(monkeypatch):
    # gin with every Hilbert target dropped, so every pair is reduced.
    real = groebner._groebner

    def full_pair(n, gens, target=None, minimal=False):
        return real(n, gens, None, minimal)

    monkeypatch.setattr(groebner, "_groebner", full_pair)
    monkeypatch.setattr(GinCache, "_memory", {})


@pytest.mark.parametrize(
    "base", [corpus_ideal(name) for name in sorted(IDEALS)]
    + [_cycle_ideal(6), _cycle_ideal(7)],
    ids=sorted(IDEALS) + ["cycle-6", "cycle-7"])
def test_gin_matches_dense_coordinate_change(base):
    # gin uses unipotent changes; a dense invertible change is generic too
    # and must give the same initial ideal, with or without a Hilbert target.
    g = _dense_matrix(base.n, 101)
    moved = PolynomialIdeal(
        base.n, [_dense_image(f, g) for f in base.generators])
    assert initial_ideal(moved) == gin(base, seed=7)
    _engine_leads_agree(base, groebner._generators(moved))


@pytest.mark.parametrize(
    "base", [corpus_ideal(name) for name in sorted(IDEALS)]
    + [_random_quadrics(seed) for seed in range(4)],
    ids=sorted(IDEALS) + ["random-%d" % seed for seed in range(4)])
def test_hilbert_driven_gin_matches_full_pair(base, monkeypatch):
    rows = random_unipotent(base.n, 7)
    _engine_leads_agree(base, [groebner._substitute(base.n, p, rows)
                               for p in groebner._generators(base)])
    monkeypatch.setattr(GinCache, "_memory", {})
    driven = gin(base, seed=7)
    full_pair_gin(monkeypatch)
    assert gin(base, seed=7) == driven


def _shift_agrees(cx, monkeypatch):
    monkeypatch.setattr(GinCache, "_memory", {})
    driven = shifted_complex(cx, seed=7)
    full_pair_gin(monkeypatch)
    assert shifted_complex(cx, seed=7) == driven


@pytest.mark.parametrize(
    "cx", [_cycle(n) for n in range(6, 10)] + [_cross_polytope(3)]
    + [corpus_complex(name) for name in sorted(COMPLEXES)],
    ids=["cycle-%d" % n for n in range(6, 10)] + ["octahedron"]
    + sorted(COMPLEXES))
def test_hilbert_driven_shift_matches_full_pair(cx, monkeypatch):
    _shift_agrees(cx, monkeypatch)


@pytest.mark.ladder
@pytest.mark.parametrize("cx", [_cycle(10), _cycle(11), _cross_polytope(4)],
                         ids=["cycle-10", "cycle-11", "cross4"])
def test_hilbert_driven_shift_matches_full_pair_on_the_ladder(cx, monkeypatch):
    _shift_agrees(cx, monkeypatch)


@pytest.mark.ladder
@pytest.mark.parametrize("n", [12, 14], ids=["cycle-12", "cycle-14"])
def test_shifting_the_larger_cycles_keeps_the_f_vector(n):
    assert shifted_complex(_cycle(n), seed=7).f_vector() == _cycle(n).f_vector()


WRONG_TARGETS = [
    # The hexagon's face ideal less a quadric: too few degree-2 monomials.
    [g.exponents for g in _cycle_ideal(6).as_monomial_ideal().gens[1:]],
    # Plus an edge of the hexagon: the degree-2 count is never reached.
    [g.exponents for g in _cycle_ideal(6).as_monomial_ideal().gens]
    + [(1, 1, 0, 0, 0, 0)],
    # The lex segment of nine quadrics: the same degree-2 count, but the
    # least growth into degree 3, below that of the run's quadric leads.
    [tuple(int(k == a) + int(k == b) for k in range(6))
     for a, b in [(0, b) for b in range(6)] + [(1, 1), (1, 2), (1, 3)]],
]


@pytest.mark.parametrize("leads", WRONG_TARGETS,
                         ids=["smaller", "larger", "lex-segment"])
def test_wrong_hilbert_target_is_refused(leads):
    base = _cycle_ideal(6)
    rows = random_unipotent(6, 7)
    moved = [groebner._substitute(6, p, rows)
             for p in groebner._generators(base)]
    target = groebner._HilbertTarget(6, leads)
    for minimal in (False, True):
        with pytest.raises(CertificationError):
            groebner._groebner(6, moved, target, minimal=minimal)


def test_gin_with_a_wrong_target_raises_and_stores_nothing(monkeypatch):
    # Every target gin builds is swapped for that of a different ideal.
    real = groebner._HilbertTarget
    monkeypatch.setattr(groebner, "_HilbertTarget",
                        lambda n, leads: real(n, WRONG_TARGETS[2]))
    monkeypatch.setattr(GinCache, "_memory", {})
    with pytest.raises(CertificationError):
        gin(_cycle_ideal(6), seed=7)
    assert GinCache._memory == {}


def _reference_remainder(p, divisors):
    # Plain rational division, the next term found by max over p.
    def key(e):
        return degrevlex_key(Monomial(e))
    leads = [(max(b, key=key), b) for b in divisors]
    p = {m: Fraction(c) for m, c in p.items()}
    r = {}
    while p:
        m = max(p, key=key)
        c = p.pop(m)
        for lb, b in leads:
            if all(x <= y for x, y in zip(lb, m)):
                break
        else:
            r[m] = c
            continue
        q = c / b[lb]
        for bm, bc in b.items():
            if bm != lb:
                t = tuple(x + y - z for x, y, z in zip(bm, m, lb))
                v = p.get(t, 0) - q * bc
                if v:
                    p[t] = v
                else:
                    p.pop(t, None)
    return r


_NONZERO = st.integers(-6, 6).filter(bool)
_RATIONAL = st.fractions(-6, 6, max_denominator=4).filter(bool)


def _division_cases(coefficients):
    # (n, p, divisors) with n = 1, 3 or 5.
    return _NS.flatmap(lambda n: st.tuples(
        st.just(n), _dicts(n, coefficients, 6),
        st.lists(_dicts(n, coefficients, 6), min_size=1, max_size=3)))


@given(_division_cases(_RATIONAL))
@settings(max_examples=150, deadline=None)
def test_divide_matches_max_reference(case):
    n, p, divisors = case
    got = groebner._divide(n, _packed(p),
                           groebner._divisors(map(_packed, divisors)))
    assert _unpacked_dict(n, got) == _reference_remainder(p, divisors)


@given(_division_cases(_NONZERO))
@settings(max_examples=150, deadline=None)
def test_reduce_int_matches_max_reference(case):
    # The engine's remainder is the reference remainder made integer
    # primitive with a positive lead.
    n, p, divisors = case
    expected = _reference_remainder(p, divisors)
    got = _unpacked(n, groebner._reduce_int(
        n, _packed(p), groebner._divisors(map(_packed, divisors))))
    if not expected:
        assert got is None
        return
    lead = max(expected, key=lambda e: degrevlex_key(Monomial(e)))
    lead_got, terms = got
    assert lead_got == lead and terms[lead] > 0
    assert gcd(*terms.values()) == 1
    ratio = Fraction(terms[lead]) / expected[lead]
    assert terms == {m: ratio * c for m, c in expected.items()}


def test_depth_and_dim_runs_the_engine_once(monkeypatch):
    runs = []
    real = groebner._groebner

    def counting(n, gens):
        runs.append(len(gens))
        return real(n, gens)

    monkeypatch.setattr(oracles, "_groebner", counting)
    assert depth_and_dim(ideal(3, "x1*x2 - x3^2", "x2^2")) == (1, 1)
    assert runs == [2]
