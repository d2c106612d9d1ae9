"""Groebner bases, saturation, and generic initial ideals.

The engine is a Buchberger loop with the normal selection strategy and the
two classical pair-dropping criteria, followed by interreduction, so the
output is the reduced (hence unique) Groebner basis for degrevlex.  The
engine's one element form is (lead, terms), an integer-primitive
{exponent tuple: int} dictionary and its lead, recorded once by
`_primitive`; eliminations are fraction-free.  `_divide`, the rational
division behind the public `normal_form`, certifies the output: it finds
leads itself, so it checks the engine independently.  The public API speaks
Fraction-coefficient Polynomials.

Randomized operations (saturation by a generic coordinate change, gin) are
certified: the computation runs under two seeds derived deterministically from
the caller's seed and must agree, with a bounded retry budget before a
genericity failure is raised.  Gin outputs additionally must pass the strong
stability test; in characteristic zero a failure there is a bug, not data.
"""

from fractions import Fraction
import hashlib
import heapq
import json
from math import gcd, lcm
import os
import tempfile

from .errors import (
    AmbientMismatchError,
    CapacityError,
    CertificationError,
    GenericityError,
    NotHomogeneousError,
    SeqcmError,
    StrongStabilityViolationError,
    UndefinedInputError,
)
from .monomial import MonomialIdeal, is_strongly_stable
from .rings import (
    Monomial,
    Polynomial,
    RationalMatrix,
    parse_polynomial,
    substitute,
)
from .version import __version__

GIN_RETRY_BUDGET = 3
PAIR_CAP = 20000
# In-process gin results kept; the oldest entry is evicted beyond this.
GIN_MEMO_CAP = 256


class PolynomialIdeal:
    """A homogeneous ideal presented by nonzero homogeneous generators."""

    __slots__ = ("n", "generators")

    def __init__(self, n, generators=()):
        generators = tuple(generators)
        for g in generators:
            if not isinstance(g, Polynomial):
                raise TypeError("generators must be Polynomials")
            if g.n != n:
                raise AmbientMismatchError(
                    "generator in %d variables, ideal in %d" % (g.n, n))
            if g.is_zero():
                raise UndefinedInputError("zero polynomial is not a generator")
            if not g.is_homogeneous():
                raise NotHomogeneousError("generator %s is not homogeneous" % g)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "generators", generators)

    def __setattr__(self, name, value):
        raise AttributeError("PolynomialIdeal is immutable")

    @classmethod
    def from_strings(cls, n, texts):
        return cls(n, [parse_polynomial(t, n) for t in texts])

    @classmethod
    def from_monomial_ideal(cls, ideal):
        return cls(ideal.n, [Polynomial.from_monomial(g) for g in ideal.gens])

    def is_zero(self):
        return not self.generators

    def is_monomial(self):
        return all(g.is_monomial() for g in self.generators)

    def as_monomial_ideal(self):
        if not self.is_monomial():
            raise UndefinedInputError("ideal has a non-monomial generator")
        return MonomialIdeal(self.n, [g.leading_monomial() for g in self.generators])

    def max_gen_degree(self):
        return max((g.degree() for g in self.generators), default=0)

    def __eq__(self, other):
        return (isinstance(other, PolynomialIdeal)
                and self.n == other.n and self.generators == other.generators)

    def __hash__(self):
        return hash((self.n, self.generators))

    def __str__(self):
        if self.is_zero():
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.generators) + ")"

    def __repr__(self):
        return "PolynomialIdeal(%d, %s)" % (self.n, self)

    def to_json(self):
        return {"n": self.n, "generators": [str(g) for g in self.generators]}

    @classmethod
    def from_json(cls, data):
        return cls.from_strings(int(data["n"]), list(data["generators"]))


class GroebnerBasis:
    """Reduced degrevlex Groebner basis; elements are monic, sorted by
    increasing leading monomial.  Unique for the ideal, hence comparable."""

    __slots__ = ("n", "elements", "reduced")

    def __init__(self, n, elements, reduced=True):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "elements", tuple(elements))
        object.__setattr__(self, "reduced", reduced)

    def __setattr__(self, name, value):
        raise AttributeError("GroebnerBasis is immutable")

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def leading_monomials(self):
        return tuple(g.leading_monomial() for g in self.elements)

    def __eq__(self, other):
        return (isinstance(other, GroebnerBasis)
                and self.n == other.n and self.elements == other.elements)

    def __repr__(self):
        return "GroebnerBasis(%d, %d elements)" % (self.n, len(self.elements))


# ---------------------------------------------------------------------------
# Integer-primitive engine.  An element is (lead, terms): terms is
# {exponent tuple: int} with content 1 and a positive coefficient at lead.

def _key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _primitive(p, lead):
    """The element (lead, p): p divided by its content, sign so p[lead] > 0."""
    g = 0
    for c in p.values():
        g = gcd(g, c)
    if p[lead] < 0:
        g = -g
    if g != 1:
        for k in p:
            p[k] //= g
    return lead, p


def _terms(poly):
    return {m.exponents: c for m, c in poly.terms()}


def _to_int(poly):
    """The element of a nonzero Polynomial, denominators cleared."""
    terms = _terms(poly)
    mult = lcm(*(c.denominator for c in terms.values()))
    p = {e: c.numerator * (mult // c.denominator) for e, c in terms.items()}
    return _primitive(p, poly.leading_monomial().exponents)


def _to_polynomial(n, p, lc=1):
    return Polynomial(n, [(Monomial(e), Fraction(c, lc)) for e, c in p.items()])


def _reduce_int(p, basis):
    """Full fraction-free remainder of the dict p modulo basis elements.

    Maintains new = lc_b * old - c * (m / lm_b) * b at each step, so the
    result times a nonzero rational lies in (old) + (basis).  Terms leave p
    in decreasing order, so the first key of r is the remainder's lead.
    Returns the remainder as an element, or None when it is zero.
    """
    p = dict(p)
    r = {}
    while p:
        m = max(p, key=_key)
        c = p.pop(m)
        for lb, bp in basis:
            if _divides(lb, m):
                break
        else:
            r[m] = c
            continue
        quot = tuple(a - b for a, b in zip(m, lb))
        lc = bp[lb]
        if lc != 1:
            for k in p:
                p[k] *= lc
            for k in r:
                r[k] *= lc
        for bm, bc in bp.items():
            if bm == lb:
                continue
            t = tuple(a + b for a, b in zip(bm, quot))
            v = p.get(t, 0) - c * bc
            if v:
                p[t] = v
            elif t in p:
                del p[t]
        # Keep coefficients primitive across both halves.
        g = 0
        for v in p.values():
            g = gcd(g, v)
        for v in r.values():
            g = gcd(g, v)
        if g > 1:
            for k in p:
                p[k] //= g
            for k in r:
                r[k] //= g
    return _primitive(r, next(iter(r))) if r else None


def _s_poly(f, g):
    (lf, pf), (lg, pg) = f, g
    cf, cg = pf[lf], pg[lg]
    l = tuple(max(a, b) for a, b in zip(lf, lg))
    qf = tuple(a - b for a, b in zip(l, lf))
    qg = tuple(a - b for a, b in zip(l, lg))
    out = {}
    for m, c in pf.items():
        t = tuple(a + b for a, b in zip(m, qf))
        out[t] = out.get(t, 0) + cg * c
    for m, c in pg.items():
        t = tuple(a + b for a, b in zip(m, qg))
        v = out.get(t, 0) - cf * c
        if v:
            out[t] = v
        elif t in out:
            del out[t]
    return out


def _interreduce(elements):
    """Reduce each element by the others until nothing changes; the result
    is sorted by increasing lead."""
    elements = list(elements)
    while True:
        elements.sort(key=lambda e: _key(e[0]))
        changed = False
        for idx, e in enumerate(elements):
            others = [o for k, o in enumerate(elements) if k != idx and o]
            r = _reduce_int(e[1], others)
            if r != e:
                elements[idx] = r
                changed = True
        elements = [e for e in elements if e]
        if not changed:
            return elements


def _push_pairs(pairs, basis, t):
    """Queue the pairs (k, t), k < t, keyed by the order of their lcm."""
    lt = basis[t][0]
    for k in range(t):
        l = tuple(max(a, b) for a, b in zip(basis[k][0], lt))
        heapq.heappush(pairs, (_key(l), k, t, l))


def _divide(p, basis):
    """Remainder of the dict p on rational division by the dicts in basis.

    Leads are found here, not read from the engine's elements, so that
    certification is independent of the Buchberger bookkeeping.
    """
    divisors = [(max(bp, key=_key), bp) for bp in basis]
    p = dict(p)
    r = {}
    while p:
        m = max(p, key=_key)
        c = p.pop(m)
        for lb, bp in divisors:
            if _divides(lb, m):
                break
        else:
            r[m] = c
            continue
        q = Fraction(c) / bp[lb]
        quot = tuple(a - b for a, b in zip(m, lb))
        for bm, bc in bp.items():
            if bm == lb:
                continue
            t = tuple(a + b for a, b in zip(bm, quot))
            v = p.get(t, 0) - q * bc
            if v:
                p[t] = v
            elif t in p:
                del p[t]
    return r


def buchberger(ideal):
    """Reduced degrevlex Groebner basis of a PolynomialIdeal.

    Normal selection (smallest pair lcm in the order first, ties by pair
    index); a pair is dropped when its leading monomials are coprime or when
    the chain criterion applies.  Every input generator is certified by
    rational division to reduce to zero against the output.
    """
    if ideal.is_zero():
        return GroebnerBasis(ideal.n, ())
    n = ideal.n
    basis = _interreduce(_to_int(g) for g in ideal.generators)
    pairs = []
    for t in range(len(basis)):
        _push_pairs(pairs, basis, t)
    done = set()
    while pairs:
        if len(pairs) > PAIR_CAP:
            raise CapacityError("buchberger pair queue", PAIR_CAP, len(pairs))
        _, i, j, l = heapq.heappop(pairs)
        done.add((i, j))
        li, lj = basis[i][0], basis[j][0]
        if all(min(a, b) == 0 for a, b in zip(li, lj)):
            continue  # criterion 1: coprime leads
        for k, (lk, _) in enumerate(basis):
            if (k not in (i, j) and _divides(lk, l)
                    and (min(i, k), max(i, k)) in done
                    and (min(j, k), max(j, k)) in done):
                break  # criterion 2: chain
        else:
            r = _reduce_int(_s_poly(basis[i], basis[j]), basis)
            if r:
                basis.append(r)
                _push_pairs(pairs, basis, len(basis) - 1)
    basis = _interreduce(basis)
    terms = [p for _, p in basis]
    for g in ideal.generators:
        if _divide(_terms(g), terms):
            raise CertificationError(
                "generator %s does not reduce to zero against its basis" % g)
    return GroebnerBasis(n, [_to_polynomial(n, p, p[lead]) for lead, p in basis])


def normal_form(f, basis):
    """Remainder of f on division by the basis elements (rational, exact).

    f minus the result lies in the ideal generated by the basis; no monomial
    of the result is divisible by any basis leading monomial.
    """
    elements = list(basis.elements if isinstance(basis, GroebnerBasis) else basis)
    for b in elements:
        if b.n != f.n:
            raise AmbientMismatchError("polynomial and basis ambient differ")
    remainder = _divide(_terms(f), [_terms(b) for b in elements if b])
    return _to_polynomial(f.n, remainder)


def initial_ideal(ideal):
    """Monomial ideal of leading terms, from the reduced Groebner basis."""
    gb = buchberger(ideal)
    return MonomialIdeal(ideal.n, gb.leading_monomials())


def equal_ideals(a, b):
    """Ideal equality by mutual normal-form membership."""
    if a.n != b.n:
        raise AmbientMismatchError("ideals in %d and %d variables" % (a.n, b.n))
    gb_a, gb_b = buchberger(a), buchberger(b)
    return (all(not normal_form(g, gb_a) for g in b.generators)
            and all(not normal_form(g, gb_b) for g in a.generators))


def saturate_by_last_variable(ideal):
    """(I : x_n^infinity) via the reverse-lex device: in a reduced degrevlex
    basis of a homogeneous ideal, dividing each element by its full power of
    x_n generates the saturation.  The result is re-interreduced."""
    gb = buchberger(ideal)
    if not gb.elements:
        return PolynomialIdeal(ideal.n, ())
    divided = []
    for g in gb:
        k = min(m.exponent(ideal.n) for m in g.monomials())
        if k:
            mono = Monomial((0,) * (ideal.n - 1) + (k,))
            g = Polynomial(g.n, [(m / mono, c) for m, c in g.terms()])
        divided.append(g)
    out = buchberger(PolynomialIdeal(ideal.n, divided))
    return PolynomialIdeal(ideal.n, out.elements)


def _derive_seed(seed, k):
    return (int(seed) * 1000003 + 10007 * k + 17) % (1 << 64)


def _substituted(ideal, rows):
    """The ideal under x_i -> sum_j rows[i][j] x_j; rows must be invertible."""
    return PolynomialIdeal(ideal.n, [
        _to_polynomial(ideal.n, substitute(_to_int(f)[1], rows))
        for f in ideal.generators])


def _transformed(ideal, seed):
    g = RationalMatrix.random_invertible(ideal.n, seed)
    return g, _substituted(ideal, [[int(a) for a in row] for row in g.rows])


def saturation(ideal, seed, retries=GIN_RETRY_BUDGET):
    """Full saturation with respect to the irrelevant maximal ideal.

    Route: generic coordinate change, saturate by the last variable, change
    back.  Two derived seeds must give equal ideals; generators of the
    result are the reduced Groebner basis, which is unique for the ideal, so
    the two results are compared directly and the output is canonical.
    """
    if ideal.is_zero():
        return ideal
    for t in range(retries):
        pair = []
        for k in (0, 1):
            s = _derive_seed(seed, 2 * t + k)
            g, moved = _transformed(ideal, s)
            sat = saturate_by_last_variable(moved)
            canonical = buchberger(_substituted(sat, g.inverse().rows))
            pair.append(PolynomialIdeal(ideal.n, canonical.elements))
        if pair[0] == pair[1]:
            return pair[0]
    raise CertificationError(
        "saturation results disagreed across %d seed pairs" % retries)


_GIN_MEMO = {}


def ideal_content_hash(ideal):
    """Stable hash of the presented ideal (sorted canonical generators)."""
    payload = {"n": ideal.n,
               "generators": sorted(str(g) for g in ideal.generators)}
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def gin(ideal, seed, retries=GIN_RETRY_BUDGET):
    """Generic initial ideal for degrevlex, certified by two-seed agreement.

    The result of in(g . I) for a random invertible integer matrix g is
    recomputed under a second derived seed; agreement certifies genericity,
    disagreement burns a retry.  The certified result must be strongly
    stable (characteristic zero), else a violation error is raised: that
    outcome indicates a bug, never data.
    """
    if isinstance(ideal, MonomialIdeal):
        ideal = PolynomialIdeal.from_monomial_ideal(ideal)
    if ideal.is_zero():
        raise UndefinedInputError("gin of the zero ideal is undefined here")
    memo_key = (ideal_content_hash(ideal), int(seed))
    if memo_key in _GIN_MEMO:
        return _GIN_MEMO[memo_key]
    for t in range(retries):
        candidates = []
        for k in (0, 1):
            s = _derive_seed(seed, 2 * t + k)
            _, moved = _transformed(ideal, s)
            candidates.append(initial_ideal(moved))
        if candidates[0] == candidates[1]:
            result = candidates[0]
            ok, witness = is_strongly_stable(result)
            if not ok:
                raise StrongStabilityViolationError(
                    "gin candidate %s fails the exchange test" % result, witness)
            if len(_GIN_MEMO) >= GIN_MEMO_CAP:
                del _GIN_MEMO[next(iter(_GIN_MEMO))]
            _GIN_MEMO[memo_key] = result
            return result
    raise GenericityError(
        "gin candidates disagreed across %d seed pairs" % retries)


class GinCache:
    """Disk cache for gin results, keyed by (ideal hash, seed, version)."""

    def __init__(self, directory):
        self.directory = directory

    def _path(self, ideal, seed):
        key = hashlib.sha256(json.dumps(
            {"ideal": ideal_content_hash(ideal), "seed": int(seed),
             "version": __version__},
            sort_keys=True).encode()).hexdigest()
        return os.path.join(self.directory, key + ".json")

    def get(self, ideal, seed):
        """The cached gin, or None; an unreadable or mismatched entry is a miss."""
        try:
            with open(self._path(ideal, seed)) as fh:
                data = json.load(fh)
            gin_data = data["gin"]
            if (data["version"] != __version__ or data["seed"] != int(seed)
                    or gin_data["n"] != ideal.n):
                return None
            return MonomialIdeal(
                ideal.n,
                [parse_polynomial(g, ideal.n).leading_monomial()
                 for g in gin_data["generators"]],
            )
        except (OSError, ValueError, KeyError, TypeError, AttributeError,
                SeqcmError):
            return None

    def put(self, ideal, seed, result):
        os.makedirs(self.directory, exist_ok=True)
        path = self._path(ideal, seed)
        payload = {
            "ideal": ideal.to_json(),
            "seed": int(seed),
            "version": __version__,
            "gin": result.to_json(),
        }
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=self.directory)
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, sort_keys=True, indent=1)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
