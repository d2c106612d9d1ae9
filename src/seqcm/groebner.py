"""Groebner bases, saturation, and generic initial ideals.

The engine is a Buchberger loop with the normal selection strategy and the
two classical pair-dropping criteria, followed by interreduction, so the
output is the reduced (hence unique) Groebner basis for degrevlex.  Internally
polynomials are integer-primitive dictionaries and all eliminations are
fraction-free; the public API speaks Fraction-coefficient Polynomials.

Randomized operations (saturation by a generic coordinate change, gin) are
certified: the computation runs under two seeds derived deterministically from
the caller's seed and must agree, with a bounded retry budget before a
genericity failure is raised.  Gin outputs additionally must pass the strong
stability test; in characteristic zero a failure there is a bug, not data.
"""

from fractions import Fraction
import hashlib
import json
from math import gcd
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
    degrevlex_key,
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
# Integer-primitive engine.  A working polynomial is {exponent tuple: int}
# with content 1 and positive leading coefficient.

def _key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _lead(p):
    return max(p, key=_key)


def _content_normalize(p):
    if not p:
        return p
    g = 0
    for c in p.values():
        g = gcd(g, c)
    lead = _lead(p)
    if p[lead] < 0:
        g = -g
    if g != 1:
        for k in p:
            p[k] //= g
    return p


def _to_int(poly):
    mult = 1
    for _, c in poly.terms():
        d = c.denominator
        mult = mult // gcd(mult, d) * d
    p = {m.exponents: int(c * mult) for m, c in poly.terms()}
    return _content_normalize(p)


def _to_polynomial(n, p):
    lead = _lead(p)
    lc = p[lead]
    return Polynomial(n, [(Monomial(e), Fraction(c, lc)) for e, c in p.items()])


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _reduce_int(p, basis):
    """Full fraction-free remainder of p modulo basis = [(lead, lc, poly)].

    Maintains new = lc_b * old - c * (m / lm_b) * b at each step, so the
    result times a nonzero rational lies in (old) + (basis); after content
    normalization it is the primitive normal form.
    """
    p = dict(p)
    r = {}
    while p:
        m = _lead(p)
        c = p.pop(m)
        hit = None
        for lb, lc, bp in basis:
            if _divides(lb, m):
                hit = (lb, lc, bp)
                break
        if hit is None:
            r[m] = c
            continue
        lb, lc, bp = hit
        quot = tuple(a - b for a, b in zip(m, lb))
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
    return _content_normalize(r)


def _prep(polys):
    return [(_lead(p), p[_lead(p)], p) for p in polys]


def _s_poly(f, g):
    lf, lg = _lead(f), _lead(g)
    cf, cg = f[lf], g[lg]
    l = tuple(max(a, b) for a, b in zip(lf, lg))
    qf = tuple(a - b for a, b in zip(l, lf))
    qg = tuple(a - b for a, b in zip(l, lg))
    out = {}
    for m, c in f.items():
        t = tuple(a + b for a, b in zip(m, qf))
        out[t] = out.get(t, 0) + cg * c
    for m, c in g.items():
        t = tuple(a + b for a, b in zip(m, qg))
        v = out.get(t, 0) - cf * c
        if v:
            out[t] = v
        elif t in out:
            del out[t]
    return _content_normalize(out)


def _interreduce(polys):
    polys = [dict(p) for p in polys if p]
    while True:
        polys.sort(key=lambda p: _key(_lead(p)))
        changed = False
        for idx in range(len(polys)):
            if not polys[idx]:
                continue
            others = [p for k, p in enumerate(polys) if k != idx and p]
            if not others:
                continue
            r = _reduce_int(polys[idx], _prep(others))
            if r != polys[idx]:
                polys[idx] = r
                changed = True
        polys = [p for p in polys if p]
        if not changed:
            return polys


def buchberger(ideal):
    """Reduced degrevlex Groebner basis of a PolynomialIdeal.

    Normal selection (smallest pair lcm in the order first); a pair is
    dropped when its leading monomials are coprime or when the chain
    criterion applies.  Every input generator is certified to reduce to zero
    against the output.
    """
    if ideal.is_zero():
        return GroebnerBasis(ideal.n, ())
    n = ideal.n
    work = []
    for g in ideal.generators:
        p = _to_int(g)
        if p:
            work.append(p)
    basis = _interreduce(work)
    if any(_lead(p) == (0,) * n for p in basis):
        basis = [{(0,) * n: 1}]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    done = set()

    def lcm_of(i, j):
        return tuple(max(a, b) for a, b in zip(_lead(basis[i]), _lead(basis[j])))

    while pairs:
        if len(pairs) > PAIR_CAP:
            raise CapacityError("buchberger pair queue", PAIR_CAP, len(pairs))
        i, j = min(pairs, key=lambda ij: (_key(lcm_of(*ij)), ij))
        pairs.discard((i, j))
        done.add((i, j))
        li, lj = _lead(basis[i]), _lead(basis[j])
        if all(min(a, b) == 0 for a, b in zip(li, lj)):
            continue  # criterion 1: coprime leads
        l = lcm_of(i, j)
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not _divides(_lead(basis[k]), l):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a in done and b in done:
                skip = True  # criterion 2: chain
                break
        if skip:
            continue
        s = _s_poly(basis[i], basis[j])
        r = _reduce_int(s, _prep(basis)) if s else {}
        if r:
            t = len(basis)
            basis.append(r)
            for k in range(t):
                pairs.add((k, t))
    basis = _interreduce(basis)
    out = sorted((_to_polynomial(n, p) for p in basis),
                 key=lambda f: degrevlex_key(f.leading_monomial()))
    gb = GroebnerBasis(n, out)
    for g in ideal.generators:
        if normal_form(g, gb):
            raise CertificationError(
                "generator %s does not reduce to zero against its basis" % g)
    return gb


def normal_form(f, basis):
    """Remainder of f on division by the basis elements (rational, exact).

    f minus the result lies in the ideal generated by the basis; no monomial
    of the result is divisible by any basis leading monomial.
    """
    elements = list(basis.elements if isinstance(basis, GroebnerBasis) else basis)
    for b in elements:
        if b.n != f.n:
            raise AmbientMismatchError("polynomial and basis ambient differ")
    leads = [(b.leading_monomial(), b.leading_coefficient(), b) for b in elements if b]
    work = f
    out = Polynomial.zero(f.n)
    while work:
        m, c = work.leading_term()
        hit = None
        for lm, lc, b in leads:
            if lm.divides(m):
                hit = (lm, lc, b)
                break
        if hit is None:
            t = Polynomial(f.n, [(m, c)])
            out = out + t
            work = work - t
        else:
            lm, lc, b = hit
            work = work - b.times_monomial(m / lm, c / lc)
    return out


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
        _to_polynomial(ideal.n, substitute(_to_int(f), rows))
        for f in ideal.generators])


def _transformed(ideal, seed):
    g = RationalMatrix.random_invertible(ideal.n, seed)
    return g, _substituted(ideal, [[int(a) for a in row] for row in g.rows])


def saturation(ideal, seed, retries=GIN_RETRY_BUDGET):
    """Full saturation with respect to the irrelevant maximal ideal.

    Route: generic coordinate change, saturate by the last variable, change
    back.  Two derived seeds must give equal ideals (mutual normal-form
    membership); generators of the result are the reduced Groebner basis, so
    the output is canonical.
    """
    if ideal.is_zero():
        return ideal
    results = []
    for t in range(retries):
        pair = []
        for k in (0, 1):
            s = _derive_seed(seed, 2 * t + k)
            g, moved = _transformed(ideal, s)
            sat = saturate_by_last_variable(moved)
            canonical = buchberger(_substituted(sat, g.inverse().rows))
            pair.append(PolynomialIdeal(ideal.n, canonical.elements))
        if equal_ideals(pair[0], pair[1]):
            return pair[0]
        results.append(pair)
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
