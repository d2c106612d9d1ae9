"""Groebner bases, saturation, and generic initial ideals.

The engine, `_groebner`, is a Buchberger loop with the normal selection
strategy and the two classical pair-dropping criteria, followed by
interreduction, so the output is the reduced (hence unique) Groebner basis
for degrevlex.  Its one element form is (lead, terms), an integer-primitive
{exponent tuple: int} dictionary and its lead, recorded once by
`_primitive`.  gin, saturation and the Koszul oracle all run on this form:
generators have their denominators cleared once, coordinate changes
substitute integer rows into them, and leads are read off the elements.

The engine is Hilbert-driven when given a `_HilbertTarget`, the Hilbert
series of the ideal it works on (Traverso, J. Symbolic Comput. 22, 1996).
Pairs pop in degree order and the input is homogeneous, so once the lead
ideal has as many degree-d monomials as the target's ideal, every
remaining degree-d S-polynomial reduces to zero and is dropped unreduced.
The degree-d monomials of the lead ideal are kept as a running set, the
degree d-1 set times the variables plus the leads of degree d.  A count
above the target's raises CertificationError at once, and so does a run
whose final lead ideal has another Hilbert series, compared as the
K-polynomial of the lcm fold over its leads.  These checks refuse a target
that the run's lead ideal contradicts; one that a skipping run happens to
match would pass, so the engine is given only targets that are exact.
gin's are: HF(R/u.I) = HF(R/I) for every change u, so a monomial I is its
own target, and any other I takes the lead ideal of its first candidate,
run with all pairs.  gin reads only leads, so its runs stop at a minimal
basis (same leads, tails unreduced) instead of interreducing; `buchberger`,
saturation and the Koszul oracle keep the reduced basis and run every pair.

Reduction, `_remainder`, is ordered and fraction-free: the working
polynomial's monomials sit in a heap, so each step pops the next term
instead of searching for it, and each step scales by lc/gcd(c, lc) while a
running integer scale is kept.  `_divide`, the rational division behind the
public `normal_form`, certifies every engine run: it finds the divisors'
leads itself (`_divisors`), so it checks the Buchberger bookkeeping
independently, and it divides by the scale once at the end, so a zero
remainder never builds a Fraction.  Fraction-coefficient Polynomials appear
only at the public entry points.

Randomized operations (saturation by a generic coordinate change, gin) are
certified: the computation runs under two seeds derived deterministically from
the caller's seed and must agree, with a bounded retry budget before a
genericity failure is raised.  The changes are unipotent,
x_i -> x_i + sum_{j<i} a_ij x_j: a generic g factors as such a u times an
upper triangular matrix that leaves initial ideals alone, so
gin(I) = in(u . I) (Galligo; Bayer-Stillman, Invent. Math. 87, 1987), and
u needs no singular redraw and has an integral inverse.  Gin outputs
additionally must pass the strong stability test; in characteristic zero a
failure there is a bug, not data.

`GinCache` is the one gin store, and `gin` its only reader and writer: an
in-process map shared by every instance, plus one JSON file per entry when
the instance has a directory.
"""

from fractions import Fraction
import hashlib
import heapq
from itertools import chain
import json
from math import comb, gcd, lcm
from operator import add
import os
import tempfile

from .errors import (
    AmbientMismatchError,
    CapacityError,
    CertificationError,
    GenericityError,
    NotHomogeneousError,
    ParseError,
    SeqcmError,
    StrongStabilityViolationError,
    UndefinedInputError,
)
from .monomial import MonomialIdeal, _lcm_fold, is_strongly_stable
from .rings import (
    Monomial,
    Polynomial,
    RationalMatrix,
    _check_ambient,
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
        _check_ambient(n)
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
        """{"n": int, "generators": [...]}; a number generator is a constant."""
        if type(data["n"]) is not int:
            raise ParseError("n must be an integer, got %r" % (data["n"],))
        if not isinstance(data["generators"], list):
            raise ParseError("\"generators\" must be a list")
        return cls.from_strings(data["n"], [str(g) for g in data["generators"]])


class GroebnerBasis:
    """Reduced degrevlex Groebner basis; elements are monic, sorted by
    increasing leading monomial.  Unique for the ideal, hence comparable."""

    __slots__ = ("n", "elements")

    def __init__(self, n, elements):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "elements", tuple(elements))

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


def _support(exps):
    """The variables of an exponent tuple as a bitmask."""
    mask = 0
    for i, e in enumerate(exps):
        if e:
            mask |= 1 << i
    return mask


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


def _scaled(p):
    """(mult, mult * p) for a dict with int or Fraction coefficients, mult
    the lcm of the denominators, so the second has int coefficients."""
    mult = lcm(*(c.denominator for c in p.values()))
    return mult, {e: c.numerator * (mult // c.denominator) for e, c in p.items()}


def _cleared(p):
    """The element of a nonzero dict with int or Fraction coefficients,
    denominators cleared."""
    q = _scaled(p)[1]
    return _primitive(q, max(q, key=_key))


def _generators(ideal):
    """The generators of a PolynomialIdeal or MonomialIdeal as integer dicts."""
    if isinstance(ideal, MonomialIdeal):
        return [{g.exponents: 1} for g in ideal.gens]
    return [_cleared(_terms(g))[1] for g in ideal.generators]


def _to_polynomial(n, p, lc=1):
    return Polynomial(n, [(Monomial(e), Fraction(c, lc)) for e, c in p.items()])


def _polynomials(n, basis):
    """Monic Polynomials of engine elements."""
    return [_to_polynomial(n, p, p[lead]) for lead, p in basis]


def _remainder(p, divisors, scale=1):
    """(scale', r): the remainder of p / scale on division by the integer
    (lead, terms) pairs in divisors is r / scale'.  Consumes p.

    Fraction-free: with g = gcd(c, lc), a step is
    p <- (lc/g) p - (c/g) (m/lm) b, and the running integer scale takes the
    factor lc/g.  The monomials of p sit in a min-heap under
    (-degree, reversed exponents), so they pop in decreasing degrevlex order
    and r's first key is the remainder's lead.  A monomial that cancels
    keeps a zero entry in p, so it is never pushed twice, and is skipped
    when it pops.  A lead whose support is not inside that of the popped
    monomial cannot divide it; one integer test on the supports settles
    most divisors before `_divides` runs.
    """
    heap = [(-sum(m), m[::-1], m) for m in p]
    heapq.heapify(heap)
    r = {}
    indexed = [(_support(lb), lb, bp) for lb, bp in divisors]
    while heap:
        m = heapq.heappop(heap)[2]
        c = p.pop(m)
        if not c:
            continue
        outside = ~_support(m)
        for s, lb, bp in indexed:
            if not s & outside and _divides(lb, m):
                break
        else:
            r[m] = c
            continue
        g = gcd(c, bp[lb])
        lc, c = bp[lb] // g, c // g
        if lc != 1:
            scale *= lc
            for k in p:
                p[k] *= lc
            for k in r:
                r[k] *= lc
        quot = tuple(a - b for a, b in zip(m, lb))
        for bm, bc in bp.items():
            if bm != lb:
                t = tuple(map(add, bm, quot))
                v = p.get(t)
                if v is None:
                    p[t] = -c * bc
                    heapq.heappush(heap, (-sum(t), t[::-1], t))
                else:
                    p[t] = v - c * bc
        # Divide out what the coefficients share with the scale.
        g = scale
        for v in chain(p.values(), r.values()):
            g = gcd(g, v)
            if g == 1:
                break
        else:
            scale //= g
            for k in p:
                p[k] //= g
            for k in r:
                r[k] //= g
    return scale, r


def _reduce_int(p, basis):
    """Full remainder of the int dict p modulo engine elements, as an
    element (its lead is the remainder's first key), or None when zero.
    The result times a nonzero rational lies in (p) + (basis)."""
    r = _remainder(dict(p), basis)[1]
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


def _divisors(basis):
    """The dicts of basis in integer form with their leads, for `_divide`.

    Leads are found here, not read from the engine's elements, so that
    certification is independent of the Buchberger bookkeeping.  Scaling a
    divisor leaves every remainder unchanged.
    """
    return [_cleared(bp) for bp in basis]


def _divide(p, divisors):
    """Remainder of the dict p on rational division by `_divisors(basis)`;
    denominators are cleared first and the remainder divided by the running
    scale once at the end, so a zero remainder builds no Fraction."""
    mult, q = _scaled(p)
    scale, r = _remainder(q, divisors, mult)
    return {m: Fraction(v, scale) for m, v in r.items()}


def _k_polynomial(n, leads):
    """Numerator of the Hilbert series of R/(leads) over (1 - t)^n, as
    {degree: coefficient} with no zero coefficient: the lcm fold of
    `monomial._lcm_fold`, with no generator cap, summed by degree."""
    out = {}
    for m, c in _lcm_fold(n, leads).items():
        d = sum(m)
        out[d] = out.get(d, 0) + c
    return {d: c for d, c in out.items() if c}


class _HilbertTarget:
    """The Hilbert series of R/J for a monomial ideal J given by its
    generators: its K-polynomial and the dimensions dim_K J_d read off it.
    Shared by every engine run it steers, so each dimension is found, and
    each lead set folded, once."""

    __slots__ = ("n", "numerator", "_dims", "_matched")

    def __init__(self, n, leads):
        self.n = n
        self.numerator = _k_polynomial(n, leads)
        self._dims = {}
        self._matched = {frozenset(leads)}

    def matches(self, leads):
        """Whether R/(leads) has this Hilbert series."""
        key = frozenset(leads)
        if key not in self._matched:
            if _k_polynomial(self.n, leads) != self.numerator:
                return False
            self._matched.add(key)
        return True

    def ideal_dim(self, d):
        """dim_K J_d = C(n-1+d, n-1) - dim_K (R/J)_d."""
        dim = self._dims.get(d)
        if dim is None:
            n = self.n
            dim = comb(n - 1 + d, n - 1) - sum(
                c * comb(n - 1 + d - a, n - 1)
                for a, c in self.numerator.items() if a <= d)
            self._dims[d] = dim
        return dim


def _next_degree(part, basis, d):
    """Degree-d monomials of the lead ideal of basis, from its degree d-1
    part: that part times the variables, and the leads of degree d."""
    out = {lead for lead, _ in basis if sum(lead) == d}
    for m in part:
        for i in range(len(m)):
            out.add(m[:i] + (m[i] + 1,) + m[i + 1:])
    return out


def _filled(part, target, d):
    """Whether the degree-d part of the lead ideal is as large as the
    target's; larger means the target is wrong."""
    dim = target.ideal_dim(d)
    if len(part) > dim:
        raise CertificationError(
            "lead ideal has %d monomials of degree %d, its Hilbert target %d"
            % (len(part), d, dim))
    return len(part) == dim


def _minimal(basis):
    """The elements whose leads no other lead divides, sorted by lead: a
    minimal Groebner basis with the same lead ideal."""
    leads = [lead for lead, _ in basis]
    kept = [e for e in basis
            if not any(o != e[0] and _divides(o, e[0]) for o in leads)]
    return sorted(kept, key=lambda e: _key(e[0]))


def _groebner(gens, target=None, minimal=False):
    """Degrevlex Groebner basis of a list of nonzero dicts with int or
    Fraction coefficients, as elements sorted by increasing lead: the
    reduced basis, or with `minimal` a minimal one (same leads, tails not
    reduced).

    Normal selection (smallest pair lcm in the order first, ties by pair
    index); a pair is dropped when its leading monomials are coprime or when
    the chain criterion applies.  With a `_HilbertTarget` of the ideal's
    Hilbert series, the pairs of degree d are also dropped, unreduced, once
    the lead ideal has as many degree-d monomials as the target's ideal;
    more raises CertificationError, and so does a final lead ideal whose
    Hilbert series differs from the target's.  Every input is certified by
    rational division to reduce to zero against the output.
    """
    basis = _interreduce(_cleared(p) for p in gens)
    pairs = []
    for t in range(len(basis)):
        _push_pairs(pairs, basis, t)
    done = set()
    degree, part, filled = -1, set(), False
    while pairs:
        if len(pairs) > PAIR_CAP:
            raise CapacityError("buchberger pair queue", PAIR_CAP, len(pairs))
        key, i, j, l = heapq.heappop(pairs)
        done.add((i, j))
        if target is not None:
            while degree < key[0]:
                degree += 1
                part = _next_degree(part, basis, degree)
                filled = _filled(part, target, degree)
            if filled:
                continue  # every S-polynomial of this degree reduces to zero
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
                if target is not None:
                    part.add(r[0])
                    filled = _filled(part, target, degree)
    basis = _minimal(basis) if minimal else _interreduce(basis)
    if target is not None and not target.matches([lead for lead, _ in basis]):
        raise CertificationError(
            "lead ideal's Hilbert series differs from its target's")
    divisors = _divisors(p for _, p in basis)
    for p in gens:
        if _divide(p, divisors):
            raise CertificationError(
                "generator with leading monomial %s does not reduce to zero "
                "against its basis" % Monomial(max(p, key=_key)))
    return basis


def buchberger(ideal):
    """Reduced degrevlex Groebner basis of a PolynomialIdeal (`_groebner`)."""
    basis = _groebner(_generators(ideal))
    return GroebnerBasis(ideal.n, _polynomials(ideal.n, basis))


def normal_form(f, basis):
    """Remainder of f on division by the basis elements (rational, exact).

    f minus the result lies in the ideal generated by the basis; no monomial
    of the result is divisible by any basis leading monomial.
    """
    elements = list(basis.elements if isinstance(basis, GroebnerBasis) else basis)
    for b in elements:
        if b.n != f.n:
            raise AmbientMismatchError("polynomial and basis ambient differ")
    remainder = _divide(_terms(f), _divisors(_terms(b) for b in elements if b))
    return _to_polynomial(f.n, remainder)


def initial_ideal(ideal):
    """Monomial ideal of leading terms, from the reduced Groebner basis."""
    basis = _groebner(_generators(ideal))
    return MonomialIdeal(ideal.n, [lead for lead, _ in basis])


def equal_ideals(a, b):
    """Ideal equality by mutual normal-form membership."""
    if a.n != b.n:
        raise AmbientMismatchError("ideals in %d and %d variables" % (a.n, b.n))
    gb_a, gb_b = buchberger(a), buchberger(b)
    return (all(not normal_form(g, gb_a) for g in b.generators)
            and all(not normal_form(g, gb_b) for g in a.generators))


def _saturate_last(gens):
    """(I : x_n^infinity) of integer dicts via the reverse-lex device: in a
    reduced degrevlex basis of a homogeneous ideal, dividing each element by
    its full power of x_n generates the saturation.  The result is the
    reduced basis of that, as engine elements."""
    divided = []
    for _, p in _groebner(gens):
        k = min(e[-1] for e in p)
        divided.append({e[:-1] + (e[-1] - k,): c for e, c in p.items()}
                       if k else p)
    return _groebner(divided)


def saturate_by_last_variable(ideal):
    """(I : x_n^infinity), generated by its reduced Groebner basis."""
    return PolynomialIdeal(
        ideal.n, _polynomials(ideal.n, _saturate_last(_generators(ideal))))


def _derive_seed(seed, k):
    return (int(seed) * 1000003 + 10007 * k + 17) % (1 << 64)


def _integer_rows(matrix):
    """Rows of c * matrix as ints, c the lcm of the entry denominators.

    Substituting them scales a form of degree d by c^d, so the image of an
    ideal of forms is the same as under the matrix itself.
    """
    c = lcm(*(a.denominator for row in matrix.rows for a in row))
    return [[int(a * c) for a in row] for row in matrix.rows]


def saturation(ideal, seed):
    """Full saturation with respect to the irrelevant maximal ideal.

    Route: generic coordinate change, saturate by the last variable, change
    back.  Two derived seeds must give equal ideals; generators of the
    result are the reduced Groebner basis, which is unique for the ideal, so
    the two results are compared directly and the output is canonical.
    """
    if ideal.is_zero():
        return ideal
    gens = _generators(ideal)
    for t in range(GIN_RETRY_BUDGET):
        pair = []
        for k in (0, 1):
            g = RationalMatrix.random_unipotent(
                ideal.n, _derive_seed(seed, 2 * t + k))
            rows = _integer_rows(g)
            sat = _saturate_last([substitute(p, rows) for p in gens])
            back = _integer_rows(g.inverse())
            pair.append(_groebner([substitute(p, back) for _, p in sat]))
        if pair[0] == pair[1]:
            return PolynomialIdeal(ideal.n, _polynomials(ideal.n, pair[0]))
    raise CertificationError(
        "saturation results disagreed across %d seed pairs" % GIN_RETRY_BUDGET)


def ideal_content_hash(ideal):
    """Stable hash of the presented ideal (sorted canonical generators); a
    MonomialIdeal and its PolynomialIdeal hash alike."""
    payload = {"n": ideal.n,
               "generators": sorted(ideal.to_json()["generators"])}
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def gin(ideal, seed, cache=None):
    """Generic initial ideal for degrevlex, certified by two-seed agreement.

    The result of in(u . I) for a random unipotent integer matrix u is
    recomputed under a second derived seed; agreement certifies genericity,
    disagreement burns a retry.  Every engine run is Hilbert-driven except,
    for a non-monomial I, the first, whose lead ideal is the target of the
    rest (see the module docstring).  The certified result must be strongly
    stable (characteristic zero), else a violation error is raised: that
    outcome indicates a bug, never data.  `cache` (default `GinCache()`)
    is read first and stores the result.
    """
    if ideal.is_zero():
        raise UndefinedInputError("gin of the zero ideal is undefined here")
    cache = GinCache() if cache is None else cache
    hit = cache.get(ideal, seed)
    if hit is not None:
        return hit
    gens = _generators(ideal)
    # HF(R/u.I) = HF(R/I): a monomial I is its own Hilbert target, and any
    # other I takes the lead ideal of its first full-pair run.
    target = (_HilbertTarget(ideal.n, [next(iter(p)) for p in gens])
              if all(len(p) == 1 for p in gens) else None)
    for t in range(GIN_RETRY_BUDGET):
        candidates = []
        for k in (0, 1):
            rows = _integer_rows(RationalMatrix.random_unipotent(
                ideal.n, _derive_seed(seed, 2 * t + k)))
            basis = _groebner([substitute(p, rows) for p in gens], target,
                              minimal=True)
            leads = [lead for lead, _ in basis]
            if target is None:
                target = _HilbertTarget(ideal.n, leads)
            candidates.append(MonomialIdeal(ideal.n, leads))
        if candidates[0] == candidates[1]:
            result = candidates[0]
            ok, witness = is_strongly_stable(result)
            if not ok:
                raise StrongStabilityViolationError(
                    "gin candidate %s fails the exchange test" % result, witness)
            cache.put(ideal, seed, result)
            return result
    raise GenericityError(
        "gin candidates disagreed across %d seed pairs" % GIN_RETRY_BUDGET)


class GinCache:
    """The gin store, keyed by (ideal_content_hash(ideal), seed).

    Every instance shares one in-process map, bounded by GIN_MEMO_CAP (the
    oldest entry goes first).  With a directory there is also one JSON file
    per entry, named by the hash of (ideal hash, seed, version).  `get`
    reads that file; an absent, unreadable or mismatched file, or one whose
    ideal has a non-monomial generator or is not strongly stable, and so
    cannot be a gin in characteristic zero, is a miss that the map serves,
    writing the file back, if it can.
    `put` writes the map and the file.
    """

    _memory = {}

    def __init__(self, directory=None):
        self.directory = directory or None

    def _path(self, ideal, seed):
        key = hashlib.sha256(json.dumps(
            {"ideal": ideal_content_hash(ideal), "seed": int(seed),
             "version": __version__},
            sort_keys=True).encode()).hexdigest()
        return os.path.join(self.directory, key + ".json")

    def get(self, ideal, seed):
        """The stored gin, or None."""
        held = self._memory.get((ideal_content_hash(ideal), int(seed)))
        if self.directory is None:
            return held
        try:
            with open(self._path(ideal, seed)) as fh:
                data = json.load(fh)
            gin_data = data["gin"]
            if (data["version"] != __version__ or data["seed"] != int(seed)
                    or gin_data["n"] != ideal.n):
                raise ValueError("entry of another version, seed or n")
            gens = [parse_polynomial(g, ideal.n) for g in gin_data["generators"]]
            if not all(g.is_monomial() for g in gens):
                raise ValueError("entry with a non-monomial generator")
            result = MonomialIdeal(ideal.n, [g.leading_monomial() for g in gens])
        except (OSError, ValueError, KeyError, TypeError, AttributeError,
                SeqcmError):
            result = None
        if result is not None and is_strongly_stable(result)[0]:
            return result
        if held is not None:
            self.put(ideal, seed, held)
        return held

    def put(self, ideal, seed, result):
        key = (ideal_content_hash(ideal), int(seed))
        if key not in self._memory and len(self._memory) >= GIN_MEMO_CAP:
            del self._memory[next(iter(self._memory))]
        self._memory[key] = result
        if self.directory is None:
            return
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
