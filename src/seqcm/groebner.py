"""Groebner bases, saturation, and generic initial ideals.

The engine, `_groebner`, is a Buchberger loop with the normal selection
strategy and the two classical pair-dropping criteria, followed by
interreduction, so the output is the reduced (hence unique) Groebner basis
for degrevlex.  It runs on packed monomials (Monagan and Pearce, CASC
2007): one int per monomial, exponent i in the 16-bit field i, whose top
bit is a guard kept clear, and minus the degree above the fields.  So a
product is a sum, a divides b when b - a has no guard bit set, and a
smaller int is a larger monomial.  DEGREE_CAP (CapacityError) bounds the
input terms and the S-pair lcms, hence every term.  An element is (lead,
terms), an integer-primitive {packed monomial: int} dict and its lead, set
by `_primitive`.  The packed dict is the one form from the input to the
leads: `_generators` packs each generator once, denominators cleared;
`_substitute` applies the integer rows of a coordinate change to packed
dicts, multiplying by x_j as adding a packed step; `_groebner` takes such
dicts and returns elements; saturation lowers the x_n field; and `_divide`
returns packed remainders.  Exponent tuples come back only for leads
(`_leads`, read by gin, `initial_ideal`, the Hilbert target and the Koszul
oracle) and for the Polynomials of the public entry points.

The engine is Hilbert-driven when given a `_HilbertTarget`, the Hilbert
series of the ideal it works on (Traverso, J. Symbolic Comput. 22, 1996).
Pairs pop in degree order and the input is homogeneous, so once the lead
ideal has as many degree-d monomials as the target's ideal, every
remaining degree-d S-polynomial reduces to zero and is dropped unreduced.
The degree-d monomials of the lead ideal are kept as a running set, the
degree d-1 set times the variables plus the leads of degree d.  A count
above the target's raises CertificationError at once, and so does a run
whose final lead ideal has another Hilbert series, compared as the
K-polynomial of its leads (`k_polynomial`).  These checks refuse a target
that the run's lead ideal contradicts; one that a skipping run happens to
match would pass, so the engine is given only targets that are exact.
gin's are: HF(R/u.I) = HF(R/I) for every change u, so a monomial I is its
own target, and any other I takes the lead ideal of its first candidate,
run with all pairs.  gin reads only leads, so its runs stop at a minimal
basis (same leads, tails unreduced) instead of interreducing; `buchberger`,
saturation and the Koszul oracle keep the reduced basis and run every pair.

Reduction, `_remainder`, is ordered and fraction-free: the working
polynomial's monomials sit in a min-heap of ints, so each step pops the
next term instead of searching for it, and scales by lc/gcd(c, lc) while a
running integer scale is kept.  Every engine run is certified: each input
must reduce to zero against the output, its leads found anew, independent
of the Buchberger bookkeeping.  `_divide`, the rational division behind
`normal_form`, divides by the scale once at the end, so a zero remainder
never builds a Fraction; `normal_form` finds its divisors' leads anew
(`_divisors`).  The Koszul oracle reads the integer pairs of `_remainder`
itself.  Fraction-coefficient Polynomials appear only at the public entry
points.

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
import os
import struct
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
from .monomial import (
    MonomialIdeal,
    _quotient_dim,
    is_strongly_stable,
    k_polynomial,
)
from .rings import (
    MAX_VARIABLES,
    Monomial,
    Polynomial,
    _check_ambient,
    parse_polynomial,
    random_unipotent,
    unipotent_inverse,
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
# Integer-primitive engine on packed monomials: field i is bits _W*i up.

_W = 16
_FIELD = (1 << _W) - 1
DEGREE_CAP = (1 << _W - 1) - 1
_ONES = tuple(sum(1 << _W * i for i in range(n))
              for n in range(MAX_VARIABLES + 1))
_GUARD = tuple(ones << _W - 1 for ones in _ONES)
# _STEPS[n][j], added to a packed monomial in n variables, multiplies it by
# x_j (0-based): field j up by one, and the degree with it.
_STEPS = tuple(tuple((1 << _W * j) - (1 << _W * n) for j in range(n))
               for n in range(MAX_VARIABLES + 1))


def _pack(exps):
    """The packed monomial of an exponent tuple."""
    d = sum(exps)
    if d > DEGREE_CAP:
        raise CapacityError("engine monomial degree", DEGREE_CAP, d)
    m = -d
    for e in reversed(exps):
        m = m << _W | e
    return m


def _unpack(n, m):
    """The exponent tuple of a packed monomial: n fields of 2 bytes each."""
    low = m & (1 << _W * n) - 1
    return struct.unpack("<%dH" % n, low.to_bytes(2 * n, "little"))


def _lcm(n, a, b):
    """The lcm of two packed monomials of degree at most DEGREE_CAP."""
    low = (1 << _W * n) - 1
    a, b = a & low, b & low
    # Field i of (a | guard) - b is 2^(W-1) + a_i - b_i, so no field borrows
    # and its guard bit is set exactly when a_i >= b_i.
    pick = (((a | _GUARD[n]) - b & _GUARD[n]) >> _W - 1) * _FIELD
    top = a & pick | b & ~pick
    # Field n-1 of top * ones is the degree, at most twice the cap: no carry.
    d = top * _ONES[n] >> _W * (n - 1) & _FIELD
    if d > DEGREE_CAP:
        raise CapacityError("engine monomial degree", DEGREE_CAP, d)
    return top - (d << _W * n)


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
    """The packed {monomial: coefficient} dict of a Polynomial."""
    return {_pack(m.exponents): c for m, c in poly.terms()}


def _scaled(p):
    """(mult, mult * p) for a dict with int or Fraction coefficients, mult
    the lcm of the denominators, so the second has int coefficients."""
    mult = lcm(*(c.denominator for c in p.values()))
    return mult, {e: c.numerator * (mult // c.denominator) for e, c in p.items()}


def _generators(ideal):
    """The generators of a PolynomialIdeal or MonomialIdeal as packed
    integer dicts, denominators cleared."""
    if isinstance(ideal, MonomialIdeal):
        return [{_pack(g.exponents): 1} for g in ideal.gens]
    return [_scaled(_terms(g))[1] for g in ideal.generators]


def _substitute(n, p, rows):
    """Image of the packed dict p under x_i -> sum_j rows[i][j] x_j, one
    packed step per factor x_j; zero terms are dropped.

    >>> x1, x2 = _pack((1, 0)), _pack((0, 1))
    >>> image = _substitute(2, {x1 + x2: 1}, [[1, 1], [0, 1]])
    >>> image == {x1 + x2: 1, x2 + x2: 1}   # x1*x2 -> x1*x2 + x2^2
    True
    """
    forms = [[(step, a) for step, a in zip(_STEPS[n], row) if a]
             for row in rows]
    total = {}
    for m, c in p.items():
        piece = {0: c}  # the unit monomial packs to 0
        for i, form in enumerate(forms):
            for _ in range(m >> _W * i & _FIELD):
                grown = {}
                for t, v in piece.items():
                    for step, a in form:
                        grown[t + step] = grown.get(t + step, 0) + v * a
                piece = grown
        for t, v in piece.items():
            total[t] = total.get(t, 0) + v
    return {t: v for t, v in total.items() if v}


def _leads(n, basis):
    """The exponent tuples of the leads of engine elements."""
    return [_unpack(n, lead) for lead, _ in basis]


def _to_polynomial(n, p, lc=1):
    return Polynomial(n, [(Monomial(_unpack(n, m)), Fraction(c, lc))
                          for m, c in p.items()])


def _polynomials(n, basis):
    """Monic Polynomials of engine elements."""
    return [_to_polynomial(n, p, p[lead]) for lead, p in basis]


def _remainder(n, p, divisors, scale=1):
    """(scale', r): the remainder of the packed p / scale on division by the
    packed elements in divisors is r / scale'.  Consumes p.

    Fraction-free: with g = gcd(c, lc), a step is
    p <- (lc/g) p - (c/g) (m/lm) b, and the running integer scale takes the
    factor lc/g.  The monomials of p sit in a min-heap of ints, so they pop
    in decreasing degrevlex order and r's first key is the remainder's lead.
    A monomial that cancels keeps a zero entry in p, so it is never pushed
    twice, and is skipped when it pops.  Divisibility is the guard test.
    """
    guard = _GUARD[n]
    heap = list(p)
    heapq.heapify(heap)
    r = {}
    while heap:
        m = heapq.heappop(heap)
        c = p.pop(m)
        if not c:
            continue
        for lb, bp in divisors:
            if not (m - lb) & guard:
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
        quot = m - lb
        for bm, bc in bp.items():
            if bm != lb:
                t = bm + quot
                v = p.get(t)
                if v is None:
                    p[t] = -c * bc
                    heapq.heappush(heap, t)
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


def _reduce_int(n, p, basis):
    """Full remainder of the packed int dict p modulo engine elements, as an
    element (its lead is the remainder's first key), or None when zero.
    The result times a nonzero rational lies in (p) + (basis)."""
    r = _remainder(n, dict(p), basis)[1]
    return _primitive(r, next(iter(r))) if r else None


def _s_poly(f, g, l):
    """The S-polynomial of two elements whose leads have the lcm l."""
    (lf, pf), (lg, pg) = f, g
    cf, cg = pf[lf], pg[lg]
    qf, qg = l - lf, l - lg
    out = {}
    for m, c in pf.items():
        t = m + qf
        out[t] = out.get(t, 0) + cg * c
    for m, c in pg.items():
        t = m + qg
        v = out.get(t, 0) - cf * c
        if v:
            out[t] = v
        elif t in out:
            del out[t]
    return out


def _interreduce(n, elements):
    """Reduce each element by the others until a pass moves no lead and
    drops no element; the result is sorted by increasing lead.  Each element
    of such a pass is reduced against the final leads, so another pass
    would change nothing."""
    elements = list(elements)
    while True:
        elements.sort(key=lambda e: -e[0])
        moved = False
        for idx, e in enumerate(elements):
            others = [o for k, o in enumerate(elements) if k != idx and o]
            r = _reduce_int(n, e[1], others)
            moved = moved or r is None or r[0] != e[0]
            elements[idx] = r
        elements = [e for e in elements if e]
        if not moved:
            return elements


def _push_pairs(n, pairs, basis, t):
    """Queue the pairs (k, t), k < t, keyed by minus their packed lcm."""
    lt = basis[t][0]
    for k in range(t):
        heapq.heappush(pairs, (-_lcm(n, basis[k][0], lt), k, t))


def _divisors(basis):
    """Packed dicts with int or Fraction coefficients as elements, for
    `_divide`: denominators cleared and leads found anew; scaling a divisor
    leaves every remainder unchanged."""
    return [_primitive(q, min(q)) for q in (_scaled(p)[1] for p in basis)]


def _divide(n, p, divisors):
    """Remainder of the packed dict p on rational division by engine
    elements, as a packed dict with Fraction coefficients: denominators
    cleared first, divided by the running scale once at the end, so a zero
    remainder builds no Fraction."""
    mult, q = _scaled(p)
    scale, r = _remainder(n, q, divisors, mult)
    return {m: Fraction(v, scale) for m, v in r.items()}


class _HilbertTarget:
    """The Hilbert series of R/J for a monomial ideal J given by its
    generators: its K-polynomial and the dimensions dim_K J_d read off it."""

    __slots__ = ("n", "numerator")

    def __init__(self, n, leads):
        self.n = n
        self.numerator = k_polynomial(n, leads)

    def matches(self, leads):
        """Whether R/(leads) has this Hilbert series."""
        return k_polynomial(self.n, leads) == self.numerator

    def ideal_dim(self, d):
        """dim_K J_d = C(n-1+d, n-1) - dim_K (R/J)_d."""
        return (comb(self.n - 1 + d, self.n - 1)
                - _quotient_dim(self.n, self.numerator, d))


def _next_degree(n, part, basis, d):
    """Degree-d monomials of the lead ideal of basis, from its degree d-1
    part: that part times the variables, and the leads of degree d."""
    out = {lead for lead, _ in basis if lead >> _W * n == -d}
    out.update(m + s for m in part for s in _STEPS[n])
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


def _minimal(n, basis):
    """The elements whose leads no other lead divides, sorted by lead: a
    minimal Groebner basis with the same lead ideal."""
    guard = _GUARD[n]
    leads = [lead for lead, _ in basis]
    kept = [e for e in basis
            if not any(o != e[0] and not (e[0] - o) & guard for o in leads)]
    return sorted(kept, key=lambda e: -e[0])


def _groebner(n, gens, target=None, minimal=False):
    """Degrevlex Groebner basis of a list of nonzero packed integer dicts
    in n variables, as elements sorted by increasing lead: the reduced
    basis, or with `minimal` a minimal one (same leads, tails not reduced).

    Normal selection (smallest pair lcm in the order first, ties by pair
    index); a pair is dropped when its leading monomials are coprime or when
    the chain criterion applies.  With a `_HilbertTarget` of the ideal's
    Hilbert series, the pairs of degree d are also dropped, unreduced, once
    the lead ideal has as many degree-d monomials as the target's ideal;
    more raises CertificationError, and so does a final lead ideal whose
    Hilbert series differs from the target's.  Every input is certified by
    division to reduce to zero against the output.
    """
    guard, shift = _GUARD[n], _W * n
    basis = _interreduce(n, [_primitive(dict(p), min(p)) for p in gens])
    pairs = []
    for t in range(len(basis)):
        _push_pairs(n, pairs, basis, t)
    done = set()
    degree, part, filled = -1, set(), False
    while pairs:
        if len(pairs) > PAIR_CAP:
            raise CapacityError("buchberger pair queue", PAIR_CAP, len(pairs))
        key, i, j = heapq.heappop(pairs)
        l = -key
        done.add((i, j))
        if target is not None:
            while degree < -(l >> shift):
                degree += 1
                part = _next_degree(n, part, basis, degree)
                filled = _filled(part, target, degree)
            if filled:
                continue  # every S-polynomial of this degree reduces to zero
        if l == basis[i][0] + basis[j][0]:
            continue  # criterion 1: coprime leads
        for k, (lk, _) in enumerate(basis):
            if (k not in (i, j) and not (l - lk) & guard
                    and (min(i, k), max(i, k)) in done
                    and (min(j, k), max(j, k)) in done):
                break  # criterion 2: chain
        else:
            r = _reduce_int(n, _s_poly(basis[i], basis[j], l), basis)
            if r:
                basis.append(r)
                _push_pairs(n, pairs, basis, len(basis) - 1)
                if target is not None:
                    part.add(r[0])
                    filled = _filled(part, target, degree)
    basis = _minimal(n, basis) if minimal else _interreduce(n, basis)
    if target is not None and not target.matches(_leads(n, basis)):
        raise CertificationError(
            "lead ideal's Hilbert series differs from its target's")
    divisors = [(min(p), p) for _, p in basis]  # leads found anew
    for p in gens:
        if _remainder(n, dict(p), divisors)[1]:
            raise CertificationError(
                "generator with leading monomial %s does not reduce to zero "
                "against its basis" % Monomial(_unpack(n, min(p))))
    return basis


def buchberger(ideal):
    """Reduced degrevlex Groebner basis of a PolynomialIdeal (`_groebner`)."""
    basis = _groebner(ideal.n, _generators(ideal))
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
    remainder = _divide(
        f.n, _terms(f), _divisors(_terms(b) for b in elements if b))
    return _to_polynomial(f.n, remainder)


def initial_ideal(ideal):
    """Monomial ideal of leading terms, from the reduced Groebner basis."""
    basis = _groebner(ideal.n, _generators(ideal))
    return MonomialIdeal(ideal.n, _leads(ideal.n, basis))


def equal_ideals(a, b):
    """Ideal equality by mutual normal-form membership."""
    if a.n != b.n:
        raise AmbientMismatchError("ideals in %d and %d variables" % (a.n, b.n))
    gb_a, gb_b = buchberger(a), buchberger(b)
    return (all(not normal_form(g, gb_a) for g in b.generators)
            and all(not normal_form(g, gb_b) for g in a.generators))


def _saturate_last(n, gens):
    """(I : x_n^infinity) of packed integer dicts via the reverse-lex
    device: in a reduced degrevlex basis of a homogeneous ideal, dividing
    each element by its full power of x_n, the least x_n field (field n-1)
    of its terms, generates the saturation.  The result is the reduced
    basis of that, as engine elements."""
    shift, step = _W * (n - 1), _STEPS[n][n - 1]
    divided = []
    for _, p in _groebner(n, gens):
        k = min(m >> shift & _FIELD for m in p)
        divided.append({m - k * step: c for m, c in p.items()} if k else p)
    return _groebner(n, divided)


def saturate_by_last_variable(ideal):
    """(I : x_n^infinity), generated by its reduced Groebner basis."""
    basis = _saturate_last(ideal.n, _generators(ideal))
    return PolynomialIdeal(ideal.n, _polynomials(ideal.n, basis))


def _derive_seed(seed, k):
    return (int(seed) * 1000003 + 10007 * k + 17) % (1 << 64)


def saturation(ideal, seed):
    """Full saturation with respect to the irrelevant maximal ideal.

    Route: generic coordinate change, saturate by the last variable, change
    back.  Two derived seeds must give equal ideals; generators of the
    result are the reduced Groebner basis, which is unique for the ideal, so
    the two results are compared directly and the output is canonical.
    """
    if ideal.is_zero():
        return ideal
    n, gens = ideal.n, _generators(ideal)
    for t in range(GIN_RETRY_BUDGET):
        pair = []
        for k in (0, 1):
            rows = random_unipotent(n, _derive_seed(seed, 2 * t + k))
            sat = _saturate_last(n, [_substitute(n, p, rows) for p in gens])
            back = unipotent_inverse(rows)
            pair.append(_groebner(n, [_substitute(n, p, back) for _, p in sat]))
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
    n, gens = ideal.n, _generators(ideal)
    # HF(R/u.I) = HF(R/I): a monomial I is its own Hilbert target, and any
    # other I takes the lead ideal of its first full-pair run.
    target = (_HilbertTarget(n, _leads(n, [(min(p), p) for p in gens]))
              if all(len(p) == 1 for p in gens) else None)
    for t in range(GIN_RETRY_BUDGET):
        candidates = []
        for k in (0, 1):
            rows = random_unipotent(n, _derive_seed(seed, 2 * t + k))
            basis = _groebner(n, [_substitute(n, p, rows) for p in gens],
                              target, minimal=True)
            leads = _leads(n, basis)
            if target is None:
                target = _HilbertTarget(n, leads)
            candidates.append(MonomialIdeal(n, leads))
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
