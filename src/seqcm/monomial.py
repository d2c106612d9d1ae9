"""Monomial ideals: combinatorics, Hilbert functions, dimension filtrations.

The filtration machinery follows the constructive recipe for strongly stable
ideals: with s the largest variable index occurring in the minimal generators,
saturating with respect to x_s strictly enlarges the ideal, drops s, and the
quotient of the two ideals is a finite-length module whose Hilbert function
(the layer "socle") determines one local cohomology module of R/I exactly.
Iterating until the unit ideal yields the chain I = I_0 < I_1 < ... < (1)
with strictly increasing layer dimensions.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from .errors import (
    AmbientMismatchError,
    CapacityError,
    InconsistencyError,
    NotStronglyStableError,
    UndefinedInputError,
)
from .rings import Monomial, degrevlex_key
from .tables import CohomologyTable, HilbertFunction

# Inclusion-exclusion over generator subsets; above this, refuse loudly.
HILBERT_GENERATOR_CAP = 20


def minimalize(n, monomials):
    """Minimal generating set: drop every monomial divisible by another."""
    uniq = sorted(set(monomials), key=degrevlex_key)
    kept = []
    for m in uniq:
        if m.n != n:
            raise AmbientMismatchError(
                "monomial in %d variables, ambient has %d" % (m.n, n))
        if not any(k.divides(m) for k in kept):
            kept.append(m)
    return tuple(kept)


class MonomialIdeal:
    """A monomial ideal stored by its (unique) minimal generators."""

    __slots__ = ("n", "gens")

    def __init__(self, n, generators=()):
        object.__setattr__(self, "n", int(n))
        gens = [g if isinstance(g, Monomial) else Monomial(tuple(g))
                for g in generators]
        object.__setattr__(self, "gens", minimalize(n, gens))

    def __setattr__(self, name, value):
        raise AttributeError("MonomialIdeal is immutable")

    @classmethod
    def zero(cls, n):
        return cls(n, ())

    @classmethod
    def unit(cls, n):
        return cls(n, (Monomial.one(n),))

    def is_zero(self):
        return not self.gens

    def is_unit(self):
        return bool(self.gens) and self.gens[0].degree == 0

    def is_squarefree(self):
        return all(g.is_squarefree() for g in self.gens)

    def max_gen_degree(self):
        return max((g.degree for g in self.gens), default=0)

    def contains(self, mono):
        """Membership for a monomial: divisibility by some generator."""
        if mono.n != self.n:
            raise AmbientMismatchError(
                "monomial in %d variables, ideal in %d" % (mono.n, self.n))
        return any(g.divides(mono) for g in self.gens)

    def contains_ideal(self, other):
        if other.n != self.n:
            raise AmbientMismatchError(
                "ideals in %d and %d variables" % (self.n, other.n))
        return all(self.contains(g) for g in other.gens)

    def __eq__(self, other):
        return (isinstance(other, MonomialIdeal)
                and self.n == other.n and self.gens == other.gens)

    def __hash__(self):
        return hash((self.n, self.gens))

    def __str__(self):
        if self.is_zero():
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.gens) + ")"

    def __repr__(self):
        return "MonomialIdeal(%d, %s)" % (self.n, self)

    def to_json(self):
        return {"n": self.n, "generators": [str(g) for g in self.gens]}


def monomials_of_degree(n, d):
    """All exponent vectors of total degree d, deterministic order."""
    if d < 0:
        return
    if n == 1:
        yield Monomial((d,))
        return

    def rec(prefix, remaining, slots):
        if slots == 1:
            yield prefix + (remaining,)
            return
        for e in range(remaining + 1):
            yield from rec(prefix + (e,), remaining - e, slots - 1)

    for exps in rec((), d, n):
        yield Monomial(exps)


def m_of(mono):
    """Largest variable index dividing the monomial (1-based)."""
    if mono.degree == 0:
        raise UndefinedInputError("m(u) is undefined for the unit monomial")
    return mono.max_var


def is_strongly_stable(ideal):
    """Exchange test: x_i | u and j < i force x_j * u / x_i into the ideal.

    Returns (True, None) or (False, (u, i, j)) with the failing exchange.
    Checking minimal generators suffices: the property propagates to all
    monomials of the ideal.
    """
    for u in ideal.gens:
        for i in u.support():
            xi = Monomial.variable(i, ideal.n)
            for j in range(1, i):
                v = (u / xi) * Monomial.variable(j, ideal.n)
                if not ideal.contains(v):
                    return (False, (u, i, j))
    return (True, None)


def colon_saturate_variable(ideal, s):
    """(I : x_s^infinity) for a monomial ideal: strip every generator of its
    full x_s power, then minimalize."""
    if not 1 <= s <= ideal.n:
        raise UndefinedInputError("variable index %d outside 1..%d" % (s, ideal.n))
    stripped = []
    for g in ideal.gens:
        e = list(g.exponents)
        e[s - 1] = 0
        stripped.append(Monomial(e))
    return MonomialIdeal(ideal.n, stripped)


def _lcm_fold(n, exponents):
    """Inclusion-exclusion numerator of the Hilbert series of R/(monomials)
    as a map {lcm exponent tuple: signed multiplicity}, folded one generator
    at a time so that coinciding lcms collapse early."""
    acc = {(0,) * n: 1}
    for g in exponents:
        nxt = dict(acc)
        for m, c in acc.items():
            lm = tuple(map(max, m, g))
            v = nxt.get(lm, 0) - c
            if v:
                nxt[lm] = v
            else:
                del nxt[lm]
        acc = nxt
    return acc


def _binomial_in_d(shift, k):
    """Coefficients of the polynomial d -> C(d - shift + k, k)."""
    coeffs = [Fraction(1)]
    for t in range(1, k + 1):
        # multiply by (d - shift + t)
        shifted = [Fraction(0)] + coeffs
        scaled = [Fraction(t - shift) * a for a in coeffs] + [Fraction(0)]
        coeffs = [a + b for a, b in zip(shifted, scaled)]
    f = Fraction(1, factorial(k))
    return tuple(f * a for a in coeffs)


def hilbert_function(ideal, window=(0, 10), cap=HILBERT_GENERATOR_CAP):
    """Hilbert function of R/I on the window, with a right polynomial tail
    when the window reaches the polynomial range.

    dim_K (R/I)_d = sum over the inclusion-exclusion numerator terms
    (signed, at degree a) of C(n - 1 + d - a, n - 1).
    """
    n = ideal.n
    lo, hi = int(window[0]), int(window[1])
    if ideal.is_unit():
        return HilbertFunction((lo, hi), {}, ((), ()))
    if len(ideal.gens) > cap:
        raise CapacityError("hilbert_function generators", cap, len(ideal.gens))
    terms = [(sum(m), c) for m, c in
             _lcm_fold(n, [g.exponents for g in ideal.gens]).items()]
    values = {}
    for d in range(lo, hi + 1):
        if d < 0:
            continue
        total = 0
        for a, c in terms:
            top = n - 1 + d - a
            if top >= n - 1:
                total += c * comb(top, n - 1)
        values[d] = total
    max_a = max(a for a, _ in terms)
    tail_from = max_a - n + 1
    right = None
    if hi - 1 >= tail_from:
        poly = [Fraction(0)] * n
        for a, c in terms:
            for k, coef in enumerate(_binomial_in_d(a, n - 1)):
                poly[k] += c * coef
        right = tuple(poly)
    left = () if lo + 1 < 0 else None
    return HilbertFunction((lo, hi), values, (left, right))


def krull_dimension(ideal):
    """dim R/I = n minus the least number of variables meeting every
    generator's support (exhaustive search).  Unit ideal: -1 by convention
    (the zero ring)."""
    if ideal.is_unit():
        return -1
    if ideal.is_zero():
        return ideal.n
    supports = [set(g.support()) for g in ideal.gens]
    for k in range(ideal.n + 1):
        for subset in combinations(range(1, ideal.n + 1), k):
            ss = set(subset)
            if all(ss & sup for sup in supports):
                return ideal.n - k
    raise InconsistencyError("no variable cover found")  # unreachable


def component_ideal(ideal, d):
    """The ideal generated by all degree-d monomials of I."""
    if d < 0:
        raise UndefinedInputError("component degree must be nonnegative")
    gens = []
    for g in ideal.gens:
        if g.degree <= d:
            for m in monomials_of_degree(ideal.n, d - g.degree):
                gens.append(g * m)
    return MonomialIdeal(ideal.n, gens)


class FiltrationLayer:
    """One step of the dimension filtration.

    ``ideal`` is I_{k-1}, ``next_ideal`` its x_s-saturation I_k, ``s`` the
    largest variable index in G(I_{k-1}) (0 when I_{k-1} = 0), ``dim`` = n - s
    the layer dimension, and ``socle`` the Hilbert function of the finite
    length module J^sat/J over K[x1..xs].
    """

    __slots__ = ("ideal", "next_ideal", "s", "dim", "socle")

    def __init__(self, ideal, next_ideal, s, dim, socle):
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "next_ideal", next_ideal)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "socle", socle)

    def __setattr__(self, name, value):
        raise AttributeError("FiltrationLayer is immutable")

    def hilbert_as_module(self, window):
        """Hilbert function of the layer as an R-module: the socle Hilbert
        convolved with that of K[x_{s+1}..x_n]."""
        n = self.ideal.n
        m = n - self.s
        lo, hi = window
        values = {}
        for d in range(lo, hi + 1):
            total = 0
            for a, h in self.socle.values.items():
                if m == 0:
                    total += h if d == a else 0
                elif d >= a:
                    total += h * comb(m - 1 + d - a, m - 1)
            values[d] = total
        return HilbertFunction(window, values)

    def to_json(self):
        return {
            "ideal": [str(g) for g in self.ideal.gens],
            "next_ideal": [str(g) for g in self.next_ideal.gens],
            "s": self.s,
            "dim": self.dim,
            "socle": self.socle.to_json(),
        }


class DimensionFiltration:
    """Chain I = I_0 < I_1 < ... < (1) with one layer record per step."""

    __slots__ = ("n", "layers")

    def __init__(self, n, layers):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "layers", tuple(layers))

    def __setattr__(self, name, value):
        raise AttributeError("DimensionFiltration is immutable")

    def chain(self):
        ideals = [self.layers[0].ideal] if self.layers else []
        for layer in self.layers:
            ideals.append(layer.next_ideal)
        return ideals

    def dims(self):
        return [layer.dim for layer in self.layers]

    def to_json(self):
        return {
            "n": self.n,
            "layers": [layer.to_json() for layer in self.layers],
            "complete": True,
        }


def dimension_filtration(ideal):
    """Dimension filtration of a proper strongly stable ideal (zero allowed).

    Each step saturates by the last occurring variable; the layer socle is
    Hilb(R'/J) - Hilb(R'/J^sat) over R' = K[x1..xs], a nonnegative finitely
    supported function.  Layer dimensions strictly increase.
    """
    if ideal.is_unit():
        raise UndefinedInputError("the unit ideal has no dimension filtration")
    ok, witness = is_strongly_stable(ideal)
    if not ok:
        raise NotStronglyStableError(
            "ideal %s is not strongly stable" % ideal, witness)
    n = ideal.n
    layers = []
    current = ideal
    prev_s = n + 1
    while not current.is_unit():
        if current.is_zero():
            socle = HilbertFunction((0, 0), {0: 1})
            layers.append(FiltrationLayer(current, MonomialIdeal.unit(n), 0, n, socle))
            break
        s = max(m_of(g) for g in current.gens)
        if s >= prev_s:
            raise InconsistencyError("saturation failed to drop the last variable")
        prev_s = s
        nxt = colon_saturate_variable(current, s)
        # Work inside R' = K[x1..xs]; all generators live there.
        j_gens = [Monomial(g.exponents[:s]) for g in current.gens]
        j_prime = MonomialIdeal(s, j_gens)
        jsat_prime = colon_saturate_variable(j_prime, s)
        rho = max(g.exponent(s) for g in current.gens)
        top = j_prime.max_gen_degree() + rho
        hj = hilbert_function(j_prime, (0, top))
        hjs = hilbert_function(jsat_prime, (0, top))
        socle_vals = {}
        for d in range(0, top + 1):
            v = hj.value(d) - hjs.value(d)
            if v < 0:
                raise InconsistencyError("saturation shrank the quotient")
            if v:
                socle_vals[d] = v
        if not socle_vals:
            raise InconsistencyError("saturation produced an empty layer")
        if socle_vals.get(top):
            raise InconsistencyError("layer socle did not stabilize by degree %d" % top)
        socle = HilbertFunction((0, top), socle_vals)
        ok, witness = is_strongly_stable(nxt)
        if not ok:
            raise InconsistencyError(
                "saturation of a strongly stable ideal lost strong stability: %r"
                % (witness,))
        layers.append(FiltrationLayer(current, nxt, s, n - s, socle))
        current = nxt
    dims = [layer.dim for layer in layers]
    if any(a >= b for a, b in zip(dims, dims[1:])):
        raise InconsistencyError("layer dimensions are not strictly increasing")
    return DimensionFiltration(n, layers)


def default_cohomology_window(ideal):
    d = ideal.max_gen_degree()
    return (-(ideal.n + d + 2), d)


def local_cohomology_strongly_stable(ideal, window=None):
    """Hilbert functions of all H^i_m(R/I) for strongly stable proper I.

    Only the layer dimensions i = n - s_k occur; for such a layer with socle
    h the contribution at degree e is sum_a h(a) * C(-(e-a)-1, m-1) over the
    guard e - a <= -m, m = n - s (and h itself verbatim when m = 0).  The
    binomial never sees a negative upper argument: the guard makes the top
    argument at least m - 1 >= 0.
    """
    if ideal.is_unit():
        raise UndefinedInputError("R/I is zero; no cohomology table")
    n = ideal.n
    if window is None:
        window = default_cohomology_window(ideal)
    lo, hi = int(window[0]), int(window[1])
    filt = dimension_filtration(ideal)
    funcs = {}
    for layer in filt.layers:
        m = layer.dim
        values = {}
        for e in range(lo, hi + 1):
            total = 0
            for a, h in layer.socle.values.items():
                if m == 0:
                    total += h if e == a else 0
                elif e - a <= -m:
                    total += h * comb(a - e - 1, m - 1)
            if total:
                values[e] = total
        socle_degs = sorted(layer.socle.values)
        left = None
        if m == 0:
            if lo + 1 < min(socle_degs):
                left = ()
        else:
            valid_from = min(socle_degs) - m
            if lo + 1 <= valid_from:
                poly = [Fraction(0)] * max(m, 1)
                for a, h in layer.socle.values.items():
                    # C(a - e - 1, m - 1) as a polynomial in e.
                    for k, coef in enumerate(_binomial_in_minus_d(a, m - 1)):
                        poly[k] += h * coef
                left = tuple(poly)
        right = () if hi - 1 > max(socle_degs) - m else None
        funcs[m] = HilbertFunction((lo, hi), values, (left, right))
    return CohomologyTable((lo, hi), funcs)


def _binomial_in_minus_d(shift, k):
    """Coefficients of the polynomial e -> C(shift - e - 1, k)."""
    coeffs = [Fraction(1)]
    for t in range(1, k + 1):
        # multiply by (shift - e - t) / t handled at the end
        shifted = [Fraction(0)] + coeffs          # e * coeffs
        scaled = [Fraction(shift - t) * a for a in coeffs] + [Fraction(0)]
        coeffs = [b - a for a, b in zip(shifted, scaled)]
    f = Fraction(1, factorial(k))
    return tuple(f * a for a in coeffs)
