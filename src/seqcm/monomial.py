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
from itertools import accumulate, combinations
from math import comb, factorial
from operator import le

from .errors import (
    AmbientMismatchError,
    InconsistencyError,
    NotStronglyStableError,
    UndefinedInputError,
)
from .rings import Monomial, _Value, degrevlex_key
from .tables import CohomologyTable, HilbertFunction


def _minimal_exponents(exponents):
    """The exponent tuples that no other one divides."""
    kept = []
    for g in sorted(set(exponents), key=sum):
        if not any(all(map(le, k, g)) for k in kept):
            kept.append(g)
    return kept


def minimalize(n, monomials):
    """Minimal generating set: drop every monomial divisible by another."""
    monomials = set(monomials)
    for m in monomials:
        if m.n != n:
            raise AmbientMismatchError(
                "monomial in %d variables, ambient has %d" % (m.n, n))
    kept = set(_minimal_exponents(m.exponents for m in monomials))
    return tuple(sorted((m for m in monomials if m.exponents in kept),
                        key=degrevlex_key))


class MonomialIdeal(_Value):
    """A monomial ideal stored by its (unique) minimal generators."""

    __slots__ = ("n", "gens")

    def __init__(self, n, generators=()):
        object.__setattr__(self, "n", int(n))
        gens = [g if isinstance(g, Monomial) else Monomial(tuple(g))
                for g in generators]
        object.__setattr__(self, "gens", minimalize(n, gens))

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


def _exchange_witness(ideal, squarefree=False):
    """(generator u, i, j) when x_j * u / x_i leaves the ideal for some x_i
    dividing u and j < i, else None; with squarefree, only the x_j that do
    not divide u are tried.  The exchanged monomial is an exponent list,
    in the ideal when some generator's exponent tuple is <= it in every
    entry."""
    gens = [u.exponents for u in ideal.gens]
    for u, g in zip(ideal.gens, gens):
        v = list(g)
        for i in range(len(g)):
            if not g[i]:
                continue
            v[i] -= 1
            for j in range(i):
                if squarefree and g[j]:
                    continue
                v[j] += 1
                inside = any(all(map(le, k, v)) for k in gens)
                v[j] -= 1
                if not inside:
                    return u, i + 1, j + 1
            v[i] += 1
    return None


def is_strongly_stable(ideal):
    """Exchange test: x_i | u and j < i force x_j * u / x_i into the ideal.

    Returns (True, None) or (False, (u, i, j)) with the failing exchange.
    Checking minimal generators suffices: the property propagates to all
    monomials of the ideal.
    """
    witness = _exchange_witness(ideal)
    return witness is None, witness


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


def k_polynomial(n, exponents):
    """Numerator of the Hilbert series of R/I over (1 - t)^n, I generated by
    the monomials with these exponent tuples, as {degree: coefficient} with
    no zero coefficient: {} for the unit ideal, {0: 1} for the zero ideal.

    Pivot recursion (Bigatti, J. Pure Appl. Algebra 119, 1997):
    N(I) = N(I + (p)) + t^deg(p) N(I : p) for p = x_i^e, with x_i the
    variable in most minimal generators and e its least positive exponent
    there.  Pairwise coprime generators g give N = prod (1 - t^deg(g)).
    Each stack entry (gens, shift) adds t^shift N(gens) to the result.
    """
    out = {}
    stack = [(_minimal_exponents(exponents), 0)]
    while stack:
        gens, shift = stack.pop()
        counts = [sum(1 for g in gens if g[i]) for i in range(n)]
        if max(counts, default=0) > 1:
            i = counts.index(max(counts))
            e = min(g[i] for g in gens if g[i])
            stack.append(([g for g in gens if not g[i]]
                          + [(0,) * i + (e,) + (0,) * (n - i - 1)], shift))
            stack.append((_minimal_exponents(
                g[:i] + (max(g[i] - e, 0),) + g[i + 1:] for g in gens),
                shift + e))
            continue
        poly = {shift: 1}
        for g in gens:
            d = sum(g)
            # Only key a writes key a + d, so each read sees the old value.
            for a, c in list(poly.items()):
                poly[a + d] = poly.get(a + d, 0) - c
        for a, c in poly.items():
            out[a] = out.get(a, 0) + c
    return {a: c for a, c in out.items() if c}


def _quotient_dim(n, numerator, d):
    """dim_K (R/J)_d from the K-polynomial of R/J: the sum of
    c * C(n - 1 + d - a, n - 1) over its terms c t^a with a <= d."""
    return sum(c * comb(n - 1 + d - a, n - 1)
               for a, c in numerator.items() if a <= d)


def hilbert_function(ideal, window=(0, 10)):
    """Hilbert function of R/I on the window, with a right polynomial tail
    when the window reaches the polynomial range.

    Both are read off the K-polynomial N (`k_polynomial`): the values by
    `_quotient_dim`, and from degree deg N - n + 1 on, where every binomial
    C(n - 1 + d - a, n - 1) is a polynomial in d, their sum is the tail.
    """
    n = ideal.n
    lo, hi = int(window[0]), int(window[1])
    if ideal.is_unit():
        return HilbertFunction((lo, hi), {}, ((), ()))
    numerator = k_polynomial(n, [g.exponents for g in ideal.gens])
    values = {d: _quotient_dim(n, numerator, d) for d in range(lo, hi + 1)}
    right = None
    if hi - 1 >= max(numerator) - n + 1:
        # C(n - 1 + d - a, n - 1) = (-1)^(n - 1) C(a - d - 1, n - 1): the
        # part (a, n, +-c) read at e = d.
        sign = (-1) ** (n - 1)
        right = _graded_tail([(a, n, sign * c) for a, c in numerator.items()])
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


class FiltrationLayer(_Value):
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

    def hilbert_as_module(self, window):
        """Hilbert function of the layer as an R-module: the socle Hilbert
        convolved with that of K[x_{s+1}..x_n]."""
        lo, hi = window
        # Degree d of the module is degree e = -d of the summand (m - a, m, h).
        m = self.dim
        values = _graded_values((-hi, -lo), [
            (m - a, m, h) for a, h in self.socle.values.items()])
        return HilbertFunction(window, {-e: v for e, v in values.items()})


class DimensionFiltration(_Value):
    """Chain I = I_0 < I_1 < ... < (1) with one layer record per step."""

    __slots__ = ("n", "layers")

    def __init__(self, n, layers):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "layers", tuple(layers))

    def chain(self):
        ideals = [self.layers[0].ideal] if self.layers else []
        for layer in self.layers:
            ideals.append(layer.next_ideal)
        return ideals

    def dims(self):
        return [layer.dim for layer in self.layers]


def dimension_filtration(ideal):
    """Dimension filtration of a proper strongly stable ideal (zero allowed).

    Each step saturates by the last occurring variable.  The layer socle is
    the Hilbert function of J^sat/J over R' = K[x1..xs], a module of finite
    length, so its series (N(J) - N(J^sat)) / (1 - t)^s is a polynomial, N
    the K-polynomial (`k_polynomial`).  It is found by s exact divisions by
    1 - t; a remainder, a negative value or an empty socle raises
    InconsistencyError.  Layer dimensions strictly increase.
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
        numerator = k_polynomial(s, [g.exponents[:s] for g in current.gens])
        for a, c in k_polynomial(s, [g.exponents[:s] for g in nxt.gens]).items():
            numerator[a] = numerator.get(a, 0) - c
        coeffs = [numerator.get(d, 0) for d in range(max(numerator, default=-1) + 1)]
        for _ in range(s):
            # p = (1 - t) q holds for the prefix sums q of p iff p(1) = 0.
            if sum(coeffs):
                raise InconsistencyError("layer socle series is not a polynomial")
            coeffs = list(accumulate(coeffs))[:-1]
        if any(v < 0 for v in coeffs):
            raise InconsistencyError("saturation shrank the quotient")
        socle_vals = {d: v for d, v in enumerate(coeffs) if v}
        if not socle_vals:
            raise InconsistencyError("saturation produced an empty layer")
        socle = HilbertFunction((0, max(socle_vals)), socle_vals)
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

    Only the layer dimensions m = n - s_k occur, H^m being the sum of the
    summands (a, m, h(a)) over the layer's socle h (see `_graded_sum`).
    """
    if ideal.is_unit():
        raise UndefinedInputError("R/I is zero; no cohomology table")
    if window is None:
        window = default_cohomology_window(ideal)
    window = int(window[0]), int(window[1])
    return CohomologyTable(window, {
        layer.dim: _graded_sum(window, [
            (a, layer.dim, h) for a, h in layer.socle.values.items()])
        for layer in dimension_filtration(ideal).layers})


def _graded_values(window, parts):
    """{e: value} on the window, zeros omitted, of the sum of the parts
    (a, m, h): h * C(a - e - 1, m - 1), the vectors in Z^m with entries <= -1
    summing to e - a, for e <= a - m (h in degree a alone for m = 0).  Parts
    with hi <= a - max(m, 1) are a polynomial on the window, evaluated in
    integers from `_tail_numerators`; m rounds of suffix sums turn h in
    degree a into each other part."""
    lo, hi = window
    high = [p for p in parts if hi <= p[0] - max(p[1], 1)]
    parts = [p for p in parts if hi > p[0] - max(p[1], 1) and p[0] >= lo]
    tail, den = _tail_numerators(high)
    total = []
    for e in range(lo, hi + 1):
        v = 0
        for c in reversed(tail):
            v = v * e + c
        total.append(v // den)
    for m in {m for _, m, _ in parts}:
        f = [0] * (hi - lo + 1 + m)
        for a, k, h in parts:
            if k == m:
                f[a - lo] += h
        for _ in range(m):
            f = list(accumulate(f[:0:-1]))[::-1] + [0]
        total = [t + v for t, v in zip(total, f)]
    return {lo + k: v for k, v in enumerate(total) if v}


def _tail_numerators(parts):
    """(numerators, D): the sum of the parts with m > 0 as a polynomial in e,
    its coefficients the numerators over D = (M - 1)!, M the largest m.  The
    part (a, m, h) adds its falling product prod_{t=1}^{m-1} (a - t - e),
    which is (m - 1)! * C(a - e - 1, m - 1), times h * D / (m - 1)!."""
    top = max((m for _, m, _ in parts), default=0)
    den = factorial(max(top - 1, 0))
    total = [0] * top
    for a, m, h in parts:
        if m:
            poly = [h * den // factorial(m - 1)]
            for t in range(1, m):
                # poly * (a - t - e): each coefficient takes the one below.
                poly = [(a - t) * c - b
                        for c, b in zip(poly + [0], [0] + poly)]
            for k, c in enumerate(poly):
                total[k] += c
    return total, den


def _graded_tail(parts):
    """Coefficients of the sum of the parts with m > 0 as a polynomial in
    e, of length the largest m (0 for none): the sum below every part.
    Summed as integers (`_tail_numerators`); each coefficient becomes a
    Fraction once, here."""
    total, den = _tail_numerators(parts)
    return tuple(Fraction(c, den) for c in total)


def _graded_sum(window, parts):
    """The HilbertFunction of the summed parts (see `_graded_values`), in
    which all three cohomology routes end (Cech, the dimension filtration
    and the face-ring formula): a part is h copies of the top local
    cohomology of a polynomial ring in m variables, shifted by a.  Parts
    with equal (a, m) are merged first.  The left tail is attached iff
    lo + 1 <= a - max(m, 1) for every part, the right tail () iff
    hi - 1 > a - m for every part."""
    lo, hi = window
    merged = {}
    for a, m, h in parts:
        merged[a, m] = merged.get((a, m), 0) + h
    parts = [(a, m, h) for (a, m), h in merged.items()]
    left = (_graded_tail(parts)
            if all(lo + 1 <= a - max(m, 1) for a, m, _ in parts) else None)
    right = () if all(hi - 1 > a - m for a, m, _ in parts) else None
    return HilbertFunction(window, _graded_values(window, parts), (left, right))
