"""Slow, independent reference computations.

Everything here prefers transparency over speed and is used to cross-check
the main routes: standard-monomial counting for Hilbert functions, the
Koszul complex for graded Betti numbers, and the Cech complex on the
variables for local cohomology of monomial quotients.

The Cech route sums one small subcomplex per "pattern": the degree-a piece
of the localized quotient only depends on the signs of the entries of a
and on their values clamped at the generator exponents, and pieces vanish
unless a is bounded above by those exponents minus one.  Each pattern then
accounts for an explicit binomial number of multidegrees per total degree,
which makes the output exact on any window, with polynomial tails.
"""

from fractions import Fraction
from math import comb

from .errors import (
    BoundTooSmallError,
    BoxInstabilityError,
    CapacityError,
    UndefinedInputError,
)
from .groebner import GroebnerBasis, buchberger, normal_form
from .linalg import rank
from .monomial import (
    MonomialIdeal,
    _binomial_in_minus_d,
    default_cohomology_window,
    krull_dimension,
    monomials_of_degree,
)
from .rings import Monomial, Polynomial
from .tables import BettiTable, CohomologyTable, HilbertFunction

KOSZUL_MAX_N = 10
# Largest supplied Koszul degree bound (corpus and benchmark defaults reach
# 10); the general route enumerates every degree up to the bound.
KOSZUL_MAX_BOUND = 32
CECH_MAX_N = 8


def brute_hilbert(ideal, window):
    """Hilbert function of R/I by counting standard monomials degreewise.

    Accepts a MonomialIdeal or a GroebnerBasis (whose leading monomials
    are counted).  No tails are attached; the window is all there is.
    """
    if isinstance(ideal, GroebnerBasis):
        ideal = MonomialIdeal(ideal.n, ideal.leading_monomials())
    lo, hi = window
    values = {}
    for d in range(max(lo, 0), hi + 1):
        count = sum(1 for m in monomials_of_degree(ideal.n, d)
                    if not ideal.contains(m))
        if count:
            values[d] = count
    return HilbertFunction((lo, hi), values)


def _subsets_by_size(n):
    by_size = [[] for _ in range(n + 1)]
    for mask in range(1 << n):
        by_size[bin(mask).count("1")].append(mask)
    return by_size


def _koszul_monomial(ideal, bound):
    n = ideal.n
    lcm_exps = [0] * n
    for g in ideal.gens:
        for k in range(n):
            lcm_exps[k] = max(lcm_exps[k], g.exponents[k])
    # Tor multidegrees divide the lcm of the generators (Taylor complex).
    boxes = [range(e + 1) for e in lcm_exps]
    entries = {}
    multidegrees = [()]
    for axis in boxes:
        multidegrees = [md + (v,) for md in multidegrees for v in axis]
    subsets = _subsets_by_size(n)
    for a in multidegrees:
        if sum(a) > bound:
            continue
        # spots[i] = e_S wedge (standard monomial), S of size i
        spots = []
        for i in range(n + 2):
            level = {}
            for mask in subsets[i] if i <= n else []:
                rest = tuple(a[k] - (mask >> k & 1) for k in range(n))
                if any(e < 0 for e in rest):
                    continue
                if not ideal.contains(Monomial(rest)):
                    level[mask] = len(level)
            spots.append(level)
        ranks = [0] * (n + 2)
        for i in range(1, n + 1):
            if not spots[i] or not spots[i - 1]:
                continue
            rows = []
            for mask in spots[i]:
                row = [0] * len(spots[i - 1])
                sign = 1
                for k in range(n):
                    if mask >> k & 1:
                        sub = mask ^ (1 << k)
                        if sub in spots[i - 1]:
                            row[spots[i - 1][sub]] = sign
                        sign = -sign
                rows.append(row)
            ranks[i] = rank(rows)
        j = sum(a)
        for i in range(n + 1):
            h = len(spots[i]) - ranks[i] - ranks[i + 1]
            if h:
                entries[(i, j)] = entries.get((i, j), 0) + h
    return entries


def _standard_basis(lead_ideal, d):
    return [m for m in monomials_of_degree(lead_ideal.n, d)
            if not lead_ideal.contains(m)]


def _koszul_general(ideal, bound):
    n = ideal.n
    gb = buchberger(ideal)
    lead_ideal = MonomialIdeal(n, gb.leading_monomials())
    if lead_ideal.is_unit():
        return {}
    std = {d: _standard_basis(lead_ideal, d) for d in range(bound + 1)}
    nf_cache = {}

    def reduced_coeffs(var, mono):
        key = (var, mono)
        if key not in nf_cache:
            shifted = mono * Monomial.variable(var, n)
            if lead_ideal.contains(shifted):
                f = normal_form(Polynomial(n, {shifted: Fraction(1)}), gb)
                nf_cache[key] = dict(f.terms())
            else:
                nf_cache[key] = {shifted: Fraction(1)}
        return nf_cache[key]

    subsets = _subsets_by_size(n)

    def basis(i, j):
        if i < 0 or i > n or j - i < 0 or j - i > bound:
            return []
        return [(mask, m) for mask in subsets[i] for m in std[j - i]]

    entries = {}
    rank_cache = {}

    def boundary_rank(i, j):
        # rank of d_i : C_i -> C_{i-1} in total degree j
        if (i, j) in rank_cache:
            return rank_cache[(i, j)]
        cols = basis(i, j)
        target = {key: idx for idx, key in enumerate(basis(i - 1, j))}
        rows = []
        for mask, m in cols:
            row = [Fraction(0)] * len(target)
            sign = 1
            for k in range(n):
                if mask >> k & 1:
                    sub = mask ^ (1 << k)
                    for mono, c in reduced_coeffs(k + 1, m).items():
                        row[target[(sub, mono)]] += sign * c
                    sign = -sign
            rows.append(row)
        r = rank(rows) if rows and target else 0
        rank_cache[(i, j)] = r
        return r

    for j in range(bound + 1):
        for i in range(n + 1):
            dim_ij = len(basis(i, j))
            if not dim_ij:
                continue
            h = dim_ij - boundary_rank(i, j) - boundary_rank(i + 1, j)
            if h:
                entries[(i, j)] = h
    return entries


def koszul_betti(ideal, bound=None):
    """Graded Betti numbers of R/I from the Koszul complex on the variables.

    Monomial ideals split into multidegrees with 0/1 matrices; other
    homogeneous ideals are handled degree by degree in the standard
    monomial basis of a Groebner normal form.  The default degree bound
    (lcm degree of the generators, plus two) covers the whole table; the
    two top degrees must come out empty, otherwise the bound was too small
    and BoundTooSmallError reports it.  A supplied bound above
    KOSZUL_MAX_BOUND is refused with CapacityError before any work.
    """
    n = ideal.n
    if n > KOSZUL_MAX_N:
        raise CapacityError("Koszul oracle variables", KOSZUL_MAX_N, n)
    if bound is not None and bound < 2:
        raise BoundTooSmallError(
            "degree bound %d leaves no room for degree 0 and two empty "
            "degrees above the table" % bound)
    if bound is not None and bound > KOSZUL_MAX_BOUND:
        raise CapacityError("Koszul degree bound", KOSZUL_MAX_BOUND, bound)
    monomial = isinstance(ideal, MonomialIdeal)
    if monomial:
        lcm_deg = 0
        lcm_exps = [0] * n
        for g in ideal.gens:
            for k in range(n):
                lcm_exps[k] = max(lcm_exps[k], g.exponents[k])
        lcm_deg = sum(lcm_exps)
    else:
        gb = buchberger(ideal)
        lcm_exps = [0] * n
        for m in gb.leading_monomials():
            for k in range(n):
                lcm_exps[k] = max(lcm_exps[k], m.exponents[k])
        lcm_deg = sum(lcm_exps)
    requested = bound
    if bound is None:
        bound = lcm_deg + 2
    entries = (_koszul_monomial(ideal, bound) if monomial
               else _koszul_general(ideal, bound))
    top = [j for (_, j) in entries]
    if top and max(top) > bound - 2:
        raise BoundTooSmallError(
            "Betti table still has entries in degree %d with bound %d%s"
            % (max(top), bound,
               "" if requested is None else " (user supplied)"))
    return BettiTable("quotient", entries)


def depth_and_dim(ideal):
    """(depth, Krull dimension) of R/I via Auslander-Buchsbaum.

    depth = n - projective dimension, with the projective dimension read
    off the Koszul Betti table; the dimension comes from vertex covers of
    the initial ideal.  Undefined for the unit ideal (the zero ring).
    """
    if isinstance(ideal, MonomialIdeal):
        if ideal.is_unit():
            raise UndefinedInputError("depth of the zero ring")
        lead = ideal
    else:
        gb = buchberger(ideal)
        lead = MonomialIdeal(ideal.n, gb.leading_monomials())
        if lead.is_unit():
            raise UndefinedInputError("depth of the zero ring")
    betti = koszul_betti(ideal)
    pd = betti.projective_dimension()
    return ideal.n - pd, krull_dimension(lead)


def _cech_piece(n, gen_exps, a):
    """Cohomology dims (by spot size) of the degree-a piece of the Cech complex."""
    neg = sum(1 << k for k in range(n) if a[k] < 0)
    spots = []
    for i in range(n + 1):
        spots.append({})
    for mask in range(1 << n):
        if mask & neg != neg:
            continue
        blocked = any(all(mask >> k & 1 or u[k] <= a[k] for k in range(n))
                      for u in gen_exps)
        if not blocked:
            level = spots[bin(mask).count("1")]
            level[mask] = len(level)
    ranks = [0] * (n + 2)
    for i in range(n):
        # d^i : spots of size i -> size i+1
        if not spots[i] or not spots[i + 1]:
            continue
        rows = []
        for mask in spots[i]:
            row = [0] * len(spots[i + 1])
            for j in range(n):
                if mask >> j & 1:
                    continue
                up = mask | (1 << j)
                if up in spots[i + 1]:
                    below = bin(mask & ((1 << j) - 1)).count("1")
                    row[spots[i + 1][up]] = -1 if below % 2 else 1
            rows.append(row)
        ranks[i + 1] = rank(rows)
    dims = {}
    for i in range(n + 1):
        h = len(spots[i]) - ranks[i + 1] - ranks[i]
        if h:
            dims[i] = h
    return dims


def cech_local_cohomology(ideal, window=None):
    """Local cohomology Hilbert functions of R/I from the Cech complex.

    Exact on any window: the finitely many clamped sign patterns are
    enumerated, each contributes binomially many multidegrees per total
    degree, and degrees below every pattern become polynomial (left tails).
    """
    if not isinstance(ideal, MonomialIdeal):
        raise UndefinedInputError("Cech route needs a monomial ideal")
    n = ideal.n
    if n > CECH_MAX_N:
        raise CapacityError("Cech oracle variables", CECH_MAX_N, n)
    if window is None:
        window = default_cohomology_window(ideal)
    lo, hi = window
    gen_exps = [g.exponents for g in ideal.gens]
    rho = [max((u[k] for u in gen_exps), default=0) for k in range(n)]
    # Pieces vanish unless a_k <= rho_k - 1, so clamped patterns with
    # entries in [-1, rho_k - 1] cover everything.
    patterns = [()]
    for k in range(n):
        patterns = [p + (v,) for p in patterns for v in range(-1, rho[k])]
    # per cohomological index: list of (fixed degree, negative count, dim)
    contributions = {}
    for c in patterns:
        dims = _cech_piece(n, gen_exps, c)
        if not dims:
            continue
        fixed = sum(v for v in c if v > 0)
        npos = sum(1 for v in c if v < 0)
        for i, h in dims.items():
            contributions.setdefault(i, []).append((fixed, npos, h))
    funcs = {}
    for i, parts in sorted(contributions.items()):
        values = {}
        for e in range(lo, hi + 1):
            total = 0
            for fixed, npos, h in parts:
                if npos == 0:
                    if e == fixed:
                        total += h
                elif e <= fixed - npos:
                    total += h * comb(fixed - e - 1, npos - 1)
            if total:
                values[e] = total
        # Below every pattern the counts are a single polynomial in e.
        settle = min(fixed - max(npos, 1) for fixed, npos, _ in parts)
        left = None
        if lo + 1 <= settle:
            poly = [Fraction(0)] * max(n, 1)
            for fixed, npos, h in parts:
                if npos == 0:
                    continue
                for k, coef in enumerate(_binomial_in_minus_d(fixed, npos - 1)):
                    poly[k] += h * coef
            while poly and not poly[-1]:
                poly.pop()
            left = tuple(poly)
        top = max(fixed - (0 if npos == 0 else npos)
                  for fixed, npos, _ in parts)
        right = () if hi - 1 > top else None
        if values or left:
            funcs[i] = HilbertFunction((lo, hi), values, (left, right))
    return CohomologyTable((lo, hi), funcs)


def brute_cech_window(ideal, window, slack=0):
    """Windowed Cech cohomology by raw multidegree enumeration in a box.

    Independent of the pattern bookkeeping in cech_local_cohomology: every
    multidegree in a provably sufficient box is evaluated on the nose.
    The box is then widened by one on every side and the totals must not
    move, else BoxInstabilityError; ``slack`` widens the starting box.
    """
    if not isinstance(ideal, MonomialIdeal):
        raise UndefinedInputError("Cech route needs a monomial ideal")
    n = ideal.n
    if n > CECH_MAX_N:
        raise CapacityError("Cech oracle variables", CECH_MAX_N, n)
    lo, hi = window
    gen_exps = [g.exponents for g in ideal.gens]
    rho = [max((u[k] for u in gen_exps), default=0) for k in range(n)]

    def totals(extra):
        upper = [rho[k] - 1 + extra for k in range(n)]
        lower = [lo - sum(upper[t] for t in range(n) if t != k) - extra
                 for k in range(n)]
        box = [()]
        for k in range(n):
            box = [b + (v,) for b in box for v in range(lower[k], upper[k] + 1)]
        out = {}
        for a in box:
            j = sum(a)
            if not lo <= j <= hi:
                continue
            for i, h in _cech_piece(n, gen_exps, a).items():
                out[(i, j)] = out.get((i, j), 0) + h
        return out

    first = totals(slack)
    widened = totals(slack + 1)
    if first != widened:
        raise BoxInstabilityError(
            "windowed Cech totals changed when the box was widened")
    funcs = {}
    for (i, j), h in sorted(first.items()):
        funcs.setdefault(i, {})[j] = h
    return CohomologyTable(
        (lo, hi),
        {i: HilbertFunction((lo, hi), vals) for i, vals in funcs.items()})
