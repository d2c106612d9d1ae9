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

The spots of a pattern a (the basis of its piece) are sets S of variables
that hold its negative set neg, so only the supersets neg | sub are visited.
With block_k the generators u with u_k > a_k, S is a spot when the blocks of
the variables outside S cover every generator.  One pass fills these covers
over the submasks of the free variables, one OR each, and a pattern whose
neg alone is not covered has no spots.  Over all patterns the pass takes
prod_k (1 + 2 rho_k) steps (3^n for a squarefree ideal), known before any
work and bounded by CECH_MAX_WORK.

The Koszul route of a non-monomial ideal works in the engine's packed
integers (see groebner): the standard monomials of each degree grow from
those of the degree below by the packed steps, kept when no lead of the
reduced basis divides them, and each normal form is the integer pair
(scale, r) of `_remainder`.  A boundary row scales its parts to the lcm of
their scales, so its entries are integers.

Every complex is reduced with clearing (see linalg): Koszul maps from d_n
down, Cech maps from d^0 up, each without the rows that are pivots of the
map before it.
"""

from fractions import Fraction
from functools import reduce
from itertools import product
from math import comb, lcm, prod

from .errors import (
    BoundTooSmallError,
    BoxInstabilityError,
    CapacityError,
    UndefinedInputError,
)
from .groebner import (
    _GUARD,
    _STEPS,
    _generators,
    _groebner,
    _leads,
    _remainder,
)
from .linalg import pivots
from .monomial import (
    MonomialIdeal,
    _binomial_in_minus_d,
    default_cohomology_window,
    krull_dimension,
    monomials_of_degree,
)
from .tables import BettiTable, CohomologyTable, HilbertFunction

KOSZUL_MAX_N = 10
# Largest supplied Koszul degree bound (corpus and benchmark defaults reach
# 10); the general route enumerates every degree up to the bound.
KOSZUL_MAX_BOUND = 32
# Steps of the Cech spot pass, prod(1 + 2 rho_k).  On a 2-CPU host one took
# 4.6-6.1 us when every pattern feeds elimination (one generator of full
# support in 10-12 variables) and 0.1 us on the 12-cycle's face ideal (3^12
# steps, 0.04-0.09 s), where most exit.
CECH_MAX_WORK = 10 ** 6


def brute_hilbert(ideal, window):
    """Hilbert function of R/I, I a MonomialIdeal, by counting standard
    monomials degreewise.  No tails are attached; the window is all there is.
    """
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


def _koszul_spots(gen_exps, a, subsets):
    """spots[i] indexes the masks S of size i with e_S wedge x^(a-S) in the
    Koszul complex of R/I: S lies in supp(a), and no generator u <= a has
    tight_u = {k : u_k = a_k} disjoint from S."""
    n = len(a)
    supp = sum(1 << k for k in range(n) if a[k] > 0)
    tights = [sum(1 << k for k in range(n) if u[k] == a[k])
              for u in gen_exps if all(u[k] <= a[k] for k in range(n))]
    spots = [{} for _ in range(n + 2)]
    for i in range(n + 1):
        for mask in subsets[i]:
            if mask & supp == mask and all(mask & t for t in tights):
                spots[i][mask] = len(spots[i])
    return spots


def _koszul_monomial(ideal, bound):
    n = ideal.n
    gen_exps = [g.exponents for g in ideal.gens]
    lcm_exps = [max((u[k] for u in gen_exps), default=0) for k in range(n)]
    # Tor multidegrees divide the lcm of the generators (Taylor complex).
    entries = {}
    subsets = _subsets_by_size(n)
    for a in product(*(range(e + 1) for e in lcm_exps)):
        if sum(a) > bound:
            continue
        spots = _koszul_spots(gen_exps, a, subsets)
        ranks = [0] * (n + 2)
        cleared = ()
        for i in range(n, 0, -1):
            # spot sizes are contiguous, so maps are skipped only around
            # those with rows
            if not spots[i] or not spots[i - 1]:
                continue
            rows = []
            for mask, idx in spots[i].items():
                if idx in cleared:
                    continue
                row = {}
                sign = 1
                for k in range(n):
                    if mask >> k & 1:
                        sub = mask ^ (1 << k)
                        if sub in spots[i - 1]:
                            row[spots[i - 1][sub]] = sign
                        sign = -sign
                rows.append(row)
            cleared = pivots(rows)
            ranks[i] = len(cleared)
        j = sum(a)
        for i in range(n + 1):
            h = len(spots[i]) - ranks[i] - ranks[i + 1]
            if h:
                entries[(i, j)] = entries.get((i, j), 0) + h
    return entries


def _koszul_general(n, elements, lead_ideal, bound):
    """Koszul homology of R/I from the engine elements of I's reduced basis
    and their lead ideal, all in packed integers.

    std[d], the standard monomials of degree d, grows from std[d-1] by the
    packed steps, keeping what no lead divides (the guard test).  C_i in
    total degree j has the basis e_S wedge m, S of size i and m in
    std[j-i], at position (rank of S among the subsets of its size) *
    len(std[j-i]) + (index of m), the layout that clearing reads.  The
    normal form of x_k m is the integer pair (scale, r) of `_remainder`,
    cached by the product; a row multiplies each part by the lcm of its
    scales over the part's own, so `pivots` meets no denominator.
    """
    if lead_ideal.is_unit():
        return {}
    guard, steps = _GUARD[n], _STEPS[n]
    leads = [lead for lead, _ in elements]
    std = [[0]]  # the unit monomial packs to 0
    for _ in range(bound):
        grown = {m + s for m in std[-1] for s in steps}
        std.append(sorted(m for m in grown
                          if all((m - lead) & guard for lead in leads)))
    where = [{m: t for t, m in enumerate(monos)} for monos in std]
    subsets = _subsets_by_size(n)
    rank_of = {mask: t for level in subsets for t, mask in enumerate(level)}
    forms = {}

    def reduced(t):
        # (scale, r): the normal form of the packed monomial t is r / scale
        nf = forms.get(t)
        if nf is None:
            nf = forms[t] = _remainder(n, {t: 1}, elements)
        return nf

    def boundary_pivots(i, j, cleared):
        # pivots of d_i : C_i -> C_{i-1} in total degree j, without the
        # rows indexed by cleared
        monos, below = std[j - i], where[j - i + 1]
        width = len(below)
        rows = []
        for pos, (mask, m) in enumerate(product(subsets[i], monos)):
            if pos in cleared:
                continue
            parts, sign = [], 1
            for k in range(n):
                if mask >> k & 1:
                    scale, r = reduced(m + steps[k])
                    parts.append((sign, rank_of[mask ^ 1 << k] * width,
                                  scale, r))
                    sign = -sign
            mult = lcm(*(scale for _, _, scale, _ in parts))
            row = {}
            for sign, offset, scale, r in parts:
                f = sign * (mult // scale)
                for mono, c in r.items():
                    idx = offset + below[mono]
                    row[idx] = row.get(idx, 0) + f * c
            rows.append(row)
        return pivots(rows)

    entries = {}
    for j in range(bound + 1):
        ranks = [0] * (n + 2)
        cleared = ()
        for i in range(min(n, j), 0, -1):
            cleared = boundary_pivots(i, j, cleared)
            ranks[i] = len(cleared)
        for i in range(min(n, j) + 1):
            h = len(subsets[i]) * len(std[j - i]) - ranks[i] - ranks[i + 1]
            if h:
                entries[(i, j)] = h
    return entries


def _check_koszul_n(n):
    if n > KOSZUL_MAX_N:
        raise CapacityError("Koszul oracle variables (for squarefree input, "
                            "betti without --oracle takes the Hochster route)",
                            KOSZUL_MAX_N, n)


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
    _check_koszul_n(n)
    if bound is not None and bound < 2:
        raise BoundTooSmallError(
            "degree bound %d leaves no room for degree 0 and two empty "
            "degrees above the table" % bound)
    if bound is not None and bound > KOSZUL_MAX_BOUND:
        raise CapacityError("Koszul degree bound", KOSZUL_MAX_BOUND, bound)
    if isinstance(ideal, MonomialIdeal):
        return _koszul(ideal, None, bound)
    return _koszul(ideal, _groebner(ideal.n, _generators(ideal)), bound)


def _koszul(ideal, elements, bound):
    """The Koszul Betti table of R/I; elements is the engine's reduced basis
    of I, or None when I is a MonomialIdeal."""
    lead_ideal = (ideal if elements is None
                  else MonomialIdeal(ideal.n, _leads(ideal.n, elements)))
    requested = bound
    if bound is None:
        bound = sum(max(col) for col in zip(*(
            g.exponents for g in lead_ideal.gens))) + 2
    entries = (_koszul_monomial(ideal, bound) if elements is None
               else _koszul_general(ideal.n, elements, lead_ideal, bound))
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
    _check_koszul_n(ideal.n)
    if isinstance(ideal, MonomialIdeal):
        elements, lead = None, ideal
    else:
        elements = _groebner(ideal.n, _generators(ideal))
        lead = MonomialIdeal(ideal.n, _leads(ideal.n, elements))
    if lead.is_unit():
        raise UndefinedInputError("depth of the zero ring")
    pd = _koszul(ideal, elements, None).projective_dimension()
    return ideal.n - pd, krull_dimension(lead)


def _cech_blocks(n, gen_exps):
    """blocks[k][v] for v = 0..rho_k: the bitmask of the generators u with
    u_k > v; a value above rho_k reads as rho_k."""
    rho = [max((u[k] for u in gen_exps), default=0) for k in range(n)]
    return [[sum(1 << g for g, u in enumerate(gen_exps) if u[k] > v)
             for v in range(rho[k] + 1)] for k in range(n)]


def _cech_spots(n, gen_exps, a, blocks=None):
    """spots[i] indexes the masks S of size i that hold every negative
    entry of a and contain no need_u = {k : u_k > a_k} of a generator u,
    that is, whose outside variables' blocks cover every generator."""
    blocks = blocks or _cech_blocks(n, gen_exps)
    neg = sum(1 << k for k in range(n) if a[k] < 0)
    free = ((1 << n) - 1) ^ neg
    free_blocks = [b[min(v, len(b) - 1)] for b, v in zip(blocks, a) if v >= 0]
    every = (1 << len(gen_exps)) - 1
    spots = [{} for _ in range(n + 1)]
    if reduce(int.__or__, free_blocks, 0) != every:
        return spots
    # cover[t]: the generators blocked by the free variables in the t-th
    # submask of free; reversed, it runs over the complements of neg | sub.
    cover = [0]
    for b in free_blocks:
        cover += [c | b for c in cover]
    sub = 0
    for c in reversed(cover):
        if c == every:
            level = spots[(neg | sub).bit_count()]
            level[neg | sub] = len(level)
        sub = (sub - free) & free
    return spots


def _cech_piece(n, gen_exps, a, blocks):
    """Cohomology dims (by spot size) of the degree-a piece of the Cech complex."""
    spots = _cech_spots(n, gen_exps, a, blocks)
    ranks = [0] * (n + 2)
    cleared = ()
    for i in range(n):
        # d^i : spots of size i -> size i+1, less the pivots of d^(i-1); spot
        # sizes are contiguous, so maps are skipped only around those with rows
        if not spots[i] or not spots[i + 1]:
            continue
        rows = []
        for mask, idx in spots[i].items():
            if idx in cleared:
                continue
            row = {}
            for j in range(n):
                if mask >> j & 1:
                    continue
                up = mask | (1 << j)
                if up in spots[i + 1]:
                    below = bin(mask & ((1 << j) - 1)).count("1")
                    row[spots[i + 1][up]] = -1 if below % 2 else 1
            rows.append(row)
        cleared = pivots(rows)
        ranks[i + 1] = len(cleared)
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
    Work over CECH_MAX_WORK is refused with CapacityError before any pattern.
    """
    if not isinstance(ideal, MonomialIdeal):
        raise UndefinedInputError("Cech route needs a monomial ideal")
    n = ideal.n
    gen_exps = [g.exponents for g in ideal.gens]
    rho = [max((u[k] for u in gen_exps), default=0) for k in range(n)]
    work = prod(1 + 2 * r for r in rho)
    if work > CECH_MAX_WORK:
        raise CapacityError("Cech oracle work prod(1 + 2 rho_k)",
                            CECH_MAX_WORK, work)
    blocks = _cech_blocks(n, gen_exps)
    if window is None:
        window = default_cohomology_window(ideal)
    lo, hi = window
    # Pieces vanish unless a_k <= rho_k - 1, so clamped patterns with
    # entries in [-1, rho_k - 1] cover everything.  Per cohomological index:
    # a list of (fixed degree, negative count, dim).
    contributions = {}
    for c in product(*(range(-1, r) for r in rho)):
        dims = _cech_piece(n, gen_exps, c, blocks)
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
        funcs[i] = HilbertFunction((lo, hi), values, (left, right))
    return CohomologyTable((lo, hi), funcs)


def brute_cech_window(ideal, window, slack=0):
    """Windowed Cech cohomology by raw multidegree enumeration in a box.

    Independent of the pattern bookkeeping in cech_local_cohomology: every
    multidegree in a provably sufficient box is evaluated on the nose.
    The box is then widened by one on every side and the totals must not
    move, else BoxInstabilityError; ``slack`` widens the starting box.
    The widened box's size times 2^n is held to CECH_MAX_WORK.
    """
    if not isinstance(ideal, MonomialIdeal):
        raise UndefinedInputError("Cech route needs a monomial ideal")
    n = ideal.n
    lo, hi = window
    gen_exps = [g.exponents for g in ideal.gens]
    rho = [max((u[k] for u in gen_exps), default=0) for k in range(n)]
    # Every axis of the widened box spans sum(rho) + n*slack - lo + slack + 2
    # values, and each multidegree visits at most 2^n spots.
    work = max(0, sum(rho) + (n + 1) * slack - lo + 2) ** n << n
    if work > CECH_MAX_WORK:
        raise CapacityError("Cech oracle work (box size x 2^n)",
                            CECH_MAX_WORK, work)
    blocks = _cech_blocks(n, gen_exps)

    def totals(extra):
        upper = [rho[k] - 1 + extra for k in range(n)]
        lower = [lo - sum(upper[t] for t in range(n) if t != k) - extra
                 for k in range(n)]
        out = {}
        for a in product(*(range(lower[k], upper[k] + 1) for k in range(n))):
            j = sum(a)
            if not lo <= j <= hi:
                continue
            for i, h in _cech_piece(n, gen_exps, a, blocks).items():
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
