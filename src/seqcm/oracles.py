"""Independent routes for Hilbert functions, Betti numbers and local cohomology.

Two are references, written for transparency over speed to cross-check
the main routes: standard-monomial counting for Hilbert functions
(brute_hilbert) and the Koszul complex for graded Betti numbers (also
`betti`'s route where Hochster's formula does not apply).  The third, the
Cech complex on the variables for local cohomology of monomial quotients,
is a product route: the left side of both theorem checks and the default
route of `localcoh`, it walks only the live patterns (below).

The Cech route sums one small subcomplex per "pattern": the degree-a piece
of the localized quotient only depends on the signs of the entries of a
and on their values clamped at the generator exponents, and pieces vanish
unless a is bounded above by those exponents minus one.  Each pattern then
accounts for an explicit binomial number of multidegrees per total degree:
with its npos entries -1 and positive entries summing to fixed, h copies of
its piece are the summand (fixed, npos, h) of `monomial._graded_sum`, which
adds them up exactly on any window, with polynomial tails.

Both monomial oracles find the basis of each piece, its spots, by one
covering pass, `_covering`: over the submasks of the free variables, one OR
each, it fills the union of their blocks of generators and keeps the
submasks that cover every generator, none if all the free variables fall
short (the early exit).  A Cech pattern a frees the variables outside its
negative set neg, with block_k the generators u with u_k > a_k; its spots
hold neg, and the free variables outside them cover.  A Koszul multidegree
a frees supp(a), with block_k the generators u <= a with u_k = a_k; its
spots cover, so they meet tight_u = {k : u_k = a_k} of every u <= a.  The
Cech route walks only the live patterns, those whose free blocks cover
every generator (`_cech_walk`); on a face ideal these are the faces, -1 on
a face and 0 elsewhere (Hochster).  Over all patterns, or all multidegrees
up to the exponent maxima rho_k, the pass takes prod_k (1 + 2 rho_k) steps
(3^n for a squarefree ideal): the Koszul pass takes them all, the Cech
walk at most that many.  The product is a bound known before any work, and
CECH_MAX_WORK caps it.

The Koszul route of a non-monomial ideal works in the engine's packed
integers (see groebner): the standard monomials of each degree grow from
those of the degree below by the packed steps, kept when no lead of the
reduced basis divides them, and each normal form is the integer pair
(scale, r) of `_remainder`.  A boundary row scales its parts to the lcm of
their scales, so its entries are integers.

Every complex is reduced with clearing.  The multidegree pieces of the
Koszul route and the pattern pieces of the Cech route sort their spots with
`linalg.levels` and read their homology with `linalg.level_homology`; the
linalg docstring holds their sign rule and clearing orders: Koszul from d_n
down, Cech from d^0 up.
"""

from functools import reduce
from itertools import product
from math import comb, lcm, prod

from .errors import (
    BoundTooSmallError,
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
from .linalg import level_homology, levels, pivots
from .monomial import (
    MonomialIdeal,
    _graded_sum,
    _quotient_dim,
    default_cohomology_window,
    k_polynomial,
    krull_dimension,
    monomials_of_degree,
)
from .tables import BettiTable, CohomologyTable, HilbertFunction

KOSZUL_MAX_N = 10
# Largest supplied Koszul degree bound (corpus and benchmark defaults reach
# 10); the general route enumerates every degree up to the bound.
KOSZUL_MAX_BOUND = 32
# Cap on prod(1 + 2 rho_k), the steps of the Koszul spot pass and a bound on
# those of the Cech walk, known before any work.  The walk reaches the bound
# only when every pattern is live (one generator of full support), where a
# step took 4.6-6.1 us on a 2-CPU host in 10-12 variables; the 12-cycle's
# face ideal (bound 3^12) walks its 25 faces, 40,960 steps, in 0.005 s.
CECH_MAX_WORK = 10 ** 6
# Cap on the basis elements of the general Koszul route's complex up to its
# bound, sum_j sum_i C(n, i) HF(R/in I)(j - i), known before any standard
# monomial is grown: on a 2-CPU host, 996,336 elements (x1^2 + x2*x3,
# x4*x5 - x6^2 in 10 variables, bound 8) took 2.1 to 2.6 s in-process and
# 2,486,000 (bound 9) 5.6 s.
KOSZUL_MAX_BASIS = 10 ** 6


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


def _covering(free, blocks, every):
    """The submasks of free, in increasing order, whose variables' blocks
    (blocks[t] for the t-th lowest variable of free) cover every."""
    if reduce(int.__or__, blocks, 0) != every:
        return []
    cover = [0]
    for b in blocks:
        cover += [c | b for c in cover]
    out, sub = [], 0
    for c in cover:
        if c == every:
            out.append(sub)
        sub = (sub - free) & free
    return out


def _koszul_spots(gen_exps, a):
    """The levels of the masks S with e_S wedge x^(a-S) in the Koszul complex
    of R/I: S lies in supp(a) and meets tight_u = {k : u_k = a_k} of every
    generator u <= a."""
    n = len(a)
    below = [u for u in gen_exps if all(map(int.__le__, u, a))]
    blocks = [sum(1 << g for g, u in enumerate(below) if u[k] == a[k])
              for k in range(n) if a[k]]
    supp = sum(1 << k for k in range(n) if a[k])
    return levels(n, _covering(supp, blocks, (1 << len(below)) - 1))


def _koszul_monomial(ideal, bound):
    # Tor multidegrees divide the lcm of the generators (Taylor complex).
    rho = _check_cech_work(ideal, "Koszul")
    gen_exps = [g.exponents for g in ideal.gens]
    entries = {}
    for a in product(*(range(r + 1) for r in rho)):
        j = sum(a)
        if j > bound:
            continue
        # d_i maps size i to size i - 1: its levels go from the top down
        spots = _koszul_spots(gen_exps, a)[::-1]
        for i, h in enumerate(level_homology(ideal.n, spots)[::-1]):
            if h:
                entries[(i, j)] = entries.get((i, j), 0) + h
    return entries


def _koszul_general(n, elements, lead_ideal, bound):
    """Koszul homology of R/I from the engine elements of I's reduced basis
    and their lead ideal, all in packed integers.

    std[d], the standard monomials of degree d, grows from std[d-1] by the
    packed steps, keeping what no lead divides (the guard test).  C_i in
    total degree j has the basis e_S wedge m, S of size i and m in
    std[j-i], at position (index of S in its level of `linalg.levels`) *
    len(std[j-i]) + (index of m), the layout that clearing reads.  The
    normal form of x_k m is the integer pair (scale, r) of `_remainder`,
    cached by the product; a row multiplies each part by the lcm of its
    scales over the part's own, so `pivots` meets no denominator.  Nor
    does it meet a zero entry: the part of x_k m fills its own column
    block, from the index of S minus k times width, and `_remainder` keeps
    no zero coefficient.
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
    subsets = levels(n, range(1 << n))
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
                    parts.append((sign, subsets[i - 1][mask ^ 1 << k] * width,
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
    KOSZUL_MAX_BOUND is refused with CapacityError before any work, and so
    is a general-route complex of more than KOSZUL_MAX_BASIS basis elements
    up to the bound, counted from the K-polynomial of the lead ideal before
    any standard monomial is grown.
    """
    n = ideal.n
    _check_koszul_n(n)
    if bound is not None and bound < 2:
        raise BoundTooSmallError(
            "degree bound %d leaves no room for degree 0 and two empty "
            "degrees above the table" % bound)
    if bound is not None and bound > KOSZUL_MAX_BOUND:
        raise CapacityError("Koszul degree bound", KOSZUL_MAX_BOUND, bound)
    return _koszul(ideal, *_basis(ideal), bound)


def _basis(ideal):
    """(elements, lead ideal): the engine's reduced basis of I and its lead
    ideal, or None and I itself when I is a MonomialIdeal."""
    if isinstance(ideal, MonomialIdeal):
        return None, ideal
    elements = _groebner(ideal.n, _generators(ideal))
    return elements, MonomialIdeal(ideal.n, _leads(ideal.n, elements))


def _koszul(ideal, elements, lead_ideal, bound):
    """The Koszul Betti table of R/I from the pair that `_basis` gives;
    a general-route basis over KOSZUL_MAX_BASIS is a CapacityError."""
    requested = bound
    if bound is None:
        bound = sum(max(col) for col in zip(*(
            g.exponents for g in lead_ideal.gens))) + 2
    if elements is None:
        entries = _koszul_monomial(ideal, bound)
    else:
        n = ideal.n
        numerator = k_polynomial(n, [g.exponents for g in lead_ideal.gens])
        hf = [_quotient_dim(n, numerator, d) for d in range(bound + 1)]
        size = sum(comb(n, i) * hf[j - i] for j in range(bound + 1)
                   for i in range(min(n, j) + 1))
        if size > KOSZUL_MAX_BASIS:
            raise CapacityError("Koszul complex basis elements",
                                KOSZUL_MAX_BASIS, size)
        entries = _koszul_general(n, elements, lead_ideal, bound)
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
    elements, lead = _basis(ideal)
    if lead.is_unit():
        raise UndefinedInputError("depth of the zero ring")
    pd = _koszul(ideal, elements, lead, None).projective_dimension()
    return ideal.n - pd, krull_dimension(lead)


def _cech_blocks(gen_exps, rho):
    """blocks[k][v] for v = 0..rho_k: the bitmask of the generators u with
    u_k > v; a value above rho_k reads as rho_k."""
    return [[sum(1 << g for g, u in enumerate(gen_exps) if u[k] > v)
             for v in range(r + 1)] for k, r in enumerate(rho)]


def _cech_spots(n, neg, free_blocks, every):
    """The levels of the masks S that hold neg, the negative entries of a
    degree a, and contain no need_u = {k : u_k > a_k} of a generator u, that
    is, whose outside variables' free blocks cover every generator."""
    free = ((1 << n) - 1) ^ neg
    covers = _covering(free, free_blocks, every)
    # the complements of the covers, reversed, run up from neg
    return levels(n, [neg | free ^ c for c in reversed(covers)])


def _cech_piece(n, neg, free_blocks, every):
    """Cohomology dims (by spot size) of one piece of the Cech complex."""
    homology = level_homology(n, _cech_spots(n, neg, free_blocks, every))
    return {i: h for i, h in enumerate(homology) if h}


def _cech_walk(rho, blocks, every):
    """The clamped patterns c in prod_k [-1, rho_k - 1] whose free blocks
    cover every, in product order, as (c, neg, free blocks): the mask of
    c's negative entries, and blocks[k][c_k] for each other variable k in
    order.  A prefix is dropped once its blocks and reach[k + 1], the OR
    of the value-0 (largest) blocks of the variables after it, fall short;
    blocks shrink as the value grows, so a variable's values stop at the
    first.

    >>> rho = [1, 1]  # (x1*x2) in two variables: 3 live patterns of 4
    >>> [c for c, _, _ in _cech_walk(rho, _cech_blocks([(1, 1)], rho), 1)]
    [(-1, 0), (0, -1), (0, 0)]
    """
    n = len(rho)
    values = [b[:r] for b, r in zip(blocks, rho)]
    reach = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        reach[k] = reach[k + 1] | blocks[k][0]

    def walk(k, c, neg, acc, free_blocks):
        if k == n:
            yield c, neg, free_blocks
            return
        rest = reach[k + 1]
        if acc | rest == every:
            yield from walk(k + 1, c + (-1,), neg | 1 << k, acc, free_blocks)
        for v, b in enumerate(values[k]):
            if acc | b | rest != every:
                break
            yield from walk(k + 1, c + (v,), neg, acc | b, free_blocks + [b])

    if reach[0] == every:
        yield from walk(0, (), 0, 0, [])


def _check_cech_work(ideal, oracle):
    """The generators' exponent maxima rho_k of a monomial ideal, after
    refusing with CapacityError the oracle's spot pass, of at most
    prod(1 + 2 rho_k) steps, over CECH_MAX_WORK."""
    rho = [max((g.exponents[k] for g in ideal.gens), default=0)
           for k in range(ideal.n)]
    work = prod(1 + 2 * r for r in rho)
    if work > CECH_MAX_WORK:
        raise CapacityError("%s oracle work prod(1 + 2 rho_k)" % oracle,
                            CECH_MAX_WORK, work)
    return rho


def cech_local_cohomology(ideal, window=None):
    """Local cohomology Hilbert functions of R/I from the Cech complex.

    Exact on any window: the finitely many live clamped patterns are
    walked (`_cech_walk`), each contributes binomially many multidegrees per
    total degree, and degrees below every pattern become polynomial (left
    tails).  Work over CECH_MAX_WORK is refused with CapacityError before
    any pattern.
    """
    if not isinstance(ideal, MonomialIdeal):
        raise UndefinedInputError("Cech route needs a monomial ideal")
    rho = _check_cech_work(ideal, "Cech")
    n = ideal.n
    gen_exps = [g.exponents for g in ideal.gens]
    blocks = _cech_blocks(gen_exps, rho)
    if window is None:
        window = default_cohomology_window(ideal)
    lo, hi = window
    # Pieces vanish unless a_k <= rho_k - 1, so clamped patterns with
    # entries in [-1, rho_k - 1] cover everything, and unless the free
    # blocks cover every generator, so the walk skips the rest.  Per
    # cohomological index: the summands (fixed degree, negative count, dim).
    contributions = {}
    every = (1 << len(gen_exps)) - 1
    for c, neg, free_blocks in _cech_walk(rho, blocks, every):
        dims = _cech_piece(n, neg, free_blocks, every)
        if not dims:
            continue
        fixed = sum(v for v in c if v > 0)
        npos = sum(1 for v in c if v < 0)
        for i, h in dims.items():
            contributions.setdefault(i, []).append((fixed, npos, h))
    return CohomologyTable((lo, hi), {
        i: _graded_sum((lo, hi), parts)
        for i, parts in sorted(contributions.items())})
