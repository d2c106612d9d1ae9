"""Simplicial complexes and their squarefree monomial dictionary.

A complex on vertices 1..n is stored by its facets (maximal faces).  Two
degenerate complexes are kept distinct: the void complex has no faces at
all (its Stanley-Reisner ideal is the unit ideal, the face ring is the
zero ring), while the irrelevant complex has the empty face as its only
face (ideal (x1,...,xn), face ring K).

The Stanley-Reisner transfer has one subset enumeration, `complex_of`:
`dual_ideal` reads the ideal of the Alexander dual off the facets, and the
dual and the Stanley-Reisner ideal are built from it.  Back the other way,
`_dual_complex` reads the Alexander dual off the generators of a face ideal.
Shifting acts on ideals, where gin works, and `shifted_complex` is the
complex of the result.

Complexes, restrictions and links are held by maximal vertex masks
(`_maximal`), and their homology has one entry, `_homology`: cones have
none, and any other complex has that of its strong-collapse core, computed
once per core in the caller's memo.  Hochster's Betti numbers,
`reduced_homology` and the skeleta route's links call it.  Local cohomology
of a face ring is a graded sum over the Betti numbers of the dual ideal.
The same formula runs backwards: its matrix, `build_A_matrix`, is unit
lower triangular over the integers, so `betti_from_cohomology` recovers
the dual ideal's Betti table from a cohomology table by forward
substitution, and `decide.theorem41_check` holds both of its Cech tables
to the Betti tables of its decider that way.
"""

from functools import reduce
from math import comb

from .errors import (
    AmbientGrowthError,
    AmbientMismatchError,
    CapacityError,
    InconsistencyError,
    NotSquarefreeError,
    ParseError,
    ShiftedViolationError,
)
from .groebner import gin
from .linalg import level_homology, levels
from .monomial import (
    MonomialIdeal,
    _exchange_witness,
    _graded_sum,
    default_cohomology_window,
)
from .rings import Monomial, _Value
from .tables import BettiTable, CohomologyTable

# Subset enumeration over 1..n backs most routines here.
SIMPLICIAL_MAX_N = 16


def _check_n(n):
    if n < 0 or n > SIMPLICIAL_MAX_N:
        raise CapacityError("ambient vertex count", SIMPLICIAL_MAX_N, n)


def _as_face(vertices, n):
    face = tuple(sorted(set(int(v) for v in vertices)))
    for v in face:
        if v < 1 or v > n:
            raise AmbientMismatchError(
                "vertex %d outside 1..%d" % (v, n))
    return face


def _mask(face):
    return sum(1 << (v - 1) for v in face)


class SimplicialComplex(_Value):
    """Finite simplicial complex on the vertex set 1..n, stored by facets."""

    __slots__ = ("n", "facets")

    def __init__(self, n, facets):
        _check_n(int(n))
        object.__setattr__(self, "n", int(n))
        maximal = [tuple(v for v in range(1, self.n + 1) if m >> v - 1 & 1)
                   for m in _maximal(_mask(_as_face(f, n)) for f in facets)]
        object.__setattr__(self, "facets", tuple(
            sorted(maximal, key=lambda f: (len(f), f))))

    @classmethod
    def void(cls, n):
        return cls(n, ())

    @classmethod
    def irrelevant(cls, n):
        return cls(n, ((),))

    @classmethod
    def full(cls, n):
        return cls(n, (tuple(range(1, n + 1)),))

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.n == other.n and self.facets == other.facets)

    def __hash__(self):
        return hash((self.n, self.facets))

    def __repr__(self):
        if self.is_void():
            body = "void"
        else:
            body = " ".join("{%s}" % ",".join(map(str, f)) or "{}"
                            for f in self.facets)
        return "SimplicialComplex(n=%d, %s)" % (self.n, body)

    def is_void(self):
        return not self.facets

    def is_irrelevant(self):
        return self.facets == ((),)

    def dim(self):
        """Max face dimension; -1 for the irrelevant complex, -2 for void."""
        if self.is_void():
            return -2
        return max(len(f) for f in self.facets) - 1

    def faces(self):
        """All faces as sorted tuples, ordered by (size, lex); empty for void."""
        seen = set()
        for f in self.facets:
            k = len(f)
            for mask in range(1 << k):
                seen.add(tuple(f[i] for i in range(k) if mask >> i & 1))
        return sorted(seen, key=lambda f: (len(f), f))

    def f_vector(self):
        """Face counts (f_{-1}, f_0, ..., f_dim); () for the void complex."""
        counts = {}
        for f in self.faces():
            counts[len(f)] = counts.get(len(f), 0) + 1
        if not counts:
            return ()
        return tuple(counts.get(k, 0) for k in range(max(counts) + 1))

    def to_json(self):
        return {"n": self.n, "facets": [list(f) for f in self.facets]}

    @classmethod
    def from_json(cls, data):
        if type(data["n"]) is not int:
            raise ParseError("n must be an integer, got %r" % (data["n"],))
        facets = data["facets"]
        if not isinstance(facets, list) or not all(
                isinstance(f, list) and all(type(v) is int for v in f)
                for f in facets):
            raise ParseError("facets must be lists of integer vertices")
        return cls(data["n"], facets)


def dual_ideal(cx):
    """Stanley-Reisner ideal of the Alexander dual, read off the facets.

    The minimal nonfaces of the dual are the complements of the facets, so
    the generators are x_([n] - F) over the facets F and no subset is
    enumerated.  Void complex -> zero ideal, full simplex -> unit ideal.
    """
    n = cx.n
    return MonomialIdeal(n, [tuple(0 if v in f else 1 for v in range(1, n + 1))
                             for f in cx.facets])


def _dual_complex(ideal):
    """Alexander dual of the complex of a squarefree ideal, read off the
    generators: the facets of the dual are the complements of the minimal
    nonfaces, so no subset is enumerated.  The inverse of `dual_ideal`."""
    n = ideal.n
    return SimplicialComplex(n, [
        [v for v in range(1, n + 1) if not g.exponent(v)] for g in ideal.gens])


def complex_of(ideal):
    """Simplicial complex whose Stanley-Reisner ideal is the given one.

    Faces (supports of squarefree monomials outside the ideal) are marked on
    the vertex-mask array; facets are the faces with no face one vertex larger.
    """
    if not ideal.is_squarefree():
        bad = next(g for g in ideal.gens if not g.is_squarefree())
        raise NotSquarefreeError("generator %s is not squarefree" % bad)
    n = ideal.n
    _check_n(n)
    gen_masks = [_mask(g.support()) for g in ideal.gens]
    is_face = [all(mask & gm != gm for gm in gen_masks)
               for mask in range(1 << n)]
    facets = [[i + 1 for i in range(n) if mask >> i & 1]
              for mask in range(1 << n) if is_face[mask]
              and not any(is_face[mask | 1 << i] for i in range(n)
                          if not mask >> i & 1)]
    return SimplicialComplex(n, facets)


def alexander_dual(cx):
    """Complex of complements of nonfaces; an involution on complexes.

    The complex of `dual_ideal`, so the dual of the full simplex is void and
    the dual of void is full.
    """
    return complex_of(dual_ideal(cx))


def stanley_reisner_ideal(cx):
    """Squarefree monomial ideal of minimal nonfaces.

    The dual ideal of the dual: its generators are the complements of the
    dual's facets.  Void complex -> unit ideal, full simplex -> zero ideal.
    """
    return dual_ideal(alexander_dual(cx))


def _maximal(masks):
    """The maximal ones among vertex masks, as a frozenset: largest first,
    each kept unless a kept mask contains it."""
    kept = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        for k in kept:
            if m & k == m:
                break
        else:
            kept.append(m)
    return frozenset(kept)


def _core(maximal):
    """Strong-collapse core of the complex with the given maximal masks.

    A vertex v is dominated when some other vertex lies in every maximal
    face through v; deleting it is a strong collapse and keeps the homotopy
    type (Barmak-Minian, Strong homotopy types, nerves and collapses, 2012).
    Dominated vertices are deleted, and the vertices scanned again, until
    none is dominated."""
    rest = reduce(int.__or__, maximal)
    while rest:
        v = rest & -rest
        rest ^= v
        if reduce(int.__and__, [m for m in maximal if m & v]) != v:
            maximal = _maximal([m & ~v for m in maximal])
            rest = reduce(int.__or__, maximal)
    return maximal


def _mask_homology(maximal):
    """Reduced homology of the nonvoid complex with the given maximal face
    masks, for `_homology`.  The ranks into the empty face and into the
    vertices come from the 1-skeleton: 1 if there is a vertex, and the vertex
    count minus the components, merged from maximal masks that meet.  A graph
    (no maximal face of 3 vertices) is read off its maximal masks: vertices,
    edges and components, with no face enumerated.  Higher faces are
    submasks, sorted by `linalg.levels` and handed from the top faces down
    to the edges to `linalg.level_homology` (the linalg docstring has the
    sign rule and the clearing); the edges' homology there still lacks the
    rank into the vertices, which is subtracted here."""
    components = []
    for m in maximal:
        apart = []
        for c in components:
            if c & m:
                m |= c
            else:
                apart.append(c)
        apart.append(m)
        components = apart
    vertices = reduce(int.__or__, components).bit_count()
    rank1, rank2 = min(vertices, 1), vertices - len(components)
    top = max(map(int.bit_count, maximal))
    if top < 3:
        upper = [sum(m.bit_count() == 2 for m in maximal)]
    else:
        faces = set()
        for m in maximal:
            sub = m
            while sub:
                faces.add(sub)
                sub = (sub - 1) & m
        n = max(maximal).bit_length()
        upper = level_homology(n, levels(n, faces)[top:1:-1])[::-1]
    dims = [1 - rank1, vertices - rank1 - rank2, upper[0] - rank2, *upper[1:]]
    return {k - 1: h for k, h in enumerate(dims[:top + 1]) if h}


def _homology(maximal, memo):
    """Reduced homology of the complex with the given maximal masks: none
    for the void complex or a cone, else `_mask_homology` of the core (if a
    face has 3 or more vertices), run once per core in the caller's memo."""
    if not maximal or reduce(int.__and__, maximal):
        return {}
    if any(m.bit_count() > 2 for m in maximal):
        maximal = _core(maximal)
    if maximal not in memo:
        memo[maximal] = _mask_homology(maximal)
    return memo[maximal]


def reduced_homology(cx):
    """Nonzero reduced rational homology, {degree: dimension}.

    Uses the augmented chain complex, so the irrelevant complex has a
    single class in degree -1 and the void complex has none at all.  Runs
    `_homology` on the facets.
    """
    return _homology(frozenset(_mask(f) for f in cx.facets), {})


def hochster_betti(cx):
    """Graded Betti numbers of the face ring, by Hochster's formula.

    beta_{i,j} for i >= 1 sums dim of reduced homology in degree j-i-1 of
    the restrictions to the j-element vertex sets; beta_{0,0} = 1 whenever
    the face ring is nonzero.  Returns a quotient-convention table.  Vertex
    sets that are faces are skipped, since their restrictions are simplices.
    Each other restriction's homology comes from `_homology`, so cones have
    none and restrictions with the same strong-collapse core share one.
    """
    entries = {} if cx.is_void() else {(0, 0): 1}
    facet_masks = [_mask(f) for f in cx.facets]
    homology = {}
    for w in range(1, 1 << cx.n):
        cut = [fm & w for fm in facet_masks]
        if w in cut:
            continue
        j = w.bit_count()
        for deg, dim in _homology(_maximal(cut), homology).items():
            i = j - deg - 1
            if i >= 1:
                entries[(i, j)] = entries.get((i, j), 0) + dim
    return BettiTable("quotient", entries)


def _relabelled(maximal):
    """The maximal masks with their vertices renumbered from 1 in order, so
    that complexes alike up to the names of their vertices share one key."""
    support, bits = reduce(int.__or__, maximal), []
    while support:
        bits.append(support & -support)
        support &= support - 1
    return frozenset(sum(1 << i for i, b in enumerate(bits) if m & b)
                     for m in maximal)


def _skeleta_cm(cx):
    """Whether cx is sequentially Cohen-Macaulay, with no gin and no seed:
    Duval (Electron. J. Combin. 3, 1996), each pure skeleton is CM, and the
    ones spanned by the s-vertex faces for the facet sizes s suffice.

    The s-skeleton is the top-degree skeleton, of degree s - 1, of the
    complex of the facets of s or more vertices, and Reisner's criterion
    decides it: no link has reduced homology below its top degree.  Below
    that degree a skeleton has its complex's homology, so no s-subset is
    enumerated.  The link of a face is reached one vertex at a time: the
    top-degree skeleton of a complex is CM when the complex has no homology
    below the top degree and the link of each vertex passes one degree down.
    Links alike up to relabelling are checked once, simplices pass at once,
    and link homology comes from `_homology`, one per strong-collapse core.
    """
    passed, homology = set(), {}

    def passes(link, top):
        if top < 1 or len(link) == 1:
            return True
        link = _relabelled(link)
        if (link, top) in passed:
            return True
        if min(_homology(link, homology), default=top) < top:
            return False
        rest = reduce(int.__or__, link)
        while rest:
            v = rest & -rest
            rest ^= v
            if not passes(_maximal([m & ~v for m in link if m & v]), top - 1):
                return False
        passed.add((link, top))
        return True

    facets = [_mask(f) for f in cx.facets]
    return all(passes(frozenset(m for m in facets if m.bit_count() >= s), s - 1)
               for s in {m.bit_count() for m in facets})


def betti_numbers_of_ideal(cx):
    """Betti table of the Stanley-Reisner ideal (shift of the quotient table).

    The unit ideal (void complex) is free, table {(0,0): 1}; the zero ideal
    (full simplex) has an empty table.
    """
    if cx.is_void():
        return BettiTable("ideal", {(0, 0): 1})
    quotient = hochster_betti(cx)
    entries = {(i - 1, j): v for (i, j), v in quotient.entries.items() if i >= 1}
    return BettiTable("ideal", entries)


def sigma(mono):
    """Squarefree image of a monomial: the t-th smallest index moves up by t.

    x1^2*x3 has index word (1,1,3) and maps to x1*x2*x5.  Raises
    AmbientGrowthError when the largest shifted index would leave the
    ambient ring.
    """
    word = []
    for i in range(1, mono.n + 1):
        word.extend([i] * mono.exponent(i))
    shifted = [idx + t for t, idx in enumerate(word)]
    if shifted and shifted[-1] > mono.n:
        raise AmbientGrowthError(
            "shift needs variable x%d but ambient has %d"
            % (shifted[-1], mono.n))
    exps = [0] * mono.n
    for idx in shifted:
        exps[idx - 1] = 1
    return Monomial(tuple(exps))


def is_shifted(cx):
    """Whether exchanging any vertex of a face for a larger one stays a face.

    Equivalent ideal-side test, checked on the minimal nonfaces: replacing
    one variable of a generator by a smaller missing one lands in the
    ideal.  Returns (flag, witness), witness = (generator, i, j) on failure.
    """
    witness = _exchange_witness(stanley_reisner_ideal(cx), squarefree=True)
    return witness is None, witness


def shifted_ideal(ideal, seed):
    """Stanley-Reisner ideal of the algebraic shift: sigma of the gin.

    The zero ideal (full simplex) has no gin and is its own shift.  The
    output gets the exchange test of `is_shifted`; a failure would mean a
    bug and raises ShiftedViolationError.
    """
    if ideal.is_zero():
        return ideal
    out = MonomialIdeal(ideal.n, [sigma(u) for u in gin(ideal, seed).gens])
    witness = _exchange_witness(out, squarefree=True)
    if witness is not None:
        raise ShiftedViolationError(
            "shift produced a non-shifted ideal at %s, swap x%d <- x%d"
            % witness, witness)
    return out


def shifted_complex(cx, seed):
    """Algebraic shift: the complex of `shifted_ideal` of the face ideal."""
    return complex_of(shifted_ideal(stanley_reisner_ideal(cx), seed))


def local_cohomology_face_ring(cx, window=None):
    """Local cohomology Hilbert functions of a face ring, from dual Betti data.

    For e = -j <= 0 the dimension of H^i in degree e is

        sum_h c_h(j) * beta_{i-h, n-h}(dual ideal),

    where c_0(j) is 1 exactly at j = 0 and c_h(j) = C(j-1, h-1) counts the
    strictly negative exponent vectors of total degree -j on h fixed
    variables.  Degrees e > 0 carry nothing.  Each beta_{p,j} is the part
    (0, n - j, beta) of H^{p+n-j}, summed by `monomial._graded_sum`, which
    also attaches the tails, as on the Cech and filtration routes.  The
    inverse, `betti_from_cohomology`, reads the Betti numbers back off the
    degrees -n..0; `theorem41_check` runs it on its Cech tables.
    """
    return _face_ring_cohomology(alexander_dual(cx), window)


def _face_ring_cohomology(dual, window=None):
    """`local_cohomology_face_ring` of the complex whose Alexander dual is
    given, for callers that hold the dual already."""
    n = dual.n
    if window is None:
        window = default_cohomology_window(dual_ideal(dual))
    parts = {}
    for (p, j), b in betti_numbers_of_ideal(dual).entries.items():
        parts.setdefault(p + n - j, []).append((0, n - j, b))
    return CohomologyTable(window, {
        i: _graded_sum(window, part) for i, part in parts.items()})


def build_A_matrix(n):
    """(n+1) x (n+1) matrix of the face-ring formula, A[j][h] = c_h(j).

    c_0(j) is 1 exactly at j = 0 and c_h(j) = C(j-1, h-1) counts the
    compositions of j into h positive parts, so A is unit lower triangular
    over the integers.
    """
    return [[comb(j - 1, h - 1) if 0 < h <= j else int(h == j)
             for h in range(n + 1)] for j in range(n + 1)]


def betti_from_cohomology(h_matrix, n, raw=False):
    """The Betti table of the dual ideal behind a face ring's cohomology.

    Input is the (n+1) x (n+1) matrix with H[i][j] = dim H^i in degree -j.
    The face-ring formula reads H^T = A * B with A = `build_A_matrix(n)`
    and B[h][i] = beta_{i-h, n-h}(dual ideal), and A is unit lower
    triangular, so forward substitution solves it in integers.  With
    ``raw`` the solved B is returned as is.  Otherwise B must be
    nonnegative and vanish below the diagonal (i < h), or the table is
    inconsistent, and the ideal-convention table is returned.
    """
    if len(h_matrix) != n + 1 or any(len(r) != n + 1 for r in h_matrix):
        raise InconsistencyError("cohomology matrix must be (n+1) x (n+1)")
    a = build_A_matrix(n)
    b = []
    for j in range(n + 1):
        b.append([h_matrix[i][j] - sum(a[j][h] * b[h][i] for h in range(j))
                  for i in range(n + 1)])
    if raw:
        return b
    entries = {}
    for h, row in enumerate(b):
        for i, v in enumerate(row):
            if v < 0 or (v and i < h):
                raise InconsistencyError(
                    "recovered beta_{%d,%d} = %d is not a Betti number"
                    % (i - h, n - h, v))
            if v:
                entries[(i - h, n - h)] = v
    return BettiTable("ideal", entries)
