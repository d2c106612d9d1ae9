"""Simplicial complexes and their squarefree monomial dictionary.

A complex on vertices 1..n is stored by its facets (maximal faces).  Two
degenerate complexes are kept distinct: the void complex has no faces at
all (its Stanley-Reisner ideal is the unit ideal, the face ring is the
zero ring), while the irrelevant complex has the empty face as its only
face (ideal (x1,...,xn), face ring K).

The Stanley-Reisner transfer has one subset enumeration, `complex_of`:
`dual_ideal` reads the ideal of the Alexander dual off the facets, and the
dual and the Stanley-Reisner ideal are built from it.  Shifting acts on
ideals, where gin works, and `shifted_complex` is the complex of the result.

Betti numbers of face rings come from Hochster's formula; local cohomology
of a face ring can be read off the Betti numbers of the Alexander dual
ideal degree by degree.
"""

from fractions import Fraction
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
from .linalg import invert, pivots
from .monomial import (
    MonomialIdeal,
    _binomial_in_minus_d,
    default_cohomology_window,
)
from .rings import Monomial
from .tables import BettiTable, CohomologyTable, HilbertFunction

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


class SimplicialComplex:
    """Finite simplicial complex on the vertex set 1..n, stored by facets."""

    __slots__ = ("n", "facets")

    def __init__(self, n, facets):
        _check_n(int(n))
        object.__setattr__(self, "n", int(n))
        cleaned = sorted(set(_as_face(f, n) for f in facets),
                         key=lambda f: (len(f), f))
        sets = [frozenset(f) for f in cleaned]
        maximal = [f for f, s in zip(cleaned, sets)
                   if not any(s < t for t in sets)]
        object.__setattr__(self, "facets", tuple(maximal))

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

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

    def has_face(self, vertices):
        face = _as_face(vertices, self.n)
        fs = set(face)
        return any(fs <= set(g) for g in self.facets)

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

    def restriction(self, vertices):
        """Subcomplex of faces contained in the given vertex set, same ambient."""
        w = set(_as_face(vertices, self.n))
        return SimplicialComplex(
            self.n, [tuple(v for v in f if v in w) for f in self.facets])

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
    """The maximal ones among vertex masks, as a frozenset."""
    masks = set(masks)
    return frozenset(m for m in masks
                     if all(m & k != m or m == k for k in masks))


def _mask_homology(maximal):
    """Reduced homology of the complex with the given maximal face masks;
    none if they share a vertex (a cone).  The ranks into the empty face and
    into the vertices come from the 1-skeleton: 1 if there is a vertex, and
    the vertex count minus the components, merged from maximal masks that
    meet.  Higher faces are submasks, with boundary rows as dicts over the
    indices of the faces one smaller; the maps run from the top down, and a
    face that is a pivot of the map above is cleared (see linalg)."""
    if not maximal or reduce(int.__and__, maximal):
        return {}
    faces, components = {0}, []
    for m in maximal:
        sub = m
        while sub:
            faces.add(sub)
            sub = (sub - 1) & m
        met = [c for c in components if c & m]
        components = [c for c in components if not c & m]
        components.append(reduce(int.__or__, met, m))
    by_card = {}
    for f in faces:
        by_card.setdefault(f.bit_count(), []).append(f)
    top = max(by_card)
    vertices = len(by_card.get(1, ()))
    ranks = {1: min(vertices, 1), 2: vertices - len(components)}
    cleared = ()
    for k in range(top, 2, -1):
        lower = {f: i for i, f in enumerate(by_card[k - 1])}
        rows = []
        for i, f in enumerate(by_card[k]):
            if i in cleared:
                continue
            row, sign, rest = {}, 1, f
            while rest:
                bit = rest & -rest
                row[lower[f ^ bit]] = sign
                sign, rest = -sign, rest ^ bit
            rows.append(row)
        cleared = pivots(rows)
        ranks[k] = len(cleared)
    out = {}
    for k in range(top + 1):
        h = len(by_card[k]) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        if h:
            out[k - 1] = h
    return out


def reduced_homology(cx):
    """Nonzero reduced rational homology, {degree: dimension}.

    Uses the augmented chain complex, so the irrelevant complex has a
    single class in degree -1 and the void complex has none at all.  Runs
    the vertex-mask kernel of hochster_betti on the facets.
    """
    return _mask_homology(frozenset(_mask(f) for f in cx.facets))


def hochster_betti(cx):
    """Graded Betti numbers of the face ring, by Hochster's formula.

    beta_{i,j} for i >= 1 sums dim of reduced homology in degree j-i-1 of
    the restrictions to the j-element vertex sets; beta_{0,0} = 1 whenever
    the face ring is nonzero.  Returns a quotient-convention table.  Vertex
    sets that are faces are skipped, since their restrictions are simplices,
    and the others whose restrictions have the same maximal faces share one
    homology.
    """
    n = cx.n
    _check_n(n)
    entries = {} if cx.is_void() else {(0, 0): 1}
    facet_masks = [_mask(f) for f in cx.facets]
    homology = {}
    for w in range(1, 1 << n):
        cut = [fm & w for fm in facet_masks]
        if w in cut:
            continue
        key = _maximal(cut)
        if key not in homology:
            homology[key] = _mask_homology(key)
        j = w.bit_count()
        for deg, dim in homology[key].items():
            i = j - deg - 1
            if i >= 1:
                entries[(i, j)] = entries.get((i, j), 0) + dim
    return BettiTable("quotient", entries)


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


def _exchange_witness(ideal):
    """(generator, i, j) when replacing the variable x_i of a generator by a
    smaller missing x_j leaves the squarefree ideal, else None."""
    var = [Monomial.variable(i, ideal.n) for i in range(1, ideal.n + 1)]
    for u in ideal.gens:
        for i in u.support():
            for j in range(1, i):
                if not u.exponent(j) and not ideal.contains(
                        u / var[i - 1] * var[j - 1]):
                    return u, i, j
    return None


def is_shifted(cx):
    """Whether exchanging any vertex of a face for a larger one stays a face.

    Equivalent ideal-side test, checked on the minimal nonfaces: replacing
    one variable of a generator by a smaller missing one lands in the
    ideal.  Returns (flag, witness), witness = (generator, i, j) on failure.
    """
    witness = _exchange_witness(stanley_reisner_ideal(cx))
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
    witness = _exchange_witness(out)
    if witness is not None:
        raise ShiftedViolationError(
            "shift produced a non-shifted ideal at %s, swap x%d <- x%d"
            % witness, witness)
    return out


def shifted_complex(cx, seed):
    """Algebraic shift: the complex of `shifted_ideal` of the face ideal."""
    return complex_of(shifted_ideal(stanley_reisner_ideal(cx), seed))


def _betti_lookup(table, i, j):
    return table.entries.get((i, j), 0)


def local_cohomology_face_ring(cx, window=None):
    """Local cohomology Hilbert functions of a face ring, from dual Betti data.

    For e = -j <= 0 the dimension of H^i in degree e is

        sum_h c_h(j) * beta_{i-h, n-h}(dual ideal),

    where c_0(j) is 1 exactly at j = 0 and c_h(j) = C(j-1, h-1) counts the
    strictly negative exponent vectors of total degree -j on h fixed
    variables.  Degrees e > 0 carry nothing.  Left tails are polynomial for
    e <= -1 and attached whenever the window reaches -2.
    """
    return _face_ring_cohomology(alexander_dual(cx), window)


def _face_ring_cohomology(dual, window=None):
    """`local_cohomology_face_ring` of the complex whose Alexander dual is
    given, for callers that hold the dual already."""
    n = dual.n
    if window is None:
        window = default_cohomology_window(dual_ideal(dual))
    lo, hi = window
    dual_betti = betti_numbers_of_ideal(dual)
    funcs = {}
    for i in range(n + 1):
        values = {}
        for e in range(lo, min(hi, 0) + 1):
            j = -e
            if j == 0:
                total = _betti_lookup(dual_betti, i, n)
            else:
                total = sum(comb(j - 1, h - 1) * _betti_lookup(dual_betti, i - h, n - h)
                            for h in range(1, n + 1))
            if total:
                values[e] = total
        left = None
        if lo + 1 <= -1:
            poly = [Fraction(0)] * max(n, 1)
            for h in range(1, n + 1):
                b = _betti_lookup(dual_betti, i - h, n - h)
                if b:
                    for k, coef in enumerate(_binomial_in_minus_d(0, h - 1)):
                        poly[k] += b * coef
            while poly and not poly[-1]:
                poly.pop()
            left = tuple(poly)
        right = () if hi - 1 >= 1 else None
        if values or left:
            funcs[i] = HilbertFunction((lo, hi), values, (left, right))
    return CohomologyTable((lo, hi), funcs)


def build_A_matrix(n):
    """(n+1) x (n+1) matrix of weak composition counts, A[j][h] = C(h+j-1, j).

    Row j, column h counts the ways to write j as an ordered sum of h
    nonnegative parts; the j >= 1 entries of column 0 vanish.
    """
    rows = []
    for j in range(n + 1):
        row = []
        for h in range(n + 1):
            if h == 0:
                row.append(Fraction(1 if j == 0 else 0))
            else:
                row.append(Fraction(comb(h + j - 1, j)))
        rows.append(row)
    return rows


def betti_from_cohomology(h_matrix, n, raw=False):
    """Invert the printed cohomology formula back to a quotient Betti table.

    Input is the (n+1) x (n+1) matrix with H[i][j] = dim H^i in degree -j.
    Solving A * M = H^T gives M[h][i] = C(n,h) * beta_{i-h+1, n-h}; entries
    must come out nonnegative integers or the table is inconsistent.  With
    ``raw`` the solved matrix M is returned as is, before any extraction.
    """
    if len(h_matrix) != n + 1 or any(len(r) != n + 1 for r in h_matrix):
        raise InconsistencyError("cohomology matrix must be (n+1) x (n+1)")
    a = build_A_matrix(n)
    a_inv = invert(a)
    h_t = [[Fraction(h_matrix[i][j]) for i in range(n + 1)]
           for j in range(n + 1)]
    b = [[sum(a_inv[r][k] * h_t[k][c] for k in range(n + 1))
          for c in range(n + 1)] for r in range(n + 1)]
    if raw:
        return b
    entries = {}
    for i in range(n + 1):
        for j in range(n + 1):
            denom = comb(n, n - j)
            row, col = n - j, i + n - j - 1
            if col < 0 or col > n:
                continue
            val = b[row][col] / denom
            if val.denominator != 1 or val < 0:
                raise InconsistencyError(
                    "recovered beta_{%d,%d} = %s is not a nonnegative integer"
                    % (i, j, val))
            if val:
                entries[(i, j)] = int(val)
    return BettiTable("quotient", entries)
