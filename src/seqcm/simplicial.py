"""Simplicial complexes and their squarefree monomial dictionary.

A complex on vertices 1..n is stored by its facets (maximal faces).  Two
degenerate complexes are kept distinct: the void complex has no faces at
all (its Stanley-Reisner ideal is the unit ideal, the face ring is the
zero ring), while the irrelevant complex has the empty face as its only
face (ideal (x1,...,xn), face ring K).

Betti numbers of face rings come from Hochster's formula; local cohomology
of a face ring can be read off the Betti numbers of the Alexander dual
ideal degree by degree.
"""

from fractions import Fraction
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
from .groebner import PolynomialIdeal, gin
from .linalg import invert, rank
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


class SimplicialComplex:
    """Finite simplicial complex on the vertex set 1..n, stored by facets."""

    __slots__ = ("n", "facets")

    def __init__(self, n, facets):
        _check_n(int(n))
        object.__setattr__(self, "n", int(n))
        cleaned = sorted(set(_as_face(f, n) for f in facets),
                         key=lambda f: (len(f), f))
        maximal = [f for f in cleaned
                   if not any(set(f) < set(g) for g in cleaned)]
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


def stanley_reisner_ideal(cx):
    """Squarefree monomial ideal of minimal nonfaces.

    Void complex -> unit ideal, full simplex -> zero ideal.
    """
    n = cx.n
    facet_masks = [sum(1 << (v - 1) for v in f) for f in cx.facets]
    gens = []
    gen_masks = []
    for mask in range(1 << n):
        if any(mask & ~fm == 0 for fm in facet_masks):
            continue  # face
        if any(mask & gm == gm for gm in gen_masks):
            continue  # larger than a known nonface, not minimal
        gen_masks.append(mask)
        gens.append(Monomial(tuple(mask >> i & 1 for i in range(n))))
    return MonomialIdeal(n, gens)


def complex_of(ideal):
    """Simplicial complex whose Stanley-Reisner ideal is the given one.

    Faces are the supports of squarefree monomials outside the ideal.
    """
    if not ideal.is_squarefree():
        bad = next(g for g in ideal.gens if not g.is_squarefree())
        raise NotSquarefreeError("generator %s is not squarefree" % bad)
    n = ideal.n
    _check_n(n)
    gen_masks = [sum(1 << (i - 1) for i in g.support()) for g in ideal.gens]
    faces = []
    for mask in range(1 << n):
        if any(mask & gm == gm for gm in gen_masks):
            continue
        faces.append([i + 1 for i in range(n) if mask >> i & 1])
    return SimplicialComplex(n, faces)


def alexander_dual(cx):
    """Complex of complements of nonfaces; an involution on complexes.

    The facets of the dual are the complements of the minimal nonfaces, so
    the dual of the full simplex is void and the dual of void is full.
    """
    ideal = stanley_reisner_ideal(cx)
    allv = set(range(1, cx.n + 1))
    facets = [tuple(sorted(allv - set(g.support()))) for g in ideal.gens]
    return SimplicialComplex(cx.n, facets)


def reduced_homology(cx):
    """Nonzero reduced rational homology, {degree: dimension}.

    Uses the augmented chain complex, so the irrelevant complex has a
    single class in degree -1 and the void complex has none at all.
    """
    if cx.is_void():
        return {}
    if cx.facets[0] and set.intersection(*(set(f) for f in cx.facets)):
        return {}  # a cone is contractible
    by_card = {}
    for f in cx.faces():
        by_card.setdefault(len(f), []).append(f)
    top = max(by_card)
    ranks = {}
    for k in range(1, top + 1):
        lower = {f: i for i, f in enumerate(by_card.get(k - 1, ()))}
        rows = []
        for f in by_card.get(k, ()):
            row = [0] * len(lower)
            for pos in range(len(f)):
                sub = f[:pos] + f[pos + 1:]
                row[lower[sub]] = -1 if pos % 2 else 1
            rows.append(row)
        ranks[k] = rank(rows) if rows and lower else 0
    out = {}
    for k in range(top + 1):
        nk = len(by_card.get(k, ()))
        h = nk - ranks.get(k, 0) - ranks.get(k + 1, 0)
        if h:
            out[k - 1] = h
    return out


def hochster_betti(cx):
    """Graded Betti numbers of the face ring, by Hochster's formula.

    beta_{i,j} for i >= 1 sums dim of reduced homology in degree j-i-1 of
    the restrictions to the j-element vertex sets; beta_{0,0} = 1 whenever
    the face ring is nonzero.  Returns a quotient-convention table.
    """
    n = cx.n
    _check_n(n)
    entries = {}
    if not cx.is_void():
        entries[(0, 0)] = 1
    facet_masks = [sum(1 << (v - 1) for v in f) for f in cx.facets]
    homology = {}
    for mask in range(1, 1 << n):
        rest = [fm & mask for fm in facet_masks]
        key = tuple(sorted(set(rest)))
        if key not in homology:
            verts = [i + 1 for i in range(n) if mask >> i & 1]
            homology[key] = reduced_homology(cx.restriction(verts))
        hom = homology[key]
        j = bin(mask).count("1")
        for deg, dim in hom.items():
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


def is_shifted(cx):
    """Whether exchanging any vertex of a face for a larger one stays a face.

    Equivalent ideal-side test, checked on the minimal nonfaces: replacing
    one variable of a generator by a smaller missing one lands in the
    ideal.  Returns (flag, witness), witness = (generator, i, j) on failure.
    """
    ideal = stanley_reisner_ideal(cx)
    for u in ideal.gens:
        for i in u.support():
            for j in range(1, i):
                if u.exponent(j):
                    continue
                moved = Monomial(tuple(
                    e + (1 if k == j - 1 else 0) - (1 if k == i - 1 else 0)
                    for k, e in enumerate(u.exponents)))
                if not ideal.contains(moved):
                    return False, (u, i, j)
    return True, None


def shifted_complex(cx, seed):
    """Algebraic shift: complex of the squarefree image of the gin.

    The full simplex is returned as is (its ideal is zero, which has no
    gin); every other complex goes through a generic initial ideal and the
    index-raising squarefree operator.  The output is checked to be
    shifted; a failure would mean a bug and raises ShiftedViolationError.
    """
    ideal = stanley_reisner_ideal(cx)
    if ideal.is_zero():
        return cx
    g = gin(PolynomialIdeal.from_monomial_ideal(ideal), seed)
    shifted_ideal = MonomialIdeal(cx.n, [sigma(u) for u in g.gens])
    out = complex_of(shifted_ideal)
    ok, witness = is_shifted(out)
    if not ok:
        raise ShiftedViolationError(
            "shift produced a non-shifted complex at %s, swap x%d <- x%d"
            % (witness[0], witness[1], witness[2]))
    return out


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
    n = cx.n
    ideal = stanley_reisner_ideal(cx)
    if window is None:
        window = default_cohomology_window(ideal)
    lo, hi = window
    dual_betti = betti_numbers_of_ideal(alexander_dual(cx))
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


def local_cohomology_face_ring_printed(cx, window=None):
    """Variant with the binomial-weighted coefficients and quotient Betti data.

    Kept verbatim for comparison: dim H^i at -j is read as

        sum_h C(n,h) * C(h+j-1, j) * beta_{i-h+1, n-h}(face ring of dual),

    with C(-1, 0) taken to be 1.  It disagrees with the checked route on
    some complexes (the irrelevant complex already shows a spurious class),
    so nothing downstream consumes it.
    """
    n = cx.n
    ideal = stanley_reisner_ideal(cx)
    if window is None:
        window = default_cohomology_window(ideal)
    lo, hi = window
    dual_quotient = hochster_betti(alexander_dual(cx))
    funcs = {}
    for i in range(n + 1):
        values = {}
        for e in range(lo, hi + 1):
            if e > 0:
                continue
            j = -e
            total = 0
            for h in range(n + 1):
                if h == 0 and j == 0:
                    weight = 1  # C(-1, 0) read as 1
                else:
                    weight = comb(h + j - 1, j)
                total += comb(n, h) * weight * _betti_lookup(
                    dual_quotient, i - h + 1, n - h)
            if total:
                values[e] = Fraction(total)
        if values:
            funcs[i] = HilbertFunction((lo, hi), values)
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


def cohomology_matrix_printed(cx):
    """(n+1) x (n+1) matrix H[i][j] = printed-formula dim of H^i in degree -j."""
    n = cx.n
    table = local_cohomology_face_ring_printed(cx, window=(-n, 0))
    rows = []
    for i in range(n + 1):
        f = table.functions.get(i)
        rows.append([int(f.values.get(-j, 0)) if f else 0
                     for j in range(n + 1)])
    return rows
