"""Exact linear algebra over the rationals.

Everything here is deterministic and exact.  Ranks come from fraction-free
elimination on sparse integer rows, {column: int} dicts with no zero entry
that the elimination consumes: each row is reduced against the stored pivot
row of its lowest column, and the pivot columns are returned; every caller
builds its rows fresh, in integers.  Determinants go through Bareiss
elimination on integer rows, inverses through Gauss-Jordan on Fractions.
No floating point anywhere; rank decisions are never numerical.

Chain complexes use the pivots for clearing (Chen-Kerber's twist).  With
rows indexed by the basis of C_k, a pivot sigma of d_(k+1) is the lowest
column of a reduced row r in im d_(k+1); d_k(r) = 0 makes row sigma of d_k
a combination of the rows after it, so by downward induction the rows that
are not pivots of d_(k+1) have the rank of d_k.  The rows left out are ones
that would reduce to zero.  Cochain maps clear d^i by the pivots of d^(i-1).

The complexes on vertex masks (Hochster's restrictions, the Koszul
multidegrees and the Cech patterns) share three functions: `levels` sorts a
basis of masks into levels of equal size, `level_homology` reads each
level's homology off them, and `level_ranks`, the kernel under it, ranks
the maps.  A mask f maps to the masks f ^ v of the next level with the sign
(-1)^(vertices of f below v): one rule for both directions, the boundary
downwards and its transpose upwards.  So the order of the levels sets each
map's orientation and its clearing order.  Hochster and Koszul pass their
levels from the top down, Cech from the bottom up: both orders give the
same ranks, and each site keeps the one that does less elimination on its
own complexes.
"""

from fractions import Fraction
from math import gcd, lcm


def _int_rows(matrix):
    """Int or Fraction rows, each scaled by the lcm of its denominators, and
    the product of those multipliers (det divides by it)."""
    out, scale = [], 1
    for row in matrix:
        mult = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (mult // x.denominator) for x in row])
        scale *= mult
    return out, scale


def pivots(rows):
    """The pivot columns of a matrix whose rows are {column: int} dicts with
    no zero entry: the lowest columns of its rows after reduction, one per
    unit of rank.  The rows are consumed.  A +-1 pivot takes a plain
    subtract-multiple step, any other a cross-multiply step and a gcd
    division."""
    pivot_rows = {}
    for row in rows:
        while row:
            col = min(row)
            piv = pivot_rows.get(col)
            if piv is None:
                pivot_rows[col] = row
                break
            a, p = row[col], piv[col]
            cross = p not in (1, -1)
            if cross:
                row = {c: x * p for c, x in row.items()}
            else:
                a *= p
            for c, x in piv.items():
                v = row.get(c, 0) - a * x
                if v:
                    row[c] = v
                else:
                    del row[c]
            if cross and row:
                g = gcd(*row.values())
                if g > 1:
                    row = {c: x // g for c, x in row.items()}
    return set(pivot_rows)


def levels(n, masks):
    """The masks on n vertices sorted by size into {mask: index} dicts, one
    per size 0..n, each indexing its masks in the given order."""
    out = [{} for _ in range(n + 1)]
    for mask in masks:
        level = out[mask.bit_count()]
        level[mask] = len(level)
    return out


def level_homology(n, levels):
    """Each level's size minus the ranks of the maps into it and out of it
    (`level_ranks`): the homology of the complex the levels span."""
    ranks = level_ranks(n, levels)
    return [len(level) - into - out
            for level, into, out in zip(levels, [0, *ranks], [*ranks, 0])]


def level_ranks(n, levels):
    """The ranks of the maps from each level to the next, with clearing.

    levels[t] is a {mask: index} dict of equal-size masks on n vertices,
    and the masks of levels[t + 1] are one vertex larger or one vertex
    smaller.  A map with an empty side has rank 0 and clears nothing."""
    ranks, cleared = [], ()
    for level, after in zip(levels, levels[1:]):
        if not level or not after:
            ranks.append(0)
            cleared = ()
            continue
        # the sign turns at each vertex of f passed; downwards only those
        # are tried, upwards all (those of f then find nothing)
        up = next(iter(after)).bit_count() > next(iter(level)).bit_count()
        spread = (1 << n) - 1 if up else 0
        rows = []
        for f, idx in level.items():
            if idx in cleared:
                continue
            row, sign, rest = {}, 1, f | spread
            while rest:
                v = rest & -rest
                rest ^= v
                col = after.get(f ^ v)
                if col is not None:
                    row[col] = sign
                if f & v:
                    sign = -sign
            rows.append(row)
        cleared = pivots(rows)
        ranks.append(len(cleared))
    return ranks


def det(matrix):
    """Exact determinant (Fraction) via Bareiss elimination."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    m, scale = _int_rows(matrix)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = None
            for i in range(k + 1, n):
                if m[i][k]:
                    piv = i
                    break
            if piv is None:
                return Fraction(0)
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss: the division by the previous pivot is exact.
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return Fraction(sign * m[n - 1][n - 1], scale)


def invert(matrix):
    """Exact inverse of a square Fraction matrix (Gauss-Jordan).

    Raises ValueError on a singular input; callers that want a typed error
    should check det first or wrap.
    """
    n = len(matrix)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    for col in range(n):
        piv = None
        for i in range(col, n):
            if aug[i][col]:
                piv = i
                break
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for i in range(n):
            if i == col or not aug[i][col]:
                continue
            a = aug[i][col]
            aug[i] = [x - a * y for x, y in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def matmul(a, b):
    """Matrix product with Fraction entries."""
    if not a:
        return []
    inner = len(b)
    ncols = len(b[0]) if b else 0
    return [
        [
            sum((Fraction(row[k]) * b[k][j] for k in range(inner)), Fraction(0))
            for j in range(ncols)
        ]
        for row in a
    ]
