"""Exact linear algebra over the rationals.

Everything here is deterministic and exact.  Ranks come from fraction-free
elimination on sparse integer rows, {column: int} dicts with no zero entry
that the elimination consumes: each row is reduced against the stored pivot
row of its lowest column, and the pivot columns are returned; every caller
builds its rows fresh, in integers.  No floating point anywhere; rank
decisions are never numerical.

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

from math import gcd


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
