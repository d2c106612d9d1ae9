"""Exact linear algebra over the rationals.

Everything here is deterministic and exact: ranks and determinants go through
integer fraction-free elimination (rows are cleared of denominators first,
which changes neither), inverses through Gauss-Jordan on Fractions.  No
floating point anywhere; rank decisions are never numerical.
"""

from fractions import Fraction
from math import gcd, lcm


def _int_rows(matrix):
    """Int or Fraction rows, each scaled by the lcm of its denominators, and
    the product of those multipliers (rank is unchanged, det divides by it)."""
    out, scale = [], 1
    for row in matrix:
        mult = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (mult // x.denominator) for x in row])
        scale *= mult
    return out, scale


def rank(matrix):
    """Exact rank of a rectangular matrix with int or Fraction entries."""
    m, _ = _int_rows(matrix)
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][col]
        for i in range(r + 1, nrows):
            a = m[i][col]
            if not a:
                continue
            row = [m[i][j] * p - m[r][j] * a for j in range(ncols)]
            g = 0
            for x in row:
                g = gcd(g, x)
            if g > 1:
                row = [x // g for x in row]
            m[i] = row
        r += 1
        if r == nrows:
            break
    return r


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
