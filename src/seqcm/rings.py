"""Monomials, polynomials, and unipotent coordinate changes over Q.

The ambient ring is always Q[x1, ..., xn] with the degree reverse
lexicographic order induced by x1 > x2 > ... > xn; no other order and no
other coefficient field exist in this artifact.  Exponent vectors are dense
tuples, which is the right trade-off for the supported range n <= 16.

Canonical text form: terms in decreasing order, coefficients as integers or
``p/q``, e.g. ``3/2*x1^2*x3 - x2``.  The parser accepts exactly the same
grammar (plus surrounding whitespace) and reports line/column on rejection.

The coordinate changes of gin and saturation are lower unitriangular
integer matrices, kept as lists of int rows: ``random_unipotent`` draws one
from a seed and ``unipotent_inverse`` inverts it over the integers.  They
are substituted into the Groebner engine's packed dicts by
``groebner._substitute``.

>>> f = parse_polynomial("3/2*x1^2*x3 - x2", 3)
>>> str(f)
'3/2*x1^2*x3 - x2'
>>> str(f * f)
'9/4*x1^4*x3^2 - 3*x1^2*x2*x3 + x2^2'
"""

from fractions import Fraction
import random

from .errors import AmbientMismatchError, ParseError

MAX_VARIABLES = 16

# Entry range below the diagonal of random unipotent coordinate changes.
RANDOM_ENTRY_BOUND = 10**4

# Longest integer the parser reads: int()'s default limit on a string
# since 3.11, held on every supported Python.
MAX_DIGITS = 4300


def _check_ambient(n):
    if not 1 <= n <= MAX_VARIABLES:
        raise AmbientMismatchError(
            "ambient variable count %r outside 1..%d" % (n, MAX_VARIABLES)
        )


class _Value:
    """Base of the immutable value types: assigning or deleting an
    attribute raises; constructors set their slots by object.__setattr__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)


class Monomial(_Value):
    """An exponent vector; the ambient size is len(exponents)."""

    __slots__ = ("exponents", "degree")

    def __init__(self, exponents):
        exponents = tuple(int(e) for e in exponents)
        if any(e < 0 for e in exponents):
            raise ValueError("negative exponent in %r" % (exponents,))
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "degree", sum(exponents))

    @classmethod
    def one(cls, n):
        return cls((0,) * n)

    @classmethod
    def variable(cls, i, n):
        """x_i in Q[x1..xn]; i is 1-based."""
        if not 1 <= i <= n:
            raise ValueError("variable index %d outside 1..%d" % (i, n))
        return cls(tuple(int(j == i - 1) for j in range(n)))

    @property
    def n(self):
        return len(self.exponents)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exponents == other.exponents

    def __hash__(self):
        return hash(self.exponents)

    def __mul__(self, other):
        _same_ambient(self, other)
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def divides(self, other):
        _same_ambient(self, other)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __truediv__(self, other):
        """Exact quotient; raises if other does not divide self."""
        if not other.divides(self):
            raise ValueError("%s does not divide %s" % (other, self))
        return Monomial(tuple(a - b for a, b in zip(self.exponents, other.exponents)))

    def exponent(self, i):
        """Exponent of x_i, 1-based."""
        return self.exponents[i - 1]

    def support(self):
        """1-based indices of variables dividing the monomial."""
        return tuple(i + 1 for i, e in enumerate(self.exponents) if e)

    @property
    def max_var(self):
        """Largest 1-based index with positive exponent; 0 for the unit."""
        for i in range(len(self.exponents) - 1, -1, -1):
            if self.exponents[i]:
                return i + 1
        return 0

    def is_squarefree(self):
        return all(e <= 1 for e in self.exponents)

    def __str__(self):
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append("x%d" % (i + 1))
            elif e > 1:
                parts.append("x%d^%d" % (i + 1, e))
        return "*".join(parts) if parts else "1"

    def __repr__(self):
        return "Monomial(%r)" % (self.exponents,)


def _same_ambient(a, b):
    if len(a.exponents) != len(b.exponents):
        raise AmbientMismatchError(
            "ambient mismatch: %d vs %d variables" % (len(a.exponents), len(b.exponents))
        )


def degrevlex_key(monomial):
    """Sort key realizing degrevlex with x1 > x2 > ... > xn.

    Compare total degree first; ties break so that u > v exactly when the
    last nonzero entry of exp(u) - exp(v) is negative.

    >>> a, b = Monomial((0, 2, 0)), Monomial((1, 0, 1))
    >>> degrevlex_key(a) > degrevlex_key(b)   # x2^2 > x1*x3
    True
    """
    return (monomial.degree, tuple(-e for e in reversed(monomial.exponents)))


class Polynomial(_Value):
    """Map monomial -> nonzero Fraction; the zero polynomial has no terms."""

    __slots__ = ("n", "_coeffs")

    def __init__(self, n, coeffs=()):
        _check_ambient(n)
        clean = {}
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        for mono, c in items:
            if mono.n != n:
                raise AmbientMismatchError(
                    "monomial in %d variables inside a %d-variable polynomial"
                    % (mono.n, n)
                )
            c = Fraction(c)
            if c:
                c0 = clean.get(mono)
                c = c if c0 is None else c0 + c
                if c:
                    clean[mono] = c
                elif mono in clean:
                    del clean[mono]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_coeffs", clean)

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def from_monomial(cls, mono, coeff=1):
        return cls(mono.n, [(mono, Fraction(coeff))])

    def is_zero(self):
        return not self._coeffs

    def __bool__(self):
        return bool(self._coeffs)

    def terms(self):
        """(monomial, coefficient) pairs in decreasing degrevlex order."""
        return sorted(self._coeffs.items(), key=lambda t: degrevlex_key(t[0]),
                      reverse=True)

    def __len__(self):
        return len(self._coeffs)

    def leading_monomial(self):
        if not self._coeffs:
            return None
        return max(self._coeffs, key=degrevlex_key)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self._coeffs:
            return -1
        return max(m.degree for m in self._coeffs)

    def is_homogeneous(self):
        degs = {m.degree for m in self._coeffs}
        return len(degs) <= 1

    def is_monomial(self):
        return len(self._coeffs) == 1

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.n == other.n
            and self._coeffs == other._coeffs
        )

    def __hash__(self):
        return hash((self.n, frozenset(self._coeffs.items())))

    def __add__(self, other):
        self._check(other)
        out = dict(self._coeffs)
        for m, c in other._coeffs.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        return Polynomial(self.n, out)

    def __neg__(self):
        return Polynomial(self.n, {m: -c for m, c in self._coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        out = {}
        for m1, c1 in self._coeffs.items():
            for m2, c2 in other._coeffs.items():
                m = m1 * m2
                s = out.get(m, Fraction(0)) + c1 * c2
                if s:
                    out[m] = s
                elif m in out:
                    del out[m]
        return Polynomial(self.n, out)

    __rmul__ = __mul__

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return Polynomial.zero(self.n)
        return Polynomial(self.n, {m: c * v for m, v in self._coeffs.items()})

    def _check(self, other):
        if not isinstance(other, Polynomial):
            raise TypeError("expected Polynomial, got %r" % (other,))
        if self.n != other.n:
            raise AmbientMismatchError(
                "ambient mismatch: %d vs %d variables" % (self.n, other.n)
            )

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for i, (mono, c) in enumerate(self.terms()):
            neg = c < 0
            mag = -c if neg else c
            if mono.degree == 0:
                body = _fraction_str(mag)
            elif mag == 1:
                body = str(mono)
            else:
                body = "%s*%s" % (_fraction_str(mag), mono)
            if i == 0:
                parts.append("-" + body if neg else body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "Polynomial(%d, %s)" % (self.n, str(self))


def _fraction_str(c):
    return str(c.numerator) if c.denominator == 1 else "%d/%d" % (c.numerator, c.denominator)


# ---------------------------------------------------------------------------
# Parsing.  Grammar (whitespace-insensitive between tokens):
#   poly   := ['-'] term (('+'|'-') term)*
#   term   := coef ('*' factor)* | factor ('*' factor)*
#   coef   := int ['/' int]
#   factor := 'x' int ['^' int]
#   int    := one to MAX_DIGITS of the ASCII digits 0-9

class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _line_col(self, pos):
        line = self.text.count("\n", 0, pos) + 1
        nl = self.text.rfind("\n", 0, pos)
        return line, pos - nl if nl >= 0 else pos + 1

    def error(self, message, pos=None):
        line, col = self._line_col(self.pos if pos is None else pos)
        raise ParseError(message, line, col)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def integer(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        if self.pos - start > MAX_DIGITS:
            self.error("integer of more than %d digits" % MAX_DIGITS, start)
        return int(self.text[start:self.pos])


def parse_polynomial(text, n):
    """Parse the canonical text form in Q[x1..xn].

    >>> parse_polynomial("x1*x2 + x2^2", 2).degree()
    2
    >>> parse_polynomial("0", 2).is_zero()
    True
    """
    _check_ambient(n)
    tok = _Tokenizer(text)
    terms = []
    first = True
    while True:
        tok.skip_ws()
        if tok.pos >= len(tok.text):
            if first:
                tok.error("empty polynomial")
            break
        if first:
            sign = -1 if tok.take("-") else 1
            first = False
        else:
            if tok.take("+"):
                sign = 1
            elif tok.take("-"):
                sign = -1
            else:
                tok.error("expected '+' or '-' between terms")
        terms.append(_parse_term(tok, n, sign))
    return Polynomial(n, terms)


def _parse_term(tok, n, sign):
    """(Monomial, coefficient) of the next term."""
    coeff = Fraction(sign)
    exps = [0] * n
    saw_factor = False
    ch = tok.peek()
    if "0" <= ch <= "9":
        num = tok.integer()
        if tok.take("/"):
            den_pos = tok.pos
            den = tok.integer()
            if den == 0:
                tok.error("zero denominator", den_pos)
            coeff *= Fraction(num, den)
        else:
            coeff *= num
        saw_factor = True
        if not tok.take("*"):
            return Monomial.one(n), coeff
    while True:
        ch = tok.peek()
        if ch != "x":
            tok.error("expected a variable like x2" if saw_factor or ch else
                      "expected a coefficient or variable")
        at = tok.pos
        tok.pos += 1
        idx = tok.integer()
        if not 1 <= idx <= n:
            tok.error("variable x%d outside ambient Q[x1..x%d]" % (idx, n), at)
        e = 1
        if tok.take("^"):
            e = tok.integer()
        exps[idx - 1] += e
        saw_factor = True
        if not tok.take("*"):
            break
    return Monomial(exps), coeff


# ---------------------------------------------------------------------------
# Coordinate changes: lists of int rows, row i the image of x_i as
# x_i -> sum_j rows[i][j] x_j.

def random_unipotent(n, seed):
    """Rows of a lower unitriangular integer matrix,
    x_i -> x_i + sum_{j<i} a_ij x_j with a_ij uniform in [-10^4, 10^4]:
    determinant 1, integral inverse.

    >>> random_unipotent(2, 0)[0]
    [1, 0]
    """
    rng = random.Random(seed)
    return [[rng.randint(-RANDOM_ENTRY_BOUND, RANDOM_ENTRY_BOUND) if j < i
             else int(i == j) for j in range(n)]
            for i in range(n)]


def unipotent_inverse(rows):
    """The inverse of lower unitriangular integer rows, by forward
    substitution: row i is e_i - sum_{k<i} rows[i][k] * inverse row k.

    >>> unipotent_inverse([[1, 0, 0], [2, 1, 0], [3, 4, 1]])
    [[1, 0, 0], [-2, 1, 0], [5, -4, 1]]
    """
    n = len(rows)
    inverse = []
    for i, row in enumerate(rows):
        out = [int(i == j) for j in range(n)]
        for k in range(i):
            if row[k]:
                for j in range(k + 1):
                    out[j] -= row[k] * inverse[k][j]
        inverse.append(out)
    return inverse
