"""Shared numeric tables: Hilbert functions, Betti tables, cohomology tables.

A HilbertFunction is exact data on a finite degree window plus, optionally, a
polynomial tail descriptor on each side that extends it beyond the window.
Windowed checks (equal_on, leq_on, diff) read degrees one at a time;
CohomologyTable.same_function decides "equal in every degree" exactly from
the same finite data: equal window values and equal tails on both sides.

BettiTable rows are homological degrees i, columns are internal degrees j.
The ``module`` tag records whether the numbers refer to a quotient ring or to
an ideal viewed as a module; the two conventions differ by a shift and by the
beta_{0,0} entry, and mixing them silently is the classic error this tag
exists to prevent.
"""

from fractions import Fraction
from math import lcm

from .errors import InconsistencyError
from .rings import _Value, _fraction_str


def _eval_poly(coeffs, d):
    """The Fraction coefficients' polynomial at d, summed in integers over
    the lcm of their denominators."""
    den = lcm(*(c.denominator for c in coeffs))
    total = 0
    for c in reversed(coeffs):
        total = total * d + c.numerator * (den // c.denominator)
    return Fraction(total, den)


def _fractions(tail):
    """A tail as a tuple of Fractions; Fraction coefficients are kept."""
    if tail is None:
        return None
    return tuple(c if type(c) is Fraction else Fraction(c) for c in tail)


def _same_polynomial(p, q):
    pad = max(len(p), len(q))
    return p + (0,) * (pad - len(p)) == q + (0,) * (pad - len(q))


class HilbertFunction(_Value):
    """Degree -> nonnegative dimension on [lo, hi], zeros omitted."""

    __slots__ = ("window", "values", "tails")

    def __init__(self, window, values, tails=(None, None)):
        lo, hi = int(window[0]), int(window[1])
        if lo > hi:
            raise ValueError("empty window %r" % (window,))
        vals = {}
        items = values.items() if isinstance(values, dict) else values
        for d, v in items:
            d, v = int(d), int(v)
            if v < 0:
                raise ValueError("negative dimension %d at degree %d" % (v, d))
            if not lo <= d <= hi:
                raise ValueError("degree %d outside window [%d, %d]" % (d, lo, hi))
            if v:
                vals[d] = v
        left, right = tails
        left, right = _fractions(left), _fractions(right)
        object.__setattr__(self, "window", (lo, hi))
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "tails", (left, right))
        # A tail must reproduce the outermost window values on its side.
        if left is not None:
            for d in (lo, min(lo + 1, hi)):
                if _eval_poly(left, d) != vals.get(d, 0):
                    raise InconsistencyError(
                        "left tail gives %s at degree %d, window says %d"
                        % (_eval_poly(left, d), d, vals.get(d, 0)))
        if right is not None:
            for d in (max(hi - 1, lo), hi):
                if _eval_poly(right, d) != vals.get(d, 0):
                    raise InconsistencyError(
                        "right tail gives %s at degree %d, window says %d"
                        % (_eval_poly(right, d), d, vals.get(d, 0)))

    def value(self, d):
        """Exact value at d; uses a tail beyond the window when present."""
        lo, hi = self.window
        if lo <= d <= hi:
            return self.values.get(d, 0)
        tail = self.tails[0] if d < lo else self.tails[1]
        if tail is None:
            raise KeyError("degree %d outside window [%d, %d] and no tail" % (d, lo, hi))
        v = _eval_poly(tail, d)
        if v.denominator != 1 or v < 0:
            raise InconsistencyError("tail value %s at degree %d is not a dimension" % (v, d))
        return int(v)

    def equal_on(self, other, window):
        lo, hi = window
        return all(self.value(d) == other.value(d) for d in range(lo, hi + 1))

    def leq_on(self, other, window):
        lo, hi = window
        return all(self.value(d) <= other.value(d) for d in range(lo, hi + 1))

    def __eq__(self, other):
        return (isinstance(other, HilbertFunction)
                and self.window == other.window
                and self.values == other.values
                and self.tails == other.tails)

    def __repr__(self):
        return "HilbertFunction(%r, %r)" % (self.window, self.values)

    def to_json(self):
        left, right = self.tails
        return {
            "window": list(self.window),
            "values": [[d, self.values[d]] for d in sorted(self.values)],
            "tails": {
                "left": None if left is None else [_fraction_str(c) for c in left],
                "right": None if right is None else [_fraction_str(c) for c in right],
            },
        }


class BettiTable(_Value):
    """Graded Betti numbers beta_{i,j}; ``module`` is "quotient" or "ideal"."""

    __slots__ = ("module", "entries")

    def __init__(self, module, entries):
        if module not in ("quotient", "ideal"):
            raise ValueError("module tag must be 'quotient' or 'ideal'")
        clean = {}
        items = entries.items() if isinstance(entries, dict) else entries
        for key, v in items:
            i, j = int(key[0]), int(key[1])
            v = int(v)
            if v < 0:
                raise ValueError("negative Betti number at (%d, %d)" % (i, j))
            if v:
                clean[(i, j)] = v
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "entries", clean)

    def value(self, i, j):
        return self.entries.get((i, j), 0)

    def max_i(self):
        return max((i for i, _ in self.entries), default=-1)

    def max_j(self):
        return max((j for _, j in self.entries), default=-1)

    def projective_dimension(self):
        """Largest i with a nonzero row; -1 for the zero module."""
        return self.max_i()

    def entrywise_leq(self, other):
        keys = set(self.entries) | set(other.entries)
        return all(self.value(i, j) <= other.value(i, j) for i, j in keys)

    def first_difference(self, other):
        """Smallest (i, j) where the tables differ, or None."""
        keys = sorted(set(self.entries) | set(other.entries))
        for i, j in keys:
            if self.value(i, j) != other.value(i, j):
                return (i, j)
        return None

    def __eq__(self, other):
        return (isinstance(other, BettiTable)
                and self.module == other.module
                and self.entries == other.entries)

    def __repr__(self):
        return "BettiTable(%r, %r)" % (self.module, self.entries)

    def to_json(self):
        return {
            "module": self.module,
            "entries": [[i, j, v] for (i, j), v in sorted(self.entries.items())],
        }

    def to_tsv(self):
        """Rows are i, columns are j, tab-separated with a header row."""
        mi = max(self.max_i(), 0)
        mj = max(self.max_j(), 0)
        lines = ["i\\j\t" + "\t".join(str(j) for j in range(mj + 1))]
        for i in range(mi + 1):
            lines.append(
                str(i) + "\t" + "\t".join(str(self.value(i, j)) for j in range(mj + 1))
            )
        return "\n".join(lines) + "\n"


class CohomologyTable(_Value):
    """Hilbert functions of the local cohomology modules H^i, i = 0..n."""

    __slots__ = ("window", "functions")

    def __init__(self, window, functions):
        lo, hi = int(window[0]), int(window[1])
        funcs = {}
        for i, hf in functions.items():
            i = int(i)
            if i < 0:
                raise ValueError("negative cohomological index %d" % i)
            if hf.window != (lo, hi):
                raise ValueError("H^%d window %r does not match table window %r"
                                 % (i, hf.window, (lo, hi)))
            if hf.values or hf.tails != (None, None):
                funcs[i] = hf
        object.__setattr__(self, "window", (lo, hi))
        object.__setattr__(self, "functions", funcs)

    def value(self, i, d):
        hf = self.functions.get(i)
        if hf is None:
            lo, hi = self.window
            if not lo <= d <= hi:
                raise KeyError("degree %d outside window" % d)
            return 0
        return hf.value(d)

    def indices(self):
        """Indices i with a nonzero H^i somewhere on the window."""
        return sorted(i for i, hf in self.functions.items() if hf.values)

    def same_function(self, other):
        """Whether every H^i agrees with the other table's in every degree.

        Equal window values and equal left and right tails settle all
        degrees; a missing index is the zero function, with tails ((), ()).
        A function without a tail means the window never reached the
        polynomial range, which the deciders rule out: InconsistencyError.
        """
        if self.window != other.window:
            raise ValueError("windows %r and %r differ" % (self.window, other.window))
        for table in (self, other):
            for i, hf in table.functions.items():
                if None in hf.tails:
                    raise InconsistencyError(
                        "H^%d has no tail on window %r" % (i, self.window))
        zero = HilbertFunction(self.window, {}, ((), ()))
        for i in set(self.functions) | set(other.functions):
            a, b = self.functions.get(i, zero), other.functions.get(i, zero)
            if a.values != b.values or not all(map(_same_polynomial, a.tails, b.tails)):
                return False
        return True

    def equal_on(self, other, window=None):
        return not self.diff(other, window)

    def leq_on(self, other, window=None):
        return all(a <= b for _, _, a, b in self.diff(other, window))

    def diff(self, other, window=None):
        """[(i, d, self value, other value)] where the tables differ."""
        lo, hi = window or self._shared_window(other)
        top = max([0] + list(self.functions) + list(other.functions))
        out = []
        for i in range(top + 1):
            for d in range(lo, hi + 1):
                a, b = self.value(i, d), other.value(i, d)
                if a != b:
                    out.append((i, d, a, b))
        return out

    def _shared_window(self, other):
        lo = max(self.window[0], other.window[0])
        hi = min(self.window[1], other.window[1])
        if lo > hi:
            raise ValueError("windows %r and %r do not overlap"
                             % (self.window, other.window))
        return (lo, hi)

    def __eq__(self, other):
        return (isinstance(other, CohomologyTable)
                and self.window == other.window
                and self.functions == other.functions)

    def __repr__(self):
        return "CohomologyTable(%r, %r)" % (self.window, self.functions)

    def to_json(self):
        return {
            "window": list(self.window),
            "h": {
                str(i): [[d, hf.values[d]] for d in sorted(hf.values)]
                for i, hf in sorted(self.functions.items())
            },
            "tails": {
                str(i): hf.to_json()["tails"]
                for i, hf in sorted(self.functions.items())
            },
        }

    def to_tsv(self):
        lo, hi = self.window
        idx = self.indices() or [0]
        lines = ["i\\deg\t" + "\t".join(str(d) for d in range(lo, hi + 1))]
        for i in idx:
            lines.append(
                str(i) + "\t" + "\t".join(str(self.value(i, d)) for d in range(lo, hi + 1))
            )
        return "\n".join(lines) + "\n"
