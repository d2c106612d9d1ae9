"""Deciders built on the two local cohomology routes and on shifting.

Cohomology tables are compared exactly, not on a sample of degrees.  Both
routes make each H^i exact on its window and attach polynomial tails once the
window reaches past the last degree where the function is irregular.  The
deciders compute both tables on the widened hull of the caller's window and
the derived one, which always reaches that far, and CohomologyTable.
same_function compares window values and tails, which settles every degree.
A caller's window can therefore widen what is compared and reported, but
never narrows it and never changes a verdict.
"""

from .errors import CapacityError, InconsistencyError, UndefinedInputError
from .groebner import gin
from .monomial import (
    MonomialIdeal,
    default_cohomology_window,
    local_cohomology_strongly_stable,
)
from .oracles import _check_cech_work, cech_local_cohomology
from .simplicial import (
    alexander_dual,
    betti_numbers_of_ideal,
    complex_of,
    dual_ideal,
    shifted_ideal,
)


# Most degrees a window may span: a --window, or the hull a comparison
# takes of it and the derived window.  Wider ones are refused before any work.
MAX_WINDOW_WIDTH = 10000


def widen_window(window, n):
    return (window[0] - (n + 2), window[1] + 2)


def _merge_windows(a, b):
    return (min(a[0], b[0]), max(a[1], b[1]))


def _compared_window(window, derived, n):
    """Widened hull of the caller's window and the derived one."""
    lo, hi = _merge_windows(window, derived)
    if hi - lo + 1 > MAX_WINDOW_WIDTH:
        raise CapacityError("compared window width", MAX_WINDOW_WIDTH, hi - lo + 1)
    return widen_window((lo, hi), n)


class ComparisonReport:
    """Outcome of comparing two cohomology tables over a window."""

    def __init__(self, left_label, right_label, window, wide_window,
                 verdict, diff, left, right, seed=None, notes=()):
        self.left_label = left_label
        self.right_label = right_label
        self.window = window
        self.wide_window = wide_window
        self.verdict = verdict
        self.diff = list(diff)
        self.left = left
        self.right = right
        self.seed = seed
        self.notes = list(notes)

    def to_json(self):
        return {
            "left": self.left_label,
            "right": self.right_label,
            "window": list(self.window),
            "wide_window": None if self.wide_window is None else list(self.wide_window),
            "verdict": self.verdict,
            "diff": [list(entry) for entry in self.diff],
            "tables": {
                "left": None if self.left is None else self.left.to_json(),
                "right": None if self.right is None else self.right.to_json(),
            },
            "seed": self.seed,
            "notes": self.notes,
        }


class BettiComparison:
    """Betti tables of an ideal and of its shifted companion, side by side."""

    def __init__(self, left_label, right_label, left, right):
        self.left_label = left_label
        self.right_label = right_label
        self.left = left
        self.right = right
        self.equal = left.same_entries(right)
        self.first_difference = None if self.equal else left.first_difference(right)

    def to_json(self):
        return {
            "left": self.left_label,
            "right": self.right_label,
            "equal": self.equal,
            "first_difference": (None if self.first_difference is None
                                 else list(self.first_difference)),
            "tables": {"left": self.left.to_json(), "right": self.right.to_json()},
        }


class SeqCMVerdict:
    """Boolean verdict plus the evidence that produced it."""

    def __init__(self, value, route, seed, details):
        self.value = bool(value)
        self.route = route
        self.seed = seed
        self.details = details

    def to_json(self):
        details = self.details
        if hasattr(details, "to_json"):
            details = details.to_json()
        return {"value": self.value, "route": self.route,
                "seed": self.seed, "details": details}


def is_componentwise_linear(ideal, seed):
    """Whether a squarefree monomial ideal is componentwise linear.

    Decided by shifting: the ideal qualifies exactly when its graded Betti
    numbers survive the passage to its shifted ideal unchanged.  The ideal
    is shifted directly, and each side's complex is built once, for
    Hochster's formula.  The zero and unit ideals qualify trivially.
    """
    return _componentwise_linear(ideal, complex_of(ideal), seed)


def _componentwise_linear(ideal, cx, seed):
    """`is_componentwise_linear` of an ideal whose complex cx is built."""
    shifted = complex_of(shifted_ideal(ideal, seed))
    comparison = BettiComparison(
        "ideal", "shifted ideal",
        betti_numbers_of_ideal(cx), betti_numbers_of_ideal(shifted))
    return SeqCMVerdict(comparison.equal, "betti-vs-shifted", seed, comparison)


def is_sequentially_cm(cx, seed):
    """Whether the face ring of the complex is sequentially Cohen-Macaulay.

    Decided through the Alexander dual: the complex qualifies exactly when
    the Stanley-Reisner ideal of its dual, read off the facets by
    `dual_ideal`, is componentwise linear.
    """
    return _sequentially_cm(cx, alexander_dual(cx), seed)


def _sequentially_cm(cx, dual, seed):
    """`is_sequentially_cm` of cx with its Alexander dual built."""
    inner = _componentwise_linear(dual_ideal(cx), dual, seed)
    return SeqCMVerdict(inner.value, "dual-componentwise-linear",
                        seed, inner.details)


def main_theorem_check(ideal, seed, window=None):
    """Compare local cohomology of R/I with that of R/gin(I).

    The gin side always runs (dimension filtration of the strongly stable
    gin).  The R/I side runs through the Cech complex and therefore needs
    a monomial ideal; otherwise it is skipped and the verdict says so.
    Whenever both sides run, the degreewise inequality left <= right is
    asserted; a violation cannot come from the mathematics and raises
    InconsistencyError.
    """
    if isinstance(ideal, MonomialIdeal):
        monomial = ideal
    else:
        monomial = ideal.as_monomial_ideal() if ideal.is_monomial() else None
    n = ideal.n
    if monomial is not None:
        if monomial.is_unit():
            raise UndefinedInputError("main theorem check on the zero ring")
        _check_cech_work(monomial)  # before gin, which may take long
    if ideal.is_zero():
        gin_ideal = MonomialIdeal.zero(n)  # gin of 0 is 0
    else:
        gin_ideal = gin(ideal, seed)
    derived = default_cohomology_window(gin_ideal)
    if monomial is not None:
        derived = _merge_windows(derived, default_cohomology_window(monomial))
    if window is None:
        window = derived

    if monomial is None:
        table = local_cohomology_strongly_stable(gin_ideal, window)
        return ComparisonReport(
            "cech R/I", "filtration R/gin(I)", window, None,
            "left-skipped", (), None, table, seed,
            ["input is not a monomial ideal; only the gin side was computed"])

    wide = _compared_window(window, derived, n)
    left = cech_local_cohomology(monomial, wide)
    right = local_cohomology_strongly_stable(gin_ideal, wide)
    equal = left.same_function(right)
    diff = left.diff(right, wide)
    if any(a > b for _, _, a, b in diff):
        raise InconsistencyError(
            "cohomology of R/I exceeds that of R/gin(I) somewhere on %r" % (wide,))
    return ComparisonReport(
        "cech R/I", "filtration R/gin(I)", window, wide,
        "equal" if equal else "unequal", diff, left, right, seed)


def theorem41_check(cx, seed, window=None):
    """Compare face-ring local cohomology before and after shifting.

    Computes both tables with the Cech route, the shifted side on
    `shifted_ideal` of the face ideal, and cross-checks the verdict against
    the sequential Cohen-Macaulay decider; the two must agree, and a
    mismatch raises InconsistencyError.
    """
    dual = alexander_dual(cx)
    ideal = dual_ideal(dual)
    _check_cech_work(ideal)  # before gin, which may take long
    shifted = shifted_ideal(ideal, seed)
    n = cx.n
    derived = _merge_windows(default_cohomology_window(ideal),
                             default_cohomology_window(shifted))
    if window is None:
        window = derived
    wide = _compared_window(window, derived, n)
    left = cech_local_cohomology(ideal, wide)
    right = cech_local_cohomology(shifted, wide)
    equal = left.same_function(right)
    verdict = _sequentially_cm(cx, dual, seed)
    if equal != verdict.value:
        raise InconsistencyError(
            "cohomology comparison says %s but the shifting decider says %s"
            % ("equal" if equal else "unequal", verdict.value))
    report = ComparisonReport(
        "cech face ring", "cech shifted face ring", window, wide,
        "equal" if equal else "unequal",
        left.diff(right, wide), left, right, seed,
        ["verdict concords with the sequential Cohen-Macaulay decider"])
    return report, verdict
