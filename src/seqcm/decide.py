"""Deciders built on the two local cohomology routes and on shifting.

Both theorem checks take one comparison path, `_compare`: the main theorem
compares R/I with R/gin(I), its squarefree analogue (Theorem 4.1) the face
ring K[D] with K[D^s] of the shifted complex.  Either way the left side is
bounded by the right in every degree, with equality everywhere exactly when
the ring is sequentially Cohen-Macaulay, so `_compare` raises
InconsistencyError wherever the left exceeds the right.  For R/I the bound
is Sbarra's.  For the face ring it follows from three facts: the face-ring
formula writes dim H^i(K[D])_{-j} as a nonnegative combination of the graded
Betti numbers of I_{D^v}, the ideal of the Alexander dual; shifting only
raises those numbers (Aramova-Herzog-Hibi, Math. Z. 1998); and
(D^v)^s = (D^s)^v.

One gin serves each complex.  D is sequentially CM exactly when the Betti
numbers of I_{D^v} equal those of the ideal of (D^v)^s (Herzog-Hibi,
Aramova-Herzog-Hibi), and (D^v)^s = (D^s)^v is read off the generators of
the shifted face ideal that the Cech side of Theorem 4.1 computes anyway.
A gin of I_{D^v}, whose generators are the facets' complements and of high
degree, repeats that work and is taken only when cheaper.  The verdict
stays independently checked by a route with no gin, `_skeleta_cm`.
Theorem 4.1's check also compares tables, not only verdicts: the inverse
of the face-ring formula, `simplicial.betti_from_cohomology`, recovers the
Betti tables of I_{D^v} and I_{(D^s)^v} from the two Cech tables, and each
must equal the one the decider computed.

Tables are compared exactly, not on a sample of degrees.  Both routes make
each H^i exact on its window and attach polynomial tails once the window
reaches past the last degree where the function is irregular.  Both tables
are computed on the widened hull of the caller's window and the derived one,
which always reaches that far, and CohomologyTable.same_function compares
window values and tails, which settles every degree.  A caller's window can
therefore widen what is compared, but never narrows it or changes a verdict.
"""

from .errors import CapacityError, InconsistencyError, UndefinedInputError
from .groebner import gin, gin_terms
from .monomial import (
    MonomialIdeal,
    default_cohomology_window,
    local_cohomology_strongly_stable,
)
from .oracles import _check_cech_work, cech_local_cohomology
from .simplicial import (
    _dual_complex,
    _skeleta_cm,
    alexander_dual,
    betti_from_cohomology,
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


def checked_window(lo, hi, what):
    """(lo, hi), refused as the capacity `what` before any work if it spans
    more than MAX_WINDOW_WIDTH degrees."""
    if hi - lo + 1 > MAX_WINDOW_WIDTH:
        raise CapacityError(what, MAX_WINDOW_WIDTH, hi - lo + 1)
    return lo, hi


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
        self.equal = left == right
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
        return {"value": self.value, "route": self.route,
                "seed": self.seed, "details": self.details.to_json()}


def is_componentwise_linear(ideal, seed):
    """Whether a squarefree monomial ideal is componentwise linear.

    Decided by shifting: the ideal qualifies exactly when its graded Betti
    numbers survive the passage to its shifted ideal unchanged.  The ideal
    is shifted directly, and each side's complex is built once, for
    Hochster's formula.  The zero and unit ideals qualify trivially.
    """
    return _betti_verdict(complex_of(ideal),
                          complex_of(shifted_ideal(ideal, seed)), seed,
                          "betti-vs-shifted")


def is_sequentially_cm(cx, seed):
    """Whether the face ring of the complex is sequentially Cohen-Macaulay.

    Decided through the Alexander dual: the complex qualifies exactly when
    the Betti numbers of I_{D^v} equal those of the ideal of
    (D^v)^s = (D^s)^v.  Of the face ideal I_D, whose shift's dual is read
    off its generators, and I_{D^v}, shifted directly, the one whose
    generators gin's coordinate change gives fewer terms (`gin_terms`) is
    shifted, so a refusal names the smaller count.  The gin-free skeleta
    route must concur (see the module docstring).
    """
    dual = alexander_dual(cx)
    face, cofacets = dual_ideal(dual), dual_ideal(cx)
    if gin_terms(face) <= gin_terms(cofacets):
        shifted_dual = _dual_complex(shifted_ideal(face, seed))
    else:
        shifted_dual = complex_of(shifted_ideal(cofacets, seed))
    return _sequentially_cm(cx, dual, shifted_dual, seed)


def _betti_verdict(cx, shifted, seed, route):
    """Whether the Betti numbers of the face ideals of cx and of shifted,
    its shift's complex, agree, as a verdict of the given route."""
    comparison = BettiComparison(
        "ideal", "shifted ideal",
        betti_numbers_of_ideal(cx), betti_numbers_of_ideal(shifted))
    return SeqCMVerdict(comparison.equal, route, seed, comparison)


def _sequentially_cm(cx, dual, shifted_dual, seed):
    """The Betti verdict on dual = D^v and shifted_dual = (D^s)^v, checked
    against the gin-free skeleta route on cx = D."""
    verdict = _betti_verdict(dual, shifted_dual, seed,
                             "dual-componentwise-linear")
    if verdict.value != _skeleta_cm(cx):
        raise InconsistencyError(
            "the shifting decider says %s but the skeleta route says %s"
            % (verdict.value, not verdict.value))
    return verdict


def _compare(labels, left_ideal, right_route, right_ideal, window, seed,
             notes=()):
    """The Cech table of R/left_ideal against right_route's of R/right_ideal.

    Both are computed on the widened hull, held to MAX_WINDOW_WIDTH, of
    window and the derived window, the hull of both ideals' default ones,
    which stands in for a window of None.  A degree where the left exceeds
    the right breaks both theorems' bound and raises InconsistencyError.
    """
    (lo1, hi1), (lo2, hi2) = map(default_cohomology_window,
                                 (left_ideal, right_ideal))
    window = window or (min(lo1, lo2), max(hi1, hi2))
    wide = widen_window(checked_window(
        min(window[0], lo1, lo2), max(window[1], hi1, hi2),
        "compared window width"), left_ideal.n)
    left = cech_local_cohomology(left_ideal, wide)
    right = right_route(right_ideal, wide)
    diff = left.diff(right, wide)
    if any(a > b for _, _, a, b in diff):
        raise InconsistencyError("cohomology of %s exceeds that of %s "
                                 "somewhere on %r" % (labels + (wide,)))
    return ComparisonReport(
        labels[0], labels[1], window, wide,
        "equal" if left.same_function(right) else "unequal",
        diff, left, right, seed, notes)


def main_theorem_check(ideal, seed, window=None):
    """Compare local cohomology of R/I with that of R/gin(I).

    The gin side always runs (dimension filtration of the strongly stable
    gin).  The R/I side runs through the Cech complex and therefore needs
    a monomial ideal; otherwise it is skipped and the verdict says so.
    Whenever both sides run, `_compare` asserts the degreewise inequality
    left <= right (Sbarra); a violation raises InconsistencyError.
    """
    if isinstance(ideal, MonomialIdeal):
        monomial = ideal
    else:
        monomial = ideal.as_monomial_ideal() if ideal.is_monomial() else None
    if monomial is not None:
        if monomial.is_unit():
            raise UndefinedInputError("main theorem check on the zero ring")
        _check_cech_work(monomial, "Cech")  # before gin, which may take long
    if ideal.is_zero():
        gin_ideal = MonomialIdeal.zero(ideal.n)  # gin of 0 is 0
    else:
        gin_ideal = gin(ideal, seed)
    if monomial is not None:
        return _compare(("cech R/I", "filtration R/gin(I)"), monomial,
                        local_cohomology_strongly_stable, gin_ideal, window, seed)
    window = window or default_cohomology_window(gin_ideal)
    return ComparisonReport(
        "cech R/I", "filtration R/gin(I)", window, None, "left-skipped", (),
        None, local_cohomology_strongly_stable(gin_ideal, window), seed,
        ["input is not a monomial ideal; only the gin side was computed"])


def theorem41_check(cx, seed, window=None):
    """Compare face-ring local cohomology before and after shifting.

    Computes both tables with the Cech route, the shifted side on
    `shifted_ideal` of the face ideal, through `_compare`, which asserts
    dim H^i(K[cx])_j <= dim H^i(K[cx^s])_j in every degree.  The verdict
    is then cross-checked against the sequential Cohen-Macaulay decider on
    the dual of the same shift, and that against the skeleta route: the
    three must agree.  Last, `betti_from_cohomology` recovers the dual
    Betti table from each Cech table, read on degrees -n..0, and each must
    equal the Betti table the decider computed on that side.  A mismatch
    anywhere raises InconsistencyError.
    """
    dual = alexander_dual(cx)
    ideal = dual_ideal(dual)
    _check_cech_work(ideal, "Cech")  # before gin, which may take long
    shifted = shifted_ideal(ideal, seed)
    report = _compare(
        ("cech face ring", "cech shifted face ring"), ideal,
        cech_local_cohomology, shifted, window, seed,
        ["verdict concords with the sequential Cohen-Macaulay decider"])
    verdict = _sequentially_cm(cx, dual, _dual_complex(shifted), seed)
    if (report.verdict == "equal") != verdict.value:
        raise InconsistencyError(
            "cohomology comparison says %s but the shifting decider says %s"
            % (report.verdict, verdict.value))
    n = cx.n
    for side, table, betti in (("left", report.left, verdict.details.left),
                               ("right", report.right, verdict.details.right)):
        recovered = betti_from_cohomology(
            [[table.value(i, -j) for j in range(n + 1)] for i in range(n + 1)],
            n)
        if recovered != betti:
            raise InconsistencyError(
                "the %s Cech table gives the dual Betti table %s but the "
                "shifting decider has %s" % (side, recovered.entries,
                                             betti.entries))
    return report, verdict
