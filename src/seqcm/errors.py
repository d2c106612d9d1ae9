"""Error hierarchy.

Every raisable condition carries a stable machine-readable ``code`` so that
callers (and the command line front end) can dispatch without string-matching
human prose.  Exit-status policy lives in the CLI, not here; the only contract
at this level is the code string and the payload attributes documented per
class.
"""


class SeqcmError(Exception):
    """Base class; ``code`` is stable across releases."""

    code = "internal-error"


class AmbientMismatchError(SeqcmError):
    """Operands live in polynomial rings with different variable counts."""

    code = "ambient-mismatch"


class UndefinedInputError(SeqcmError):
    """Operation applied to an input it is not defined for (e.g. m_of(1))."""

    code = "undefined-input"


class NotHomogeneousError(SeqcmError):
    code = "not-homogeneous"


class ParseError(SeqcmError):
    """Text input rejected; cites the 1-based line and column when the input
    has them.  ``message`` is the text without the position, so a caller can
    add context (a file, a generator) and raise it again."""

    code = "parse-error"

    def __init__(self, message, line=None, column=None):
        super().__init__(message if line is None else
                         "line %d, column %d: %s" % (line, column, message))
        self.message = message
        self.line = line
        self.column = column


class CapacityError(SeqcmError):
    """A configured size cap was exceeded; deliberate, never silent."""

    code = "capacity"

    def __init__(self, what, limit, requested):
        super().__init__(
            "%s exceeds cap: requested %s, limit %s" % (what, requested, limit)
        )
        self.what = what
        self.limit = limit
        self.requested = requested


class GenericityError(SeqcmError):
    """Random coordinate changes kept disagreeing within the retry budget."""

    code = "genericity-failure"


class CertificationError(SeqcmError):
    """A two-seed cross-check failed after the retry budget."""

    code = "certification-failure"


class _WitnessedError(SeqcmError):
    """An error that carries the failing exchange as ``witness``."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotStronglyStableError(_WitnessedError):
    """Input ideal fails the strong-stability exchange test.

    ``witness`` is (generator, i, j) with x_j * u / x_i outside the ideal.
    """

    code = "not-strongly-stable"


class StrongStabilityViolationError(_WitnessedError):
    """A computed generic initial ideal is not strongly stable (bug flag)."""

    code = "strong-stability-violation"


class NotSquarefreeError(SeqcmError):
    code = "not-squarefree"


class AmbientGrowthError(SeqcmError):
    """A shifted generator needs a variable index beyond the ambient ring."""

    code = "ambient-growth"


class ShiftedViolationError(_WitnessedError):
    """Shifted-complex output fails the squarefree exchange test (bug flag)."""

    code = "shifted-violation"


class BoundTooSmallError(SeqcmError):
    """A swept degree bound ended before the stabilization check passed."""

    code = "bound-too-small"


class InconsistencyError(SeqcmError):
    """Two routes that must agree did not; always a bug, never a verdict."""

    code = "inconsistency"
