"""Error hierarchy.

Every raisable condition carries a stable machine-readable ``code`` so that
callers can dispatch without string-matching human prose, and the
``exit_status`` the command line front end returns for it, which the CLI
only reads: 2 for a usage error, 3 for a capacity or certification limit,
4 (the default) for an internal cross-check failure.  The payload attributes
are documented per class.
"""


class SeqcmError(Exception):
    """Base class; ``code`` is stable across releases."""

    code = "internal-error"
    exit_status = 4


class AmbientMismatchError(SeqcmError):
    """Operands live in polynomial rings with different variable counts."""

    code = "ambient-mismatch"
    exit_status = 2


class UndefinedInputError(SeqcmError):
    """Operation applied to an input it is not defined for (e.g. m_of(1))."""

    code = "undefined-input"
    exit_status = 2


class NotHomogeneousError(SeqcmError):
    code = "not-homogeneous"
    exit_status = 2


class ParseError(SeqcmError):
    """Text input rejected; cites the 1-based line and column when the input
    has them.  ``message`` is the text without the position, so a caller can
    add context (a file, a generator) and raise it again."""

    code = "parse-error"
    exit_status = 2

    def __init__(self, message, line=None, column=None):
        super().__init__(message if line is None else
                         "line %d, column %d: %s" % (line, column, message))
        self.message = message
        self.line = line
        self.column = column


class CapacityError(SeqcmError):
    """A configured size cap was exceeded; deliberate, never silent."""

    code = "capacity"
    exit_status = 3

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
    exit_status = 3


class CertificationError(SeqcmError):
    """A two-seed cross-check failed after the retry budget."""

    code = "certification-failure"
    exit_status = 3


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
    exit_status = 2


class StrongStabilityViolationError(_WitnessedError):
    """A computed generic initial ideal is not strongly stable (bug flag)."""

    code = "strong-stability-violation"


class NotSquarefreeError(SeqcmError):
    code = "not-squarefree"
    exit_status = 2


class AmbientGrowthError(SeqcmError):
    """A shifted generator needs a variable index beyond the ambient ring."""

    code = "ambient-growth"
    exit_status = 2


class ShiftedViolationError(_WitnessedError):
    """Shifted-complex output fails the squarefree exchange test (bug flag)."""

    code = "shifted-violation"


class BoundTooSmallError(SeqcmError):
    """A swept degree bound ended before the stabilization check passed."""

    code = "bound-too-small"
    exit_status = 2


class InconsistencyError(SeqcmError):
    """Two routes that must agree did not; always a bug, never a verdict."""

    code = "inconsistency"
