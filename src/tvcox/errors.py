"""Exception hierarchy.

Every error carries a short machine-parsable ``code`` so the command line
interface can emit a single ``ERROR <CODE>: <message>`` line and exit 1.
"""


class TvcoxError(Exception):
    """Base class for all errors raised by this package."""

    code = "ERROR"


class SchemaError(TvcoxError):
    """A required column is missing or the header is malformed."""

    code = "SCHEMA"


class ParseError(TvcoxError):
    """A cell could not be parsed; the message cites row and column."""

    code = "PARSE"


class DomainError(TvcoxError):
    """A parsed value is outside its allowed domain (status, times, ...)."""

    code = "DOMAIN"


class DegenerateCovariateError(TvcoxError):
    """A covariate column has zero variance and cannot be standardized."""

    code = "DEGENERATE_COVARIATE"


class InvalidSpecError(TvcoxError):
    """Invalid basis specification, e.g. K < degree + 1."""

    code = "INVALID_SPEC"


class KnotCollisionError(TvcoxError):
    """Too few distinct event times to place strictly increasing knots."""

    code = "KNOT_COLLISION"


class NumericOverflowError(TvcoxError):
    """A linear predictor or likelihood term became non-finite."""

    code = "OVERFLOW"


class ConditioningError(TvcoxError):
    """A (ridged) Hessian block stayed non-invertible after escalation."""

    code = "CONDITIONING"


class CapacityError(TvcoxError):
    """A stage is refused before it allocates: its estimated bytes exceed physical memory.

    The stages that check are: the load of a CSV and the arrays its fit
    holds for certain (``tvcox fit`` and ``tvcox cv``, before a row is
    parsed); a likelihood pass that builds Hessians, the P diagonal blocks
    or the full PK x PK matrix; the score residuals and their V; and the
    inversion of V or of the observed information for the covariance.
    Physical memory is the only limit; no stage refuses a P or K as such.
    """

    code = "CAPACITY"


class AscentViolationError(TvcoxError):
    """A full-data ascent step decreased the log partial likelihood."""

    code = "ASCENT_VIOLATION"


class RankDeficiencyError(TvcoxError):
    """A test's inner covariance matrix is singular."""

    code = "RANK_DEFICIENCY"


class FoldConstructionError(TvcoxError):
    """Cross-validation folds could not be built with events in each fold."""

    code = "FOLD_CONSTRUCTION"


class UsageError(TvcoxError):
    """Invalid command line arguments or option combinations."""

    code = "USAGE"
