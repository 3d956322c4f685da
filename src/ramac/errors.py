"""Exception hierarchy.

Validation failures (bad inputs, broken contracts) and guard trips (search or
enumeration sizes past their hard limits) are separate branches so the CLI can
map them to distinct exit codes.
"""


class RamacError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(RamacError):
    """An input violates a structural or numerical contract."""


class DimensionMismatch(ValidationError):
    pass


class NegativeEntry(ValidationError):
    pass


class RowSumOutOfTolerance(ValidationError):
    pass


class EmptyClass(ValidationError):
    pass


class DegenerateEnvelope(ValidationError):
    """A class lower envelope vanishes where the upper envelope does not."""


class MissingLaw(ValidationError):
    pass


class ConstraintViolation(ValidationError):
    """A query breaks a required matching constraint between its pairs."""


class InfeasibleRegion(ValidationError):
    """An operation region fails the rate feasibility conditions."""


class C1Violation(ValidationError):
    """A channel-level region splits some channel class."""


class ConfigParseError(ValidationError):
    pass


class SchemaViolation(ValidationError):
    pass


class GuardExceeded(RamacError):
    """A hard resource guard would be exceeded; nothing was computed."""


class SearchSpaceTooLarge(GuardExceeded):
    pass


class TooManyCodewords(GuardExceeded):
    pass


class EnumerationTooLarge(GuardExceeded):
    pass
