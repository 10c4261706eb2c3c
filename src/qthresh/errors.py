"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(ToolkitError):
    """An input state, vector or parameter failed validation."""


class DimensionMismatch(ValidationError):
    pass


class NotHermitian(ValidationError):
    pass


class TraceNotOne(ValidationError):
    pass


class NotPSD(ValidationError):
    pass


class InvalidDimension(ValidationError):
    pass


class NotProbabilityVector(ValidationError):
    pass


class InvalidParameter(ValidationError):
    pass


class InvalidRank(ValidationError):
    pass


class ParseError(ValidationError):
    """A state file could not be parsed into a matrix."""


class NumericalInstability(ToolkitError):
    """A numerical routine failed instead of silently degrading."""


class TheoremViolation(ToolkitError):
    """A sampled state contradicted the entropy threshold; never expected."""
