"""Exception types shared across the toolkit.  Every rejected input,
shape, parameter or state file raises ``ValidationError``, whose message
says what was wrong."""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(ToolkitError):
    """An input state, vector, parameter or state file failed validation."""


class NumericalInstability(ToolkitError):
    """A numerical routine failed instead of silently degrading."""


class TheoremViolation(ToolkitError):
    """A sampled state contradicted the entropy threshold; never expected."""
