"""Exception types shared across the toolkit.  Every rejected input,
shape, parameter or state file raises ``ValidationError``, whose message
says what was wrong; so does each malformed scalar, such as a float or
bool for an integer, or a seed that is not an integer >= 0, a
SeedSequence or a Generator, caught by its one rule in ``states``."""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(ToolkitError):
    """An input state, vector, parameter or state file failed validation."""


class NumericalInstability(ToolkitError):
    """A numerical routine failed instead of silently degrading."""


class TheoremViolation(ToolkitError):
    """A sampled state contradicted the entropy threshold; never expected."""
