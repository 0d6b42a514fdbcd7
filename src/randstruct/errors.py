"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """A parameter is outside its valid range."""


class InvalidTestError(ValueError):
    """A statistical test cannot be run on the given data."""


class FormatError(ValueError):
    """An encoded structure (child counts, parent array, one-line
    permutation, dump line) is malformed."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed its configured budget."""
