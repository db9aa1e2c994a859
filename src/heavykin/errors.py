"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes (see ``heavykin.cli``):
``ConfigError``, ``ValidationError`` and ``OutputError`` exit with 2,
``NumericError`` with 3.
"""


class HeavykinError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(HeavykinError, ValueError):
    """A parameter or argument violates a documented inequality or domain."""


class ConfigError(HeavykinError):
    """The run-configuration file is malformed, unknown, or inconsistent."""


class NumericError(HeavykinError, ArithmeticError):
    """A numerical routine failed its contract (non-finite state, divergence, ...)."""


class OutputError(HeavykinError, OSError):
    """A file could not be written or read back; carries the path."""
