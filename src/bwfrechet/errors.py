"""Shared error taxonomy.

Every failure raised by this package derives from :class:`BwfrechetError`, so
callers (including the CLI) can map failure classes to exit behavior without
string matching.
"""


class BwfrechetError(Exception):
    """Base class for all package errors."""


class InvalidInputError(BwfrechetError):
    """Malformed data: wrong shapes, non-finite entries, non-PD responses,
    inconsistent file contents."""


class InvalidConfigError(InvalidInputError):
    """A configuration value outside its documented range."""


class IllConditionedError(BwfrechetError):
    """A matrix too close to singular for the requested operation."""


class SingularError(BwfrechetError):
    """A linear system with no usable solution (singular covariance)."""


class UnreliableResultError(BwfrechetError):
    """Too many internal solves failed for the result to be trusted."""
