"""Exception types shared across the package."""

import sys


class ColorHomError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ColorHomError):
    """Malformed or inconsistent user input (documents, mismatched fields,
    invalid group data, arity errors).  CLI maps this to exit code 2."""


class FrozenError(ColorHomError, AttributeError):
    """A write to a field of a frozen record (``colorhom.record``)."""


class ConstructionError(ColorHomError):
    """A construction refused to emit an output bundle.

    Raised when a precondition fails or the mandatory re-certification of
    the output finds violations.  The failing report is attached so callers
    can inspect exactly which identity broke and where.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def too_many_digits(what) -> InputError:
    """The error for the ValueError CPython raises when an int crosses its
    int-string conversion limit, in either direction."""
    return InputError(
        f"{what} exceeds the limit of {sys.get_int_max_str_digits()} digits per integer"
    )
