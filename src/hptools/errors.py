"""Exception types, and ``exact``: the one reader of alpha, eps and delta."""

from decimal import Decimal
from fractions import Fraction


class DomainError(ValueError):
    """An operation was called outside its documented domain."""


class StepError(DomainError):
    """A multi-stage pipeline failed at a named step."""

    def __init__(self, step: str, message: str):
        super().__init__(f"{step}: {message}")


def exact(value, refusal: str) -> Fraction:
    """``value`` as Fraction reads it (a Fraction as it is), or
    DomainError(refusal) for what Fraction refuses and for a string whose
    decimal exponent is beyond any float's, before Fraction expands it."""
    if isinstance(value, Fraction):
        return value
    try:
        if (isinstance(value, str) and "/" not in value
                and not -400 < Decimal(value).adjusted() < 400):
            raise ValueError(value)
        return Fraction(value)
    except (ArithmeticError, TypeError, ValueError):
        raise DomainError(refusal) from None
