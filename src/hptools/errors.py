"""Exception types shared across the package."""


class DomainError(ValueError):
    """An operation was called outside its documented domain."""


class StepError(DomainError):
    """A multi-stage pipeline failed at a named step."""

    def __init__(self, step: str, message: str):
        super().__init__(f"{step}: {message}")
