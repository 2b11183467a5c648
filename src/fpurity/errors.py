"""Exception types shared across the package."""


class RingMismatchError(ValueError):
    """Raised when values from different rings are combined."""


class ExponentOverflowError(OverflowError):
    """Raised when a monomial exponent would leave the 64-bit range.

    Exponent arithmetic is checked, never wrapped: a silent wraparound
    would corrupt every verdict built on top of it.
    """


class ParseError(ValueError):
    """Syntax or validation error with a source position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ResourceCapExceeded(RuntimeError):
    """A configured resource cap was hit before the computation finished."""

    def __init__(self, cap_name: str, detail: str = ""):
        msg = f"resource cap exceeded: {cap_name}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.cap_name = cap_name

