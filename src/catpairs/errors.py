"""Exception types shared across the package, and the one helper that
turns a validator's message into a ValueError."""


class ParseError(ValueError):
    """Raised when input text cannot be parsed into a structure or pair."""


class InvariantViolation(Exception):
    """Raised when data that must satisfy the pair axioms (or a derived
    property such as decomposability) turns out not to."""


class SizeLimitError(Exception):
    """Raised when an operation would require tabulating structures beyond
    the configured size cap."""


def require(message: str | None) -> None:
    """Raise ValueError(*message*) unless a validator returned None."""
    if message is not None:
        raise ValueError(message)
