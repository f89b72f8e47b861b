"""Exception types shared across the package, the helper that turns a
validator's message into a ValueError, and the one reader of decimal
tokens that may be too long for int()."""

import sys


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


def _read_ints(tokens: list[str], what: str) -> tuple[int, ...]:
    """int() of each decimal token; ParseError naming *what* for a token
    with more digits than int() reads (``sys.get_int_max_str_digits``),
    which is left as it is."""
    try:
        return tuple([int(token) for token in tokens])
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"{what} has more than {limit} digits") from None
