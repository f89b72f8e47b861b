"""Exception types shared across the package, the helper that turns a
validator's message into a ValueError, the check that entries are ints,
and the one reader of decimal tokens that may be too long for int()."""

import sys
from collections.abc import Sequence


class ParseError(ValueError):
    """Raised when input text cannot be parsed into a structure or pair."""


class InvariantViolation(Exception):
    """Raised when data that must satisfy the pair axioms (or a derived
    property such as decomposability) turns out not to.  A failed axiom
    check sets ``axiom`` and ``witness`` (0-based labels); else both are None."""

    def __init__(
        self, message: str, axiom: str | None = None, witness: tuple | None = None
    ):
        super().__init__(message)
        self.axiom, self.witness = axiom, witness


class SizeLimitError(Exception):
    """Raised when an operation would require tabulating structures beyond
    the configured size cap."""


def require(message: str | None) -> None:
    """Raise ValueError(*message*) unless a validator returned None."""
    if message is not None:
        raise ValueError(message)


def _non_int(entries: object, noun: str) -> str | None:
    """A message naming the type of *entries* if it is not a sequence
    (such as a tuple, list, str or range), or the first of them that is
    not an ``int`` (floats and bools included), else None; the types are
    read in C."""
    if not isinstance(entries, Sequence):
        return f"expected a sequence of ints, got {type(entries).__name__}"
    if set(map(type, entries)) <= {int}:
        return None
    pos, bad = next((pos, v) for pos, v in enumerate(entries, 1) if type(v) is not int)
    return f"{noun} {bad!r} at position {pos} is not an int"


def _read_ints(tokens: list[str], what: str) -> tuple[int, ...]:
    """int() of each decimal token; ParseError naming *what* for a token
    with more digits than int() reads (``sys.get_int_max_str_digits``),
    which is left as it is."""
    try:
        return tuple([int(token) for token in tokens])
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"{what} has more than {limit} digits") from None
