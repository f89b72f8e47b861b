r"""Plain-text exchange format for order pairs.

A pair file starts with a header line ``n <size>`` followed by one line
per related pair, ``S <i> <j>`` or ``R <i> <j>``, with 1-based labels.
Lines are sorted lexicographically within each relation, S before R, and
blank lines are ignored on input.  A line ends at ``\n``, ``\r\n`` or
``\r``, the universal newlines that ``open()`` and ``sys.stdin``
translate; any other character that ``str.splitlines`` breaks at (such as
``\x0b``, ``\x0c`` or ``\x85``) stays inside its line as spacing, so a
message's line number counts these line ends only.  Example::

    n 2
    S 1 2

ParseError flags malformed text (bad header, a size above 2^20 = 1048576,
bad tokens, duplicates); ValueError flags well-formed text with impossible
labels (out of range or on the diagonal).  The size limit is checked
before anything of that size is allocated.

Cost model: ``serialize_pair`` formats each line straight from the rows.
``parse_pair`` reads the text ``serialize_pair`` writes (in any line
order) in bulk: one regex scan, one split, one ``int()`` per distinct
label, then one dict lookup and one row operation per line.  Any other
text, including every text with an error, goes through a line loop that
names the first bad line; only that loop accepts blank lines, other
spacing, ``\r\n`` or ``\r`` line ends or non-ASCII decimal labels.  A
number too long for ``int()`` (see ``sys.get_int_max_str_digits``) is a
ParseError too.
"""

from __future__ import annotations

import re

from .errors import ParseError, _read_ints
from .relations import CatalanPair, Relation, bits

# Largest size a pair file may declare: a pair of n labels takes two
# lists of n rows before any line is read.
_MAX_SIZE = 1 << 20
_MAX_DIGITS = len(str(_MAX_SIZE))

# The line ends of the line loop: the universal newlines.
_LINE_END = re.compile(r"\r\n?|\n")

# The text serialize_pair writes: ASCII labels without leading zeros, one
# space between tokens, every line ending in "\n".
_SERIALIZED = re.compile(
    r"n (?:0|[1-9][0-9]*)\n(?:[SR] [1-9][0-9]* [1-9][0-9]*\n)*"
)


def serialize_pair(pair: CatalanPair) -> str:
    n = pair.n
    label = [str(k) for k in range(n + 1)]
    # Lines sort as text, so "S 10 1" comes before "S 2 1": order the row
    # labels by their decimal strings, then each row's column labels.
    order = sorted(range(1, n + 1), key=label.__getitem__)
    lines = [f"n {n}"]
    for name, rows in (("S", pair.S.rows), ("R", pair.R.rows)):
        for i in order:
            if rows[i - 1]:
                head = f"{name} {label[i]} "
                tails = sorted([label[j] for j in bits(rows[i - 1] << 1)])
                lines += [head + tail for tail in tails]
    lines.append("")
    return "\n".join(lines)


def parse_pair(text: str) -> CatalanPair:
    if _SERIALIZED.fullmatch(text):
        pair = _read_serialized(text.split())
        if pair is not None:
            return pair
    return _parse_lines(text)


def _read_serialized(tokens: list[str]) -> CatalanPair | None:
    """The pair that the *tokens* of serialized text spell, or None when
    the line loop must name a fault: a size above the limit, a label
    above the size, a repeated or a diagonal line."""
    size, names = tokens[1], tokens[2::3]
    heads, tails = tokens[3::3], tokens[4::3]
    labels = set(heads).union(tails)
    # with no leading zeros, a token longer than the size lies above it;
    # lengths go first, so that int() never reads a long token
    if len(size) > _MAX_DIGITS or any(len(label) > len(size) for label in labels):
        return None
    n = int(size)
    row = {label: int(label) - 1 for label in labels}
    if n > _MAX_SIZE or max(row.values(), default=-1) >= n:
        return None
    rows = {"S": [0] * n, "R": [0] * n}
    at = row.__getitem__
    for name, i, j in zip(names, map(at, heads), map(at, tails)):
        rows[name][i] |= 1 << j
    S, R = rows["S"], rows["R"]
    # a repeated line sets no new bit
    if sum(map(int.bit_count, S)) + sum(map(int.bit_count, R)) != len(names):
        return None
    # the labels lie in 1..n, so only a diagonal line can break a row
    if any((s | r) >> i & 1 for i, (s, r) in enumerate(zip(S, R))):
        return None
    return CatalanPair(Relation._unchecked(n, S), Relation._unchecked(n, R))


def _parse_lines(text: str) -> CatalanPair:
    """Line by line, naming the first bad line; each line sets its bit in
    the rows, so a bit that is already set names a duplicate."""
    rows: dict[str, list[int]] | None = None
    for lineno, raw in enumerate(_LINE_END.split(text), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if rows is None:
            if len(tokens) != 2 or tokens[0] != "n" or not tokens[1].isdecimal():
                raise ParseError(f"line {lineno}: expected header 'n <size>'")
            (n,) = _read_ints(tokens[1:], f"line {lineno}: the size")
            if n > _MAX_SIZE:
                raise ParseError(
                    f"line {lineno}: size {n} exceeds the limit of {_MAX_SIZE}"
                )
            rows = {"S": [0] * n, "R": [0] * n}
            continue
        if len(tokens) != 3 or tokens[0] not in ("S", "R"):
            raise ParseError(
                f"line {lineno}: expected 'S <i> <j>' or 'R <i> <j>'"
            )
        if not (tokens[1].isdecimal() and tokens[2].isdecimal()):
            raise ParseError(f"line {lineno}: labels must be integers")
        i, j = _read_ints(tokens[1:], f"line {lineno}: a label")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(
                f"line {lineno}: labels must lie in 1..{n}, got ({i}, {j})"
            )
        if i == j:
            raise ValueError(f"line {lineno}: diagonal pair ({i}, {j})")
        row, bit = rows[tokens[0]], 1 << (j - 1)
        if row[i - 1] & bit:
            raise ParseError(f"line {lineno}: duplicate pair {(tokens[0], i, j)}")
        row[i - 1] |= bit
    if rows is None:
        raise ParseError("empty input: missing 'n <size>' header")
    S, R = rows["S"], rows["R"]
    return CatalanPair(Relation._unchecked(n, S), Relation._unchecked(n, R))
