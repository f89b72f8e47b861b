"""Binary trees and pairs, and parallelogram polyominoes.

A pair of size n decomposes recursively into a distinguished label plus
two smaller pairs; reading that recursion as a binary tree (left = the
S-side block, right = the R-side block) gives the ``pair_to_tree`` /
``tree_to_pair`` round trip used everywhere as the universal
intermediate.  Both directions go through the tree's preorder
left-subtree sizes (``trees.left_sizes``): ``pair_to_tree`` reads them
off a valid pair's bitsets, and :func:`_left_sizes_pair` builds a pair
from them top down.  That builder is also every tree-shaped family's
encoder (see ``encoders``).

Parallelogram polyominoes (two non-touching lattice paths over N/E with
shared endpoints) join the tree world through a column codec: column
heights and overlaps spell a balanced U/D word, and the word's
first-return structure is the tree.
"""

from __future__ import annotations

from functools import lru_cache

from . import trees
from .errors import ParseError, require
from .relations import (
    CatalanPair,
    Relation,
    _canonical_left_sizes,
    _tree_rows,
    bits,
    decompose_pair,
)


def tree_to_pair(t: trees.Tree) -> CatalanPair:
    """The pair of a binary tree, labels in inorder.

    Each node's left subtree S-precedes it, and the node and its left
    subtree R-precede its right subtree: the ``compose_pair`` fold over
    the tree, built top down in O(n) row operations.
    """
    return _left_sizes_pair(trees.left_sizes(t), inorder=True)


def _left_sizes_pair(left_sizes: list[int], inorder: bool) -> CatalanPair:
    """The pair of the tree with preorder *left_sizes*, built top down.

    Labels are the nodes' preorder positions, or their inorder positions
    if *inorder* is set; the rows come from ``relations._tree_rows`` in
    O(n) row operations.
    """
    n = len(left_sizes)
    s_rows = [0] * n
    r_rows = [0] * n
    size = trees.subtree_sizes(left_sizes)
    for x, s_row, r_row in _tree_rows(left_sizes, size, inorder):
        s_rows[x] = s_row
        r_rows[x] = r_row
    return CatalanPair(Relation(n, tuple(s_rows)), Relation(n, tuple(r_rows)))


def pair_to_tree(pair: CatalanPair) -> trees.Tree:
    """The shape tree of a valid pair, under any labelling.

    The single check is the ``decompose_pair`` call at the root: it runs
    the axiom check on *pair* and raises InvariantViolation with its usual
    message if *pair* is invalid.  Its two factors are induced subpairs of
    a valid pair and therefore valid, so their trees are read off their
    bitsets by :func:`_valid_pair_tree` with no further check.  On a
    canonical pair the whole read is O(n) row operations plus the split's
    n - 1 block labels; other labellings walk S's set bits twice.
    """
    if pair.n == 0:
        return trees.EMPTY
    _, left, right = decompose_pair(pair)
    return (_valid_pair_tree(left), _valid_pair_tree(right))


def _valid_pair_tree(pair: CatalanPair) -> trees.Tree:
    """Iterative tree reading of a pair that must already be valid.

    The derived order (i L j iff i R j or j S i) lists the labels in
    preorder of the tree, so a label with d L-successors sits at preorder
    position n - 1 - d.  A label's left subtree holds exactly the labels
    that S-precede it, so its size is the popcount of the label's
    S-column.  A factor of a canonical pair is canonical, and its left
    sizes come from its R popcounts alone
    (``relations._canonical_left_sizes``) in O(n) row operations; any
    other labelling costs O(n + |S|).  No recursion; an invalid pair gives
    a meaningless tree or an error.
    """
    left_sizes = _canonical_left_sizes(pair.S, pair.R)
    if left_sizes is None:
        n = pair.n
        s_in = [0] * n
        for row in pair.S.rows:
            for j in bits(row):
                s_in[j] += 1
        left_sizes = [0] * n
        for i, row in enumerate(pair.R.rows):
            left_sizes[n - 1 - row.bit_count() - s_in[i]] = s_in[i]
    return trees.from_left_sizes(left_sizes)


def validate_grammar_tree(t: object) -> str | None:
    if not trees.is_tree(t):
        return "expected nested (left, right) tuples with () for the empty tree"
    return None


def grammar_pair(t: trees.Tree) -> CatalanPair:
    """:func:`tree_to_pair` of a binary tree checked by
    :func:`validate_grammar_tree`; ValueError if the check fails."""
    require(validate_grammar_tree(t))
    return tree_to_pair(t)


# ---------------------------------------------------------------------------
# Parallelogram polyominoes as (upper word, lower word) over N/E

Polyomino = tuple[str, str]

EMPTY_POLYOMINO: Polyomino = ("", "")


def validate_polyomino(value: object) -> str | None:
    if (
        not isinstance(value, tuple)
        or len(value) != 2
        or not all(isinstance(w, str) for w in value)
    ):
        return "expected a pair (upper word, lower word)"
    upper, lower = value
    if value == EMPTY_POLYOMINO:
        return None
    if any(c not in "NE" for c in upper + lower):
        return "paths may only use the letters N and E"
    if len(upper) != len(lower):
        return "upper and lower paths must have the same length"
    if upper.count("N") != lower.count("N"):
        return "paths must end at the same point"
    if upper == lower:
        return "paths must be distinct"
    above = 0  # N steps of upper's first t steps, less those of lower's
    for t, (a, b) in enumerate(zip(upper[:-1], lower[:-1]), start=1):
        above += (a == "N") - (b == "N")
        if above <= 0:
            return f"paths touch after {t} steps, before the endpoint"
    return None


def parse_polyomino(text: str) -> Polyomino:
    parts = text.strip().split(";")
    if len(parts) != 2:
        raise ParseError("expected 'upper;lower' with exactly one ';'")
    if any(c not in "NE" for part in parts for c in part):
        raise ParseError("paths may only use the letters N and E")
    value = (parts[0], parts[1])
    require(validate_polyomino(value))
    return value


def serialize_polyomino(value: Polyomino) -> str:
    return f"{value[0]};{value[1]}"


def _heights_before_east(word: str) -> tuple[int, ...]:
    """Number of N steps seen before each E step."""
    heights = []
    seen = 0
    for letter in word:
        if letter == "E":
            heights.append(seen)
        else:
            seen += 1
    return tuple(heights)


def polyomino_to_tree(value: Polyomino) -> trees.Tree:
    """Column codec: heights and overlaps spell a balanced word.

    Column i spans h_i cells and shares s_i rows with column i+1; the
    word U^h_1 [D^(h_i-s_i+1) U^(h_{i+1}-s_i+1)]... D^h_w is balanced
    with one U per size unit, and its first-return tree is the result.
    """
    require(validate_polyomino(value))
    if value == EMPTY_POLYOMINO:
        return trees.EMPTY
    tops = _heights_before_east(value[0])
    bottoms = _heights_before_east(value[1])
    heights = [t - b for t, b in zip(tops, bottoms)]
    overlaps = [tops[i] - bottoms[i + 1] for i in range(len(tops) - 1)]
    chunks = ["U" * heights[0]]
    for i, s in enumerate(overlaps):
        chunks.append("D" * (heights[i] - s + 1))
        chunks.append("U" * (heights[i + 1] - s + 1))
    chunks.append("D" * heights[-1])
    return trees.from_dyck_word("".join(chunks))


def _runs(word: str) -> tuple[list[int], list[int]]:
    """Lengths of the alternating maximal U-runs and D-runs."""
    u_runs: list[int] = []
    d_runs: list[int] = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        (u_runs if word[i] == "U" else d_runs).append(j - i)
        i = j
    return u_runs, d_runs


def tree_to_polyomino(t: trees.Tree) -> Polyomino:
    """Inverse of :func:`polyomino_to_tree`."""
    return _word_to_polyomino(trees.to_dyck_word(t))


def _word_to_polyomino(word: str) -> Polyomino:
    if not word:
        return EMPTY_POLYOMINO
    u_runs, d_runs = _runs(word)
    heights = [u_runs[0]]
    for i in range(1, len(u_runs)):
        heights.append(heights[i - 1] - d_runs[i - 1] + u_runs[i])
    overlaps = [heights[i] - d_runs[i] + 1 for i in range(len(heights) - 1)]
    bottoms = [0]
    for i, s in enumerate(overlaps):
        bottoms.append(bottoms[i] + heights[i] - s)
    tops = [b + h for b, h in zip(bottoms, heights)]
    total = tops[-1]
    upper = "".join(
        "N" * (tops[i] - (tops[i - 1] if i else 0)) + "E"
        for i in range(len(tops))
    )
    bottoms.append(total)
    lower = "".join(
        "E" + "N" * (bottoms[i + 1] - bottoms[i]) for i in range(len(tops))
    )
    return (upper, lower)


@lru_cache(maxsize=None)
def enumerate_polyomino(n: int) -> tuple[Polyomino, ...]:
    words = trees.grow(n, trees._dyck, "")
    return tuple(sorted(map(_word_to_polyomino, words), key=serialize_polyomino))


def encode_polyomino(value: Polyomino) -> CatalanPair:
    """The pair of the column-codec tree, labels in inorder; the value is
    checked once, by :func:`polyomino_to_tree`."""
    return tree_to_pair(polyomino_to_tree(value))
