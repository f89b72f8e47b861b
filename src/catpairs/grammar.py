"""Binary trees and pairs, and parallelogram polyominoes.

A pair of size n decomposes recursively into a distinguished label plus
two smaller pairs; reading that recursion as a binary tree (left = the
S-side block, right = the R-side block) gives the ``pair_to_tree`` /
``tree_to_pair`` round trip used everywhere as the universal
intermediate.  Both directions go through the tree's preorder
left-subtree sizes (``trees.left_sizes``): ``pair_to_tree`` reads them
off a valid pair's bitsets, and :func:`_left_sizes_pair` builds a pair
from them top down.  That builder is also every tree-shaped family's
encoder (see ``encoders``), and ``bijections.convert`` builds the
canonical pair of a value that a family's ``read`` (here
:func:`read_binary_tree` and :func:`read_polyomino`) has checked and
read with it.

Parallelogram polyominoes (two non-touching lattice paths over N/E with
shared endpoints) join the tree world through their Dyck word: the upper
path spells the U steps and the lower path the D steps, letter by letter,
and the word's first-return structure is the tree.
"""

from __future__ import annotations

from . import trees
from .errors import ParseError, require
from .relations import (
    CatalanPair,
    Relation,
    _canonical_left_sizes,
    _preorder,
    _tree_rows,
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
    one loop of O(n) row operations.  *left_sizes* must come from a tree.
    """
    n = len(left_sizes)
    s_rows, r_rows = _tree_rows(left_sizes, inorder)
    return CatalanPair(Relation._unchecked(n, s_rows), Relation._unchecked(n, r_rows))


def pair_to_tree(pair: CatalanPair) -> trees.Tree:
    """The shape tree of a valid pair, under any labelling.

    The single check is the ``decompose_pair`` call at the root: it runs
    the axiom check on *pair* and raises InvariantViolation with its usual
    message if *pair* is invalid.  Its two factors are induced subpairs of
    a valid pair and therefore valid, so their trees are read off their
    bitsets by :func:`_valid_pair_tree` with no further check.  On a
    canonical pair the whole read is O(n) row operations; other
    labellings add a read of S's columns for the check and a count of
    each factor's S in-degrees.
    """
    if pair.n == 0:
        return trees.EMPTY
    _, left, right = decompose_pair(pair)
    return (_valid_pair_tree(left), _valid_pair_tree(right))


def _valid_pair_tree(pair: CatalanPair) -> trees.Tree:
    """Iterative tree reading of a pair that must already be valid: the
    preorder left sizes of a factor of a canonical pair come from its R
    popcounts alone (``relations._canonical_left_sizes``) in O(n) row
    operations, those of any other labelling from ``relations._preorder``.
    No recursion; an invalid pair gives a meaningless tree or an error.
    """
    left_sizes = _canonical_left_sizes(pair.S, pair.R)
    if left_sizes is None:
        _, left_sizes = _preorder(pair.R.rows, pair.S.cols())
    return trees.from_left_sizes(left_sizes)


def validate_grammar_tree(t: object) -> str | None:
    if not trees.is_tree(t):
        return "expected nested (left, right) tuples with () for the empty tree"
    return None


def read_binary_tree(t: trees.Tree) -> list[int]:
    """The preorder left sizes of a binary tree checked by
    :func:`validate_grammar_tree`; ValueError if the check fails."""
    require(validate_grammar_tree(t))
    return trees.left_sizes(t)


def grammar_pair(t: trees.Tree) -> CatalanPair:
    """:func:`tree_to_pair` of a binary tree, labels in inorder; the tree
    is checked once, by :func:`read_binary_tree`."""
    return _left_sizes_pair(read_binary_tree(t), inorder=True)


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
    return (parts[0], parts[1])


def serialize_polyomino(value: Polyomino) -> str:
    return f"{value[0]};{value[1]}"


def read_polyomino(value: Polyomino) -> list[int]:
    """The preorder left sizes of a polyomino's Dyck word, read off its
    two paths after the one ``validate_polyomino`` check (ValueError if
    it fails).

    Upper path: the E steps before the last cut the N steps into the runs
    of U steps, and each of them is the U that opens the next run.  Lower
    path: each E is the D that opens a run of D steps, and the N steps
    after it, the final N aside, are the rest of that run.
    """
    require(validate_polyomino(value))
    if value == EMPTY_POLYOMINO:
        return []
    ups = value[0][:-1].split("E")
    downs = value[1][:-1].split("E")[1:]
    word = "U".join("U" * len(u) + "D" * (len(d) + 1) for u, d in zip(ups, downs))
    return trees._enclosed(word, "U")


def polyomino_to_tree(value: Polyomino) -> trees.Tree:
    """The first-return tree of the polyomino's Dyck word."""
    return trees.from_left_sizes(read_polyomino(value))


def tree_to_polyomino(t: trees.Tree) -> Polyomino:
    """Inverse of :func:`polyomino_to_tree`."""
    return _word_to_polyomino(trees.to_dyck_word(t))


def _word_to_polyomino(word: str) -> Polyomino:
    """Letter by letter: a U steps the upper path N, or E right after a
    D; a D steps the lower path E right after a U, or N otherwise.  The
    upper path ends with an E and the lower path with an N."""
    if not word:
        return EMPTY_POLYOMINO
    upper = word.replace("DU", "DE").replace("D", "").replace("U", "N")
    lower = word.replace("UD", "UE").replace("U", "").replace("D", "N")
    return (upper + "E", lower + "N")


def enumerate_polyomino(n: int) -> tuple[Polyomino, ...]:
    words = trees.grow(n, trees._dyck, "")
    return tuple(sorted(map(_word_to_polyomino, words), key=serialize_polyomino))


def encode_polyomino(value: Polyomino) -> CatalanPair:
    """The pair of the polyomino's first-return tree, labels in inorder,
    built straight from its Dyck word's left sizes; the value is checked
    once, by :func:`read_polyomino`."""
    return _left_sizes_pair(read_polyomino(value), inorder=True)
