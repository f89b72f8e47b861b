"""Pair -> structure decoders and the any-to-any family converter.

Conversion reaches the source value's canonical pair, then decodes it
into the target family.  A family with a ``read`` (dyck, matching,
plane-tree, seq1, binary-tree) checks the value and reads its preorder
left sizes, and the pair built from them with preorder labels is
canonical as it stands; every other source is encoded and
canonicalized.  Decoding assembles a value analytically from the pair's
decomposition tree, as the family's join rule folded over it would;
matchings, permutations and seq1 are written in O(n) from the tree's
preorder left sizes, and Dyck words and plane trees in one preorder
walk.  The one family without a known inverse, the second sequence
family, looks the canonical pair up instead, in a memoized table built
from its own enumerator and capped at ``DEFAULT_TABLE_CAP``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from . import grammar, structures, trees
from .encoders import (
    encode_dyck,
    encode_matching,
    encode_plane_tree,
    encode_seq1,
    encode_seq2,
    encode_staircase,
    pair_for_avoidance_class,
    read_dyck,
    read_matching,
    read_plane_tree,
    read_seq1,
)
from .errors import InvariantViolation, SizeLimitError
from .grammar import _left_sizes_pair, pair_to_tree, tree_to_pair
from .relations import CatalanPair, canonicalize

__all__ = [
    "Family",
    "FAMILIES",
    "ALIASES",
    "family",
    "pair_to_tree",
    "tree_to_pair",
    "assemble_dyck",
    "assemble_matching",
    "assemble_plane_tree",
    "assemble_perm_312",
    "assemble_seq1",
    "assemble_staircase",
    "reference_decode",
    "decode_pair",
    "convert",
    "DEFAULT_TABLE_CAP",
]

DEFAULT_TABLE_CAP = 12


# ---------------------------------------------------------------------------
# Analytic assemblies: decomposition tree -> structure value.
# Each gives the value that folding its family's join rule over the tree
# gives, the rule its enumerator grows every value with, so that
# encode(assemble(t)) is isomorphic to tree_to_pair(t); the left subtree is
# the S-side block, the right the R-side block.  Matchings, 312-avoiders
# and seq1 write the value in one pass over the preorder left sizes a_p
# instead, and Dyck words and plane trees in one preorder walk, since
# their joins copy a block at every node.


def assemble_dyck(t: trees.Tree) -> str:
    return trees.to_dyck_word(t)


def assemble_matching(t: trees.Tree) -> structures.Matching:
    """Node p's arch opens at s + 1 and closes at s + 2a_p + 2, where s is
    the offset of its block: the k nodes before p in inorder closed
    before p does, and the nodes p + 1 .. p + a_p of its left block
    opened after it."""
    sizes = trees.left_sizes(t)
    arches: list = [()] * len(sizes)
    for k, p in enumerate(trees._inorder(sizes)):
        start = k + p - sizes[p]
        arches[p] = (start + 1, start + 2 * sizes[p] + 2)
    return tuple(arches)


def assemble_plane_tree(t: trees.Tree) -> structures.PlaneTree:
    """Each node opens a subtree holding its left block, and its right
    block follows as that subtree's later siblings: the plane tree whose
    text is the tree's Dyck word.  One preorder walk, which closes a
    node's subtree where its left block ends."""
    forests: list[list] = [[]]  # children read so far, per open node
    stack: list = [t] if t else []  # subtrees to walk; None closes a node
    while stack:
        node = stack.pop()
        if node is None:
            child = tuple(forests.pop())
            forests[-1].append(child)
        else:
            forests.append([])
            left, right = node
            if right:
                stack.append(right)
            stack.append(None)
            if left:
                stack.append(left)
    return tuple(forests[0])


def assemble_perm_312(t: trees.Tree) -> structures.Permutation:
    """The inorder position of preorder node p holds the value p + 1."""
    return tuple([p + 1 for p in trees._inorder(trees.left_sizes(t))])


def assemble_seq1(t: trees.Tree) -> structures.Sequence:
    """a_i = i + the left size of preorder node i."""
    return tuple([i + a for i, a in enumerate(trees.left_sizes(t), start=1)])


def assemble_staircase(t: trees.Tree) -> structures.Staircase:
    """The tree's subtrees, swapped back into (lower, upper) parts."""
    return trees.fold(t, structures.swap_parts, trees.EMPTY)


# ---------------------------------------------------------------------------
# Family registry


@dataclass(frozen=True)
class Family:
    """One Catalan structure family's full codec suite.

    ``parse`` only scans text into a value (ParseError if it does not
    scan).  ``validate`` is the family's one value check: ``encode`` and
    ``read`` run it first (ValueError with its message), so a parsed value
    is checked once, where it is encoded or converted.  ``read``, where a
    family has one, returns the preorder left sizes of the checked value's
    tree, so that ``encode`` is
    ``grammar._left_sizes_pair(read(value), inorder=False)``; binary-tree
    keeps inorder labels, ``_left_sizes_pair(read(value), inorder=True)``.
    ``assemble`` turns a decomposition tree into a value; families without
    one decode through the reference table instead.
    """

    tag: str
    parse: Callable[[str], object]
    serialize: Callable[[object], str]
    validate: Callable[[object], str | None]
    enumerate: Callable[[int], tuple]
    encode: Callable[[object], CatalanPair]
    assemble: Callable[[trees.Tree], object] | None
    read: Callable[[object], list[int]] | None = None


def _perm_family(pattern: str) -> Family:
    def validate(p: object) -> str | None:
        return structures.validate_perm(p) or structures.validate_avoidance(p, pattern)

    def assemble(t: trees.Tree) -> structures.Permutation:
        return structures.perm_from_312(assemble_perm_312(t), pattern)

    return Family(
        tag=f"perm-{pattern}",
        parse=structures.parse_perm,
        serialize=structures.serialize_perm,
        validate=validate,
        enumerate=lambda n: structures.enumerate_perm(n, pattern),
        encode=lambda p: pair_for_avoidance_class(p, pattern),
        assemble=assemble_perm_312 if pattern == "312" else assemble,
    )


def _families() -> dict[str, Family]:
    entries = [
        Family(
            "dyck",
            structures.parse_dyck,
            structures.serialize_dyck,
            structures.validate_dyck,
            structures.enumerate_dyck,
            encode_dyck,
            assemble_dyck,
            read_dyck,
        ),
        Family(
            "matching",
            structures.parse_matching,
            structures.serialize_matching,
            structures.validate_matching,
            structures.enumerate_matching,
            encode_matching,
            assemble_matching,
            read_matching,
        ),
        Family(
            "plane-tree",
            structures.parse_plane_tree,
            structures.serialize_plane_tree,
            structures.validate_plane_tree,
            structures.enumerate_plane_tree,
            encode_plane_tree,
            assemble_plane_tree,
            read_plane_tree,
        ),
        _perm_family("312"),
        _perm_family("321"),
        _perm_family("231"),
        _perm_family("213"),
        _perm_family("132"),
        _perm_family("123"),
        Family(
            "seq1",
            structures.parse_seq1,
            structures.serialize_seq,
            structures.validate_seq1,
            structures.enumerate_seq1,
            encode_seq1,
            assemble_seq1,
            read_seq1,
        ),
        Family(
            "seq2",
            structures.parse_seq2,
            structures.serialize_seq,
            structures.validate_seq2,
            structures.enumerate_seq2,
            encode_seq2,
            None,
        ),
        Family(
            "staircase",
            structures.parse_staircase,
            structures.serialize_staircase,
            structures.validate_staircase,
            structures.enumerate_staircase,
            encode_staircase,
            assemble_staircase,
        ),
        Family(
            "binary-tree",
            trees.parse,
            trees.serialize,
            grammar.validate_grammar_tree,
            trees.all_trees,
            grammar.grammar_pair,
            lambda t: t,
            grammar.read_binary_tree,
        ),
        Family(
            "polyomino",
            grammar.parse_polyomino,
            grammar.serialize_polyomino,
            grammar.validate_polyomino,
            grammar.enumerate_polyomino,
            grammar.encode_polyomino,
            grammar.tree_to_polyomino,
        ),
    ]
    return {entry.tag: entry for entry in entries}


FAMILIES = _families()

ALIASES = {"grammar-tree": "binary-tree"}


def family(tag: str) -> Family:
    tag = ALIASES.get(tag, tag)
    if tag not in FAMILIES:
        raise ValueError(f"unknown family {tag!r}")
    return FAMILIES[tag]


# ---------------------------------------------------------------------------
# Decoding


@lru_cache(maxsize=None)
def _decode_table(tag: str, n: int) -> dict[tuple, object]:
    """Canonical S rows -> the *tag* value of size *n* that encodes to them.

    S alone is the key: on a canonical pair, for i < j exactly one of
    i R j and j S i holds, so S fixes R.
    """
    fam = FAMILIES[tag]
    table: dict[tuple, object] = {}
    for value in fam.enumerate(n):
        key = canonicalize(fam.encode(value)).S.rows
        if key in table:
            raise InvariantViolation(
                f"{tag} encoder maps two size-{n} values to the same pair"
            )
        table[key] = value
    return table


def reference_decode(pair: CatalanPair, tag: str) -> object:
    """Invert any family's encoder by exhaustive table lookup, up to size
    ``DEFAULT_TABLE_CAP``."""
    fam = family(tag)
    if pair.n > DEFAULT_TABLE_CAP:
        raise SizeLimitError(
            f"size {pair.n} exceeds the decode-table cap of {DEFAULT_TABLE_CAP}"
        )
    canon = canonicalize(pair)
    table = _decode_table(fam.tag, pair.n)
    if canon.S.rows not in table:
        raise InvariantViolation(f"no {fam.tag} value of size {pair.n} encodes this pair")
    return table[canon.S.rows]


def decode_pair(pair: CatalanPair, tag: str) -> object:
    """Turn a valid pair into the *tag* family's value for its class."""
    fam = family(tag)
    if fam.assemble is None:
        return reference_decode(pair, fam.tag)
    return fam.assemble(pair_to_tree(pair))


def convert(value: object, src: str, dst: str) -> object:
    """Carry a value from one family to another through its canonical pair.

    The source family's ``read``, or else its encoder, checks *value* and
    raises ValueError with its ``validate`` message.  The pair built from
    ``read``'s preorder left sizes is canonical by construction, so it
    skips ``canonicalize`` and meets its one pair check in the decoder;
    any other source's pair is checked by ``canonicalize`` as well.
    """
    fsrc = family(src)
    fdst = family(dst)
    if fsrc.read is None:
        pair = canonicalize(fsrc.encode(value)).pair
    else:
        pair = _left_sizes_pair(fsrc.read(value), inorder=False)
    return decode_pair(pair, fdst.tag)
