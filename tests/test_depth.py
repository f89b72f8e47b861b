"""Deep inputs at the default recursion limit: no tree walk may recurse.

Chains of DEPTH nodes are deeper than CPython's default limit of 1000
frames, so any recursion along the chain raises RecursionError.  These
tests never raise the limit.
"""

from __future__ import annotations

import random
import sys

import pytest

from catpairs import convert, family, pair_to_tree, tree_to_pair, trees
from catpairs.encoders import (
    encode_dyck,
    encode_matching,
    encode_plane_tree,
    encode_seq1,
    encode_seq2,
    encode_staircase,
)
from catpairs.grammar import grammar_pair
from conftest import random_tree
from oracles import join_fold_pair
from test_bijections import ANALYTIC

DEPTH = 1100


def chain(side: str, n: int = DEPTH) -> trees.Tree:
    t = trees.EMPTY
    for _ in range(n):
        t = (t, trees.EMPTY) if side == "left" else (trees.EMPTY, t)
    return t


@pytest.fixture(params=["left", "right"])
def deep(request) -> tuple[str, trees.Tree]:
    assert sys.getrecursionlimit() <= 1000
    return request.param, chain(request.param)


@pytest.mark.parametrize("tag", ANALYTIC)
def test_family_codecs_return_on_deep_trees(tag, deep):
    fam = family(tag)
    value = fam.assemble(deep[1])
    assert fam.validate(value) is None
    text = fam.serialize(value)
    assert fam.serialize(fam.parse(text)) == text


def test_tree_walks_return_on_deep_trees(deep):
    side, t = deep
    assert trees.size(t) == DEPTH
    assert trees.serialize(t) == (
        "(" * DEPTH + "e" + ",e)" * DEPTH
        if side == "left"
        else "(e," * DEPTH + "e" + ")" * DEPTH
    )
    assert trees.to_dyck_word(t) == (
        "U" * DEPTH + "D" * DEPTH if side == "left" else "UD" * DEPTH
    )
    text = trees.serialize(t)
    assert trees.serialize(trees.parse(text)) == text
    assert trees.serialize(trees.from_dyck_word(trees.to_dyck_word(t))) == text


def test_pair_folds_return_on_deep_trees(deep):
    side, t = deep
    pair = tree_to_pair(t)
    assert grammar_pair(t) == pair == join_fold_pair(t)
    # == on tuples this deep recurses in C, so compare the text forms
    assert trees.serialize(pair_to_tree(pair)) == trees.serialize(t)
    # the staircase fold takes the upper part first, a mirror image
    mirror = chain("right" if side == "left" else "left")
    assert encode_staircase(mirror) == pair


def test_plane_tree_encoder_returns_on_a_deep_chain():
    t: tuple = ()
    for _ in range(DEPTH):
        t = (t,)
    pair = encode_plane_tree(t)
    # preorder runs down the chain: every node descends from every earlier one
    assert pair.S.rows == tuple((1 << x) - 1 for x in range(DEPTH))
    assert pair.R.rows == (0,) * DEPTH


@pytest.mark.parametrize(
    "tag, encode",
    [("dyck", encode_dyck), ("matching", encode_matching), ("seq1", encode_seq1)],
)
def test_preorder_encoders_return_on_deep_trees(tag, encode, deep):
    side, t = deep
    pair = encode(family(tag).assemble(t))
    # labels run down the chain: a left chain nests every node in every
    # earlier one, a right chain puts every node left of every later one
    earlier = tuple((1 << x) - 1 for x in range(DEPTH))
    later = tuple((1 << DEPTH) - (2 << x) for x in range(DEPTH))
    none = (0,) * DEPTH
    expected = (earlier, none) if side == "left" else (none, later)
    assert (pair.S.rows, pair.R.rows) == expected


def test_seq2_encoder_returns_on_deep_trees(deep):
    side, _ = deep
    # a left chain is all prefix: a_y = DEPTH, the fixed point last; a
    # right chain is all suffix: a_1 = 1, then a_z = z - 1
    value = (DEPTH,) * DEPTH if side == "left" else (1, *range(1, DEPTH))
    pair = encode_seq2(value)
    # each prefix node S-precedes all its ancestors, the later labels; each
    # suffix node R-precedes every later label
    later = tuple((1 << DEPTH) - (2 << x) for x in range(DEPTH))
    none = (0,) * DEPTH
    expected = (later, none) if side == "left" else (none, later)
    assert (pair.S.rows, pair.R.rows) == expected


@pytest.mark.parametrize("side", ["left", "right"])
def test_binary_tree_source_converts_a_long_chain_as_dyck_does(side):
    # the read route builds the canonical pair in O(n) row operations; a
    # per-bit relabel into it, O(n^2), would take minutes at this size
    t = chain(side, 32000)
    word = trees.to_dyck_word(t)
    for dst in ("dyck", "perm-312"):
        fdst = family(dst)
        assert fdst.serialize(convert(t, "binary-tree", dst)) == fdst.serialize(
            convert(word, "dyck", dst)
        ), dst


def test_cli_converts_a_deep_permutation(run_cli):
    value = " ".join(str(v) for v in range(DEPTH, 0, -1))
    code, out, err = run_cli(["convert", "--from", "perm-312", "--to", "perm-321", value])
    assert (code, err) == (0, "")
    assert out == " ".join(str(v) for v in [DEPTH, *range(1, DEPTH)]) + "\n"


def fold_text(t: trees.Tree) -> str:
    """``trees.serialize`` as the text join folded over the tree."""
    return trees.fold(t, lambda left, right: "(" + left + "," + right + ")", "e")


def test_dyck_writer_equals_the_dyck_fold():
    for n in range(10):
        for t in trees.all_trees(n):
            assert trees.to_dyck_word(t) == trees.fold(t, trees._dyck, ""), t
    for n in (1000, 4000):
        for side in ("left", "right"):
            t = chain(side, n)
            assert trees.to_dyck_word(t) == trees.fold(t, trees._dyck, ""), (side, n)


def test_serialize_equals_the_text_fold():
    rng = random.Random("serialize")
    for n in (0, 1, 2, 10, 100, 1000, 32000):
        cases = {"random": random_tree(rng, n)}
        if n >= 1000:
            cases.update(left=chain("left", n), right=chain("right", n))
        for shape, t in cases.items():
            assert trees.serialize(t) == fold_text(t), (shape, n)
