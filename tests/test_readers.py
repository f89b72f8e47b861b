"""The read route of ``convert``: dyck, matching, plane-tree, seq1,
binary-tree and polyomino read a value's preorder left sizes and build
its canonical pair directly.  The first four encode with the same
preorder labels; binary-tree and polyomino encode with inorder labels,
so their encoders' pair is the canonical pair relabelled.

Each test compares that route with the encode-then-canonicalize route it
replaces, which every other source still takes: the pairs must be equal,
``convert`` must give the same output on every route, and a converted
value must meet exactly one pair check on the way.
"""

from __future__ import annotations

import random

import pytest

from catpairs import (
    FAMILIES,
    SizeLimitError,
    bijections,
    canonicalize,
    convert,
    decode_pair,
    family,
    relations,
    trees,
)
from catpairs.grammar import _left_sizes_pair, tree_to_pair
from conftest import random_tree

READ_TAGS = ("dyck", "matching", "plane-tree", "seq1", "binary-tree", "polyomino")


def old_route_pair(fam, value):
    """The canonical pair as ``convert`` reached it before the read route."""
    return canonicalize(fam.encode(value)).pair


def chain(side: str, n: int) -> trees.Tree:
    t = trees.EMPTY
    for _ in range(n):
        t = (t, trees.EMPTY) if side == "left" else (trees.EMPTY, t)
    return t


def large_trees():
    """(name, tree): a seeded random tree and both chains per size, each
    above the decode-table cap."""
    rng = random.Random("read route")
    for n in (13, 100, 1000, 2000):
        yield f"random {n}", random_tree(rng, n)
        yield f"left chain {n}", chain("left", n)
        yield f"right chain {n}", chain("right", n)


def test_exactly_the_six_read_families_read():
    assert tuple(tag for tag, fam in FAMILIES.items() if fam.read) == READ_TAGS


@pytest.mark.parametrize("tag", READ_TAGS)
def test_encode_builds_from_read_in_the_family_labels(tag):
    fam = family(tag)
    inorder = tag in ("binary-tree", "polyomino")
    for n in range(7):
        for value in fam.enumerate(n):
            assert fam.encode(value) == _left_sizes_pair(fam.read(value), inorder), value


@pytest.mark.parametrize("value", ["((e,e),e)", ((), ((),)), ((), (), ()), None])
def test_binary_tree_read_keeps_the_value_message(value):
    with pytest.raises(ValueError) as caught:
        convert(value, "binary-tree", "dyck")
    assert str(caught.value) == (
        "expected nested (left, right) tuples with () for the empty tree"
    )


@pytest.mark.parametrize("tag", READ_TAGS)
def test_read_pair_is_the_canonical_pair_on_every_small_value(tag, monkeypatch):
    # the pair that convert hands the decoder: a relabelled pair would
    # decode to the same value, so the outputs alone cannot show it
    decoded = []
    monkeypatch.setattr(bijections, "decode_pair", lambda pair, dst: decoded.append(pair))
    fam = family(tag)
    for n in range(9):
        for value in fam.enumerate(n):
            convert(value, tag, "dyck")
            assert decoded.pop() == old_route_pair(fam, value), value


@pytest.mark.parametrize("tag", READ_TAGS)
def test_read_pair_is_the_canonical_pair_on_large_values(tag):
    # the inorder-labelled tree pair, relabelled by canonicalize, is a
    # second route to the same canonical pair
    fam = family(tag)
    for name, t in large_trees():
        value = fam.assemble(t)
        pair = _left_sizes_pair(fam.read(value), inorder=False)
        assert pair == old_route_pair(fam, value), name
        if pair.n <= 1000:  # relabelling costs O(n^2) bit steps
            assert pair == canonicalize(tree_to_pair(t)).pair, name


@pytest.mark.parametrize("src", READ_TAGS)
def test_convert_keeps_its_output_on_every_route_from_small_values(src):
    fsrc = family(src)
    for n in range(9):
        for value in fsrc.enumerate(n):
            pair = old_route_pair(fsrc, value)
            for dst in FAMILIES:
                assert convert(value, src, dst) == decode_pair(pair, dst), (value, dst)


@pytest.mark.parametrize("src", READ_TAGS)
def test_convert_keeps_its_output_text_on_large_values(src):
    fsrc = family(src)
    for name, t in large_trees():
        value = fsrc.assemble(t)
        pair = old_route_pair(fsrc, value)
        for dst, fdst in FAMILIES.items():
            if fdst.assemble is None:
                with pytest.raises(SizeLimitError):
                    convert(value, src, dst)
                continue
            assert fdst.serialize(convert(value, src, dst)) == fdst.serialize(
                decode_pair(pair, dst)
            ), (name, dst)


def test_read_sources_meet_one_pair_check_and_others_two(monkeypatch):
    # a pair check is a _derived_order call: check_axioms, total_order and
    # so canonicalize and decompose_pair all run through it
    checks = canonicalized = 0
    derived_order = relations._derived_order
    canonicalize_ = bijections.canonicalize

    def counting_order(S, R):
        nonlocal checks
        checks += 1
        return derived_order(S, R)

    def counting_canonicalize(pair):
        nonlocal canonicalized
        canonicalized += 1
        return canonicalize_(pair)

    sizes = (1, 5, 8)
    for n in sizes:  # build the seq2 tables before counting
        bijections._decode_table("seq2", n)
    monkeypatch.setattr(relations, "_derived_order", counting_order)
    monkeypatch.setattr(bijections, "canonicalize", counting_canonicalize)
    for src, fsrc in FAMILIES.items():
        for n in sizes:
            value = fsrc.enumerate(n)[-1]
            for dst, fdst in FAMILIES.items():
                checks = canonicalized = 0
                convert(value, src, dst)
                if fsrc.read is None:
                    assert checks == 2, (src, dst, n)
                    assert canonicalized == 1 + (fdst.assemble is None), (src, dst, n)
                else:
                    # a table decode's one check is its canonicalize
                    assert checks == 1, (src, dst, n)
                    assert canonicalized == (fdst.assemble is None), (src, dst, n)
