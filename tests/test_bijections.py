"""Family registry, pair decoders, and the any-to-any conversion engine."""

from __future__ import annotations

import gc
import importlib
import pkgutil
import random
import sys

import pytest

import catpairs
from catpairs import (
    ALIASES,
    DEFAULT_TABLE_CAP,
    FAMILIES,
    CatalanPair,
    InvariantViolation,
    SizeLimitError,
    canonicalize,
    convert,
    decode_pair,
    decompose_pair,
    enumerate_pairs,
    family,
    pair_to_tree,
    reference_decode,
)
from catpairs import grammar, structures, trees
from catpairs.bijections import _decode_table, assemble_perm_312
from catpairs.encoders import encode_perm_312
from catpairs.grammar import tree_to_pair
from catpairs.structures import enumerate_seq2, seq2_fixed_point
from conftest import random_tree

FAMILY_TAGS = (
    "dyck",
    "matching",
    "plane-tree",
    "perm-312",
    "perm-321",
    "perm-231",
    "perm-213",
    "perm-132",
    "perm-123",
    "seq1",
    "seq2",
    "staircase",
    "binary-tree",
    "polyomino",
)

ANALYTIC = tuple(tag for tag in FAMILY_TAGS if tag != "seq2")

GARBAGE = {
    "dyck": "DU",
    "matching": ((1, 3), (2, 4)),
    "plane-tree": "()",
    "perm-312": (3, 1, 2),
    "perm-321": (3, 2, 1),
    "perm-231": (2, 3, 1),
    "perm-213": (2, 1, 3),
    "perm-132": (1, 3, 2),
    "perm-123": (1, 2, 3),
    "seq1": (1, 1),
    "seq2": (2, 3),
    "staircase": "x",
    "binary-tree": ((),),
    "polyomino": ("EN", "NE"),
}

# a second invalid value per family
MORE_GARBAGE = {
    "dyck": "UDU",
    "matching": ((1, 2), (2, 3)),
    "plane-tree": ((), 5),
    **{tag: (1, 1) for tag in FAMILY_TAGS if tag.startswith("perm-")},
    "seq1": (2, 3, 3),
    "seq2": (1, 2),
    "staircase": ((), ((),)),
    "binary-tree": "e",
    "polyomino": ("NE", "NE"),
}

# entries that only equal or look like ints, per family that holds ints
NON_INT_GARBAGE = {
    **{
        tag: [(1.0, 2), (2.0, 1), (1, "2"), (True, 2)]
        for tag in FAMILY_TAGS if tag.startswith("perm-")
    },
    "seq1": [(1.0,), ("1",), (2, 2.0)],
    "seq2": [(1.0,), ("1",), (False,)],
    "matching": [((1.0, 2),), ((1, "2"),), ((1, 4), (2, 3.0))],
}

# values of the wrong shape and what validate says of them, per family
# whose value is a sequence or a word
WRONG_SHAPE_GARBAGE = {
    **{
        tag: [
            (None, "expected a sequence of ints, got NoneType"),
            (5, "expected a sequence of ints, got int"),
            ({1}, "expected a sequence of ints, got set"),
        ]
        for tag in FAMILY_TAGS if tag.startswith("perm-")
    },
    "seq1": [
        (None, "expected a sequence of ints, got NoneType"),
        (5, "expected a sequence of ints, got int"),
    ],
    "seq2": [
        (None, "expected a sequence of ints, got NoneType"),
        (1.0, "expected a sequence of ints, got float"),
    ],
    "matching": [
        (None, "expected a sequence of arches, got NoneType"),
        (5, "expected a sequence of arches, got int"),
        (((1, 2, 3), (4,)), "arch (1, 2, 3) at position 1 is not a pair of endpoints"),
        ((1, 2), "arch 1 at position 1 is not a pair of endpoints"),
        (((1, 4), [2, 3], (5,)), "arch (5,) at position 3 is not a pair of endpoints"),
    ],
    "dyck": [
        (None, "expected a str of U and D letters, got NoneType"),
        (["U", "D"], "expected a str of U and D letters, got list"),
    ],
}


# ---------------------------------------------------------------- registry

def test_registry_lists_every_family_once():
    assert tuple(FAMILIES) == FAMILY_TAGS
    assert ALIASES == {"grammar-tree": "binary-tree"}


def test_family_lookup_and_alias():
    assert family("dyck").tag == "dyck"
    assert family("grammar-tree").tag == "binary-tree"
    with pytest.raises(ValueError, match="unknown family 'nope'"):
        family("nope")


def test_family_text_round_trips():
    for tag in FAMILY_TAGS:
        fam = family(tag)
        for n in range(5):
            for value in fam.enumerate(n):
                assert fam.validate(value) is None
                assert fam.parse(fam.serialize(value)) == value


def test_family_validate_flags_garbage():
    for tag, bad in GARBAGE.items():
        assert family(tag).validate(bad) is not None, tag


def test_avoidance_family_parse_enforces_membership():
    # parse scans any permutation; the class check runs in encode and convert
    assert family("perm-312").parse("3 1 2") == (3, 1, 2)
    with pytest.raises(ValueError, match="pattern 312"):
        family("perm-312").encode(family("perm-312").parse("3 1 2"))
    assert family("perm-123").parse("1 2 3") == (1, 2, 3)
    with pytest.raises(ValueError, match="pattern 123"):
        convert(family("perm-123").parse("1 2 3"), "perm-123", "dyck")


# ------------------------------------------------------------ pair decoding

def test_assemble_inverts_encode_for_analytic_families():
    for tag in ANALYTIC:
        fam = family(tag)
        assert fam.assemble is not None
        for n in range(6):
            for value in fam.enumerate(n):
                assert fam.assemble(pair_to_tree(fam.encode(value))) == value


def chain(n: int, side: int) -> trees.Tree:
    """n nodes, each the *side* child (0 left, 1 right) of the one before."""
    t = trees.EMPTY
    for _ in range(n):
        t = (t, trees.EMPTY) if side == 0 else (trees.EMPTY, t)
    return t


def _join_fold_case(tag, join, leaf, serialize, finish=None):
    """(assemble, join, leaf, finish, serialize) for one family's writer:
    the oracle is *finish* of the *join* fold with *leaf*."""
    return pytest.param(
        family(tag).assemble, join, leaf, finish or (lambda value: value), serialize,
        id=tag,
    )


def _perm_case(pattern):
    return _join_fold_case(
        f"perm-{pattern}",
        structures._perm_312_join,
        (),
        structures.serialize_perm,
        lambda p: structures.perm_from_312(p, pattern),
    )


@pytest.mark.parametrize(
    "assemble, join, leaf, finish, serialize",
    [
        _join_fold_case("matching", structures._matching_join, (), structures.serialize_matching),
        _join_fold_case("perm-312", structures._perm_312_join, (), structures.serialize_perm),
        _join_fold_case("seq1", structures._seq1_join, (), structures.serialize_seq),
        _join_fold_case(
            "plane-tree", structures._plane_tree_join, (), structures.serialize_plane_tree
        ),
        _join_fold_case("dyck", trees._dyck, "", structures.serialize_dyck),
        _join_fold_case("binary-tree", lambda l, r: (l, r), trees.EMPTY, trees.serialize),
        _join_fold_case(
            "staircase", structures.swap_parts, trees.EMPTY, structures.serialize_staircase
        ),
        _join_fold_case(
            "polyomino", trees._dyck, "", grammar.serialize_polyomino,
            grammar._word_to_polyomino,
        ),
        *[_perm_case(pattern) for pattern in ("321", "231", "213", "132", "123")],
    ],
)
def test_one_pass_assemblers_equal_the_join_fold(assemble, join, leaf, finish, serialize):
    # the oracle folds the join that the enumerators grow every value with;
    # every tree with n <= 9, random trees and chains, compared by text
    rng = random.Random(16)
    shapes = [t for n in range(10) for t in trees.all_trees(n)]
    shapes += [random_tree(rng, n) for n in (16, 64, 256, 1024) for _ in range(5)]
    shapes += [chain(n, side) for n in (100, 4000) for side in (0, 1)]
    for t in shapes:
        assert serialize(assemble(t)) == serialize(finish(trees.fold(t, join, leaf)))


def test_a_trees_312_avoider_carries_the_trees_own_pair():
    # label for label, not just up to relabelling: preorder node p is the
    # position that holds the value p + 1
    rng = random.Random("312 avoider:pair")
    shapes = [t for n in range(10) for t in trees.all_trees(n)]
    shapes += [random_tree(rng, n) for n in (16, 64, 256, 1024, 2000) for _ in range(3)]
    for t in shapes:
        assert encode_perm_312(assemble_perm_312(t)) == tree_to_pair(t), t


def test_table_families_have_no_assembler():
    assert [tag for tag in FAMILY_TAGS if family(tag).assemble is None] == ["seq2"]


def test_perm_321_and_123_assemblers_agree_with_reference_decode():
    for tag in ("perm-321", "perm-123"):
        fam = family(tag)
        for n in range(10):
            for value in fam.enumerate(n):
                pair = fam.encode(value)
                assert fam.assemble(pair_to_tree(pair)) == reference_decode(pair, tag)


def test_reference_decode_inverts_encode():
    for tag in ("perm-321", "perm-123", "seq2"):
        fam = family(tag)
        for n in range(6):
            for value in fam.enumerate(n):
                assert reference_decode(fam.encode(value), tag) == value


def test_reference_decode_also_serves_analytic_families():
    fam = family("dyck")
    for word in fam.enumerate(4):
        assert reference_decode(fam.encode(word), "dyck") == word


def test_reference_decode_respects_size_cap():
    # the cap is checked before any table is built
    pair = family("perm-321").encode(tuple(range(1, 14)))
    with pytest.raises(SizeLimitError, match="decode-table cap of 12"):
        reference_decode(pair, "perm-321")
    assert decode_pair(pair, "perm-321") == tuple(range(1, 14))  # analytic


def test_reference_decode_rejects_invalid_pairs():
    broken = CatalanPair.from_pairs(2, [], [])
    with pytest.raises(InvariantViolation):
        reference_decode(broken, "perm-321")


def test_decode_pair_accepts_any_labeling(seven_pair):
    image = (4, 1, 5, 0, 6, 2, 3)
    moved = seven_pair.relabel(image)
    assert decode_pair(moved, "dyck") == decode_pair(seven_pair, "dyck")


def test_decode_pair_pinned_values(seven_pair):
    assert decode_pair(seven_pair, "dyck") == "UUDDUDUUUDDUDD"
    assert decode_pair(seven_pair, "perm-312") == (2, 1, 3, 6, 5, 7, 4)
    assert family("matching").serialize(
        decode_pair(seven_pair, "matching")
    ) == "1-4 2-3 5-6 7-14 8-11 9-10 12-13"
    assert family("plane-tree").serialize(
        decode_pair(seven_pair, "plane-tree")
    ) == "(())()((())())"


# ----------------------------------------------------------------- convert

def test_convert_pinned_routes():
    assert convert("UUDDUD", "dyck", "perm-312") == (2, 1, 3)
    assert convert((2, 1, 3), "perm-312", "dyck") == "UUDDUD"
    assert convert("UUDUDD", "dyck", "matching") == ((1, 6), (2, 3), (4, 5))
    assert convert((1,), "seq2", "polyomino") == ("NE", "EN")


def test_convert_identity_route_is_identity():
    for tag in FAMILY_TAGS:
        fam = family(tag)
        for value in fam.enumerate(4):
            assert convert(value, tag, tag) == value


def test_convert_round_trips_through_any_family():
    words = family("dyck").enumerate(5)
    for tag in FAMILY_TAGS:
        for word in words:
            there = convert(word, "dyck", tag)
            assert convert(there, tag, "dyck") == word


def test_convert_leaves_no_reference_cycles():
    # conversion garbage must go by reference counting alone: a recursive
    # closure (plane-tree encode, a cold seq2 build) leaves a cycle per call
    _decode_table.cache_clear()
    gc.collect()
    gc.disable()
    try:
        for n in (1, 4, 7):
            for src in FAMILY_TAGS:
                value = family(src).enumerate(n)[-1]
                for dst in FAMILY_TAGS:
                    convert(value, src, dst)
        assert gc.collect() == 0
    finally:
        gc.enable()


# The unbounded caches production code reuses: five permutation classes
# start from the 312 list, staircase and binary-tree share the sorted
# trees, seq2 decodes through its table, and the CLI builds one parser.
KEPT_CACHES = {
    "catpairs.structures.enumerate_perm",
    "catpairs.trees.all_trees",
    "catpairs.bijections._decode_table",
    "catpairs.cli._build_parser",
}


def test_only_the_reused_caches_are_kept():
    # found as perfbench/run.py:lru_caches finds the caches a cold pass clears
    for info in pkgutil.iter_modules(catpairs.__path__):
        importlib.import_module(f"catpairs.{info.name}")
    modules = [
        module for name, module in sys.modules.items()
        if name == "catpairs" or name.startswith("catpairs.")
    ]
    found = {
        f"{value.__module__}.{value.__qualname__}"
        for module in modules
        for value in vars(module).values()
        if hasattr(value, "cache_clear")
    }
    assert found == KEPT_CACHES


def test_convert_accepts_alias_tags():
    assert convert("UDUD", "dyck", "grammar-tree") == convert(
        "UDUD", "dyck", "binary-tree"
    )


def test_convert_rejects_invalid_values():
    with pytest.raises(ValueError, match="pattern 312"):
        convert((3, 1, 2), "perm-312", "dyck")
    with pytest.raises(ValueError):
        convert("DU", "dyck", "seq1")


@pytest.mark.parametrize("tag", FAMILY_TAGS)
def test_convert_rejects_invalid_values_with_the_family_message(tag):
    # the encoder is the only check, and it says what validate says
    for bad in (GARBAGE[tag], MORE_GARBAGE[tag]):
        message = family(tag).validate(bad)
        assert message is not None
        with pytest.raises(ValueError) as caught:
            convert(bad, tag, "dyck")
        assert str(caught.value) == message


@pytest.mark.parametrize("tag", sorted(NON_INT_GARBAGE))
def test_non_int_entries_are_named_by_validate_and_convert(tag):
    for bad in NON_INT_GARBAGE[tag]:
        message = family(tag).validate(bad)
        assert isinstance(message, str) and "is not an int" in message, bad
        with pytest.raises(ValueError) as caught:
            convert(bad, tag, "dyck")
        assert str(caught.value) == message


@pytest.mark.parametrize("tag", sorted(WRONG_SHAPE_GARBAGE))
def test_wrong_shapes_are_named_by_validate_and_convert(tag):
    for bad, message in WRONG_SHAPE_GARBAGE[tag]:
        assert family(tag).validate(bad) == message
        with pytest.raises(ValueError) as caught:
            convert(bad, tag, "dyck")
        assert str(caught.value) == message


def test_convert_respects_size_cap():
    word = "U" * 13 + "D" * 13
    with pytest.raises(SizeLimitError):
        convert(word, "dyck", "seq2")
    assert convert(word, "dyck", "staircase")  # analytic: no table


def test_default_table_cap_value():
    assert DEFAULT_TABLE_CAP == 12


# -------------------------------------------------- decomposition structure

def test_seq2_pairs_decompose_at_the_fixed_point():
    # the split label of the encoded pair is the fixed point, its S-side
    # the indices before it, its R-side the indices after it
    for n in range(1, 7):
        for s in enumerate_seq2(n):
            f = seq2_fixed_point(s)
            x, left, right = decompose_pair(family("seq2").encode(s))
            assert x == f - 1
            assert left.n == f - 1
            assert right.n == n - f


def test_every_canonical_pair_is_reachable_from_each_family():
    for n in range(5):
        classes = set(enumerate_pairs(n))
        for tag in FAMILY_TAGS:
            fam = family(tag)
            encoded = {canonicalize(fam.encode(v)) for v in fam.enumerate(n)}
            assert encoded == classes, tag
