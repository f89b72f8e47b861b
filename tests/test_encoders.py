"""Structure-to-pair encoders: pinned examples, validity laws, injectivity."""

from __future__ import annotations

from itertools import permutations

import pytest

from catpairs import CatalanPair, canonicalize, compose_pair
from catpairs.encoders import (
    encode_dyck,
    encode_matching,
    encode_perm_312,
    encode_perm_321,
    encode_plane_tree,
    encode_seq1,
    encode_seq2,
    encode_staircase,
    pair_for_avoidance_class,
    profile_matching,
)
from catpairs.structures import (
    PATTERNS,
    PlaneTree,
    avoids,
    enumerate_dyck,
    enumerate_matching,
    enumerate_perm,
    enumerate_plane_tree,
    enumerate_seq1,
    enumerate_seq2,
    enumerate_staircase,
    parse_matching,
    parse_plane_tree,
    parse_seq1,
    parse_seq2,
    profile_unmatching,
)
from oracles import cover_exists, cover_pair, dyck_to_matching, perm_points


def sets(pair: CatalanPair) -> tuple[set, set]:
    return set(pair.S.pairs), set(pair.R.pairs)


def injective_on(values, encode):
    images = {canonicalize(encode(v)) for v in values}
    return len(images) == len(values)


# ----------------------------------------------------------- Dyck/matching

def test_encode_matching_pinned_values():
    pair = encode_matching(parse_matching("1-4 2-3 5-6"))
    assert sets(pair) == ({(1, 0)}, {(0, 2), (1, 2)})
    pair = encode_matching(parse_matching("1-6 2-3 4-5"))
    assert sets(pair) == ({(1, 0), (2, 0)}, {(1, 2)})


def test_encode_dyck_pinned_values():
    assert sets(encode_dyck("UUDDUD")) == ({(1, 0)}, {(0, 2), (1, 2)})
    assert sets(encode_dyck("UDUDUD")) == (set(), {(0, 1), (0, 2), (1, 2)})
    assert sets(encode_dyck("UUUDDD")) == ({(1, 0), (2, 0), (2, 1)}, set())


def test_dyck_and_matching_encoders_agree_label_for_label():
    # two readings of the same nesting structure: tunnel contents, arch spans
    for n in range(6):
        for word in enumerate_dyck(n):
            assert encode_dyck(word) == encode_matching(dyck_to_matching(word))


def test_encode_dyck_valid_and_injective():
    for n in range(6):
        words = enumerate_dyck(n)
        assert all(encode_dyck(w).is_valid() for w in words)
        assert injective_on(words, encode_dyck)


# -------------------------------------------------------------- plane tree

def test_encode_plane_tree_pinned_values():
    pair = encode_plane_tree(parse_plane_tree("((()))"))
    assert sets(pair) == ({(1, 0), (2, 0), (2, 1)}, set())
    pair = encode_plane_tree(parse_plane_tree("()()()"))
    assert sets(pair) == (set(), {(0, 1), (0, 2), (1, 2)})


def reference_encode_plane_tree(t: PlaneTree) -> CatalanPair:
    """The path-based encoder: compare child-index paths pair by pair."""
    paths: list[tuple[int, ...]] = []
    stack = [((), t)]
    while stack:
        prefix, subtree = stack.pop()
        if prefix:
            paths.append(prefix)
        for index in range(len(subtree) - 1, -1, -1):
            stack.append((prefix + (index,), subtree[index]))
    n = len(paths)
    s_pairs = []
    r_pairs = []
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            px, py = paths[x], paths[y]
            if len(py) < len(px) and px[: len(py)] == py:
                s_pairs.append((x, y))
            elif px[: len(py)] != py and py[: len(px)] != px:
                shared = 0
                while px[shared] == py[shared]:
                    shared += 1
                if px[shared] < py[shared]:
                    r_pairs.append((x, y))
    return CatalanPair.from_pairs(n, s_pairs, r_pairs)


def test_encode_plane_tree_matches_path_reference():
    for n in range(10):
        for t in enumerate_plane_tree(n):
            assert encode_plane_tree(t) == reference_encode_plane_tree(t)


def test_encode_plane_tree_valid_and_injective():
    for n in range(6):
        values = enumerate_plane_tree(n)
        assert all(encode_plane_tree(t).is_valid() for t in values)
        assert injective_on(values, encode_plane_tree)


# ---------------------------------------------- permutations, first corner

def test_encode_perm_312_pinned_example():
    pair = encode_perm_312((2, 1, 3, 5, 6, 4))
    assert sets(pair) == (
        {(0, 1), (3, 5), (4, 5)},
        {(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5),
         (2, 3), (2, 4), (2, 5), (3, 4)},
    )


def test_encode_perm_312_is_total_but_valid_only_on_class():
    # the image always lists inversions/noninversions; the axioms hold
    # exactly when the pattern is avoided
    pair = encode_perm_312((3, 1, 2))
    assert sets(pair) == ({(0, 1), (0, 2)}, {(1, 2)})
    assert pair.report().violations == (("iv", (0, 1, 2)),)
    for n in range(7):
        for p in permutations(range(1, n + 1)):
            assert encode_perm_312(p).is_valid() == avoids(p, "312")


def test_encode_perm_312_injective_on_class():
    for n in range(7):
        assert injective_on(enumerate_perm(n, "312"), encode_perm_312)


# --------------------------------------------- permutations, second corner

def test_profile_matching_pinned_values():
    assert profile_matching((2, 3, 1, 4, 5)) == (2, 3, 1, 4, 5)
    assert profile_matching((3, 1, 4, 2)) == (3, 2, 4, 1)
    assert profile_matching((1, 2, 3)) == (1, 2, 3)
    assert profile_matching(()) == ()


def test_profile_matching_lands_in_the_other_class():
    for n in range(7):
        for p in enumerate_perm(n, "321"):
            assert avoids(profile_matching(p), "312")


def test_profile_unmatching_inverts_profile_matching():
    # both classes come from a filter over S_n, not from the enumerator,
    # which is itself built with profile_unmatching
    for n in range(9):
        perms = list(permutations(range(1, n + 1)))
        for p in (p for p in perms if avoids(p, "321")):
            assert profile_unmatching(profile_matching(p)) == p
        for q in (q for q in perms if avoids(q, "312")):
            assert profile_matching(profile_unmatching(q)) == q


def test_encode_perm_321_pinned_example():
    pair = encode_perm_321((2, 3, 1, 4, 5))
    assert sets(pair) == (
        {(0, 2), (1, 2)},
        {(0, 1), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)},
    )


def test_encode_perm_321_more_pinned_values():
    pair = encode_perm_321((3, 1, 4, 2))
    assert sets(pair) == ({(0, 1), (0, 3), (1, 3), (2, 3)}, {(0, 2), (1, 2)})
    pair = encode_perm_321((1, 2, 3, 4))
    assert sets(pair) == (set(), {(i, j) for i in range(4) for j in range(i + 1, 4)})


def test_encode_perm_321_rejects_pattern():
    with pytest.raises(ValueError, match="pattern 321"):
        encode_perm_321((3, 2, 1))


def test_encode_perm_321_valid_and_injective():
    for n in range(7):
        values = enumerate_perm(n, "321")
        assert all(encode_perm_321(p).is_valid() for p in values)
        assert injective_on(values, encode_perm_321)


def test_cover_exists_pinned_example():
    points = perm_points((3, 1, 4, 2))
    assert cover_exists(points, (2, 1), (4, 2))
    assert not cover_exists(points, (1, 3), (3, 4))


def test_cover_pair_collapses_outside_the_class():
    # both three-letter reversals land on the all-S pair: the raw rule is
    # neither valid nor injective beyond the avoidance class
    for p in ((3, 2, 1), (3, 1, 2)):
        pair = cover_pair(p)
        assert len(pair.S.pairs) == 3 and len(pair.R.pairs) == 0


def test_cover_pair_fails_axioms_on_a_321_avoider():
    # (2,4,1,3) avoids the pattern, yet the raw rule emits an intransitive S
    p = (2, 4, 1, 3)
    assert avoids(p, "321")
    pair = cover_pair(p)
    assert sets(pair) == (
        {(0, 2), (1, 2), (1, 3), (2, 3)},
        {(0, 1), (0, 3)},
    )
    assert pair.report().violations[0] == ("i:S", (0, 3))


def test_cover_pair_agrees_with_encoder_wherever_valid():
    # frozen: how many avoiders the raw rule handles at each size, and that
    # the shipped encoder extends it exactly on that region
    valid_counts = {3: 5, 4: 13, 5: 34, 6: 89, 7: 233}
    for n in range(8):
        good = [p for p in enumerate_perm(n, "321") if cover_pair(p).is_valid()]
        if n >= 3:
            assert len(good) == valid_counts[n]
        for p in good:
            assert cover_pair(p) == encode_perm_321(p)


# --------------------------------------------------------------- sequences

def test_encode_seq1_pinned_example():
    pair = encode_seq1(parse_seq1("5 2 4 4 5 6"))
    assert sets(pair) == (
        {(1, 0), (2, 0), (3, 0), (4, 0), (3, 2)},
        {(0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5),
         (3, 4), (3, 5), (4, 5)},
    )


def test_encode_seq1_identity_sequence_is_all_r():
    pair = encode_seq1((1, 2, 3))
    assert sets(pair) == (set(), {(0, 1), (0, 2), (1, 2)})


def test_encode_seq1_valid_and_injective():
    for n in range(7):
        values = enumerate_seq1(n)
        assert all(encode_seq1(s).is_valid() for s in values)
        assert injective_on(values, encode_seq1)


def test_encode_seq2_pinned_example():
    pair = encode_seq2(parse_seq2("2 4 4 5 5 5 6 6"))
    assert sets(pair) == (
        {(0, 4), (1, 2), (1, 4), (2, 4), (3, 4), (7, 6)},
        {(0, 1), (0, 2), (0, 3), (0, 5), (0, 6), (0, 7),
         (1, 3), (1, 5), (1, 6), (1, 7),
         (2, 3), (2, 5), (2, 6), (2, 7),
         (3, 5), (3, 6), (3, 7),
         (4, 5), (4, 6), (4, 7), (5, 6), (5, 7)},
    )


def test_encode_seq2_small_values():
    assert sets(encode_seq2(())) == (set(), set())
    assert sets(encode_seq2((1,))) == (set(), set())
    assert sets(encode_seq2((2, 2))) == ({(0, 1)}, set())
    assert sets(encode_seq2((1, 1))) == (set(), {(0, 1)})


def test_encode_seq2_valid_and_injective():
    for n in range(7):
        values = enumerate_seq2(n)
        assert all(encode_seq2(s).is_valid() for s in values)
        assert injective_on(values, encode_seq2)


# -------------------------------------------------------------- staircases

def test_encode_staircase_composes_the_two_flights():
    # a value is the tree (lower, upper); the upper flight takes the left
    # slot of the composition
    for n in range(6):
        for t in enumerate_staircase(n):
            if t == ():
                continue
            lower, upper = t
            assert encode_staircase(t) == compose_pair(
                encode_staircase(upper), encode_staircase(lower)
            )


def test_encode_staircase_valid_and_injective():
    for n in range(6):
        values = enumerate_staircase(n)
        assert all(encode_staircase(t).is_valid() for t in values)
        assert injective_on(values, encode_staircase)


# --------------------------------------------------- pattern-class dispatch

def test_pair_for_avoidance_class_rejects_nonmembers():
    with pytest.raises(ValueError, match="pattern 231"):
        pair_for_avoidance_class((2, 3, 1), "231")


def test_pair_for_avoidance_class_base_patterns_match_encoders():
    for p in enumerate_perm(4, "312"):
        assert pair_for_avoidance_class(p, "312") == encode_perm_312(p)
    for p in enumerate_perm(4, "321"):
        assert pair_for_avoidance_class(p, "321") == encode_perm_321(p)


def test_pair_for_avoidance_class_valid_and_injective_everywhere():
    for pattern in PATTERNS:
        for n in range(6):
            values = enumerate_perm(n, pattern)
            pairs = [pair_for_avoidance_class(p, pattern) for p in values]
            assert all(pair.is_valid() for pair in pairs)
            assert len({canonicalize(q) for q in pairs}) == len(values)
