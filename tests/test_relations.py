"""Relation bitsets, the four axioms, compose/decompose, canonical forms."""

from __future__ import annotations

import random
import re
from itertools import combinations, permutations

import pytest

from catpairs import (
    CanonicalPair,
    CatalanPair,
    InvariantViolation,
    Relation,
    canonicalize,
    catalan,
    check_axioms,
    compose_pair,
    decode_pair,
    decompose_pair,
    enumerate_pairs,
    family,
    is_isomorphic,
    is_strict_order,
    serialize_pair,
    total_order,
)
from catpairs import relations
from catpairs.relations import bits
from conftest import SEVEN_R, SEVEN_S
from oracles import catalan_recurrence, plain_relabel, reference_enumerate_pairs

CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796)


def sets(pair: CatalanPair) -> tuple[set, set]:
    return set(pair.S.pairs), set(pair.R.pairs)


# ---------------------------------------------------------------- Relation

def test_bits_lists_the_set_bits_of_sparse_and_dense_masks():
    # bits walks a mask in Python or in C depending on its length and
    # density; every mask must list what a plain digit scan lists
    rng = random.Random("bits")
    masks = [0]
    masks += [1 << j for j in range(130)]
    masks += [(1 << j) - 1 for j in range(1, 131)]
    for _ in range(300):
        length = rng.randrange(8, 2101)
        density = 1 / rng.choice((1, 2, 4, 8, 16, 32, 64))
        row = sum(1 << j for j in range(length - 1) if rng.random() < density)
        masks.append(row | 1 << (length - 1))
    # either side of the rule "more than one bit in eight, past 16 bits":
    # k set bits with 8k <= length + 40 stay in Python, k + 1 go to C
    for length in (16, 17, 24, 25, 40, 64, 129, 1000, 2100):
        k = (length + 40) // 8
        for size in (k - 1, k, k + 1, k + 2):
            chosen = rng.sample(range(length - 1), min(size, length) - 1)
            masks.append(sum(1 << j for j in chosen) | 1 << (length - 1))
    for mask in masks:
        assert list(bits(mask)) == [
            j for j in range(mask.bit_length()) if mask >> j & 1
        ]


def test_relation_from_pairs_round_trips():
    rel = Relation.from_pairs(4, [(2, 0), (0, 1), (3, 1)])
    assert rel.pairs == frozenset({(0, 1), (2, 0), (3, 1)})
    assert (2, 0) in rel
    assert (0, 2) not in rel


def test_relation_rejects_diagonal_and_range():
    with pytest.raises(ValueError, match="diagonal"):
        Relation.from_pairs(2, [(1, 1)])
    with pytest.raises(ValueError):
        Relation.from_pairs(2, [(0, 2)])


def test_relation_restrict_and_relabel():
    rel = Relation.from_pairs(4, [(0, 1), (1, 3), (0, 3)])
    sub = rel.restrict((0, 1, 3))
    assert sub.n == 3
    assert set(sub.pairs) == {(0, 1), (1, 2), (0, 2)}
    swapped = rel.relabel((1, 0, 2, 3))
    assert set(swapped.pairs) == {(1, 0), (0, 3), (1, 3)}


def test_relation_rows_given_as_a_list_equal_the_tuple():
    assert Relation(2, [0, 0]) == Relation(2, (0, 0))
    assert Relation(3, [6, 0, 0]).rows == (6, 0, 0)


@pytest.mark.parametrize("n, rows, message", [
    ("2", (0, 0), "size '2' at position 1 is not an int"),
    (2.0, (0, 0), "size 2.0 at position 1 is not an int"),
    (True, (0,), "size True at position 1 is not an int"),
    (2, (0.5, 0), "row 0.5 at position 1 is not an int"),
    (2, [0, "1"], "row '1' at position 2 is not an int"),
    (1, (False,), "row False at position 1 is not an int"),
])
def test_relation_names_a_size_or_row_that_is_not_an_int(n, rows, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Relation(n, rows)


def test_unchecked_relation_does_not_check_entry_types():
    assert Relation._unchecked(2, (0.5, 0)).rows == (0.5, 0)


def test_relation_rows_given_as_a_list_hash_like_the_tuple():
    assert hash(Relation(2, [2, 0])) == hash(Relation(2, (2, 0)))


def test_is_isomorphic_with_rows_given_as_lists(seven_pair):
    S, R = seven_pair.S, seven_pair.R
    listed = CatalanPair(Relation(7, list(S.rows)), Relation(7, list(R.rows)))
    assert is_isomorphic(seven_pair, listed)
    assert is_isomorphic(listed, seven_pair)


def test_decode_through_the_table_with_rows_given_as_lists():
    pair = canonicalize(family("seq2").encode((2, 3, 3))).pair
    listed = CatalanPair(
        Relation(3, list(pair.S.rows)), Relation(3, list(pair.R.rows))
    )
    assert decode_pair(listed, "seq2") == (2, 3, 3)


@pytest.mark.parametrize("n", [0, 1, 5, 16, 17, 40, 129])
def test_relabel_agrees_with_plain_relabel(n):
    # the densities run from empty to complete rows; from 17 labels up,
    # rows past 2^16 with more than one bit in eight set are walked in C
    rng = random.Random(f"relabel {n}")
    walked_in_c = 0
    for density in (0, 0.05, 0.2, 0.5, 0.9, 1):
        rows = tuple(
            sum(1 << j for j in range(n) if j != i and rng.random() < density)
            for i in range(n)
        )
        walked_in_c += sum(
            bool(row >> 16) and row.bit_count() * 8 > row.bit_length() + 40
            for row in rows
        )
        rel = Relation(n, rows)
        image = list(range(n))
        rng.shuffle(image)
        assert rel.relabel(image) == plain_relabel(rel, image)
    assert (walked_in_c > 0) == (n > 16)


@pytest.mark.parametrize("labels, bad", [
    ([5], 5), ([1, 2, 3], 3), ([-1], -1), ([-1, 0, 2], -1),
])
def test_restrict_rejects_labels_out_of_range(labels, bad):
    with pytest.raises(ValueError, match=f"^label {bad} out of range for size 3$"):
        Relation(3, (0, 0, 0)).restrict(labels)


@pytest.mark.parametrize("labels, message", [
    ([0.0, 1.0], "label 0.0 at position 1 is not an int"),
    (["0"], "label '0' at position 1 is not an int"),
    ([0, 2, 1.5], "label 1.5 at position 3 is not an int"),
    (iter([1, "2", 0.0]), "label '2' at position 2 is not an int"),
    ([True, 0], "label True at position 1 is not an int"),
])
def test_restrict_names_labels_that_are_not_ints(labels, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Relation(3, (6, 4, 0)).restrict(labels)


@pytest.mark.parametrize(
    "image", [[0, 1, 2.0], [2.0, 1, 0], [2, True, False], [True, False]]
)
def test_relabel_rejects_images_that_are_not_ints(image):
    # each image compares equal to a permutation of its labels
    n = len(image)
    with pytest.raises(
        ValueError, match="^relabelling must be a permutation of the labels$"
    ):
        Relation.from_pairs(n, [(0, n - 1)]).relabel(image)


def test_restrict_takes_a_run_without_sorting(monkeypatch):
    # decompose_pair passes each block of a canonical pair as a range of
    # step 1; any other labels are still sorted and deduplicated
    rel = Relation.from_pairs(5, [(0, 1), (1, 3), (3, 4), (4, 0), (2, 4)])
    runs = [range(0), range(2, 3), range(1, 5), range(5)]
    expected = [rel.restrict(list(run)[::-1] * 2) for run in runs]

    def forbidden(*args, **kwargs):
        raise AssertionError("a run is sorted again")

    monkeypatch.setattr(relations, "sorted", forbidden, raising=False)
    assert [rel.restrict(run) for run in runs] == expected


def test_is_strict_order():
    assert is_strict_order(Relation.from_pairs(3, [(0, 1), (1, 2), (0, 2)]))
    assert not is_strict_order(Relation.from_pairs(3, [(0, 1), (1, 2)]))
    assert not is_strict_order(Relation.from_pairs(2, [(0, 1), (1, 0)]))


# -------------------------------------------------------------- the axioms

def test_valid_pair_reports_clean(seven_pair):
    report = seven_pair.report()
    assert report.valid
    assert report.violations == ()
    assert seven_pair.is_valid()


def test_intransitive_s_witness():
    pair = CatalanPair.from_pairs(3, [(0, 1), (1, 2)], [(0, 2)])
    assert pair.report().violations == (("i:S", (0, 2)),)


def test_intransitive_r_witness():
    pair = CatalanPair.from_pairs(3, [(0, 2)], [(0, 1), (1, 2)])
    assert pair.report().violations == (("i:R", (0, 2)),)


def test_incompleteness_witness():
    pair = CatalanPair.from_pairs(2, [], [])
    assert pair.report().violations == (("ii", (0, 1)),)


def test_overlap_witness():
    pair = CatalanPair.from_pairs(2, [(0, 1)], [(0, 1)])
    assert pair.report().violations == (("iii", (0, 1)),)


def test_compatibility_witness():
    # 0S1 and 1R2 demand 0R2, but here (0,2) sits in S instead.
    pair = CatalanPair.from_pairs(3, [(0, 1), (0, 2)], [(1, 2)])
    assert pair.report().violations == (("iv", (0, 1, 2)),)


def test_report_lists_each_axiom_once():
    pair = CatalanPair.from_pairs(3, [(0, 1)], [(1, 2)])
    labels = [axiom for axiom, _ in check_axioms(pair.S, pair.R).violations]
    assert labels == sorted(set(labels), key=labels.index)


# ------------------------------------------------------- compose/decompose

def test_compose_layout():
    left = CatalanPair.from_pairs(1, [], [])
    right = CatalanPair.empty(0)
    pair = compose_pair(left, right)
    assert sets(pair) == ({(0, 1)}, set())


def test_compose_then_decompose_round_trips():
    for n_left in range(0, 4):
        for left in enumerate_pairs(n_left):
            for right in enumerate_pairs(3 - n_left):
                pair = compose_pair(left.pair, right.pair)
                assert pair.is_valid()
                x, a, b = decompose_pair(pair)
                assert x == n_left
                assert a == left.pair
                assert b == right.pair


def test_compose_validates_operands():
    broken = CatalanPair.from_pairs(2, [], [])
    with pytest.raises(InvariantViolation, match=r"left operand: axiom \(ii\)"):
        compose_pair(broken, CatalanPair.empty(0))
    with pytest.raises(InvariantViolation, match=r"right operand: axiom \(ii\)"):
        compose_pair(CatalanPair.empty(0), broken)


def test_decompose_empty_pair_fails():
    with pytest.raises(ValueError, match="empty pair"):
        decompose_pair(CatalanPair.empty(0))


def test_decompose_split_element(seven_pair):
    x, a, b = decompose_pair(seven_pair)
    assert x == 0
    assert a.n == 1 and b.n == 5
    assert {i for i in range(7) if (i, 0) in seven_pair.S} == {1}
    assert {j for j in range(7) if (0, j) in seven_pair.R} == {2, 3, 4, 5, 6}


# ------------------------------------------------------------- total order

def test_total_order_on_natural_labels(seven_pair):
    assert total_order(seven_pair) == tuple(range(7))


def test_total_order_rejects_invalid_pair():
    with pytest.raises(InvariantViolation, match=r"total order: axiom"):
        total_order(CatalanPair.from_pairs(2, [], []))


def test_total_order_tracks_relabeling(seven_pair):
    image = (3, 0, 6, 2, 5, 1, 4)
    moved = seven_pair.relabel(image)
    order = total_order(moved)
    # position of each new label in the order matches its old label
    assert tuple(order.index(image[i]) for i in range(7)) == tuple(range(7))


# ---------------------------------------------------------- canonical form

def test_canonicalize_fixes_natural_order():
    # canonicalize skips the CanonicalPair check; the checked constructor
    # must accept and equal every result
    rng = random.Random(7)
    for n in range(0, 9):
        for canon in enumerate_pairs(n):
            image = list(range(n))
            rng.shuffle(image)
            again = canonicalize(canon.pair.relabel(tuple(image)))
            assert again == canon
            assert CanonicalPair(again.pair) == again


def test_canonical_pair_rejects_unordered_labels():
    pair = CatalanPair.from_pairs(2, [(1, 0)], [])
    assert canonicalize(pair).pair == CatalanPair.from_pairs(2, [(1, 0)], [])
    with pytest.raises(InvariantViolation):
        CanonicalPair(CatalanPair.from_pairs(2, [], [(1, 0)]))


def test_canonical_pairs_hashable_and_equal_by_value():
    first = canonicalize(CatalanPair.from_pairs(2, [(1, 0)], []))
    second = canonicalize(CatalanPair.from_pairs(2, [(1, 0)], []))
    assert first == second
    assert len({first, second}) == 1


# ------------------------------------------------------------- isomorphism

def brute_force_isomorphic(p: CatalanPair, q: CatalanPair) -> bool:
    if p.n != q.n:
        return False
    return any(p.relabel(image) == q for image in permutations(range(p.n)))


def test_is_isomorphic_matches_brute_force():
    rng = random.Random(11)

    def scrambled(canon):
        image = list(range(canon.pair.n))
        rng.shuffle(image)
        return canon.pair.relabel(tuple(image))

    for n in range(0, 5):
        classes = enumerate_pairs(n)
        for first, second in combinations(classes, 2):
            p, q = scrambled(first), scrambled(second)
            assert is_isomorphic(p, q) is False
            assert brute_force_isomorphic(p, q) is False
        for canon in classes:
            p, q = scrambled(canon), scrambled(canon)
            assert is_isomorphic(p, q) is True
            assert brute_force_isomorphic(p, q) is True


def test_is_isomorphic_distinguishes_sizes():
    assert not is_isomorphic(CatalanPair.empty(0), CatalanPair.empty(1))


# ------------------------------------------------------------- enumeration

def test_catalan_values():
    assert tuple(catalan(n) for n in range(11)) == CATALAN


def test_catalan_agrees_with_the_recurrence():
    assert [catalan(n) for n in range(301)] == catalan_recurrence(300)
    with pytest.raises(ValueError, match="^size must be nonnegative$"):
        catalan(-1)


def test_enumerate_pairs_counts():
    for n in range(7):
        assert len(enumerate_pairs(n)) == CATALAN[n]


def test_enumerate_pairs_sorted_and_distinct():
    for n in range(6):
        texts = [serialize_pair(c.pair) for c in enumerate_pairs(n)]
        assert texts == sorted(texts)
        assert len(set(texts)) == len(texts)


def test_enumerate_pairs_equals_the_canonicalized_join_fold():
    for n in range(10):
        assert enumerate_pairs(n) == reference_enumerate_pairs(n)


def test_enumerate_pairs_size_two_classes():
    got = [(sorted(c.pair.S.pairs), sorted(c.pair.R.pairs))
           for c in enumerate_pairs(2)]
    assert got == [([], [(0, 1)]), ([(1, 0)], [])]


def test_seven_pair_sets_match_fixture(seven_pair):
    assert sets(seven_pair) == (set(SEVEN_S), set(SEVEN_R))
