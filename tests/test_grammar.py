"""Grammar-tree folds, the direct branch formulas, and the polyomino letter maps."""

from __future__ import annotations

import random
from itertools import product

import pytest

from catpairs import (
    CatalanPair,
    InvariantViolation,
    Relation,
    compose_pair,
    decompose_pair,
    enumerate_pairs,
    family,
    pair_to_tree,
    tree_to_pair,
    trees,
)
from catpairs.grammar import (
    EMPTY_POLYOMINO,
    encode_polyomino,
    enumerate_polyomino,
    grammar_pair,
    parse_polyomino,
    polyomino_to_tree,
    serialize_polyomino,
    tree_to_polyomino,
    validate_grammar_tree,
    validate_polyomino,
)
from conftest import random_tree
from oracles import (
    branch_rule_pair,
    brute_validate_polyomino,
    join_fold_pair,
    polyomino_size,
    reference_polyomino_to_tree,
    reference_tree_to_polyomino,
)
from test_bijections import chain

CATALAN = (1, 1, 2, 5, 14, 42, 132)


def sets(pair: CatalanPair) -> tuple[set, set]:
    return set(pair.S.pairs), set(pair.R.pairs)


# ------------------------------------------------------------ tree <-> pair

def test_tree_to_pair_pinned_values():
    assert sets(tree_to_pair(trees.EMPTY)) == (set(), set())
    assert sets(tree_to_pair(((), ()))) == (set(), set())
    assert sets(tree_to_pair(((), ((), ())))) == (set(), {(0, 1)})
    assert sets(tree_to_pair((((), ()), ()))) == ({(0, 1)}, set())


def test_tree_to_pair_is_the_composition_fold():
    for n in range(1, 7):
        for t in trees.all_trees(n):
            left, right = t
            assert tree_to_pair(t) == compose_pair(
                tree_to_pair(left), tree_to_pair(right)
            )


def test_pair_to_tree_inverts_tree_to_pair():
    for n in range(7):
        for t in trees.all_trees(n):
            assert pair_to_tree(tree_to_pair(t)) == t


def test_pair_to_tree_accepts_relabeled_pairs(seven_pair):
    assert trees.serialize(pair_to_tree(seven_pair)) == "((e,e),(e,(((e,e),(e,e)),e)))"


def recursive_pair_to_tree(pair: CatalanPair) -> trees.Tree:
    """Reference decoder: decompose, with its full check, at every node."""
    if pair.n == 0:
        return trees.EMPTY
    _, left, right = decompose_pair(pair)
    return (recursive_pair_to_tree(left), recursive_pair_to_tree(right))


def relabeled(pair: CatalanPair, rng: random.Random) -> CatalanPair:
    image = list(range(pair.n))
    rng.shuffle(image)
    return pair.relabel(image)


def test_pair_to_tree_matches_the_recursive_oracle_on_every_small_pair():
    rng = random.Random("pair_to_tree:small")
    for n in range(10):
        for canon in enumerate_pairs(n):
            for pair in (canon.pair, relabeled(canon.pair, rng)):
                assert pair_to_tree(pair) == recursive_pair_to_tree(pair)


@pytest.mark.parametrize("n", [100, 500, 2000])
def test_pair_to_tree_reads_large_random_trees(n):
    rng = random.Random(f"pair_to_tree:{n}")
    t = random_tree(rng, n)
    assert pair_to_tree(relabeled(grammar_pair(t), rng)) == t
    # the permutation classes decoded through profile_unmatching
    for tag in ("perm-321", "perm-123"):
        fam = family(tag)
        value = fam.assemble(t)
        assert fam.validate(value) is None
        assert pair_to_tree(fam.encode(value)) == t


def flip(rel: Relation, i: int, j: int) -> Relation:
    rows = list(rel.rows)
    rows[i] ^= 1 << j
    return Relation(rel.n, tuple(rows))


def test_pair_to_tree_rejects_invalid_pairs_like_the_oracle():
    # one flipped bit doubles or drops the relation between i and j, so
    # every flip is invalid, and the message must be the oracle's
    rng = random.Random("pair_to_tree:invalid")
    for n in range(2, 6):
        for canon in enumerate_pairs(n):
            pair = relabeled(canon.pair, rng)
            for i, j in product(range(n), repeat=2):
                if i == j:
                    continue
                for broken in (
                    CatalanPair(flip(pair.S, i, j), pair.R),
                    CatalanPair(pair.S, flip(pair.R, i, j)),
                ):
                    with pytest.raises(InvariantViolation) as fast:
                        pair_to_tree(broken)
                    with pytest.raises(InvariantViolation) as slow:
                        recursive_pair_to_tree(broken)
                    assert str(fast.value) == str(slow.value)
                    assert str(fast.value).startswith("decompose: axiom (")


def test_validate_grammar_tree():
    assert validate_grammar_tree(((), ())) is None
    assert validate_grammar_tree("((), ())") is not None
    assert validate_grammar_tree((((),),)) is not None


# ------------------------------------------------------ direct branch forms

def test_grammar_pair_pinned_branch_values():
    assert sets(grammar_pair(((), ()))) == (set(), set())
    # right-branch-only growth fills R, left-branch-only growth fills S
    assert sets(grammar_pair(((), ((), ())))) == (set(), {(0, 1)})
    assert sets(grammar_pair((((), ()), ()))) == ({(0, 1)}, set())


def test_grammar_pair_matches_fold_on_all_small_trees():
    # the top-down builder against the per-branch formulas and the
    # recursive composition
    for n in range(7):
        for t in trees.all_trees(n):
            pair = tree_to_pair(t)
            assert grammar_pair(t) == pair
            assert branch_rule_pair(t) == pair == join_fold_pair(t)


# ---------------------------------------------------------------- polyomino

def test_validate_polyomino_accepts_pinned_values():
    assert validate_polyomino(EMPTY_POLYOMINO) is None
    assert validate_polyomino(("NE", "EN")) is None
    assert validate_polyomino(("NNEE", "ENEN")) is None


def test_validate_polyomino_rejects_shape_errors():
    assert validate_polyomino("NE;EN") is not None          # not a word pair
    assert validate_polyomino(("NE", "EN", "NE")) is not None
    assert validate_polyomino(("NE", "NE")) is not None     # identical paths
    assert validate_polyomino(("NEX", "ENX")) is not None   # foreign letter
    assert validate_polyomino(("NE", "ENN")) is not None    # length mismatch
    assert validate_polyomino(("EN", "NE")) is not None     # paths cross
    assert validate_polyomino(("NENE", "ENEN")) is not None # paths touch inside


def test_validate_polyomino_names_what_the_prefix_recount_names():
    # the running count decides; the message must be the recount's,
    # including the first step at which the paths touch
    messages = set()
    for length in range(7):
        words = ["".join(w) for w in product("NE", repeat=length)]
        for value in product(words, repeat=2):
            expected = brute_validate_polyomino(value)
            assert validate_polyomino(value) == expected, value
            messages.add(expected)
    rng = random.Random("validate_polyomino")
    for _ in range(2000):
        n = rng.randrange(1, 40)
        upper, lower = tree_to_polyomino(random_tree(rng, n))
        kind = rng.randrange(3)
        if kind == 1:  # touching or crossing: swap one letter pair
            t = rng.randrange(len(upper) - 1)
            upper = upper[:t] + upper[t + 1] + upper[t] + upper[t + 2:]
        elif kind == 2:  # any two walks with the same end point
            steps = list(upper)
            rng.shuffle(steps)
            upper = "".join(steps)
        value = (upper, lower)
        expected = brute_validate_polyomino(value)
        assert validate_polyomino(value) == expected, value
        messages.add(expected)
    kinds = {message.split()[-1] if message else None for message in messages}
    assert kinds == {None, "endpoint", "distinct", "point"}


def test_validate_polyomino_on_a_long_value():
    value = tree_to_polyomino(random_tree(random.Random("polyomino:20000"), 20000))
    assert validate_polyomino(value) is None
    upper, lower = value
    last_n = upper.rindex("N")  # moved to the end, the paths touch late
    touching = (upper[:last_n] + upper[last_n + 1:] + "N", lower)
    assert validate_polyomino(touching) == brute_validate_polyomino(touching)
    assert validate_polyomino(touching).startswith("paths touch after")


def test_polyomino_text_round_trip():
    assert parse_polyomino("NE;EN") == ("NE", "EN")
    assert serialize_polyomino(("NE", "EN")) == "NE;EN"
    assert parse_polyomino(";") == EMPTY_POLYOMINO
    with pytest.raises(ValueError):
        parse_polyomino("NE EN")
    assert parse_polyomino("EN;NE") == ("EN", "NE")
    with pytest.raises(ValueError, match="^paths touch after 1 steps, before the endpoint$"):
        encode_polyomino(parse_polyomino("EN;NE"))


def test_polyomino_size_is_semiperimeter_minus_one():
    assert polyomino_size(EMPTY_POLYOMINO) == 0
    assert polyomino_size(("NE", "EN")) == 1
    assert polyomino_size(("NNEE", "ENEN")) == 3


def test_polyomino_tree_codec_inverts():
    assert polyomino_to_tree(("NE", "EN")) == ((), ())
    for n in range(7):
        for t in trees.all_trees(n):
            value = tree_to_polyomino(t)
            assert validate_polyomino(value) is None
            assert polyomino_to_tree(value) == t


def test_letter_maps_equal_the_column_codec_on_every_small_tree():
    for n in range(10):
        for t in trees.all_trees(n):
            value = tree_to_polyomino(t)
            assert value == reference_tree_to_polyomino(t)
            assert polyomino_to_tree(value) == reference_polyomino_to_tree(value)


@pytest.mark.parametrize(
    "shape", ["random-100", "random-500", "random-2000", "left-4000", "right-4000"]
)
def test_letter_maps_equal_the_column_codec_on_large_trees(shape):
    # trees this deep are compared by their text: == on nested tuples recurses
    kind, n = shape.split("-")
    if kind == "random":
        t = random_tree(random.Random(f"polyomino letters:{n}"), int(n))
    else:
        t = chain(int(n), ("left", "right").index(kind))
    value = tree_to_polyomino(t)
    assert value == reference_tree_to_polyomino(t)
    assert trees.serialize(polyomino_to_tree(value)) == trees.serialize(t)
    assert trees.serialize(reference_polyomino_to_tree(value)) == trees.serialize(t)


def test_encode_polyomino_builds_no_tree(monkeypatch):
    value = tree_to_polyomino(random_tree(random.Random("encode_polyomino"), 500))
    expected = tree_to_pair(reference_polyomino_to_tree(value))

    def forbidden(*args):
        raise AssertionError("encode_polyomino built a tree")

    monkeypatch.setattr(trees, "from_left_sizes", forbidden)
    monkeypatch.setattr(trees, "from_dyck_word", forbidden)
    assert encode_polyomino(value) == expected


def test_enumerate_polyomino_matches_brute_force():
    for n in range(6):
        length = n + 1 if n else 0
        brute = set()
        for upper in product("NE", repeat=length):
            for lower in product("NE", repeat=length):
                value = ("".join(upper), "".join(lower))
                if validate_polyomino(value) is None:
                    brute.add(value)
        listed = enumerate_polyomino(n)
        assert set(listed) == brute
        assert len(listed) == CATALAN[n]


def test_encode_polyomino_rides_on_the_tree_codec():
    for n in range(6):
        for value in enumerate_polyomino(n):
            assert encode_polyomino(value) == tree_to_pair(polyomino_to_tree(value))
            assert encode_polyomino(value).is_valid()
