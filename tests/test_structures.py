"""Family value types: validators, text forms, enumerators vs brute force."""

from __future__ import annotations

import random
from itertools import combinations, permutations, product

import pytest

from catpairs import ParseError, catalan, family, trees
from catpairs.bijections import assemble_perm_312
from catpairs.structures import (
    PATTERNS,
    _seq2_from_words,
    _seq2_words,
    avoids,
    enumerate_dyck,
    enumerate_matching,
    enumerate_perm,
    enumerate_plane_tree,
    enumerate_seq1,
    enumerate_seq2,
    enumerate_staircase,
    inverse_perm,
    parse_dyck,
    parse_matching,
    parse_perm,
    parse_plane_tree,
    parse_seq1,
    parse_seq2,
    parse_staircase,
    pattern_transform,
    apply_steps,
    reverse_perm,
    seq2_fixed_point,
    serialize_matching,
    serialize_perm,
    serialize_plane_tree,
    serialize_seq,
    serialize_staircase,
    validate_dyck,
    validate_matching,
    validate_perm,
    validate_plane_tree,
    validate_seq1,
    validate_seq2,
    validate_staircase,
)
from conftest import random_tree
from oracles import (
    brute_validate_matching,
    brute_validate_seq1,
    dyck_to_matching,
    matching_to_dyck,
    plane_tree_size,
    reference_enumerate_seq2,
    reference_from_dyck_word,
    seq2_from_tree,
    seq2_offsets,
)

CATALAN = (1, 1, 2, 5, 14, 42, 132)


# ------------------------------------------------------------------- trees

def test_tree_serialize_parse_round_trip():
    for n in range(6):
        for t in trees.all_trees(n):
            assert trees.parse(trees.serialize(t)) == t
            assert trees.size(t) == n


def test_tree_parse_rejects_garbage():
    for text in ("", "x", "(e,e", "(e)", "(e,e,e)", "e e"):
        with pytest.raises(ParseError):
            trees.parse(text)


def test_tree_dyck_word_codec_inverts():
    for n in range(6):
        for t in trees.all_trees(n):
            word = trees.to_dyck_word(t)
            assert validate_dyck(word) is None
            assert trees.from_dyck_word(word) == t


def _outcome(parse, word):
    try:
        return parse(word)
    except ValueError as exc:
        return str(exc)


def test_from_dyck_word_agrees_with_the_parser_on_random_strings():
    # half over U/D alone, so that balanced words turn up often, half with
    # a third letter; every outcome, a tree or one of the three messages,
    # must be the oracle's
    rng = random.Random("from_dyck_word")
    seen = set()
    for i in range(100_000):
        alphabet = "UD" if i % 2 else "UUUDDDX"
        word = "".join(rng.choices(alphabet, k=rng.randrange(13)))
        expected = _outcome(reference_from_dyck_word, word)
        assert _outcome(trees.from_dyck_word, word) == expected, word
        seen.add(expected.split(" at ")[0] if isinstance(expected, str) else "tree")
    assert seen == {
        "tree",
        "unbalanced word: unmatched 'U'",
        "unbalanced word: unmatched 'D'",
        "unexpected letter 'X'",
    }


def test_all_trees_sorted_by_text():
    for n in range(6):
        texts = [trees.serialize(t) for t in trees.all_trees(n)]
        assert texts == sorted(texts)


# -------------------------------------------------------------- Dyck words

def test_validate_dyck():
    assert validate_dyck("") is None
    assert validate_dyck("UUDDUD") is None
    assert validate_dyck("UDU") is not None       # unbalanced
    assert validate_dyck("DU") is not None        # dips below zero
    assert validate_dyck("UX") is not None        # foreign letter


def test_parse_dyck_round_trip_and_errors():
    assert parse_dyck(" UUDD \n") == "UUDD"
    # parse only scans; the value check runs where the value is encoded
    assert parse_dyck("DU") == "DU"
    with pytest.raises(ValueError, match="^prefix ending at position 1 has more D than U$"):
        family("dyck").encode(parse_dyck("DU"))


def test_enumerate_dyck_small_values():
    assert enumerate_dyck(0) == ("",)
    assert enumerate_dyck(3) == ("UDUDUD", "UDUUDD", "UUDDUD", "UUDUDD", "UUUDDD")


def test_enumerate_dyck_matches_brute_force():
    for n in range(6):
        brute = {
            "".join(w)
            for w in product("UD", repeat=2 * n)
            if validate_dyck("".join(w)) is None
        }
        assert set(enumerate_dyck(n)) == brute
        assert len(enumerate_dyck(n)) == CATALAN[n]


# ------------------------------------------------------------- matchings

def all_perfect_matchings(points):
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for k, other in enumerate(rest):
        for tail in all_perfect_matchings(rest[:k] + rest[k + 1:]):
            yield ((first, other),) + tail


def test_enumerate_matching_matches_brute_force():
    for n in range(5):
        brute = {
            m
            for m in all_perfect_matchings(tuple(range(1, 2 * n + 1)))
            if validate_matching(m) is None
        }
        assert set(enumerate_matching(n)) == brute
        assert len(enumerate_matching(n)) == CATALAN[n]


def test_validate_matching_rejects_crossings_and_bad_endpoints():
    assert validate_matching(((1, 4), (2, 3))) is None
    assert validate_matching(((1, 3), (2, 4))) is not None   # arcs cross
    assert validate_matching(((1, 2), (2, 3))) is not None   # reused point
    assert validate_matching(((2, 1),)) is not None          # reversed arc
    assert validate_matching(((1, 3),)) is not None          # gap in 1..2n


def random_matchings(rng, n):
    """A noncrossing matching, a uniform perfect matching (crossing for
    most n > 1) and three damaged copies of the noncrossing one: a swapped
    pair of endpoints, a reversed arch and a reused endpoint."""
    noncrossing = dyck_to_matching(trees.to_dyck_word(random_tree(rng, n)))
    points = list(range(1, 2 * n + 1))
    rng.shuffle(points)
    uniform = tuple(sorted(
        (min(a, b), max(a, b)) for a, b in zip(points[::2], points[1::2])
    ))
    yield noncrossing
    yield uniform
    if n < 2:
        return
    flat = [p for arch in noncrossing for p in arch]
    i, j = rng.sample(range(2 * n), 2)
    flat[i], flat[j] = flat[j], flat[i]
    yield tuple(sorted(zip(flat[::2], flat[1::2])))
    k = rng.randrange(n)
    yield tuple(sorted(
        (r, l) if a == k else (l, r) for a, (l, r) in enumerate(noncrossing)
    ))
    yield tuple(sorted(noncrossing[:-1] + ((noncrossing[0][0], 2 * n),)))


def test_validate_matching_names_what_the_pairwise_scan_names():
    # the nesting walk decides; the message must be the brute force's,
    # including which crossing comes first
    rng = random.Random("validate_matching")
    messages = []
    for n in [rng.randrange(12) for _ in range(400)] + [200, 500]:
        for m in random_matchings(rng, n):
            messages.append(brute_validate_matching(m))
            assert validate_matching(m) == messages[-1], m
    kinds = {message.split()[-1] if message else None for message in messages}
    assert kinds == {None, "cross", "once", "closes"}


def test_matching_text_round_trip():
    assert parse_matching("1-4 2-3 5-6") == ((1, 4), (2, 3), (5, 6))
    assert serialize_matching(((1, 4), (2, 3), (5, 6))) == "1-4 2-3 5-6"
    with pytest.raises(ParseError):
        parse_matching("1:4")
    assert parse_matching("1-3 2-4") == ((1, 3), (2, 4))
    with pytest.raises(ValueError, match="^arches 1-3 and 2-4 cross$"):
        family("matching").encode(parse_matching("1-3 2-4"))


def test_dyck_matching_translation_inverts():
    assert dyck_to_matching("UUDDUD") == ((1, 4), (2, 3), (5, 6))
    assert matching_to_dyck(((1, 6), (2, 3), (4, 5))) == "UUDUDD"
    for n in range(6):
        for word in enumerate_dyck(n):
            m = dyck_to_matching(word)
            assert validate_matching(m) is None
            assert matching_to_dyck(m) == word


# ------------------------------------------------------------- plane trees

def test_plane_tree_text_round_trip():
    for text in ("", "()", "(())()((())())"):
        t = parse_plane_tree(text)
        assert validate_plane_tree(t) is None
        assert serialize_plane_tree(t) == text
    with pytest.raises(ParseError):
        parse_plane_tree("(()")
    with pytest.raises(ParseError):
        parse_plane_tree(")(")


def test_plane_tree_size_counts_nonroot_nodes():
    assert plane_tree_size(parse_plane_tree("")) == 0
    assert plane_tree_size(parse_plane_tree("(())()((())())")) == 7


def test_validate_plane_tree_rejects_non_trees():
    assert validate_plane_tree("()") is not None
    assert validate_plane_tree((("x",),)) is not None


def test_enumerate_plane_tree_matches_dyck_translation():
    # independent routes: the tree grammar vs balanced-word spelling
    for n in range(6):
        spelled = {
            serialize_plane_tree(t) for t in enumerate_plane_tree(n)
        }
        from_words = {
            w.replace("U", "(").replace("D", ")") for w in enumerate_dyck(n)
        }
        assert spelled == from_words
        assert len(enumerate_plane_tree(n)) == CATALAN[n]


# ------------------------------------------------------------ permutations

def contains_pattern(p, pattern):
    order = tuple(int(c) for c in pattern)
    for idx in combinations(range(len(p)), len(order)):
        values = [p[i] for i in idx]
        ranks = tuple(sorted(values).index(v) + 1 for v in values)
        if ranks == order:
            return True
    return False


def test_validate_perm():
    assert validate_perm((2, 1, 3)) is None
    assert validate_perm(()) is None
    assert validate_perm((1, 3)) is not None
    assert validate_perm((1, 1, 2)) is not None


def test_perm_text_round_trip():
    assert parse_perm("2 1 3") == (2, 1, 3)
    assert serialize_perm((2, 1, 3)) == "2 1 3"
    with pytest.raises(ParseError):
        parse_perm("2 x 3")
    assert parse_perm("2 2 3") == (2, 2, 3)
    with pytest.raises(ValueError, match=r"^values must be a rearrangement of 1\.\.3$"):
        family("perm-312").encode(parse_perm("2 2 3"))


def test_avoids_agrees_with_brute_force_containment():
    for pattern in PATTERNS:
        for n in range(8):
            for p in permutations(range(1, n + 1)):
                assert avoids(p, pattern) == (not contains_pattern(p, pattern))


def test_avoids_rejects_unknown_pattern():
    with pytest.raises(ValueError, match="unsupported pattern"):
        avoids((1, 2, 3), "111")


def random_321_avoider(rng, n):
    """Two increasing runs of values shuffled together: never 321."""
    values = list(range(1, n + 1))
    rng.shuffle(values)
    split = rng.randint(0, n)
    runs = [sorted(values[:split]), sorted(values[split:])]
    slots = [0] * split + [1] * (n - split)
    rng.shuffle(slots)
    heads = [iter(runs[0]), iter(runs[1])]
    return tuple(next(heads[slot]) for slot in slots)


def random_avoider(rng, n, pattern):
    steps, base = pattern_transform(pattern)
    if base == "312":
        p = assemble_perm_312(random_tree(rng, n))
    else:
        p = random_321_avoider(rng, n)
    # inv and rev are involutions, so undoing a chain applies it backwards
    return apply_steps(p, tuple(reversed(steps)))


def plant(p, positions, pattern):
    """Rewrite three positions of p into pattern's order."""
    positions = sorted(positions)
    values = sorted(p[i] for i in positions)
    q = list(p)
    for i, digit in zip(positions, pattern):
        q[i] = values[int(digit) - 1]
    return tuple(q)


@pytest.mark.parametrize("n", [100, 500, 2000])
def test_avoids_on_large_random_members_and_planted_occurrences(n):
    rng = random.Random(f"avoids:{n}")
    for pattern in PATTERNS:
        for _ in range(5):
            p = random_avoider(rng, n, pattern)
            assert validate_perm(p) is None
            assert avoids(p, pattern), pattern
            low = rng.randrange(1, n - 1)
            # anywhere, on three consecutive values, and at the end
            for positions in (
                rng.sample(range(n), 3),
                [p.index(v) for v in (low, low + 1, low + 2)],
                [n - 3, n - 2, n - 1],
            ):
                q = plant(p, positions, pattern)
                assert validate_perm(q) is None
                assert not avoids(q, pattern), (pattern, positions)


def test_avoids_worked_examples():
    assert not avoids((5, 2, 4, 3, 1, 6), "123")
    assert avoids((6, 3, 2, 5, 4, 1), "123")


def test_enumerate_perm_matches_filter():
    for pattern in PATTERNS:
        for n in range(9):
            brute = {
                p
                for p in permutations(range(1, n + 1))
                if avoids(p, pattern)
            }
            listed = enumerate_perm(n, pattern)
            assert set(listed) == brute
            assert len(listed) == catalan(n)


def test_enumerate_perm_unknown_pattern():
    with pytest.raises(ValueError):
        enumerate_perm(3, "111")


def test_perm_symmetries():
    assert inverse_perm((3, 1, 2)) == (2, 3, 1)
    assert reverse_perm((3, 1, 2)) == (2, 1, 3)
    for p in permutations(range(1, 6)):
        assert inverse_perm(inverse_perm(p)) == p
        assert reverse_perm(reverse_perm(p)) == p


def test_pattern_transform_lands_in_base_class():
    for pattern in PATTERNS:
        steps, base = pattern_transform(pattern)
        assert base in ("312", "321")
        for n in range(6):
            for p in enumerate_perm(n, pattern):
                assert avoids(apply_steps(p, steps), base)


# ---------------------------------------------------------- sequences, 1st

def test_validate_seq1_bounds_and_reach():
    assert validate_seq1((5, 2, 4, 4, 5, 6)) is None
    assert validate_seq1(()) is None
    assert validate_seq1((1, 1)) is not None     # a_2 below its floor
    assert validate_seq1((2, 3, 3)) is not None  # a_2 exceeds a_1 inside reach
    assert validate_seq1((4, 2, 3)) is not None  # a_1 above n


def test_validate_seq1_names_what_the_reach_scan_names():
    # the next-greater stack decides; the message must be the scan's,
    # including which broken reach comes first
    messages = set()
    for n in range(6):
        for s in product(range(n + 2), repeat=n):
            expected = brute_validate_seq1(s)
            assert validate_seq1(s) == expected, s
            messages.add(expected)
    rng = random.Random("validate_seq1")
    for _ in range(3000):
        n = rng.randrange(1, 13)
        if rng.random() < 0.5:
            s = tuple(rng.randrange(n + 2) for _ in range(n))
        else:  # inside the bounds, so only the reach can fail
            s = tuple(rng.randint(i, n) for i in range(1, n + 1))
        assert validate_seq1(s) == brute_validate_seq1(s), s
    kinds = {m and ("reach" if m.endswith("reach") else "bounds") for m in messages}
    assert kinds == {None, "reach", "bounds"}


def test_validate_seq1_on_a_long_left_chain():
    # every reach covers the whole tail, so the reach scan walked n²/2
    # entries here
    n = 4000
    assert validate_seq1((n,) * n) is None
    assert validate_seq1((n,) * (n - 1) + (n - 1,)) == (
        f"a_{n} = {n - 1} must lie in {n}..{n}"
    )
    assert validate_seq1((n - 1,) * (n - 2) + (n, n)) == (
        f"a_{n - 1} = {n} exceeds a_1 = {n - 1} inside its reach"
    )


def test_seq1_text_round_trip():
    assert parse_seq1("5 2 4 4 5 6") == (5, 2, 4, 4, 5, 6)
    assert serialize_seq((5, 2, 4, 4, 5, 6)) == "5 2 4 4 5 6"
    with pytest.raises(ParseError):
        parse_seq1("5 -2")
    assert parse_seq1("1 1") == (1, 1)
    with pytest.raises(ValueError, match=r"^a_2 = 1 must lie in 2\.\.2$"):
        family("seq1").encode(parse_seq1("1 1"))


def test_enumerate_seq1_matches_filter():
    assert [serialize_seq(s) for s in enumerate_seq1(3)] == [
        "1 2 3", "1 3 3", "2 2 3", "3 2 3", "3 3 3",
    ]
    for n in range(6):
        brute = {
            s
            for s in product(range(1, n + 1), repeat=n)
            if validate_seq1(s) is None
        } or {()}
        assert set(enumerate_seq1(n)) == brute
        assert len(enumerate_seq1(n)) == CATALAN[n]


# ---------------------------------------------------------- sequences, 2nd

def test_validate_seq2_rules():
    assert validate_seq2((2, 4, 4, 5, 5, 5, 6, 6)) is None
    assert validate_seq2(()) is None
    assert validate_seq2((2, 1)) is not None        # decreasing
    assert validate_seq2((2, 3)) is not None        # no fixed point
    assert validate_seq2((1, 2)) is not None        # two fixed points
    assert validate_seq2((0, 2)) is not None        # below 1


def test_seq2_fixed_point_and_offsets():
    s = (2, 4, 4, 5, 5, 5, 6, 6)
    assert seq2_fixed_point(s) == 5
    assert seq2_offsets(s) == (1, 2, 1, 1, 0, 1, 1, 2)
    assert seq2_fixed_point((1,)) == 1
    with pytest.raises(ValueError, match="fixed point"):
        seq2_fixed_point(())


def test_seq2_text_round_trip():
    assert parse_seq2("2 2") == (2, 2)
    assert parse_seq2("2 3") == (2, 3)
    with pytest.raises(ValueError, match=r"^a_2 = 3 must lie in 1\.\.2$"):
        family("seq2").encode(parse_seq2("2 3"))


def test_enumerate_seq2_matches_filter():
    assert [serialize_seq(s) for s in enumerate_seq2(3)] == [
        "1 1 1", "1 1 2", "2 2 2", "2 3 3", "3 3 3",
    ]
    for n in range(6):
        brute = {
            s
            for s in product(range(1, n + 1), repeat=n)
            if validate_seq2(s) is None
        } or {()}
        assert set(enumerate_seq2(n)) == brute
        assert len(enumerate_seq2(n)) == CATALAN[n]


def test_enumerate_seq2_equals_the_backtracking_search():
    for n in range(11):
        assert enumerate_seq2(n) == reference_enumerate_seq2(n), n


def _assert_seq2_words_round_trip(s):
    prefix, suffix = _seq2_words(s)
    f = seq2_fixed_point(s)
    assert len(prefix) == 2 * (f - 1) and validate_dyck(prefix) is None
    assert len(suffix) == 2 * (len(s) - f) and validate_dyck(suffix) is None
    assert _seq2_from_words(prefix, suffix) == s


def test_seq2_words_round_trip_on_every_small_value():
    for n in range(1, 11):
        for s in reference_enumerate_seq2(n):
            _assert_seq2_words_round_trip(s)


@pytest.mark.parametrize("n", [500, 2000])
def test_seq2_words_round_trip_on_large_random_values(n):
    rng = random.Random(f"seq2-words:{n}")
    for _ in range(3):
        s = seq2_from_tree(random_tree(rng, n))
        assert validate_seq2(s) is None
        _assert_seq2_words_round_trip(s)


def test_seq2_from_words_equals_the_tree_rule_on_every_small_tree():
    # the prefix word is the left subtree's word, the suffix word the right's
    for n in range(1, 10):
        for t in trees.all_trees(n):
            left, right = map(trees.to_dyck_word, t)
            assert _seq2_from_words(left, right) == seq2_from_tree(t)


# -------------------------------------------------------------- staircases

def test_staircase_values_are_trees():
    assert validate_staircase(trees.EMPTY) is None
    assert validate_staircase(((), ())) is None
    assert validate_staircase("x") is not None
    assert parse_staircase("((e,e),e)") == ((trees.EMPTY, trees.EMPTY), trees.EMPTY)
    assert serialize_staircase(((trees.EMPTY, trees.EMPTY), trees.EMPTY)) == "((e,e),e)"


def test_enumerate_staircase_is_all_trees():
    for n in range(6):
        assert enumerate_staircase(n) == trees.all_trees(n)
