"""Acceptance gate: one test per shipping criterion, strict integer equality.

Each criterion is a single test so that ``pytest -v`` prints exactly one
PASS/FAIL line per criterion; a detail line with the measured runtime is
printed as well (visible with ``-s`` and in failure reports).
"""

from __future__ import annotations

import random
from itertools import combinations, permutations
from time import perf_counter

from catpairs import (
    CatalanPair,
    canonicalize,
    catalan,
    convert,
    decode_pair,
    enumerate_pairs,
    family,
    is_isomorphic,
    pair_to_tree,
    reference_decode,
)
from catpairs.encoders import (
    encode_perm_312,
    encode_perm_321,
    encode_seq1,
    encode_seq2,
    encode_staircase,
)
from catpairs.grammar import grammar_pair, tree_to_pair
from catpairs.structures import (
    avoids,
    enumerate_seq2,
    enumerate_staircase,
    seq2_fixed_point,
)
from catpairs import trees
from conftest import SEVEN_R, SEVEN_S
from oracles import branch_rule_pair, dyck_to_matching, join_fold_pair, seq2_offsets

SEED = 20260823

CENSUS_FAMILIES = (
    "dyck", "matching", "plane-tree", "perm-312", "perm-321",
    "seq1", "seq2", "staircase", "grammar-tree", "polyomino",
)

ALL_FAMILIES = (
    "dyck", "matching", "plane-tree", "perm-312", "perm-321", "perm-231",
    "perm-213", "perm-132", "perm-123", "seq1", "seq2", "staircase",
    "binary-tree", "polyomino",
)

ANALYTIC_FAMILIES = tuple(
    tag for tag in ALL_FAMILIES if family(tag).assemble is not None
)


def sets(pair: CatalanPair) -> tuple[set, set]:
    return set(pair.S.pairs), set(pair.R.pairs)


def report(number: int, detail: str) -> None:
    print(f"criterion {number}: PASS ({detail})")


# --------------------------------------------------------------------------

def test_criterion_1_catalan_census():
    start = perf_counter()
    expected = (1, 1, 2, 5, 14, 42, 132, 429, 1430)
    assert tuple(catalan(n) for n in range(9)) == expected
    for tag in CENSUS_FAMILIES:
        fam = family(tag)
        for n in range(9):
            assert len(fam.enumerate(n)) == expected[n], (tag, n)
    # the three explicitly listed five-value displays at size three
    assert family("dyck").enumerate(3) == (
        "UDUDUD", "UDUUDD", "UUDDUD", "UUDUDD", "UUUDDD",
    )
    assert tuple(map(family("seq1").serialize, family("seq1").enumerate(3))) == (
        "1 2 3", "1 3 3", "2 2 3", "3 2 3", "3 3 3",
    )
    assert tuple(map(family("seq2").serialize, family("seq2").enumerate(3))) == (
        "1 1 1", "1 1 2", "2 2 2", "2 3 3", "3 3 3",
    )
    elapsed = perf_counter() - start
    assert elapsed < 30.0
    report(1, f"10 families, sizes 0..8, {elapsed:.2f}s")


def test_criterion_2_worked_examples():
    start = perf_counter()
    seven = CatalanPair.from_pairs(7, SEVEN_S, SEVEN_R)
    assert seven.report().valid

    assert sets(encode_perm_312((2, 1, 3, 5, 6, 4))) == (
        {(0, 1), (3, 5), (4, 5)},
        {(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5),
         (2, 3), (2, 4), (2, 5), (3, 4)},
    )
    assert sets(encode_perm_321((2, 3, 1, 4, 5))) == (
        {(0, 2), (1, 2)},
        {(0, 1), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)},
    )
    assert sets(encode_seq1((5, 2, 4, 4, 5, 6))) == (
        {(1, 0), (2, 0), (3, 0), (4, 0), (3, 2)},
        {(0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5),
         (3, 4), (3, 5), (4, 5)},
    )
    assert seq2_offsets((2, 4, 4, 5, 5, 5, 6, 6)) == (1, 2, 1, 1, 0, 1, 1, 2)
    assert sets(encode_seq2((2, 4, 4, 5, 5, 5, 6, 6))) == (
        {(0, 4), (1, 2), (1, 4), (2, 4), (3, 4), (7, 6)},
        {(0, 1), (0, 2), (0, 3), (0, 5), (0, 6), (0, 7),
         (1, 3), (1, 5), (1, 6), (1, 7),
         (2, 3), (2, 5), (2, 6), (2, 7),
         (3, 5), (3, 6), (3, 7),
         (4, 5), (4, 6), (4, 7), (5, 6), (5, 7)},
    )

    tiling = CatalanPair.from_pairs(
        7,
        {(2, 3), (2, 6), (3, 6), (4, 6), (5, 6)},
        {(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6),
         (1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
         (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)},
    )
    assert tiling.report().valid
    hits = [
        t for t in enumerate_staircase(7)
        if is_isomorphic(encode_staircase(t), tiling)
    ]
    assert len(hits) == 1

    elapsed = perf_counter() - start
    assert elapsed < 1.0
    report(2, f"five encodings, offsets, tiling match, {elapsed:.2f}s")


def test_criterion_3_inversion_pair_validity_is_avoidance():
    start = perf_counter()
    total = 0
    for n in range(9):
        for p in permutations(range(1, n + 1)):
            total += 1
            assert encode_perm_312(p).is_valid() == avoids(p, "312")
    elapsed = perf_counter() - start
    assert total == 46234
    assert elapsed < 10.0
    report(3, f"{total} permutations, sizes 0..8, {elapsed:.2f}s")


def test_criterion_4_universal_bijection():
    start = perf_counter()
    rng = random.Random(SEED)
    for n in range(8):
        classes = set(enumerate_pairs(n))
        class_of = {}
        value_of = {}
        for tag in ALL_FAMILIES:
            fam = family(tag)
            values = fam.enumerate(n)
            encoded = {v: canonicalize(fam.encode(v)) for v in values}
            # encoding is injective and covers every class of this size
            assert len(set(encoded.values())) == len(values), (tag, n)
            assert set(encoded.values()) == classes, (tag, n)
            decoded = {c: decode_pair(c.pair, tag) for c in classes}
            for c in classes:
                assert encoded.get(decoded[c]) == c, (tag, n)
            class_of[tag] = encoded
            value_of[tag] = decoded
        # every ordered route is therefore the composite of a bijection and
        # an inverse bijection; check the public entry point against the
        # composite (exhaustively for small sizes, sampled above)
        for src in ALL_FAMILIES:
            values = family(src).enumerate(n)
            picks = values if n <= 4 else rng.sample(values, 5)
            for dst in ALL_FAMILIES:
                for v in picks:
                    w = convert(v, src, dst)
                    assert w == value_of[dst][class_of[src][v]]
                    assert convert(w, dst, src) == v
    elapsed = perf_counter() - start
    assert elapsed < 60.0
    report(4, f"14x14 routes, sizes 0..7, {elapsed:.2f}s")


def test_criterion_5_round_trips():
    start = perf_counter()
    for tag in ANALYTIC_FAMILIES:
        fam = family(tag)
        for n in range(9):
            for v in fam.enumerate(n):
                assert fam.assemble(pair_to_tree(fam.encode(v))) == v, (tag, n)
    for tag in ("perm-321", "seq2"):
        fam = family(tag)
        for n in range(9):
            for v in fam.enumerate(n):
                assert reference_decode(fam.encode(v), tag) == v, (tag, n)
    elapsed = perf_counter() - start
    report(5, f"11 analytic + 2 table families, sizes 0..8, {elapsed:.2f}s")


def test_criterion_6_structural_identities():
    start = perf_counter()
    for n in range(9):
        for t in trees.all_trees(n):
            pair = tree_to_pair(t)
            assert grammar_pair(t) == pair
            assert branch_rule_pair(t) == pair == join_fold_pair(t)
    for n in range(9):
        for word in family("dyck").enumerate(n):
            assert family("dyck").encode(word) == family("matching").encode(
                dyck_to_matching(word)
            )
    matched = 0
    for n in range(11):
        for s in enumerate_seq2(n):
            if not s:
                continue
            f = seq2_fixed_point(s)
            off = seq2_offsets(s)
            for z in range(3, f):
                for y in range(2, z):
                    for x in range(1, y):
                        if off[x-1] > off[y-1] < off[z-1] and off[x-1] > off[z-1]:
                            matched += 1
                            assert any(
                                off[w-1] == off[z-1] for w in range(x + 1, y)
                            ), (s, x, y, z)
    elapsed = perf_counter() - start
    assert matched > 0
    report(6, f"grammar forms, label-for-label arches, {matched} triples, {elapsed:.2f}s")


def test_criterion_7_isomorphism_oracle():
    start = perf_counter()
    rng = random.Random(SEED)

    def scrambled(canon):
        image = list(range(canon.pair.n))
        rng.shuffle(image)
        return canon.pair.relabel(tuple(image))

    def brute(p, q):
        if p.n != q.n:
            return False
        return any(p.relabel(image) == q for image in permutations(range(p.n)))

    compared = 0
    for n in range(6):
        classes = enumerate_pairs(n)
        for first, second in combinations(classes, 2):
            p, q = scrambled(first), scrambled(second)
            assert is_isomorphic(p, q) == brute(p, q) == False
            compared += 1
        for canon in classes:
            p, q = scrambled(canon), scrambled(canon)
            assert is_isomorphic(p, q) == brute(p, q) == True
            compared += 1

    classes6 = enumerate_pairs(6)
    for i in range(1000):
        if i % 2:
            first = second = rng.choice(classes6)
        else:
            first, second = rng.choice(classes6), rng.choice(classes6)
        p, q = scrambled(first), scrambled(second)
        assert is_isomorphic(p, q) == brute(p, q) == (first == second)
        compared += 1

    elapsed = perf_counter() - start
    report(7, f"{compared} comparisons vs relabeling search, {elapsed:.2f}s")


def test_criterion_8_cli_golden_files(run_cli, golden):
    start = perf_counter()
    encodes = [
        (["encode", "--family", "perm-312", "2 1 3 5 6 4"], "encode_perm312.txt"),
        (["encode", "--family", "perm-321", "2 3 1 4 5"], "encode_perm321.txt"),
        (["encode", "--family", "seq1", "5 2 4 4 5 6"], "encode_seq1.txt"),
        (["encode", "--family", "seq2", "2 4 4 5 5 5 6 6"], "encode_seq2.txt"),
    ]
    for argv, name in encodes:
        code, out, _ = run_cli(argv)
        assert code == 0 and out == (golden / name).read_text(), name

    code, out, _ = run_cli(["count", "-n", "10"])
    assert code == 0 and out == (golden / "count_n10.txt").read_text()

    code, out, _ = run_cli(["verify", str(golden / "example1.pair")])
    assert code == 0 and out == (golden / "verify_valid.txt").read_text()
    code, out, _ = run_cli(["verify", str(golden / "malformed.pair")])
    assert code == 1 and out == ""
    code, out, _ = run_cli(["verify", str(golden / "invalid.pair")])
    assert code == 2 and out == (golden / "verify_invalid.txt").read_text()

    elapsed = perf_counter() - start
    report(8, f"4 encodings, count table to 10, verify exits 0/1/2, {elapsed:.2f}s")
