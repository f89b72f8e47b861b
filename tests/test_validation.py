"""The row-operation pair kernel against the per-bit code it replaced.

``reference_check_axioms`` and ``reference_total_order`` are the per-bit
versions, kept verbatim (the latter validates through the former);
``oracles.reference_decompose_pair`` and ``oracles.reference_restrict``
split a pair from its column masks, bit by bit.  The fast paths must give
the same report, order, factors and exception text on every input.
"""

from __future__ import annotations

import random
from itertools import product

import pytest

from catpairs import (
    AxiomReport,
    CatalanPair,
    InvariantViolation,
    Relation,
    canonicalize,
    check_axioms,
    decompose_pair,
    enumerate_pairs,
    pair_to_tree,
    total_order,
    tree_to_pair,
)
from catpairs import grammar, relations
from catpairs.relations import bits, transitivity_witness
from conftest import random_tree
from oracles import reference_decompose_pair, reference_restrict


def reference_check_axioms(S: Relation, R: Relation) -> AxiomReport:
    if S.n != R.n:
        raise ValueError("S and R must live on the same label set")
    n = S.n
    violations: list[tuple[str, tuple[int, ...]]] = []

    witness = transitivity_witness(S)
    if witness is not None:
        violations.append(("i:S", witness))
    witness = transitivity_witness(R)
    if witness is not None:
        violations.append(("i:R", witness))

    unrelated = doubled = None
    for i in range(n):
        for j in range(i + 1, n):
            count = (
                (S.rows[i] >> j & 1)
                + (S.rows[j] >> i & 1)
                + (R.rows[i] >> j & 1)
                + (R.rows[j] >> i & 1)
            )
            if count == 0 and unrelated is None:
                unrelated = (i, j)
            elif count > 1 and doubled is None:
                doubled = (i, j)
        if unrelated is not None and doubled is not None:
            break
    if unrelated is not None:
        violations.append(("ii", unrelated))
    if doubled is not None:
        violations.append(("iii", doubled))

    for x in range(n):
        found = False
        for y in bits(S.rows[x]):
            missing = R.rows[y] & ~R.rows[x]
            if missing:
                z = (missing & -missing).bit_length() - 1
                violations.append(("iv", (x, y, z)))
                found = True
                break
        if found:
            break

    return AxiomReport(valid=not violations, violations=tuple(violations))


def reference_total_order(
    pair: CatalanPair, report: AxiomReport | None = None
) -> tuple[int, ...]:
    """*report*, if given, must be ``reference_check_axioms`` of *pair*;
    passing it saves a second per-bit check on large pairs."""
    if report is None:
        report = reference_check_axioms(pair.S, pair.R)
    if not report.valid:
        axiom, witness = report.violations[0]
        raise InvariantViolation(
            f"total order: axiom ({axiom}) fails at {witness}"
        )
    s_cols = pair.S.cols()
    l_rows = [pair.R.rows[i] | s_cols[i] for i in range(pair.n)]
    order = sorted(range(pair.n), key=lambda i: -l_rows[i].bit_count())
    for a in range(pair.n):
        for b in range(a + 1, pair.n):
            i, j = order[a], order[b]
            if not (l_rows[i] >> j & 1) or (l_rows[j] >> i & 1):
                raise InvariantViolation(
                    f"derived order is not a strict total order at ({i}, {j})"
                )
    return tuple(order)


def outcome(order_of, *args) -> tuple[int, ...] | str:
    try:
        return order_of(*args)
    except InvariantViolation as exc:
        return str(exc)


def assert_agrees(pair: CatalanPair) -> None:
    report = reference_check_axioms(pair.S, pair.R)
    assert check_axioms(pair.S, pair.R) == report
    assert outcome(total_order, pair) == outcome(reference_total_order, pair, report)


def flip(pair: CatalanPair, side: str, i: int, j: int) -> CatalanPair:
    rel = pair.S if side == "S" else pair.R
    rows = list(rel.rows)
    rows[i] ^= 1 << j
    flipped = Relation(rel.n, tuple(rows))
    return CatalanPair(flipped, pair.R) if side == "S" else CatalanPair(pair.S, flipped)


def shuffled(rng: random.Random, pair: CatalanPair) -> CatalanPair:
    image = list(range(pair.n))
    rng.shuffle(image)
    return pair.relabel(image)


def test_agrees_with_reference_on_every_small_pair():
    for n in range(4):
        cells = [(i, j) for i in range(n) for j in range(n) if i != j]
        relations_n = [
            Relation.from_pairs(n, [cell for cell, on in zip(cells, picks) if on])
            for picks in product((0, 1), repeat=len(cells))
        ]
        for S in relations_n:
            for R in relations_n:
                assert_agrees(CatalanPair(S, R))


def test_agrees_with_reference_on_every_single_bit_flip():
    rng = random.Random(6)
    for n in range(7):
        for canon in enumerate_pairs(n):
            pair = shuffled(rng, canon.pair)
            assert_agrees(pair)
            for side in "SR":
                for i in range(n):
                    for j in range(n):
                        if i != j:
                            assert_agrees(flip(pair, side, i, j))


@pytest.mark.parametrize("n", [100, 500, 2000])
def test_agrees_with_reference_on_large_random_pairs(n):
    rng = random.Random(n)
    pair = shuffled(rng, tree_to_pair(random_tree(rng, n)))
    assert_agrees(pair)
    i, j = rng.sample(range(n), 2)
    assert_agrees(flip(pair, rng.choice("SR"), i, j))


def test_valid_pair_costs_one_pass_over_s(monkeypatch):
    # counts the set bits the checks walk: at n = 500 R has about ten
    # times as many as S, so any per-bit walk of R fails the bound
    rng = random.Random(500)
    pair = shuffled(rng, tree_to_pair(random_tree(rng, 500)))
    expected = reference_total_order(pair)
    s_bits = sum(row.bit_count() for row in pair.S.rows)
    walked = 0

    def counting_bits(mask):
        nonlocal walked
        for j in bits(mask):
            walked += 1
            yield j

    monkeypatch.setattr(relations, "bits", counting_bits)
    assert check_axioms(pair.S, pair.R).valid
    assert walked <= s_bits
    walked = 0
    assert total_order(pair) == expected
    assert walked <= s_bits


def split(decompose, pair: CatalanPair):
    try:
        return decompose(pair)
    except (InvariantViolation, ValueError) as exc:
        return type(exc).__name__, str(exc)


def test_decompose_agrees_with_reference_on_every_small_pair():
    rng = random.Random("decompose")
    assert split(decompose_pair, CatalanPair.empty(0)) == split(
        reference_decompose_pair, CatalanPair.empty(0)
    )
    for n in range(1, 9):
        for canon in enumerate_pairs(n):
            for pair in canon.pair, shuffled(rng, canon.pair):
                expected = reference_decompose_pair(pair)
                assert decompose_pair(pair) == expected


def test_decompose_rejects_every_single_bit_flip_like_the_reference():
    # a flip doubles or drops the relation between i and j, so every
    # flipped pair is invalid
    rng = random.Random("decompose:flip")
    for n in range(2, 6):
        for canon in enumerate_pairs(n):
            pair = shuffled(rng, canon.pair)
            for side in "SR":
                for i in range(n):
                    for j in range(n):
                        if i != j:
                            flipped = flip(pair, side, i, j)
                            got = split(decompose_pair, flipped)
                            assert got[0] == "InvariantViolation"
                            assert got == split(reference_decompose_pair, flipped)


def test_restrict_agrees_with_reference_on_runs_and_scattered_labels():
    rng = random.Random("restrict")
    for _ in range(300):
        n = rng.randrange(41)
        rel = Relation(n, tuple(
            rng.getrandbits(n) & ~(1 << i) for i in range(n)
        ))
        label_sets = [[], range(n)]
        if n:
            lo = rng.randrange(n)
            hi = rng.randrange(lo, n)
            label_sets += [
                [rng.randrange(n)],
                range(lo, hi + 1),
                rng.sample(range(n), rng.randrange(n + 1)),
                [lo, hi] * 2,
            ]
        for labels in label_sets:
            assert rel.restrict(labels) == reference_restrict(rel, labels)


def test_decompose_never_walks_r(monkeypatch):
    # at n = 500 R has about ten times as many set bits as S: the axiom
    # check walks S once, the split walks its n - 1 block labels and the
    # factor trees walk S once more
    rng = random.Random("decompose:cost")
    t = random_tree(rng, 500)
    pair = canonicalize(tree_to_pair(t)).pair
    expected = reference_decompose_pair(pair)
    s_bits = sum(row.bit_count() for row in pair.S.rows)
    r_bits = sum(row.bit_count() for row in pair.R.rows)
    bound = 2 * s_bits + pair.n
    assert r_bits > 2 * bound
    walked = 0

    def counting_bits(mask):
        nonlocal walked
        for j in bits(mask):
            walked += 1
            yield j

    monkeypatch.setattr(relations, "bits", counting_bits)
    monkeypatch.setattr(grammar, "bits", counting_bits)
    assert decompose_pair(pair) == expected
    assert walked <= bound
    walked = 0
    assert pair_to_tree(pair) == t
    assert walked <= bound
