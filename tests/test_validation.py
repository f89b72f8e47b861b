"""The row-operation pair kernel against the per-bit code it replaced.

``oracles.reference_check_axioms`` and ``reference_total_order`` are the
per-bit versions, kept verbatim (the latter validates through the former);
``oracles.reference_decompose_pair`` and ``oracles.reference_restrict``
split a pair from its column masks, bit by bit.  The fast paths must give
the same report, order, factors and exception text on every input.
"""

from __future__ import annotations

import random
import tracemalloc
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
from catpairs import encoders, grammar, relations, trees
from catpairs.bijections import assemble_perm_312
from catpairs.relations import bits
from catpairs.structures import PATTERNS, perm_from_312
from conftest import random_tree
from oracles import (
    join_fold_pair,
    plain_transpose,
    reference_canonicalize,
    reference_check_axioms,
    reference_decompose_pair,
    reference_derived_order,
    reference_pair_to_tree,
    reference_restrict,
    reference_tree_rows,
    reference_transitivity_witness,
)


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
    s_cols = plain_transpose(pair.S.rows)
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


@pytest.mark.parametrize("n", [16, 23, 24, 25, 32, 48])
def test_witnesses_agree_with_reference_around_the_square_cutoff(n, monkeypatch):
    # _witnesses reads S's and R's columns: below 24 labels one pass over
    # their set bits, from 24 up through the bit square unless sparse
    squares = []

    def counting_square(rows, size):
        squares.append(size)
        return transpose_square(rows, size)

    transpose_square = relations._transpose_square
    monkeypatch.setattr(relations, "_transpose_square", counting_square)
    rng = random.Random(f"witnesses:{n}")
    for _ in range(8):
        pair = shuffled(rng, tree_to_pair(random_tree(rng, n)))
        once = flip(pair, rng.choice("SR"), *rng.sample(range(n), 2))
        twice = flip(once, rng.choice("SR"), *rng.sample(range(n), 2))
        for broken in (once, twice):
            assert_agrees(broken)
    assert bool(squares) == (n >= relations._KERNEL_MIN_N)


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


def test_invalid_pair_is_checked_once_by_total_order(monkeypatch):
    # total_order and canonicalize name the witness from the one
    # _derived_order they ran, without a second check
    rng = random.Random("checked once")
    calls = 0
    real_derived_order = relations._derived_order

    def counting_derived_order(S, R):
        nonlocal calls
        calls += 1
        return real_derived_order(S, R)

    monkeypatch.setattr(relations, "_derived_order", counting_derived_order)
    for n in range(2, 6):
        for canon in enumerate_pairs(n):
            for pair in (canon.pair, shuffled(rng, canon.pair)):
                for side in "SR":
                    i, j = rng.sample(range(n), 2)
                    broken = flip(pair, side, i, j)
                    expected = outcome(reference_total_order, broken)
                    assert isinstance(expected, str)
                    for order_of in (total_order, canonicalize):
                        calls = 0
                        assert outcome(order_of, broken) == expected
                        assert calls == 1


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
                range(hi, lo - 1, -1),
            ]
        for labels in label_sets:
            expected = reference_restrict(rel, labels)
            assert rel.restrict(labels) == expected
            assert rel.restrict(iter(labels)) == rel.restrict(set(labels)) == expected


def canonical_pair(left_sizes: list[int]) -> CatalanPair:
    return grammar._left_sizes_pair(left_sizes, inorder=False)


def shapes(rng: random.Random, n: int) -> dict[str, list[int]]:
    """Preorder left sizes of a left chain, a right chain and a random tree."""
    return {
        "left chain": list(range(n - 1, -1, -1)),
        "right chain": [0] * n,
        "random": trees.left_sizes(random_tree(rng, n)),
    }


def test_decompose_never_walks_r(monkeypatch):
    # canonical pairs of every shape are checked, canonicalized and read
    # with no column, no relabelling and no walk over S or R; both blocks
    # are runs, which decompose_pair cuts without listing their labels
    rng = random.Random("decompose:cost")
    n = 1000
    cases = []
    for left_sizes in shapes(rng, n).values():
        pair = canonical_pair(left_sizes)
        cases.append((
            pair,
            reference_decompose_pair(pair),
            trees.serialize(trees.from_left_sizes(left_sizes)),
        ))
    walked = 0

    def counting_bits(mask):
        nonlocal walked
        for j in bits(mask):
            walked += 1
            yield j

    def forbidden(*args):
        raise AssertionError("a canonical pair walks no column or relabelling")

    monkeypatch.setattr(relations, "bits", counting_bits)
    monkeypatch.setattr(Relation, "cols", forbidden)
    monkeypatch.setattr(Relation, "relabel", forbidden)
    for pair, expected, text in cases:
        assert check_axioms(pair.S, pair.R).valid
        assert total_order(pair) == tuple(range(n))
        assert canonicalize(pair).pair is pair
        assert decompose_pair(pair) == expected
        assert trees.serialize(pair_to_tree(pair)) == text
        assert walked == 0


KERNEL = (relations._derived_order, check_axioms, canonicalize, pair_to_tree)
REFERENCE = (
    reference_derived_order,
    reference_check_axioms,
    reference_canonicalize,
    reference_pair_to_tree,
)


def outcomes(kernel: tuple, pair: CatalanPair) -> tuple:
    """What *kernel*'s order, check, canonical form and tree say about
    *pair*; trees as text."""
    derived_order, check, canonical_form, tree_of = kernel
    try:
        tree = trees.serialize(tree_of(pair))
    except InvariantViolation as exc:
        tree = str(exc)
    return (
        derived_order(pair.S, pair.R),
        check(pair.S, pair.R),
        outcome(canonical_form, pair),
        tree,
    )


@pytest.mark.parametrize("n", range(8))
def test_fast_path_agrees_with_reference_on_every_tree_and_flip(n):
    # each tree's canonical pair takes the fast path, its inorder pair and
    # a relabelling the per-bit one, and every single-bit flip of any of
    # them is invalid
    rng = random.Random(f"fast path:{n}")
    for t in trees.all_trees(n):
        canonical = canonical_pair(trees.left_sizes(t))
        labellings = (canonical, tree_to_pair(t), shuffled(rng, canonical))
        for pair in dict.fromkeys(labellings):
            assert outcomes(KERNEL, pair) == outcomes(REFERENCE, pair)
            for side in "SR":
                for i in range(n):
                    for j in range(n):
                        if i != j:
                            flipped = flip(pair, side, i, j)
                            assert outcomes(KERNEL, flipped) == outcomes(REFERENCE, flipped)


@pytest.mark.parametrize("n", [100, 500, 2000])
def test_fast_path_agrees_with_reference_on_large_canonical_pairs(n):
    # on a canonical pair the per-bit canonicalize relabels by the
    # identity and the per-bit tree read gives the tree the pair was
    # built from, so those two references are run only up to n = 500
    rng = random.Random(f"fast path:{n}")
    for shape, left_sizes in shapes(rng, n).items():
        pair = canonical_pair(left_sizes)
        text = trees.serialize(trees.from_left_sizes(left_sizes))
        assert check_axioms(pair.S, pair.R).valid, shape
        order = reference_derived_order(pair.S, pair.R)
        assert relations._derived_order(pair.S, pair.R) == order == tuple(range(n))
        assert canonicalize(pair).pair is pair
        assert trees.serialize(pair_to_tree(pair)) == text
        if n <= 500:
            assert reference_canonicalize(pair).pair == pair
            assert trees.serialize(reference_pair_to_tree(pair)) == text
        i, j = rng.sample(range(n), 2)
        flipped = flip(pair, rng.choice("SR"), i, j)
        assert relations._derived_order(flipped.S, flipped.R) is None
        assert reference_derived_order(flipped.S, flipped.R) is None


@pytest.mark.parametrize("s_pairs, gap", [([], (0, 1)), ([(0, 1)], (0, 2))])
def test_check_memory_follows_the_input(s_pairs, gap):
    # the empty pair passes the direction test and its sizes spell a left
    # chain, whose dense S must not be built; with S 1 2 the pair takes
    # the per-bit path, which must not build n prefix masks of n bits
    pair = CatalanPair.from_pairs(20000, s_pairs, [])
    tracemalloc.start()
    try:
        report = check_axioms(pair.S, pair.R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.violations == (("ii", gap),)
    assert peak < 8 * 2**20


def test_check_memory_follows_long_sparse_rows():
    # every row but the last holds only the top label: n - 1 set bits in
    # an n x n square, so the columns must be read bit by bit, not through
    # a 2^30-bit square, and the witness scan must copy no whole row
    n = 20000
    top = 1 << (n - 1)
    S = Relation(n, (top,) * (n - 1) + (0,))
    R = Relation.empty(n)
    tracemalloc.start()
    try:
        report = check_axioms(S, R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.violations == (("ii", (0, 1)),)
    assert peak < 8 * 2**20


def tree_row_cases():
    """(name, preorder left sizes) of every tree with n <= 9, and of
    random trees and both chains up to n = 2000."""
    for n in range(10):
        for t in trees.all_trees(n):
            yield trees.serialize(t), trees.left_sizes(t)
    rng = random.Random("tree rows")
    for n in (10, 100, 1000, 2000):
        for shape, left_sizes in shapes(rng, n).items():
            yield f"{shape} {n}", left_sizes


def test_tree_rows_formula_agrees_with_inherited_rows():
    # the R row written from label, left size and S row against the R
    # row carried down the tree, row by row, in both labellings
    for name, left_sizes in tree_row_cases():
        size = trees.subtree_sizes(left_sizes)
        for inorder in (False, True):
            s_rows, r_rows = relations._tree_rows(left_sizes, inorder)
            assert list(enumerate(zip(s_rows, r_rows))) == sorted(
                (x, (s_row, r_row))
                for x, s_row, r_row in reference_tree_rows(left_sizes, size, inorder)
            ), (name, inorder)


def built_pairs(rng: random.Random, t: trees.Tree) -> list[CatalanPair]:
    """The pairs that the builders trusted to skip the row check return
    for tree *t*: ``_left_sizes_pair`` in both labellings, the inversion
    pair of each of the six classes, the ``_join`` fold, ``relabel``,
    ``canonicalize`` and the factors that ``restrict`` cuts for
    ``decompose_pair`` (one run per block on canonical labels, scattered
    labels on shuffled ones)."""
    left_sizes = trees.left_sizes(t)
    canonical = grammar._left_sizes_pair(left_sizes, inorder=False)
    inorder = grammar._left_sizes_pair(left_sizes, inorder=True)
    relabelled = shuffled(rng, canonical)
    built = [canonical, inorder, join_fold_pair(t), relabelled]
    p = assemble_perm_312(t)
    built += [
        encoders.pair_for_avoidance_class(perm_from_312(p, pattern), pattern)
        for pattern in PATTERNS
    ]
    built += [canonicalize(inorder).pair, canonicalize(relabelled).pair]
    if t:
        for pair in (canonical, relabelled):
            _, left, right = decompose_pair(pair)
            built += [left, right]
    return built


def assert_rows_pass_the_public_check(pair: CatalanPair) -> None:
    for rel in (pair.S, pair.R):
        assert type(rel.rows) is tuple
        assert Relation(rel.n, rel.rows) == rel


@pytest.mark.parametrize("n", [*range(8), 16, 64, 128, 512])
def test_trusted_builders_return_rows_the_public_check_accepts(n):
    # the builders construct relations without the row check; every row
    # they return must still lie in range and off the diagonal
    rng = random.Random(f"trusted:{n}")
    tree_set = trees.all_trees(n) if n < 8 else [random_tree(rng, n) for _ in range(3)]
    for t in tree_set:
        for pair in built_pairs(rng, t):
            assert_rows_pass_the_public_check(pair)
    for _ in range(20 if n < 8 else 3):
        rel = Relation(n, tuple(rng.getrandbits(n) & ~(1 << i) for i in range(n)))
        labels = rng.sample(range(n), rng.randrange(n + 1))
        for kept in (labels, range(rng.randrange(n + 1))):
            sub = rel.restrict(kept)
            assert_rows_pass_the_public_check(CatalanPair(sub, sub))


# ---------------------------------------------------------- column reads

def random_rows(rng: random.Random, n: int, density: float) -> list[int]:
    """n rows of n bits, each bit set with probability *density*."""
    if density in (0, 1):
        return [((1 << n) - 1) * density for _ in range(n)]
    return [
        sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)
    ]


def walked_bits(monkeypatch) -> list[int]:
    """A list that collects every bit walked through ``relations.bits``."""
    walked = []
    real_bits = relations.bits

    def counting_bits(mask):
        for j in real_bits(mask):
            walked.append(j)
            yield j

    monkeypatch.setattr(relations, "bits", counting_bits)
    return walked


DENSITIES = (0, 1 / 64, 1 / 8, 1 / 2, 1)


def test_transpose_agrees_with_plain_transpose_on_small_matrices():
    # the chosen path of the transpose, and the square kernel on the
    # smallest square that holds the matrix and on one twice as wide,
    # chosen or not
    rng = random.Random("transpose:small")
    for n in range(41):
        size = max(8, 1 << (n - 1).bit_length())
        for density in DENSITIES:
            rows = random_rows(rng, n, density)
            expected = plain_transpose(rows)
            assert relations._transpose(rows) == expected, (n, density)
            for width in (size, 2 * size):
                assert relations._transpose_square(rows, width) == expected


SQUARE_EDGES = [
    n for k in range(3, 12) for n in (2**k - 1, 2**k, 2**k + 1)
]


@pytest.mark.parametrize("n", SQUARE_EDGES)
def test_transpose_agrees_with_plain_transpose_at_square_edges(n, monkeypatch):
    # dense matrices on both sides of each power of two: from 24 rows up
    # the transpose takes the square kernel and walks no bit
    rng = random.Random(f"transpose:edge:{n}")
    rows = [rng.getrandbits(n) for _ in range(n)]
    expected = plain_transpose(rows)
    walked = walked_bits(monkeypatch)
    assert relations._transpose(rows) == expected
    assert (walked == []) == (n >= relations._KERNEL_MIN_N)
    size = max(8, 1 << (n - 1).bit_length())
    assert relations._transpose_square(rows, size) == expected


def test_transpose_takes_the_square_only_past_both_cutoffs(monkeypatch):
    rng = random.Random("transpose:cutoffs")
    walked = walked_bits(monkeypatch)
    min_n = relations._KERNEL_MIN_N
    # size: a full matrix just below and at the row cutoff
    for n in (min_n - 1, min_n):
        rows = random_rows(rng, n, 1)
        walked.clear()
        assert relations._transpose(rows) == plain_transpose(rows)
        assert (walked == []) == (n >= min_n), n
    # density: one set bit fewer than, and exactly, one bit per
    # _KERNEL_MAX_SPARSITY bits of the padded square, at two sizes
    for n in (min_n, 40, 300):
        size = 1 << (n - 1).bit_length()
        needed = size * size // relations._KERNEL_MAX_SPARSITY
        for count in (needed - 1, needed):
            cells = rng.sample(range(n * n), count)
            rows = [0] * n
            for cell in cells:
                rows[cell // n] |= 1 << cell % n
            walked.clear()
            assert relations._transpose(rows) == plain_transpose(rows)
            assert (walked == []) == (count == needed), (n, count)


def test_relabelled_left_chain_is_checked_without_walking_bits(monkeypatch):
    # a left chain's S holds n(n-1)/2 bits: its columns come from the
    # square kernel, so a valid pair of any labelling walks no bit
    rng = random.Random("left chain:cost")
    n = 1000
    pair = shuffled(rng, canonical_pair(list(range(n - 1, -1, -1))))
    expected = reference_derived_order(pair.S, pair.R)
    walked = walked_bits(monkeypatch)
    assert check_axioms(pair.S, pair.R).valid
    assert total_order(pair) == expected
    assert walked == []


def witness_cases(rng: random.Random, n: int) -> list[Relation]:
    """Random relations at densities 1/8, 1/4, 1/2 and 1, the R of a
    relabelled random tree and of a relabelled right chain (transitive),
    and each of those with one bit flipped."""
    cases = []
    for density in (1 / 8, 1 / 4, 1 / 2, 1):
        rows = random_rows(rng, n, density)
        cases.append(Relation(n, [row & ~(1 << i) for i, row in enumerate(rows)]))
    for t in (random_tree(rng, n), trees.from_left_sizes([0] * n)):
        cases.append(shuffled(rng, tree_to_pair(t)).R)
    for rel in list(cases):
        i, j = rng.sample(range(n), 2)
        rows = list(rel.rows)
        rows[i] ^= 1 << j
        cases.append(Relation(n, rows))
    return cases


@pytest.mark.parametrize("n", [8, 39, 40, 41, 44, 45, 47, 48, 64, 65, 100, 257])
def test_transitivity_witness_agrees_with_per_bit_fold(n):
    # sparse to full relations, transitive or one flip away, at every
    # n % 8 and on both sides of a byte boundary
    rng = random.Random(f"transitivity:{n}")
    for rel in witness_cases(rng, n):
        expected = reference_transitivity_witness(rel)
        assert relations.transitivity_witness(rel) == expected, rel


def test_invalid_pair_walks_s_twice_and_r_once(monkeypatch):
    # an S flip leaves R transitive, so R's witness scan runs to the end:
    # it walks each bit of R once, and S's bits are walked for the S
    # witness and for axiom (iv)
    rng = random.Random("one flip:cost")
    n = 500
    pair = shuffled(rng, tree_to_pair(random_tree(rng, n)))
    i, j = rng.sample(range(n), 2)
    flipped = flip(pair, "S", i, j)
    expected = reference_check_axioms(flipped.S, flipped.R)
    s_bits = sum(map(int.bit_count, flipped.S.rows))
    r_bits = sum(map(int.bit_count, flipped.R.rows))
    walked = walked_bits(monkeypatch)
    assert check_axioms(flipped.S, flipped.R) == expected
    assert len(walked) <= 2 * s_bits + r_bits
