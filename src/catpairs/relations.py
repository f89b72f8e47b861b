"""Strict order pairs on {0, ..., n-1} and their composition calculus.

A pair (S, R) of binary relations is valid when it satisfies four axioms:

  (i)   S and R are strict orders (irreflexive and transitive);
  (ii)  any two distinct labels i, j are related somehow: at least one of
        i S j, i R j, j S i, j R i holds;
  (iii) at most one of those four holds (so with (ii): exactly one);
  (iv)  x S y and y R z together force x R z.

Valid pairs of every size compose and decompose like binary trees.

A relation is stored as bitset rows: bit j of ``rows[i]`` is set iff
(i, j) belongs to it.  Rows are checked where they enter:
``Relation(n, rows)`` and ``Relation.from_pairs`` refuse a bit outside
0..n-1 or on the diagonal, while the package's builders (the tree
builder :func:`_tree_rows`, the inversion pairs, :func:`_join`,
``restrict``, ``relabel`` and the pair-file readers) make such rows by
construction and skip that check.

Costs, in big-int row operations (labels are canonical when every S row
points only to smaller labels and every R row only to larger ones, as
on every pair built from preorder left sizes):

- ``check_axioms``, ``total_order``, ``canonicalize``: O(n) on canonical
  labels; any other labelling adds a read of S's columns, and
  ``canonicalize`` then relabels with one pass over the set bits.  Only
  an invalid pair names its witnesses, adding a read of both relations'
  columns and passes over their set bits.  Memory follows the input, not
  the declared size.
- ``decompose_pair``: one check, then O(n).
- ``Relation.restrict``: O(k) for a run of k labels, else one pass over
  the kept bits.
- ``Relation.cols``: one pass over the set bits, or O(log n) whole-matrix
  steps in C for a dense relation from 24 labels up.
- ``transitivity_witness``: one OR per set bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress, count
from math import comb
from operator import or_
from typing import Iterable

from . import trees
from .errors import InvariantViolation, _non_int, require

# binary digits "0"/"1" as the selector bytes 0/1
_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")


def bits(mask: int) -> Iterable[int]:
    """Indices of set bits, ascending, to be iterated once.

    A dense mask (more than about one bit in eight set) is walked lazily
    in C: its binary digits, lowest first, select from a counter, at a
    cost per digit.  A short or sparse one is listed in Python, one loop
    step per set bit; masks below 2^16 take that path after one shift.
    The list is built from the top bit down and then reversed, since
    clearing the top bit allocates one integer less than isolating the
    lowest.
    """
    if mask >> 16 and mask.bit_count() * 8 > mask.bit_length() + 40:
        digits = format(mask, "b")[::-1].encode().translate(_DIGIT_BITS)
        return compress(count(), digits)
    indices = []
    while mask:
        top = mask.bit_length() - 1
        indices.append(top)
        mask ^= 1 << top
    indices.reverse()
    return indices


@dataclass(frozen=True)
class Relation:
    """An irreflexive binary relation on {0, ..., n-1}, one bitmask per row."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        # any row container is kept as the tuple that builders store
        object.__setattr__(self, "rows", tuple(self.rows))
        if self.n < 0:
            raise ValueError("size must be nonnegative")
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(self.rows)}")
        for i, row in enumerate(self.rows):
            if row < 0 or row >> self.n:
                raise ValueError(f"row {i} has bits outside 0..{self.n - 1}")
            if row >> i & 1:
                raise ValueError(f"diagonal entry ({i}, {i}) is not allowed")

    @classmethod
    def _unchecked(cls, n: int, rows: Iterable[int]) -> "Relation":
        """A relation on rows known to lie in 0..n-1 off the diagonal, unchecked."""
        rel = object.__new__(cls)
        rel.__dict__.update(n=n, rows=tuple(rows))
        return rel

    @classmethod
    def empty(cls, n: int) -> "Relation":
        return cls(n, (0,) * n)

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Relation":
        rows = [0] * n
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"pair ({i}, {j}) out of range for size {n}")
            if i == j:
                raise ValueError(f"diagonal pair ({i}, {i}) is not allowed")
            rows[i] |= 1 << j
        return cls(n, tuple(rows))

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (i, j) for i in range(self.n) for j in bits(self.rows[i])
        )

    def __contains__(self, pair: tuple[int, int]) -> bool:
        i, j = pair
        return 0 <= i < self.n and 0 <= j < self.n and bool(self.rows[i] >> j & 1)

    def cols(self) -> tuple[int, ...]:
        """Column masks: bit i of cols()[j] is set iff (i, j) holds,
        read by :func:`_transpose`."""
        return tuple(_transpose(self.rows))

    def restrict(self, labels: Iterable[int]) -> "Relation":
        """Induced relation on *labels*, renumbered in increasing order.

        O(k) row operations when the k labels are one run lo..hi, else one
        pass over the set bits that their rows keep.  A range of step 1,
        as ``decompose_pair`` passes for a run, is used as it is; any
        other labels are sorted and deduplicated.  A label that is not an
        int, or lies outside 0..n-1, raises ValueError naming it.
        """
        if type(labels) is range and labels.step == 1:
            kept = labels
        else:
            labels = list(labels)
            require(_non_int(labels, "label"))
            kept = sorted(set(labels))
        k = len(kept)
        if not k:
            return Relation._unchecked(0, ())
        if kept[0] < 0 or kept[-1] >= self.n:
            bad = kept[0] if kept[0] < 0 else kept[-1]
            raise ValueError(f"label {bad} out of range for size {self.n}")
        if kept[-1] - kept[0] == k - 1:
            # one run lo..hi: shift-and-mask each row into a list, since a
            # tuple grown from a generator is resized, fragmenting the heap
            lo, mask = kept[0], (1 << k) - 1
            return Relation._unchecked(k, [self.rows[i] >> lo & mask for i in kept])
        # cut each row to the kept labels first, so that only the bits it
        # keeps are walked, each one looked up as its renumbered bit
        keep = sum([1 << old for old in kept])
        new_bit = {old: 1 << new for new, old in enumerate(kept)}.__getitem__
        return Relation._unchecked(k, [
            sum(map(new_bit, bits(self.rows[old] & keep))) for old in kept
        ])

    def relabel(self, image: Iterable[int]) -> "Relation":
        """Rename label i to image[i]; *image* must be a permutation of
        0..n-1, given as ints.  Each row's renamed bits are summed in C."""
        image = tuple(image)
        # a label that only equals an int, like 2.0, makes the sum a non-int
        if sorted(image) != list(range(self.n)) or type(sum(image)) is not int:
            raise ValueError("relabelling must be a permutation of the labels")
        new_bit = [1 << new for new in image].__getitem__
        rows = [0] * self.n
        for new, row in zip(image, self.rows):
            rows[new] = sum(map(new_bit, bits(row)))
        return Relation._unchecked(self.n, rows)


_KERNEL_MIN_N = 24  # see _transpose
_KERNEL_MAX_SPARSITY = 64


def _square_size(rows: tuple[int, ...] | list[int]) -> int:
    """The side N of the square that :func:`_transpose_square` reads
    *rows* through (N the next power of two >= n), or 0 if at most one
    bit in 64 of it is set: so the square's memory stays within a fixed
    multiple of the set bits."""
    size = 1 << (len(rows) - 1).bit_length()
    if sum(map(int.bit_count, rows)) * _KERNEL_MAX_SPARSITY < size * size:
        return 0
    return size


def _transpose(rows: tuple[int, ...] | list[int]) -> list[int]:
    """Column masks of square bitset *rows*: from 24 rows up through the
    bit square in C when :func:`_square_size` picks one, else one pass
    over their set bits, one Python step each."""
    if len(rows) >= _KERNEL_MIN_N:
        size = _square_size(rows)
        if size:
            return _transpose_square(rows, size)
    cols = [0] * len(rows)
    for i, row in enumerate(rows):
        bit = 1 << i
        for j in bits(row):
            cols[j] |= bit
    return cols


def _transpose_square(rows: tuple[int, ...] | list[int], size: int) -> list[int]:
    """Column masks of *rows* padded to a *size* x *size* bit matrix;
    *size* is a power of two, at least 8 and at least ``len(rows)``.

    The rows are packed into one integer, bit (i, j) at i * size + j.
    For s = 1, 2, ..., size / 2 a masked delta swap then trades bit s of
    the row index with bit s of the column index: each bit (i, j) with
    i & s == 0 and j & s != 0 swaps places with (i + s, j - s), which
    lies s * (size - 1) places higher.  Each of the log2(size) swaps is
    a few whole-integer operations; the result is cut back into columns.
    """
    n, width = len(rows), size // 8  # width: bytes per row
    packed = b"".join([row.to_bytes(width, "little") for row in rows])
    x = int.from_bytes(packed, "little")
    s = 1
    while s < size:
        d = s * (size - 1)
        t = (x ^ x >> d) & _swap_mask(size, s)
        x ^= t ^ t << d
        s <<= 1
    cols = x.to_bytes(n * width, "little")
    return [
        int.from_bytes(cols[j * width:(j + 1) * width], "little")
        for j in range(n)
    ]


def _swap_mask(size: int, s: int) -> int:
    """The bits (i, j) of a *size* x *size* matrix with i & s == 0 and
    j & s != 0, built from one row's bytes."""
    high_halves = ((1 << size) - 1) // ((1 << 2 * s) - 1) * (((1 << s) - 1) << s)
    row = high_halves.to_bytes(size // 8, "little")
    return int.from_bytes(
        (row * s + bytes(len(row) * s)) * (size // (2 * s)), "little"
    )


def transitivity_witness(rel: Relation) -> tuple[int, int] | None:
    """The smallest (x, z) with x->y->z but no x->z for some y, else None.

    Row x is tested against the union of the rows it points to, a fold
    over the row's set bits.
    """
    row_of = rel.rows.__getitem__
    for x, row in enumerate(rel.rows):
        missing = reduce(or_, map(row_of, bits(row)), 0) & ~row
        if missing:
            return (x, (missing & -missing).bit_length() - 1)
    return None


def is_strict_order(rel: Relation) -> bool:
    """Irreflexivity is structural, so this just checks transitivity."""
    return transitivity_witness(rel) is None


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of checking the four pair axioms.

    ``violations`` holds at most one witness per axiom, keyed by the axiom
    id: "i:S", "i:R" (a missing transitive pair), "ii" (an unrelated pair),
    "iii" (a doubly related pair), "iv" (a triple x, y, z with x S y and
    y R z but no x R z).
    """

    valid: bool
    violations: tuple[tuple[str, tuple[int, ...]], ...]


def check_axioms(S: Relation, R: Relation) -> AxiomReport:
    """Check the four axioms; report one witness per failing axiom.  The
    check is :func:`_derived_order`; only an invalid pair goes on to name
    its witnesses (:func:`_witnesses`)."""
    if S.n != R.n:
        raise ValueError("S and R must live on the same label set")
    if _derived_order(S, R) is not None:
        return AxiomReport(valid=True, violations=())
    return AxiomReport(valid=False, violations=_witnesses(S, R))


def _witnesses(S: Relation, R: Relation) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """One witness per failing axiom of a pair that ``_derived_order``
    has already found invalid."""
    n = S.n
    violations: list[tuple[str, tuple[int, ...]]] = []

    witness = transitivity_witness(S)
    if witness is not None:
        violations.append(("i:S", witness))
    witness = transitivity_witness(R)
    if witness is not None:
        violations.append(("i:R", witness))

    # (ii) and (iii): for i < j, bit j of S_i, R_i, S-col_i and R-col_i
    # says whether i S j, i R j, j S i and j R i hold
    unrelated = doubled = None
    for i, (s, r, s_col, r_col) in enumerate(zip(S.rows, R.rows, S.cols(), R.cols())):
        if unrelated is None:
            related = (s | r | s_col | r_col) >> (i + 1)
            j = i + (~related & (related + 1)).bit_length()
            if j < n:
                unrelated = (i, j)
        if doubled is None:
            twice = (s & r | s_col & r_col | (s | r) & (s_col | r_col)) >> (i + 1)
            if twice:
                doubled = (i, i + (twice & -twice).bit_length())
        if unrelated is not None and doubled is not None:
            break
    if unrelated is not None:
        violations.append(("ii", unrelated))
    if doubled is not None:
        violations.append(("iii", doubled))

    # (iv) at the first x S y whose R row holds a z missing from x's
    missing = (
        (x, y, R.rows[y] & ~R.rows[x]) for x in range(n) for y in bits(S.rows[x])
    )
    for x, y, zs in missing:
        if zs:
            violations.append(("iv", (x, y, (zs & -zs).bit_length() - 1)))
            break

    return tuple(violations)


@dataclass(frozen=True)
class CatalanPair:
    """A candidate (S, R) pair; validity is checked on demand, not on build."""

    S: Relation
    R: Relation

    def __post_init__(self) -> None:
        if self.S.n != self.R.n:
            raise ValueError("S and R must live on the same label set")

    @property
    def n(self) -> int:
        return self.S.n

    @classmethod
    def empty(cls, n: int) -> "CatalanPair":
        return cls(Relation.empty(n), Relation.empty(n))

    @classmethod
    def from_pairs(
        cls,
        n: int,
        s_pairs: Iterable[tuple[int, int]],
        r_pairs: Iterable[tuple[int, int]],
    ) -> "CatalanPair":
        return cls(Relation.from_pairs(n, s_pairs), Relation.from_pairs(n, r_pairs))

    def report(self) -> AxiomReport:
        return check_axioms(self.S, self.R)

    def is_valid(self) -> bool:
        return self.report().valid

    def relabel(self, image: Iterable[int]) -> "CatalanPair":
        image = tuple(image)
        return CatalanPair(self.S.relabel(image), self.R.relabel(image))


def _require_valid(pair: CatalanPair, context: str) -> None:
    report = pair.report()
    if not report.valid:
        raise _first_violation(context, report.violations)


def _first_violation(context: str, violations: tuple) -> InvariantViolation:
    axiom, witness = violations[0]
    return InvariantViolation(
        f"{context}: axiom ({axiom}) fails at {witness}", axiom, witness
    )


def compose_pair(left: CatalanPair, right: CatalanPair) -> CatalanPair:
    """Join two valid pairs into one on k + m + 1 labels.

    The result lays out left's labels first (0..k-1), then a fresh label
    x = k, then right's labels shifted up by k + 1.  Every left label gets
    an S-arrow into x; x and every left label get R-arrows into every
    right label.
    """
    _require_valid(left, "compose: left operand")
    _require_valid(right, "compose: right operand")
    return _join(left, right)


def _join(left: CatalanPair, right: CatalanPair) -> CatalanPair:
    """:func:`compose_pair` without the operand checks.

    Joining valid pairs gives a valid pair, so a fold or ``trees.grow``
    that builds both operands by joining needs no check at any node.
    """
    k, m = left.n, right.n
    n = k + m + 1
    right_mask = ((1 << m) - 1) << (k + 1)
    s_rows = [row | 1 << k for row in left.S.rows]
    s_rows.append(0)
    s_rows.extend(row << (k + 1) for row in right.S.rows)
    r_rows = [row | right_mask for row in left.R.rows]
    r_rows.append(right_mask)
    r_rows.extend(row << (k + 1) for row in right.R.rows)
    return CatalanPair(Relation._unchecked(n, s_rows), Relation._unchecked(n, r_rows))


def decompose_pair(pair: CatalanPair) -> tuple[int, CatalanPair, CatalanPair]:
    """Undo :func:`compose_pair` up to relabelling.

    Returns (x, left, right) where x is the unique label with no
    S-successor and no R-predecessor, the left factor is induced on
    {i : i S x} and the right factor on {j : x R j}.  An empty pair
    raises ValueError and an invalid one InvariantViolation.

    This is the checked entry point: it runs the axiom check on *pair*.
    The axioms hold on every induced subpair of a valid pair, so callers
    that go on decomposing the factors need not check them again (see
    ``grammar.pair_to_tree``).  The labels with an empty S row are the
    tree's right spine, and each one's R row is its own right subtree, so
    x is the one with the most R-successors; the right block is x's R row
    and the left block is everything else, each cut as a range when it is
    one run, as on a canonical pair.
    """
    if pair.n == 0:
        raise ValueError("cannot decompose an empty pair")
    _require_valid(pair, "decompose")
    x = max(
        (i for i, row in enumerate(pair.S.rows) if not row),
        key=lambda i: pair.R.rows[i].bit_count(),
    )
    b_mask = pair.R.rows[x]
    a_mask = ((1 << pair.n) - 1) ^ (1 << x) ^ b_mask
    left_labels = _ascending_labels(a_mask)
    right_labels = _ascending_labels(b_mask)
    left = CatalanPair(
        pair.S.restrict(left_labels), pair.R.restrict(left_labels)
    )
    right = CatalanPair(
        pair.S.restrict(right_labels), pair.R.restrict(right_labels)
    )
    return x, left, right


def _ascending_labels(mask: int) -> range | list[int]:
    """The set bits of *mask*, ascending: a range when they form one run,
    as both blocks of a canonical pair do, so that none is walked."""
    if not mask:
        return range(0)
    start = (mask & -mask).bit_length() - 1
    run = mask >> start
    if run & (run + 1):
        return list(bits(mask))
    return range(start, start + run.bit_length())


def total_order(pair: CatalanPair) -> tuple[int, ...]:
    """Labels sorted by the order L with i L j iff i R j or j S i.

    For a valid pair L is always a strict total order.  The order is
    derived and the pair validated together (:func:`_derived_order`); an
    invalid pair raises InvariantViolation with its first axiom witness.
    """
    order = _derived_order(pair.S, pair.R)
    if order is None:
        raise _first_violation("total order", _witnesses(pair.S, pair.R))
    return order


def _derived_order(S: Relation, R: Relation) -> tuple[int, ...] | None:
    """The derived order of (S, R) if the pair is valid, else None.

    A valid pair is a relabelled ``grammar.tree_to_pair`` of some binary
    tree, so the pair is rebuilt row by row instead of checked bit by bit.
    L lists the tree in preorder, a label's S-column is its left subtree
    (the block of labels right after it in L) and R is the rest of L.

    When every S row points only to smaller labels and every R row only
    to larger ones, L can only be 0 < ... < n-1, so the labels are
    already preorder positions: the left sizes come from R's popcounts
    and the pair is valid exactly when the builder (:func:`_tree_rows`)
    rebuilds it from them.  The builder compares each row as it makes
    it and stops at the first that differs.  O(n) row operations.

    Any other labelling reads S's columns (:func:`_transpose`) and places
    the labels (:func:`_preorder`), then O(n) row operations: the pair is
    valid exactly when no two labels collide, each label's R row and
    S-column are the labels after it, its S-column is the block right
    after it (so the two are disjoint) and the block sizes fill a binary
    tree.  Collisions are found before any mask of labels is built, so
    the masks hold no more bits than the input.
    """
    n = S.n
    left_sizes = _canonical_left_sizes(S, R)
    if left_sizes is not None:
        # the builder stops at the first row that differs, so that an
        # invalid pair builds no more than the rows it shares with a valid
        # one: the empty pair's sizes spell a left chain, whose dense S is
        # never built
        if _tree_rows(left_sizes, False, (S.rows, R.rows)) is None:
            return None
        return tuple(range(n))
    s_cols = S.cols()
    placed = _preorder(R.rows, s_cols)
    if placed is None:
        return None
    order, left_sizes = placed
    after = [0] * n  # after[p]: labels at positions > p
    rest = 0
    for p in reversed(range(n)):
        i, a = order[p], left_sizes[p]
        after[p] = rest
        if R.rows[i] | s_cols[i] != rest or s_cols[i] != rest ^ after[p + a]:
            return None
        rest |= 1 << i
    if trees.subtree_sizes(left_sizes) is None:
        return None
    return tuple(order)


def _preorder(
    r_rows: tuple[int, ...], s_cols: tuple[int, ...]
) -> tuple[list[int], list[int]] | None:
    """The label and the left size at each preorder position, in one pass
    over R's rows and S's columns; None if a position is negative or taken
    twice.  On a valid pair label i's L-successors are its R row and its
    left subtree, its S-column, so it sits at n - 1 - |R_i| - |S-col_i|.
    """
    n = len(r_rows)
    order = [-1] * n
    left_sizes = [0] * n
    for i, (r_row, s_col) in enumerate(zip(r_rows, s_cols)):
        a = s_col.bit_count()
        p = n - 1 - r_row.bit_count() - a
        if p < 0 or order[p] >= 0:
            return None
        order[p] = i
        left_sizes[p] = a
    return order, left_sizes


def _canonical_left_sizes(S: Relation, R: Relation) -> list[int] | None:
    """Label i's left size n - 1 - i - |R_i|, if S rows point only to
    smaller labels and R rows only to larger ones; else None.

    On a valid pair that passes, the labels are the tree's preorder
    positions, and label i's n - 1 - i L-successors are its R row plus its
    left subtree, so the sizes are exact.  O(n) row operations.
    """
    n = S.n
    sizes = []
    for i, (s_row, r_row) in enumerate(zip(S.rows, R.rows)):
        if s_row >> i or r_row >> i << i != r_row:
            return None
        sizes.append(n - 1 - i - r_row.bit_count())
    return sizes


def _tree_rows(
    left_sizes: list[int],
    inorder: bool,
    match: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
) -> tuple[list[int], list[int]] | None:
    """The S rows and R rows, by label, of the tree with preorder
    *left_sizes*, built top down in one loop; None if no tree has those
    sizes, or at the first row that differs from *match*'s (S rows,
    R rows) when it is given.

    Labels are the nodes' preorder positions, or their inorder positions
    if *inorder* is set.  The loop carries each node's subtree size and
    S row down to its children: a left child of size a, the node's left
    size, inherits the S row plus the node; a right child, of the size
    the node has left, the S row alone.  A right size below 0 means the
    sizes fill no tree.  A node and its left subtree R-precede its right
    subtree, so the rest follows from the preorder position p, the left
    size a and the S row.  Preorder: x = p, and R_x is every label above
    x + a.  Inorder: the labels below p's subtree are the nodes before p
    in preorder less the S row, so x = p - |S_x| + a and R_x is every
    label above x except the S row.  Each row costs O(1) row operations.
    """
    n = len(left_sizes)
    full = (1 << n) - 1
    s_rows = [0] * n
    r_rows = [0] * n
    s_down = [0] * n  # by preorder position: the S row
    size = [0] * (n + 1)  # by preorder position: the subtree size
    size[0] = n
    s_match, r_match = match or (None, None)
    for p, a in enumerate(left_sizes):
        b = size[p] - 1 - a
        if b < 0:
            return None
        s_row = s_down[p]
        if inorder:
            x = p - s_row.bit_count() + a
            r_row = full >> (x + 1) << (x + 1) ^ s_row
        else:
            x, r_row = p, full >> (p + a + 1) << (p + a + 1)
        if match and (s_row != s_match[x] or r_row != r_match[x]):
            return None
        s_rows[x] = s_row
        r_rows[x] = r_row
        if a:
            s_down[p + 1] = s_row | 1 << x
            size[p + 1] = a
        if b:
            s_down[p + a + 1] = s_row
            size[p + a + 1] = b
    return s_rows, r_rows


@dataclass(frozen=True)
class CanonicalPair:
    """A valid pair whose derived total order is 0 < 1 < ... < n-1.

    Two pairs are isomorphic exactly when their canonical forms are equal,
    so this is the normal form used for structure conversion.
    """

    pair: CatalanPair

    def __post_init__(self) -> None:
        if total_order(self.pair) != tuple(range(self.pair.n)):
            raise InvariantViolation(
                "pair is not canonical: derived order differs from 0..n-1"
            )

    @classmethod
    def _unchecked(cls, pair: CatalanPair) -> "CanonicalPair":
        """Wrap a pair already known to be canonical, skipping the check."""
        canon = object.__new__(cls)
        object.__setattr__(canon, "pair", pair)
        return canon

    @property
    def n(self) -> int:
        return self.pair.n

    @property
    def S(self) -> Relation:
        return self.pair.S

    @property
    def R(self) -> Relation:
        return self.pair.R


def canonicalize(pair: CatalanPair) -> CanonicalPair:
    """Relabel a valid pair so its derived total order becomes 0 < ... < n-1.

    The one check is the ``total_order`` call, which raises
    InvariantViolation on an invalid pair.  A pair whose order is already
    the identity is returned as it is; any other is relabelled by its own
    derived order.  Either way the result is canonical by construction
    and skips the ``CanonicalPair`` check that a direct
    ``CanonicalPair(...)`` call runs.
    """
    order = total_order(pair)
    if order == tuple(range(pair.n)):
        return CanonicalPair._unchecked(pair)
    image = [0] * pair.n
    for new, old in enumerate(order):
        image[old] = new
    return CanonicalPair._unchecked(pair.relabel(image))


def is_isomorphic(first: CatalanPair, second: CatalanPair) -> bool:
    """True if some relabelling carries one valid pair onto the other."""
    if first.n != second.n:
        return False
    return canonicalize(first) == canonicalize(second)


def catalan(n: int) -> int:
    if n < 0:
        raise ValueError("size must be nonnegative")
    return comb(2 * n, n) // (n + 1)


def enumerate_pairs(n: int) -> tuple[CanonicalPair, ...]:
    """All canonical pairs of size *n*, one per binary tree, joined as in
    ``tree_to_pair`` and sorted by their text serialization."""
    from .pairfile import serialize_pair

    pairs = [canonicalize(p) for p in trees.grow(n, _join, CatalanPair.empty(0))]
    return tuple(sorted(pairs, key=lambda canon: serialize_pair(canon.pair)))
