"""Reference constructions that the package's encoders, validators and
pair calculus must agree with.

The package derives every tree-shaped encoder from one builder
(``grammar._left_sizes_pair``).  The encoders here are the direct,
per-family meanings of S and R, and the two bottom-up folds of pair
composition, written without that builder so that the tests compare two
independent routes; they do not check their input, so pass valid values.
The ``brute_validate_*`` scans, the pairwise axiom check
(``reference_check_axioms``) and its per-bit transitivity fold
(``reference_transitivity_witness``), the bit-by-bit column read
(``plain_transpose``, which every reference below reads columns
through, never ``Relation.cols``), the bit-by-bit renaming
(``plain_relabel``, which ``reference_canonicalize`` relabels through,
never ``Relation.relabel``), the per-bit pair split
(``reference_restrict``, ``reference_decompose_pair``), the per-bit
pair reading (``reference_derived_order``, ``reference_canonicalize``,
``reference_pair_to_tree``) and the inherited-row pair builder
(``reference_tree_rows``) are the quadratic, bit-by-bit or row-carrying
versions that the package's linear ones replaced, with the same
messages.  ``reference_serialize_pair`` writes the pair file by sorting
every line as text, ``catalan_recurrence`` is the quadratic recurrence
that ``catalan``'s binomial replaced, and the size helpers at the end
have no use in the package.  ``reference_from_dyck_word`` (a todo-stack
parser), ``reference_enumerate_seq2`` (a backtracking search),
``seq2_from_tree`` (seq2's rule as two folds) and the polyomino column
codec (``reference_polyomino_to_tree``, ``reference_tree_to_polyomino``:
column heights, overlaps, tops and bottoms) are the independent routes
that the package's one word reader, seq2's two-word rule and the
polyomino letter maps replaced.
"""

from __future__ import annotations

from typing import Iterator

from catpairs import trees
from catpairs.errors import InvariantViolation
from catpairs.relations import (
    AxiomReport,
    CanonicalPair,
    CatalanPair,
    Relation,
    _join,
    _require_valid,
    bits,
)
from catpairs.grammar import EMPTY_POLYOMINO, Polyomino
from catpairs.structures import (
    Matching,
    Permutation,
    PlaneTree,
    Sequence,
    seq2_fixed_point,
    serialize_plane_tree,
    serialize_seq,
)


# ----------------------------------------------------------- per family

def direct_encode_matching(m: Matching) -> CatalanPair:
    """S = strict arch inclusion, R = completely-left-of."""
    n = len(m)
    s_pairs = []
    r_pairs = []
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            lx, rx = m[x]
            ly, ry = m[y]
            if ly < lx and rx < ry:
                s_pairs.append((x, y))
            elif rx < ly:
                r_pairs.append((x, y))
    return CatalanPair.from_pairs(n, s_pairs, r_pairs)


def direct_encode_dyck(word: str) -> CatalanPair:
    """Tunnels (matched U/D step pairs): S = strictly above, R = left of,
    labels in up-step order."""
    stack: list[int] = []
    matched: dict[int, int] = {}
    for pos, letter in enumerate(word):
        if letter == "U":
            stack.append(pos)
        else:
            matched[stack.pop()] = pos
    ups = sorted(matched)
    n = len(ups)
    s_pairs = []
    r_pairs = []
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            if ups[y] < ups[x] and matched[ups[x]] < matched[ups[y]]:
                s_pairs.append((x, y))
            elif matched[ups[x]] < ups[y]:
                r_pairs.append((x, y))
    return CatalanPair.from_pairs(n, s_pairs, r_pairs)


def direct_encode_plane_tree(t: PlaneTree) -> CatalanPair:
    """Non-root nodes in preorder; S = proper descendant, R = left of.

    A node's S row is the mask of its ancestors, built top down, and its
    R row is every label after its own subtree.
    """
    parents: list[int] = []  # preorder parent label, -1 under the root
    stack = [(child, -1) for child in reversed(t)]
    while stack:
        node, parent = stack.pop()
        label = len(parents)
        parents.append(parent)
        stack.extend((child, label) for child in reversed(node))
    n = len(parents)
    size = [1] * n
    for x in range(n - 1, -1, -1):
        if parents[x] >= 0:
            size[parents[x]] += size[x]
    s_rows: list[int] = []
    for parent in parents:
        s_rows.append(s_rows[parent] | 1 << parent if parent >= 0 else 0)
    everything = (1 << n) - 1
    r_rows = [everything >> (x + size[x]) << (x + size[x]) for x in range(n)]
    return CatalanPair(Relation(n, tuple(s_rows)), Relation(n, tuple(r_rows)))


def direct_encode_seq1(s: Sequence) -> CatalanPair:
    """a_i R a_j when i < j and a_i < a_j; a_i S a_j when j < i and a_i <= a_j."""
    n = len(s)
    s_pairs = []
    r_pairs = []
    for i in range(n):
        for j in range(n):
            if j < i and s[i] <= s[j]:
                s_pairs.append((i, j))
            elif i < j and s[i] < s[j]:
                r_pairs.append((i, j))
    return CatalanPair.from_pairs(n, s_pairs, r_pairs)


def seq2_offsets(s: Sequence) -> Sequence:
    """Distance from the diagonal: a_y - y up to the fixed point, z - a_z after."""
    f = seq2_fixed_point(s)
    return tuple(
        s[i - 1] - i if i <= f else i - s[i - 1] for i in range(1, len(s) + 1)
    )


def seq2_from_tree(t: trees.Tree) -> Sequence:
    """The seq2 value whose pair has shape *t*.

    The root is the fixed point f.  The left subtree fixes the prefix
    offsets c_y = a_y - y through the join (A + 1) . 1 . B, the right
    subtree the suffix offsets d_z = z - a_z through 1 . (A + 1) . B, and
    a_y = y + c_y before f, a_f = f, a_z = z - d_z after it.
    """
    left, right = t
    c = trees.fold(left, lambda a, b: (*[x + 1 for x in a], 1, *b), ())
    d = trees.fold(right, lambda a, b: (1, *[x + 1 for x in a], *b), ())
    f = len(c) + 1
    return (
        *[y + cy for y, cy in enumerate(c, start=1)],
        f,
        *[z - dz for z, dz in enumerate(d, start=f + 1)],
    )


def reference_enumerate_seq2(n: int) -> tuple[Sequence, ...]:
    """Exact backtracking: before the fixed point values sit strictly above
    the diagonal, after it strictly below, and every partial choice extends."""
    if n == 0:
        return ((),)
    out: list[Sequence] = []
    # (prefix, last value, fixed point placed yet)
    stack: list[tuple[Sequence, int, bool]] = [((), 1, False)]
    while stack:
        prefix, last, fixed = stack.pop()
        p = len(prefix) + 1
        if p > n:
            out.append(prefix)
            continue
        if fixed:
            values = range(last, p)
        else:
            if last <= p:
                stack.append((prefix + (p,), p, True))
            values = range(max(last, p + 1), n + 1)
        for v in values:
            stack.append((prefix + (v,), v, fixed))
    return tuple(sorted(out, key=serialize_seq))


def direct_encode_seq2(s: Sequence) -> CatalanPair:
    """Relations over the diagonal offsets, split at the fixed point f;
    the quadratic pair list with the cubic first-copy scan."""
    n = len(s)
    if n == 0:
        return CatalanPair.empty(0)
    f = seq2_fixed_point(s)
    off = seq2_offsets(s)
    s_pairs = []
    r_pairs = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if j <= f:
                if off[i - 1] > off[j - 1] and not any(
                    off[w - 1] == off[j - 1] for w in range(i + 1, j)
                ):
                    s_pairs.append((i - 1, j - 1))
                else:
                    r_pairs.append((i - 1, j - 1))
            elif i <= f:
                r_pairs.append((i - 1, j - 1))
            else:
                if off[i - 1] < off[j - 1] and not any(
                    off[w - 1] == off[i - 1] for w in range(i + 1, j)
                ):
                    s_pairs.append((j - 1, i - 1))
                else:
                    r_pairs.append((i - 1, j - 1))
    return CatalanPair.from_pairs(n, s_pairs, r_pairs)


def direct_encode_staircase(t: trees.Tree) -> CatalanPair:
    """Fold of the junction-rectangle decomposition: the upper part takes
    the left slot of the composition, the lower part the right slot."""
    return trees.fold(
        t, lambda lower, upper: _join(upper, lower), CatalanPair.empty(0)
    )


# ---------------------------------------------- binary trees, two folds

def join_fold_pair(t: trees.Tree) -> CatalanPair:
    """``tree_to_pair`` as the bottom-up fold of pair composition."""
    return trees.fold(t, _join, CatalanPair.empty(0))


def branch_rule_pair(t: trees.Tree) -> CatalanPair:
    """``tree_to_pair`` from per-node rules for the three ways a node
    can branch.

    With the new label x and an existing block on labels Y:
    right child only -> x precedes the block: R gains {(x, y): y in Y};
    left child only  -> x follows the block:  S gains {(y, x): y in Y};
    both children    -> x sits between them: the left block S-feeds x,
    and both x and the left block R-feed the right block.
    """
    return trees.fold(t, _branch_join, CatalanPair.empty(0))


def _branch_join(left_pair: CatalanPair, right_pair: CatalanPair) -> CatalanPair:
    k, m = left_pair.n, right_pair.n
    n = k + m + 1
    if k == 0:
        s_rows = [0] + [row << 1 for row in right_pair.S.rows]
        r_rows = [((1 << m) - 1) << 1] + [row << 1 for row in right_pair.R.rows]
    elif m == 0:
        s_rows = [row | (1 << k) for row in left_pair.S.rows] + [0]
        r_rows = [*left_pair.R.rows, 0]
    else:
        block = ((1 << m) - 1) << (k + 1)
        s_rows = (
            [row | (1 << k) for row in left_pair.S.rows]
            + [0]
            + [row << (k + 1) for row in right_pair.S.rows]
        )
        r_rows = (
            [row | block for row in left_pair.R.rows]
            + [block]
            + [row << (k + 1) for row in right_pair.R.rows]
        )
    return CatalanPair(Relation(n, tuple(s_rows)), Relation(n, tuple(r_rows)))


# ------------------------------------------------- permutation probes

def perm_points(p: Permutation) -> tuple[tuple[int, int], ...]:
    """The plane representation: one (position, value) point per entry."""
    return tuple((i + 1, v) for i, v in enumerate(p))


def cover_exists(
    points: tuple[tuple[int, int], ...],
    x: tuple[int, int],
    y: tuple[int, int],
) -> bool:
    """True if some point lies left of both x and y and above both."""
    return any(
        c[0] < x[0] and c[0] < y[0] and c[1] > x[1] and c[1] > y[1]
        for c in points
    )


def cover_pair(p: Permutation) -> CatalanPair:
    """R = rising uncovered point pairs; S = the other position pairs.

    Total over all permutations.  Its validity region is a strict subset
    of the 321-avoiders: for p = (2, 4, 1, 3) the output S is not
    transitive.  Wherever the output is valid it coincides with
    ``encode_perm_321``, which is the tested relationship between the two.
    """
    points = perm_points(p)
    n = len(p)
    s_pairs = []
    r_pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            x, y = points[i], points[j]
            if x[1] < y[1] and not cover_exists(points, x, y):
                r_pairs.append((i, j))
            else:
                s_pairs.append((i, j))
    return CatalanPair.from_pairs(n, s_pairs, r_pairs)


# ------------------------------------------------- Dyck words, matchings

def dyck_to_matching(word: str) -> Matching:
    """Pair each up step with its matching down step, 1-based positions."""
    stack: list[int] = []
    arches = []
    for pos, letter in enumerate(word, start=1):
        if letter == "U":
            stack.append(pos)
        else:
            arches.append((stack.pop(), pos))
    return tuple(sorted(arches))


def reference_from_dyck_word(word: str) -> trees.Tree:
    """``trees.from_dyck_word`` as a todo-stack parser of the grammar
    tree := (empty) | U tree D tree, with the same messages."""
    pos = 0
    values: list[trees.Tree] = []
    todo = ["tree"]  # what is still to be read, last first
    while todo:
        want = todo.pop()
        if want == "node":
            right = values.pop()
            values.append((values.pop(), right))
        elif want == "D":
            if pos >= len(word) or word[pos] != "D":
                raise ValueError("unbalanced word: unmatched 'U'")
            pos += 1
        elif pos >= len(word) or word[pos] == "D":
            values.append(trees.EMPTY)
        elif word[pos] != "U":
            raise ValueError(f"unexpected letter {word[pos]!r} at position {pos}")
        else:
            todo += ("node", "tree", "D", "tree")
            pos += 1
    if pos != len(word):
        raise ValueError(f"unbalanced word: unmatched 'D' at position {pos}")
    return values[0]


def matching_to_dyck(m: Matching) -> str:
    opens = {left for left, _ in m}
    return "".join("U" if p in opens else "D" for p in range(1, 2 * len(m) + 1))


def brute_validate_matching(m: Matching) -> str | None:
    """``validate_matching`` with the pairwise crossing scan on every input."""
    n = len(m)
    endpoints = [p for arch in m for p in arch]
    if sorted(endpoints) != list(range(1, 2 * n + 1)):
        return f"endpoints must cover 1..{2 * n} exactly once"
    for left, right in m:
        if left >= right:
            return f"arch {left}-{right} must open before it closes"
    if list(m) != sorted(m):
        return "arches must be sorted by left endpoint"
    for a in range(n):
        for b in range(a + 1, n):
            l1, r1 = m[a]
            l2, r2 = m[b]
            if l1 < l2 < r1 < r2:
                return f"arches {l1}-{r1} and {l2}-{r2} cross"
    return None


def brute_validate_seq1(s: Sequence) -> str | None:
    """``validate_seq1`` scanning every reach entry by entry."""
    n = len(s)
    for i in range(1, n + 1):
        if not i <= s[i - 1] <= n:
            return f"a_{i} = {s[i - 1]} must lie in {i}..{n}"
    for i in range(1, n + 1):
        for j in range(i, s[i - 1] + 1):
            if s[j - 1] > s[i - 1]:
                return f"a_{j} = {s[j - 1]} exceeds a_{i} = {s[i - 1]} inside its reach"
    return None


def brute_validate_polyomino(value: object) -> str | None:
    """``validate_polyomino`` recounting the N steps of every prefix."""
    if (
        not isinstance(value, tuple)
        or len(value) != 2
        or not all(isinstance(w, str) for w in value)
    ):
        return "expected a pair (upper word, lower word)"
    upper, lower = value
    if value == EMPTY_POLYOMINO:
        return None
    if any(c not in "NE" for c in upper + lower):
        return "paths may only use the letters N and E"
    if len(upper) != len(lower):
        return "upper and lower paths must have the same length"
    if upper.count("N") != lower.count("N"):
        return "paths must end at the same point"
    if upper == lower:
        return "paths must be distinct"
    for t in range(1, len(upper)):
        if upper[:t].count("N") <= lower[:t].count("N"):
            return f"paths touch after {t} steps, before the endpoint"
    return None


def _heights_before_east(word: str) -> tuple[int, ...]:
    """Number of N steps seen before each E step."""
    heights = []
    seen = 0
    for letter in word:
        if letter == "E":
            heights.append(seen)
        else:
            seen += 1
    return tuple(heights)


def reference_polyomino_to_tree(value: Polyomino) -> trees.Tree:
    """The column codec: column i spans h_i cells and shares s_i rows
    with column i+1; the word U^h_1 [D^(h_i-s_i+1) U^(h_{i+1}-s_i+1)]...
    D^h_w is balanced with one U per size unit, and its first-return tree
    is the result."""
    if value == EMPTY_POLYOMINO:
        return trees.EMPTY
    tops = _heights_before_east(value[0])
    bottoms = _heights_before_east(value[1])
    heights = [t - b for t, b in zip(tops, bottoms)]
    overlaps = [tops[i] - bottoms[i + 1] for i in range(len(tops) - 1)]
    chunks = ["U" * heights[0]]
    for i, s in enumerate(overlaps):
        chunks.append("D" * (heights[i] - s + 1))
        chunks.append("U" * (heights[i + 1] - s + 1))
    chunks.append("D" * heights[-1])
    return trees.from_dyck_word("".join(chunks))


def _runs(word: str) -> tuple[list[int], list[int]]:
    """Lengths of the alternating maximal U-runs and D-runs."""
    u_runs: list[int] = []
    d_runs: list[int] = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        (u_runs if word[i] == "U" else d_runs).append(j - i)
        i = j
    return u_runs, d_runs


def reference_tree_to_polyomino(t: trees.Tree) -> Polyomino:
    """Inverse of :func:`reference_polyomino_to_tree`: column heights,
    overlaps, bottoms and tops from the runs of the tree's Dyck word."""
    word = trees.to_dyck_word(t)
    if not word:
        return EMPTY_POLYOMINO
    u_runs, d_runs = _runs(word)
    heights = [u_runs[0]]
    for i in range(1, len(u_runs)):
        heights.append(heights[i - 1] - d_runs[i - 1] + u_runs[i])
    overlaps = [heights[i] - d_runs[i] + 1 for i in range(len(heights) - 1)]
    bottoms = [0]
    for i, s in enumerate(overlaps):
        bottoms.append(bottoms[i] + heights[i] - s)
    tops = [b + h for b, h in zip(bottoms, heights)]
    total = tops[-1]
    upper = "".join(
        "N" * (tops[i] - (tops[i - 1] if i else 0)) + "E"
        for i in range(len(tops))
    )
    bottoms.append(total)
    lower = "".join(
        "E" + "N" * (bottoms[i + 1] - bottoms[i]) for i in range(len(tops))
    )
    return (upper, lower)


# ------------------------------------------------------- pair checking

def plain_transpose(rows) -> list[int]:
    """Column masks of square bitset *rows*, read bit by bit."""
    n = len(rows)
    cols = [0] * n
    for i, row in enumerate(rows):
        for j in range(n):
            if row >> j & 1:
                cols[j] |= 1 << i
    return cols


def plain_relabel(rel: Relation, image) -> Relation:
    """``Relation.relabel`` ORing in each renamed bit one at a time, read
    bit by bit."""
    rows = [0] * rel.n
    for i, row in enumerate(rel.rows):
        for j in range(rel.n):
            if row >> j & 1:
                rows[image[i]] |= 1 << image[j]
    return Relation(rel.n, tuple(rows))


def reference_transitivity_witness(rel: Relation) -> tuple[int, int] | None:
    """``transitivity_witness`` folding the rows that each row points to
    one set bit at a time, on every input."""
    for x, row in enumerate(rel.rows):
        union = 0
        for y in bits(row):
            union |= rel.rows[y]
        missing = union & ~row
        if missing:
            return (x, (missing & -missing).bit_length() - 1)
    return None


def reference_check_axioms(S: Relation, R: Relation) -> AxiomReport:
    """``check_axioms`` scanning every pair (i, j) for axioms (ii) and
    (iii) on every input."""
    if S.n != R.n:
        raise ValueError("S and R must live on the same label set")
    n = S.n
    violations: list[tuple[str, tuple[int, ...]]] = []

    witness = reference_transitivity_witness(S)
    if witness is not None:
        violations.append(("i:S", witness))
    witness = reference_transitivity_witness(R)
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


def reference_derived_order(S: Relation, R: Relation) -> tuple[int, ...] | None:
    """``relations._derived_order`` from S's columns and n prefix masks on
    every labelling, canonical or not."""
    n = S.n
    s_cols = plain_transpose(S.rows)
    l_rows = []
    for r_row, s_col in zip(R.rows, s_cols):
        if r_row & s_col:
            return None
        l_rows.append(r_row | s_col)
    order = sorted(range(n), key=lambda i: -l_rows[i].bit_count())
    before = [0] * (n + 1)  # before[p]: labels at positions < p
    for p, i in enumerate(order):
        before[p + 1] = before[p] | 1 << i
    left_sizes = []
    for p, i in enumerate(order):
        a = s_cols[i].bit_count()
        if (
            l_rows[i] != before[n] ^ before[p + 1]
            or s_cols[i] != before[p + a + 1] ^ before[p + 1]
        ):
            return None
        left_sizes.append(a)
    if trees.subtree_sizes(left_sizes) is None:
        return None
    return tuple(order)


def reference_canonicalize(pair: CatalanPair) -> CanonicalPair:
    """``canonicalize`` relabelling every pair by its derived order, bit by
    bit, even when that order is already the identity."""
    order = reference_derived_order(pair.S, pair.R)
    if order is None:
        axiom, witness = reference_check_axioms(pair.S, pair.R).violations[0]
        raise InvariantViolation(f"total order: axiom ({axiom}) fails at {witness}")
    image = [0] * pair.n
    for new, old in enumerate(order):
        image[old] = new
    return CanonicalPair._unchecked(
        CatalanPair(plain_relabel(pair.S, image), plain_relabel(pair.R, image))
    )


def reference_tree_rows(
    left_sizes: list[int], size: list[int], inorder: bool
) -> Iterator[tuple[int, int, int]]:
    """``relations._tree_rows`` carrying each node's inherited R row down
    the tree instead of writing it by formula.

    A node's R row is the R row it inherits plus its own right subtree: a
    left child inherits its parent's whole R row, a right child only what
    the parent inherited.
    """
    n = len(left_sizes)
    first = [0] * n  # by preorder position: lowest label in the subtree
    s_down = [0] * n  # by position: the S row
    r_down = [0] * n  # by position: the inherited R row
    for p, a in enumerate(left_sizes):
        b = size[p] - 1 - a
        x = first[p] + a if inorder else first[p]
        s_row = s_down[p]
        r_row = r_down[p] | ((1 << b) - 1) << (first[p] + a + 1)
        yield x, s_row, r_row
        if a:
            first[p + 1] = first[p] if inorder else x + 1
            s_down[p + 1] = s_row | 1 << x
            r_down[p + 1] = r_row
        if b:
            q = p + a + 1
            first[q] = first[p] + a + 1
            s_down[q] = s_row
            r_down[q] = r_down[p]


def reference_valid_pair_tree(pair: CatalanPair) -> trees.Tree:
    """``grammar._valid_pair_tree`` counting every label's S in-degree
    from S's set bits on every labelling."""
    n = pair.n
    s_in = [0] * n
    for row in pair.S.rows:
        for j in bits(row):
            s_in[j] += 1
    left_sizes = [0] * n
    for i, row in enumerate(pair.R.rows):
        left_sizes[n - 1 - row.bit_count() - s_in[i]] = s_in[i]
    return trees.from_left_sizes(left_sizes)


def reference_pair_to_tree(pair: CatalanPair) -> trees.Tree:
    """``grammar.pair_to_tree`` through the per-bit split and reading."""
    if pair.n == 0:
        return trees.EMPTY
    _, left, right = reference_decompose_pair(pair)
    return (reference_valid_pair_tree(left), reference_valid_pair_tree(right))


# ------------------------------------------------------ pair splitting

def reference_restrict(rel: Relation, labels) -> Relation:
    """``Relation.restrict`` walking every kept row bit by bit."""
    kept = sorted(set(labels))
    index = {old: new for new, old in enumerate(kept)}
    rows = [0] * len(kept)
    for old in kept:
        for j in bits(rel.rows[old]):
            if j in index:
                rows[index[old]] |= 1 << index[j]
    return Relation(len(kept), tuple(rows))


def reference_decompose_pair(
    pair: CatalanPair,
) -> tuple[int, CatalanPair, CatalanPair]:
    """``decompose_pair`` from column masks, with both of its candidate
    and separation checks, restricting through :func:`reference_restrict`."""
    if pair.n == 0:
        raise ValueError("cannot decompose an empty pair")
    _require_valid(pair, "decompose")
    s_cols = plain_transpose(pair.S.rows)
    r_cols = plain_transpose(pair.R.rows)
    candidates = [
        x for x in range(pair.n) if pair.S.rows[x] == 0 and r_cols[x] == 0
    ]
    if len(candidates) != 1:
        raise InvariantViolation(
            f"decompose: expected one split label, found {len(candidates)}"
            f" ({candidates})"
        )
    x = candidates[0]
    a_mask = s_cols[x]
    b_mask = pair.R.rows[x]
    if a_mask & b_mask or a_mask | b_mask | (1 << x) != (1 << pair.n) - 1:
        raise InvariantViolation(
            "decompose: split label does not separate the remaining labels"
        )
    left_labels = list(bits(a_mask))
    right_labels = list(bits(b_mask))
    left = CatalanPair(
        reference_restrict(pair.S, left_labels),
        reference_restrict(pair.R, left_labels),
    )
    right = CatalanPair(
        reference_restrict(pair.S, right_labels),
        reference_restrict(pair.R, right_labels),
    )
    return x, left, right


# ------------------------------------------------------------ pair files

def reference_serialize_pair(pair: CatalanPair) -> str:
    """``serialize_pair`` listing every related pair and sorting the lines
    of each relation as text."""
    lines = [f"n {pair.n}"]
    for name, relation in (("S", pair.S), ("R", pair.R)):
        lines.extend(sorted(f"{name} {i + 1} {j + 1}" for i, j in relation.pairs))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- sizes

def catalan_recurrence(limit: int) -> list[int]:
    """C_0..C_limit by C_m = sum of C_k * C_(m-1-k) over k < m."""
    values = [1]
    for m in range(1, limit + 1):
        values.append(sum(values[k] * values[m - 1 - k] for k in range(m)))
    return values


def plane_tree_size(t: PlaneTree) -> int:
    """Number of edges."""
    return len(serialize_plane_tree(t)) // 2


def polyomino_size(value: Polyomino) -> int:
    """Semi-perimeter minus one, i.e. path length minus one."""
    return max(len(value[0]) - 1, 0)
