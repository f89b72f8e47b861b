"""Structure -> order-pair constructions, one per family.

Every encoder turns a family value of size n into a (S, R) pair on labels
0..n-1, following each family's own relation rules rather than a shared
recursion, so the generic composition calculus can be tested against
them independently.  Labels always follow the family's natural reading
order (arches by left endpoint, tree nodes in preorder, sequence and
permutation positions left to right).

Encoders for values with a validity notion raise ValueError on invalid
input.  ``encode_perm_312`` and ``cover_pair`` are deliberate
exceptions: they are total over all permutations, because whether their
output satisfies the pair axioms is itself meaningful.  For
``encode_perm_312`` validity characterizes 312-avoidance exactly; for
``cover_pair`` it does not even cover all of S_n(321) (see its
docstring), which is why ``encode_perm_321`` uses the matched-interval
construction instead.
"""

from __future__ import annotations

from . import trees
from .relations import CatalanPair, Relation, _join
from .structures import (
    Matching,
    Permutation,
    PlaneTree,
    Sequence,
    Staircase,
    apply_steps,
    avoids,
    pattern_transform,
    profile_matching,
    seq2_fixed_point,
    seq2_offsets,
    validate_dyck,
    validate_matching,
    validate_perm,
    validate_plane_tree,
    validate_seq1,
    validate_seq2,
    validate_staircase,
)


def _require(message: str | None) -> None:
    if message is not None:
        raise ValueError(message)


def encode_matching(m: Matching) -> CatalanPair:
    """S = strict arch inclusion, R = completely-left-of."""
    _require(validate_matching(m))
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


def encode_dyck(word: str) -> CatalanPair:
    """Tunnels (matched U/D step pairs): S = strictly above, R = left of.

    Labels follow up-step order, which makes this agree label-for-label
    with ``encode_matching`` over the arch translation -- a tested
    identity, not a shared implementation.
    """
    _require(validate_dyck(word))
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


def encode_plane_tree(t: PlaneTree) -> CatalanPair:
    """Non-root nodes in preorder; S = proper descendant, R = left of.

    One node is left of another when neither is an ancestor of the other
    and its branch leaves their closest common ancestor earlier.  In
    preorder that is every label after the node's own subtree, so a node's
    S row is the mask of its ancestors, built top down, and its R row is
    read off its subtree size: O(n) row operations.
    """
    _require(validate_plane_tree(t))
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


def encode_perm_312(p: Permutation) -> CatalanPair:
    """S = inversions, R = noninversions, labels = positions.

    Total over all permutations: the outcome passes the pair axioms
    exactly when p avoids 312, which is a tested equivalence.
    """
    _require(validate_perm(p))
    return _inversion_pair(p)


def _inversion_pair(keys: Permutation) -> CatalanPair:
    """S = position pairs i < j with keys[i] > keys[j], R = the other i < j.

    *keys* must be a permutation of 1..n.  Row i of S is the set of later
    positions holding a smaller key, read off a prefix mask over key values.
    """
    n = len(keys)
    bit_of_key = [0] * (n + 1)
    for i, key in enumerate(keys):
        bit_of_key[key] = 1 << i
    below = [0] * (n + 1)  # below[k]: positions holding a key smaller than k
    for k in range(1, n + 1):
        below[k] = below[k - 1] | bit_of_key[k - 1]
    everything = (1 << n) - 1
    s_rows = []
    r_rows = []
    for i, key in enumerate(keys):
        later = everything & ~((2 << i) - 1)
        s_rows.append(below[key] & later)
        r_rows.append(later & ~below[key])
    return CatalanPair(Relation(n, tuple(s_rows)), Relation(n, tuple(r_rows)))


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

    Total over all permutations, and kept as a separate probe because
    its validity region is a strict subset of the 321-avoiders: for
    p = (2, 4, 1, 3) the output S is not transitive.  Wherever the
    output is valid it coincides with ``encode_perm_321``, which is the
    tested relationship between the two.
    """
    _require(validate_perm(p))
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


def encode_perm_321(p: Permutation) -> CatalanPair:
    """S = nested matched-step intervals, R = disjoint ones; labels = positions.

    Positions i < j are S-related when the running-maxima path closes
    their columns' intervals in first-opened-last-closed order (an
    inversion of ``profile_matching``), and R-related when i's interval
    closes before j's opens.  This coincides with ``cover_pair`` on
    every 321-avoider for which that rule yields a valid pair, and
    unlike it stays valid -- and injective -- on the whole avoidance
    class.
    """
    _require(validate_perm(p))
    if not avoids(p, "321"):
        raise ValueError("permutation contains the pattern 321")
    return _inversion_pair(profile_matching(p))


def encode_seq1(s: Sequence) -> CatalanPair:
    """a_i R a_j when i < j and a_i < a_j; a_i S a_j when j < i and a_i <= a_j."""
    _require(validate_seq1(s))
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


def encode_seq2(s: Sequence) -> CatalanPair:
    """Relations over the diagonal offsets, split at the fixed point f.

    Below f, a_i S a_j holds for i < j when offset_i > offset_j and j is
    the first later position (up to f) carrying its offset; later copies
    fall to R, as do all offset-nondecreasing pairs.  Everything before f
    is R-related to everything after.  Above f the same scheme runs
    mirrored (S points backwards, first copy replaced by last).
    """
    _require(validate_seq2(s))
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


def encode_staircase(t: Staircase) -> CatalanPair:
    """Fold of the junction-rectangle decomposition.

    The junction rectangle is S-dominated by the upper part and
    R-precedes the lower part, so the upper subtree takes the left slot
    of the composition and the lower subtree the right slot.  The value
    is checked once, here; the fold joins pairs it built itself, so it
    uses the unchecked join rather than ``compose_pair``.
    """
    _require(validate_staircase(t))
    return trees.fold(
        t, lambda lower, upper: _join(upper, lower), CatalanPair.empty(0)
    )


def pair_for_avoidance_class(p: Permutation, pattern: str) -> CatalanPair:
    """Encoder for any of the six one-pattern avoidance classes.

    The four classes without their own construction ride on the 312 and
    321 constructions through reverse/inverse symmetries.  The class check
    runs once, here: the symmetries carry members onto members of the base
    class, so the base construction needs no second check.
    """
    _require(validate_perm(p))
    steps, base = pattern_transform(pattern)
    if not avoids(p, pattern):
        raise ValueError(f"permutation contains the pattern {pattern}")
    q = apply_steps(p, steps)
    return _inversion_pair(q if base == "312" else profile_matching(q))
