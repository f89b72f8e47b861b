"""Classical Catalan structure families as concrete Python values.

Each family gets the same four verbs: ``validate_*`` (value -> error
message or None), ``parse_*`` (text -> value), ``serialize_*`` (value ->
text) and ``enumerate_*`` (size -> all values, sorted by text form).
Parsing raises ParseError for text that does not scan and ValueError for
text that scans but names an impossible structure.

Representations:

* Dyck word: str over ``U``/``D``.
* Matching: tuple of 1-based (left, right) endpoint pairs, sorted by
  left endpoint.
* Plane tree: tuple of child subtrees (the root is implicit), so ``()``
  is the single-node tree; text form writes each child as ``(...)``.
* Permutation: tuple of 1-based values.
* Sequences: tuple of 1-based values, under either of two constraint
  systems (see ``validate_seq1`` / ``validate_seq2``).
* Staircase tiling: binary tuple tree (lower part, upper part) from
  :mod:`.trees`, written ``e`` / ``(L,U)``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import inf
from typing import Iterable

from . import trees
from .errors import ParseError

# ---------------------------------------------------------------------------
# Dyck words


def validate_dyck(word: str) -> str | None:
    depth = 0
    for pos, letter in enumerate(word, start=1):
        if letter == "U":
            depth += 1
        elif letter == "D":
            depth -= 1
        else:
            return f"letter {letter!r} at position {pos} is not U or D"
        if depth < 0:
            return f"prefix ending at position {pos} has more D than U"
    if depth != 0:
        return f"word has {depth} more U than D"
    return None


def parse_dyck(text: str) -> str:
    word = text.strip()
    if any(letter not in "UD" for letter in word):
        raise ParseError("a Dyck word may only contain the letters U and D")
    message = validate_dyck(word)
    if message is not None:
        raise ValueError(message)
    return word


def serialize_dyck(word: str) -> str:
    return word


@lru_cache(maxsize=None)
def enumerate_dyck(n: int) -> tuple[str, ...]:
    return tuple(sorted(trees.to_dyck_word(t) for t in trees.all_trees(n)))


# ---------------------------------------------------------------------------
# Noncrossing complete matchings of {1, ..., 2n}

Matching = tuple[tuple[int, int], ...]


def validate_matching(m: Matching) -> str | None:
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


def parse_matching(text: str) -> Matching:
    arches = []
    for token in text.split():
        left, sep, right = token.partition("-")
        if not sep or not left.isdigit() or not right.isdigit():
            raise ParseError(f"token {token!r} is not of the form <l>-<r>")
        arches.append((int(left), int(right)))
    value = tuple(sorted(arches))
    message = validate_matching(value)
    if message is not None:
        raise ValueError(message)
    return value


def serialize_matching(m: Matching) -> str:
    return " ".join(f"{left}-{right}" for left, right in m)


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


def matching_to_dyck(m: Matching) -> str:
    opens = {left for left, _ in m}
    return "".join("U" if p in opens else "D" for p in range(1, 2 * len(m) + 1))


@lru_cache(maxsize=None)
def enumerate_matching(n: int) -> tuple[Matching, ...]:
    return tuple(
        sorted((dyck_to_matching(w) for w in enumerate_dyck(n)),
               key=serialize_matching)
    )


# ---------------------------------------------------------------------------
# Plane trees (counted by edges)

PlaneTree = tuple


def validate_plane_tree(t: object) -> str | None:
    if not isinstance(t, tuple):
        return f"expected a tuple of subtrees, got {type(t).__name__}"
    for child in t:
        message = validate_plane_tree(child)
        if message is not None:
            return message
    return None


def plane_tree_size(t: PlaneTree) -> int:
    """Number of edges."""
    return sum(1 + plane_tree_size(child) for child in t)


def serialize_plane_tree(t: PlaneTree) -> str:
    return "".join("(" + serialize_plane_tree(child) + ")" for child in t)


def parse_plane_tree(text: str) -> PlaneTree:
    s = text.strip()
    forest, pos = _parse_forest(s, 0)
    if pos != len(s):
        raise ParseError(f"unbalanced ')' at offset {pos}")
    return forest


def _parse_forest(s: str, pos: int) -> tuple[PlaneTree, int]:
    children = []
    while pos < len(s) and s[pos] == "(":
        child, pos = _parse_forest(s, pos + 1)
        if pos >= len(s) or s[pos] != ")":
            raise ParseError(f"unclosed '(' at offset {pos}")
        children.append(child)
        pos += 1
    if pos < len(s) and s[pos] not in "()":
        raise ParseError(f"unexpected character {s[pos]!r} at offset {pos}")
    return tuple(children), pos


@lru_cache(maxsize=None)
def enumerate_plane_tree(n: int) -> tuple[PlaneTree, ...]:
    """All plane trees with *n* edges: first-child subtree + sibling forest."""
    if n == 0:
        return ((),)
    out = []
    for k in range(n):
        for first in enumerate_plane_tree(k):
            for rest in enumerate_plane_tree(n - 1 - k):
                out.append((first,) + rest)
    return tuple(sorted(out, key=serialize_plane_tree))


# ---------------------------------------------------------------------------
# Permutations and pattern avoidance

Permutation = tuple[int, ...]

PATTERNS = ("312", "321", "231", "213", "132", "123")


def validate_perm(p: Permutation) -> str | None:
    if sorted(p) != list(range(1, len(p) + 1)):
        return f"values must be a rearrangement of 1..{len(p)}"
    return None


def parse_perm(text: str) -> Permutation:
    tokens = text.split()
    if not all(token.isdigit() for token in tokens):
        raise ParseError("a permutation is a list of positive integers")
    value = tuple(int(token) for token in tokens)
    message = validate_perm(value)
    if message is not None:
        raise ValueError(message)
    return value


def serialize_perm(p: Permutation) -> str:
    return " ".join(str(v) for v in p)


def _avoids_231(seq: Iterable[int]) -> bool:
    """Stack-sort *seq*: it avoids 231 exactly when the output increases.

    Popped values only grow while no occurrence has shown up, so the
    output fails to increase exactly when an entry arrives below the last
    value popped: that value, the larger entry that popped it and the new
    entry form a 231.
    """
    stack: list[int] = []
    popped = -inf
    for x in seq:
        if x < popped:
            return False
        while stack and stack[-1] < x:
            popped = stack.pop()
        stack.append(x)
    return True


def _avoids_321(seq: Iterable[int]) -> bool:
    """The entries below the running maximum must increase."""
    top = below = -inf
    for x in seq:
        if x > top:
            top = x
        elif x < below:
            return False
        else:
            below = x
    return True


# pattern -> (read right to left, negate values, base test); both maps
# preserve comparisons, so no value -> position inverse is needed
_REDUCTIONS = {
    "231": (False, False, _avoids_231),
    "132": (True, False, _avoids_231),
    "213": (False, True, _avoids_231),
    "312": (True, True, _avoids_231),
    "321": (False, False, _avoids_321),
    "123": (True, False, _avoids_321),
}


def avoids(p: Permutation, pattern: str) -> bool:
    """True if no three entries of *p* appear in *pattern*'s relative order.

    Runs in O(n) for any sequence of distinct values.  A sequence avoids
    231 exactly when it is stack-sortable (Knuth, TAOCP Vol. 1 §2.2.1),
    and avoids 321 exactly when its entries below the running maximum
    increase.  The other four patterns reduce to these two by reversal
    and complement (Simion–Schmidt symmetries), with negation as the
    complement: 132 reverses to 231, 213 complements to 231, 312 does
    both, and 123 reverses to 321.
    """
    if pattern not in _REDUCTIONS:
        raise ValueError(f"unsupported pattern {pattern!r}")
    reverse, negate, base = _REDUCTIONS[pattern]
    seq: Iterable[int] = reversed(p) if reverse else p
    if negate:
        seq = (-x for x in seq)
    return base(seq)


def inverse_perm(p: Permutation) -> Permutation:
    out = [0] * len(p)
    for pos, value in enumerate(p):
        out[value - 1] = pos + 1
    return tuple(out)


def reverse_perm(p: Permutation) -> Permutation:
    return tuple(reversed(p))


@lru_cache(maxsize=None)
def _perms_312(n: int) -> tuple[Permutation, ...]:
    """312-avoiders, by splitting at the position of the value 1."""
    if n == 0:
        return ((),)
    out = []
    for k in range(n):
        for left in _perms_312(k):
            for right in _perms_312(n - 1 - k):
                out.append(
                    tuple([v + 1 for v in left] + [1] + [v + k + 1 for v in right])
                )
    return tuple(out)


@lru_cache(maxsize=None)
def _perms_321(n: int) -> tuple[Permutation, ...]:
    """321-avoiders, from their rising excedance positions and values.

    Choosing positions i_1 < ... < i_k and values v_1 < ... < v_k with
    v_j > i_j for all j, placing v_j at i_j and filling the remaining
    positions with the remaining values in increasing order produces
    every 321-avoider exactly once.
    """
    out = []
    universe = range(1, n + 1)
    for k in range(n + 1):
        for positions in combinations(universe, k):
            for values in combinations(universe, k):
                if any(v <= i for i, v in zip(positions, values)):
                    continue
                perm = [0] * n
                for i, v in zip(positions, values):
                    perm[i - 1] = v
                rest = iter(sorted(set(universe) - set(values)))
                for slot in range(n):
                    if perm[slot] == 0:
                        perm[slot] = next(rest)
                out.append(tuple(perm))
    return tuple(out)


def pattern_transform(pattern: str) -> tuple[tuple[str, ...], str]:
    """Steps carrying a *pattern*-avoider onto a 312- or 321-avoider."""
    table = {
        "312": ((), "312"),
        "231": (("inv",), "312"),
        "213": (("rev",), "312"),
        "132": (("rev", "inv"), "312"),
        "321": ((), "321"),
        "123": (("rev",), "321"),
    }
    if pattern not in table:
        raise ValueError(f"unsupported pattern {pattern!r}")
    return table[pattern]


_STEP = {"inv": inverse_perm, "rev": reverse_perm}


def apply_steps(p: Permutation, steps: tuple[str, ...]) -> Permutation:
    for step in steps:
        p = _STEP[step](p)
    return p


@lru_cache(maxsize=None)
def enumerate_perm(n: int, pattern: str) -> tuple[Permutation, ...]:
    """All *pattern*-avoiding permutations of 1..n, sorted by text form."""
    steps, base = pattern_transform(pattern)
    pool = _perms_312(n) if base == "312" else _perms_321(n)
    # inv and rev are involutions, so undoing a chain applies it backwards
    out = [apply_steps(p, tuple(reversed(steps))) for p in pool]
    return tuple(sorted(out, key=serialize_perm))


# ---------------------------------------------------------------------------
# Integer sequence family 1: i <= a_i <= n and (i <= j <= a_i  =>  a_j <= a_i)

Sequence = tuple[int, ...]


def validate_seq1(s: Sequence) -> str | None:
    n = len(s)
    for i in range(1, n + 1):
        if not i <= s[i - 1] <= n:
            return f"a_{i} = {s[i - 1]} must lie in {i}..{n}"
    for i in range(1, n + 1):
        for j in range(i, s[i - 1] + 1):
            if s[j - 1] > s[i - 1]:
                return f"a_{j} = {s[j - 1]} exceeds a_{i} = {s[i - 1]} inside its reach"
    return None


def _parse_sequence(text: str) -> Sequence:
    tokens = text.split()
    if not all(token.isdigit() for token in tokens):
        raise ParseError("a sequence is a list of positive integers")
    return tuple(int(token) for token in tokens)


def parse_seq1(text: str) -> Sequence:
    value = _parse_sequence(text)
    message = validate_seq1(value)
    if message is not None:
        raise ValueError(message)
    return value


def serialize_seq(s: Sequence) -> str:
    return " ".join(str(v) for v in s)


@lru_cache(maxsize=None)
def enumerate_seq1(n: int) -> tuple[Sequence, ...]:
    """Built from the split a_1 = k + 1: a prefix on 2..k+1, a suffix above."""
    if n == 0:
        return ((),)
    out = []
    for k in range(n):
        for left in enumerate_seq1(k):
            for right in enumerate_seq1(n - 1 - k):
                out.append(
                    tuple([k + 1] + [v + 1 for v in left] + [v + k + 1 for v in right])
                )
    return tuple(sorted(out, key=serialize_seq))


# ---------------------------------------------------------------------------
# Integer sequence family 2: nondecreasing with exactly one fixed point


def validate_seq2(s: Sequence) -> str | None:
    n = len(s)
    for i in range(1, n + 1):
        if not 1 <= s[i - 1] <= n:
            return f"a_{i} = {s[i - 1]} must lie in 1..{n}"
    if any(s[i] < s[i - 1] for i in range(1, n)):
        return "values must be nondecreasing"
    fixed = [i for i in range(1, n + 1) if s[i - 1] == i]
    if n > 0 and len(fixed) != 1:
        return f"expected exactly one index with a_i = i, found {len(fixed)}"
    return None


def parse_seq2(text: str) -> Sequence:
    value = _parse_sequence(text)
    message = validate_seq2(value)
    if message is not None:
        raise ValueError(message)
    return value


def seq2_fixed_point(s: Sequence) -> int:
    """The unique 1-based index f with a_f = f."""
    fixed = [i for i in range(1, len(s) + 1) if s[i - 1] == i]
    if len(fixed) != 1:
        raise ValueError(f"expected exactly one fixed point, found {len(fixed)}")
    return fixed[0]


def seq2_offsets(s: Sequence) -> Sequence:
    """Distance from the diagonal: a_y - y up to the fixed point, z - a_z after."""
    f = seq2_fixed_point(s)
    return tuple(
        s[i - 1] - i if i <= f else i - s[i - 1] for i in range(1, len(s) + 1)
    )


@lru_cache(maxsize=None)
def enumerate_seq2(n: int) -> tuple[Sequence, ...]:
    """Exact backtracking: before the fixed point values sit strictly above
    the diagonal, after it strictly below, and every partial choice extends."""
    if n == 0:
        return ((),)
    out: list[Sequence] = []
    # (prefix, last value, fixed point placed yet); iterative, so no
    # closure cycle is left behind per build
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


# ---------------------------------------------------------------------------
# Staircase tilings, encoded by their junction-rectangle decomposition

Staircase = trees.Tree


def validate_staircase(t: object) -> str | None:
    if not trees.is_tree(t):
        return "expected nested (lower, upper) tuples with () for the empty tiling"
    return None


def parse_staircase(text: str) -> Staircase:
    return trees.parse(text)


def serialize_staircase(t: Staircase) -> str:
    return trees.serialize(t)


def enumerate_staircase(n: int) -> tuple[Staircase, ...]:
    return trees.all_trees(n)
