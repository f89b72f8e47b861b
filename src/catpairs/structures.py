"""Classical Catalan structure families as concrete Python values.

Each family gets the same four verbs: ``validate_*`` (value -> error
message or None), ``parse_*`` (text -> value), ``serialize_*`` (value ->
text) and ``enumerate_*`` (size -> all values, sorted by text form).
Parsing only scans: it raises ParseError for text that does not scan and
returns whatever value the text spells, valid or not.  The validator is
the one value check, and every encoder runs it first, so a parsed value
is checked once, where it is encoded or converted, and refused there
with a ValueError carrying the validator's message.

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

from collections.abc import Sequence as _Sequence
from functools import lru_cache
from math import inf
from typing import Iterable

from . import trees
from .errors import ParseError, _non_int, _read_ints


# ---------------------------------------------------------------------------
# Dyck words


def validate_dyck(word: str) -> str | None:
    if not isinstance(word, str):
        return f"expected a str of U and D letters, got {type(word).__name__}"
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
    return word


def serialize_dyck(word: str) -> str:
    return word


def enumerate_dyck(n: int) -> tuple[str, ...]:
    return tuple(sorted(trees.grow(n, trees._dyck, "")))


# ---------------------------------------------------------------------------
# Noncrossing complete matchings of {1, ..., 2n}

Matching = tuple[tuple[int, int], ...]


def validate_matching(m: Matching) -> str | None:
    if message := _malformed_arch(m):
        return message
    n = len(m)
    endpoints = [p for arch in m for p in arch]
    if message := _non_int(endpoints, "endpoint"):
        return message
    if sorted(endpoints) != list(range(1, 2 * n + 1)):
        return f"endpoints must cover 1..{2 * n} exactly once"
    for left, right in m:
        if left >= right:
            return f"arch {left}-{right} must open before it closes"
    if list(m) != sorted(m):
        return "arches must be sorted by left endpoint"
    # noncrossing exactly when every right endpoint closes the innermost
    # open arch; only a crossing matching pays for naming its first crossing
    closes = [0] * (2 * n + 1)
    for left, right in m:
        closes[left] = right
    open_ends: list[int] = []  # right endpoints of the open arches
    for p in range(1, 2 * n + 1):
        if closes[p]:
            open_ends.append(closes[p])
        elif open_ends.pop() != p:
            return _first_crossing(m)
    return None


def _malformed_arch(arches: object) -> str | None:
    """A message naming the type of *arches* if it is not a sequence, or
    the first of them that is not a tuple or list of two endpoints, else
    None; the types and lengths are read in C."""
    if not isinstance(arches, _Sequence):
        return f"expected a sequence of arches, got {type(arches).__name__}"
    if set(map(type, arches)) <= {tuple, list} and set(map(len, arches)) <= {2}:
        return None
    pos, bad = next(
        (pos, arch)
        for pos, arch in enumerate(arches, 1)
        if type(arch) not in (tuple, list) or len(arch) != 2
    )
    return f"arch {bad!r} at position {pos} is not a pair of endpoints"


def _first_crossing(m: Matching) -> str:
    """The message for the first crossing pair of arches; *m* must have one."""
    return next(
        f"arches {l1}-{r1} and {l2}-{r2} cross"
        for a, (l1, r1) in enumerate(m)
        for l2, r2 in m[a + 1:]
        if l1 < l2 < r1 < r2
    )


def parse_matching(text: str) -> Matching:
    ends: list[str] = []
    for token in text.split():
        left, sep, right = token.partition("-")
        if not sep or not left.isdecimal() or not right.isdecimal():
            raise ParseError(f"token {token!r} is not of the form <l>-<r>")
        ends += (left, right)
    values = _read_ints(ends, "an endpoint")
    return tuple(sorted(zip(values[::2], values[1::2])))


def serialize_matching(m: Matching) -> str:
    return " ".join(f"{left}-{right}" for left, right in m)


def _matching_join(inner: Matching, after: Matching) -> Matching:
    """The first arch spans *inner*; *after* follows it."""
    shift = 2 * len(inner) + 2
    # lists, not generators: tuple(<genexpr>) over-allocates and resizes,
    # which slowly fills CPython's per-size tuple freelists
    return tuple(
        [(1, shift)]
        + [(l + 1, r + 1) for l, r in inner]
        + [(l + shift, r + shift) for l, r in after]
    )


def enumerate_matching(n: int) -> tuple[Matching, ...]:
    return tuple(sorted(trees.grow(n, _matching_join, ()), key=serialize_matching))


# ---------------------------------------------------------------------------
# Plane trees (counted by edges)

PlaneTree = tuple


def validate_plane_tree(t: object) -> str | None:
    stack = [t]
    while stack:
        node = stack.pop()
        if not isinstance(node, tuple):
            return f"expected a tuple of subtrees, got {type(node).__name__}"
        stack.extend(reversed(node))
    return None


def serialize_plane_tree(t: PlaneTree) -> str:
    out = []
    stack: list = [t]  # subtrees still to write, and their closing ")"
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        for child in reversed(item):
            stack += (")", child, "(")
    return "".join(out)


def parse_plane_tree(text: str) -> PlaneTree:
    s = text.strip()
    open_forests: list[list] = [[]]  # children read so far, per open "("
    for pos, letter in enumerate(s):
        if letter == "(":
            open_forests.append([])
        elif letter != ")":
            raise ParseError(f"unexpected character {letter!r} at offset {pos}")
        elif len(open_forests) == 1:
            raise ParseError(f"unbalanced ')' at offset {pos}")
        else:
            child = tuple(open_forests.pop())
            open_forests[-1].append(child)
    if len(open_forests) > 1:
        raise ParseError(f"unclosed '(' at offset {len(s)}")
    return tuple(open_forests[0])


def _plane_tree_join(first: PlaneTree, rest: PlaneTree) -> PlaneTree:
    """*first* hangs from the first root edge; *rest* are its siblings."""
    return (first,) + rest


def enumerate_plane_tree(n: int) -> tuple[PlaneTree, ...]:
    """All plane trees with *n* edges."""
    return tuple(
        sorted(trees.grow(n, _plane_tree_join, ()), key=serialize_plane_tree)
    )


# ---------------------------------------------------------------------------
# Permutations and pattern avoidance

Permutation = tuple[int, ...]

PATTERNS = ("312", "321", "231", "213", "132", "123")


def validate_perm(p: Permutation) -> str | None:
    if message := _non_int(p, "entry"):
        return message
    if sorted(p) != list(range(1, len(p) + 1)):
        return f"values must be a rearrangement of 1..{len(p)}"
    return None


def _parse_decimals(text: str, noun: str) -> tuple[int, ...]:
    """The whitespace-separated decimal entries of *text*; ParseError
    naming *noun* (a permutation, a sequence) for any other token."""
    tokens = text.split()
    if not all(token.isdecimal() for token in tokens):
        raise ParseError(f"{noun} is a list of positive integers")
    return _read_ints(tokens, f"{noun} entry")


def parse_perm(text: str) -> Permutation:
    return _parse_decimals(text, "a permutation")


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


def avoids(p: Permutation, pattern: str) -> bool:
    """True if no three entries of the permutation *p* of 1..n appear in
    *pattern*'s relative order; O(n).

    :func:`pattern_transform`'s steps carry p onto the 312 or 321 case.
    p avoids 312 exactly when its reversal, negated, avoids 231, that is,
    is stack-sortable (Knuth, TAOCP Vol. 1 §2.2.1).
    """
    steps, base = pattern_transform(pattern)
    q = apply_steps(p, steps)
    if base == "321":
        return _avoids_321(q)
    return _avoids_231(-x for x in reversed(q))


def validate_avoidance(p: Permutation, pattern: str) -> str | None:
    """The class check of a permutation family: None when *p* avoids *pattern*."""
    if not avoids(p, pattern):
        return f"permutation contains the pattern {pattern}"
    return None


def inverse_perm(p: Permutation) -> Permutation:
    out = [0] * len(p)
    for pos, value in enumerate(p):
        out[value - 1] = pos + 1
    return tuple(out)


def reverse_perm(p: Permutation) -> Permutation:
    return tuple(reversed(p))


def _perm_312_join(left: Permutation, right: Permutation) -> Permutation:
    """The value 1 sits between a low left block and a high right block."""
    k = len(left)
    return tuple([v + 1 for v in left] + [1] + [v + k + 1 for v in right])


def profile_matching(p: Permutation) -> tuple[int, ...]:
    """Down-to-up step matching of the running-maxima lattice path.

    Column i of the path first climbs to height max(p[1..i]) and then
    takes one down step; entry i of the result is the 1-based appearance
    index of the up step that this down step closes.  The profile
    determines a 321-avoider and vice versa (climb positions are the
    left-to-right maxima, every other value fills in ascending order),
    and the matching sequence always avoids 312 because closed intervals
    of a balanced word never cross.
    """
    stack: list[int] = []
    matched: list[int] = []
    top = 0
    nxt = 1
    for value in p:
        for _ in range(max(value - top, 0)):
            stack.append(nxt)
            nxt += 1
        top = max(top, value)
        matched.append(stack.pop())
    return tuple(matched)


def profile_unmatching(q: Permutation) -> Permutation:
    """Inverse of :func:`profile_matching`, from S_n(312) onto S_n(321).

    A column that climbs closes the up step it just took, so the matching
    keeps every left-to-right maximum in place, and no other entry is
    one.  The 321-avoider keeps those maxima and fills the other
    positions with the unused values in ascending order.  O(n).
    """
    n = len(q)
    perm = [0] * n
    used = [False] * (n + 1)
    top = 0
    for i, v in enumerate(q):
        if v > top:
            top = perm[i] = v
            used[v] = True
    rest = (v for v in range(1, n + 1) if not used[v])
    return tuple([v or next(rest) for v in perm])


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


def perm_from_312(p: Permutation, pattern: str) -> Permutation:
    """The *pattern*-avoider whose pair is the 312-avoider *p*'s pair.

    Inverts the encoder's route onto the base class: the 321 base is
    reached through :func:`profile_matching`, and inv and rev are
    involutions, so undoing a chain applies it backwards.
    """
    steps, base = pattern_transform(pattern)
    if base == "321":
        p = profile_unmatching(p)
    return apply_steps(p, tuple(reversed(steps)))


@lru_cache(maxsize=None)
def enumerate_perm(n: int, pattern: str) -> tuple[Permutation, ...]:
    """All *pattern*-avoiding permutations of 1..n, sorted by text form."""
    if pattern == "312":
        pool = trees.grow(n, _perm_312_join, ())
    else:
        pool = [perm_from_312(p, pattern) for p in enumerate_perm(n, "312")]
    return tuple(sorted(pool, key=serialize_perm))


# ---------------------------------------------------------------------------
# Integer sequence family 1: i <= a_i <= n and (i <= j <= a_i  =>  a_j <= a_i)

Sequence = tuple[int, ...]


def validate_seq1(s: Sequence) -> str | None:
    if message := _non_int(s, "entry"):
        return message
    n = len(s)
    for i in range(1, n + 1):
        if not i <= s[i - 1] <= n:
            return f"a_{i} = {s[i - 1]} must lie in {i}..{n}"
    # greater[i] is the first j > i with a_j > a_i (one monotonic stack);
    # the reach i..a_i holds a larger entry iff greater[i] <= a_i, and
    # that j is the first one a scan of the reach would meet
    greater = [n + 1] * (n + 1)
    stack: list[int] = []
    for j in range(1, n + 1):
        while stack and s[stack[-1] - 1] < s[j - 1]:
            greater[stack.pop()] = j
        stack.append(j)
    for i in range(1, n + 1):
        j = greater[i]
        if j <= s[i - 1]:
            return f"a_{j} = {s[j - 1]} exceeds a_{i} = {s[i - 1]} inside its reach"
    return None


def parse_seq1(text: str) -> Sequence:
    return _parse_decimals(text, "a sequence")


def serialize_seq(s: Sequence) -> str:
    return " ".join(str(v) for v in s)


def _seq1_join(left: Sequence, right: Sequence) -> Sequence:
    """a_1 = k + 1 names the left block's extent; the right block rides above."""
    k = len(left)
    return tuple([k + 1] + [v + 1 for v in left] + [v + k + 1 for v in right])


def enumerate_seq1(n: int) -> tuple[Sequence, ...]:
    return tuple(sorted(trees.grow(n, _seq1_join, ()), key=serialize_seq))


# ---------------------------------------------------------------------------
# Integer sequence family 2: nondecreasing with exactly one fixed point


def validate_seq2(s: Sequence) -> str | None:
    if message := _non_int(s, "entry"):
        return message
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
    return _parse_decimals(text, "a sequence")


def seq2_fixed_point(s: Sequence) -> int:
    """The unique 1-based index f with a_f = f."""
    fixed = [i for i in range(1, len(s) + 1) if s[i - 1] == i]
    if len(fixed) != 1:
        raise ValueError(f"expected exactly one fixed point, found {len(fixed)}")
    return fixed[0]


def _seq2_words(s: Sequence) -> tuple[str, str]:
    """The two Dyck words a nonempty seq2 value spells around its fixed point f.

    The prefix word steps down from height c_y = a_y - y, for each y < f
    in order; the suffix word's up steps reach height d_z = z - a_z, for
    each z > f in order.
    """
    f = seq2_fixed_point(s)
    c = [s[y - 1] - y for y in range(1, f)]
    d = [z - s[z - 1] for z in range(f + 1, len(s) + 1)]
    prefix = "".join("U" * (cy - before + 1) + "D" for before, cy in zip([1] + c, c))
    suffix = "".join("D" * (before - dz + 1) + "U" for before, dz in zip([0] + d, d))
    return prefix, suffix + "D" * (d[-1] if d else 0)


def _seq2_from_words(prefix: str, suffix: str) -> Sequence:
    """Inverse of :func:`_seq2_words`, for any two Dyck words.

    a_y = y + the height before the y-th D of *prefix*, a_f = f, and
    a_z = z - the height after the (z - f)-th U of *suffix*.
    """
    values: list[int] = []
    height = 0
    for letter in prefix:
        if letter == "D":
            values.append(len(values) + 1 + height)
        height += 1 if letter == "U" else -1
    values.append(len(values) + 1)
    for letter in suffix:
        height += 1 if letter == "U" else -1
        if letter == "U":
            values.append(len(values) + 1 - height)
    return tuple(values)


def enumerate_seq2(n: int) -> tuple[Sequence, ...]:
    """:func:`_seq2_from_words` over every pair of Dyck words with k and
    n - 1 - k up steps."""
    if n == 0:
        return ((),)
    words = [trees.grow(k, trees._dyck, "") for k in range(n)]
    values = [
        _seq2_from_words(prefix, suffix)
        for k in range(n)
        for prefix in words[k]
        for suffix in words[n - 1 - k]
    ]
    return tuple(sorted(values, key=serialize_seq))


# ---------------------------------------------------------------------------
# Staircase tilings, encoded by their junction-rectangle decomposition

Staircase = trees.Tree


def swap_parts(first: trees.Tree, second: trees.Tree) -> trees.Tree:
    """Tiling node (lower, upper) <-> tree node (upper, lower): the junction
    rectangle's upper part is the S-side block, in the left slot."""
    return (second, first)


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
