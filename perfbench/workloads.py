"""Seeded inputs, timed operations and output checks for the four workloads.

Every input starts as a binary-tree shape, taken from uniform random
trees drawn with the cycle lemma from the run's seed (see ``shapes``), and
is mapped into the family an operation needs.  Each input is validated with ``family(tag).validate``
(or, for pair files, the axiom check) while the workload is built, so a
timed operation never meets an input the generator got wrong.  Each
operation carries a checker that the runner calls outside the timed
region.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from dataclasses import dataclass
from types import ModuleType
from typing import Callable

ANALYTIC = (
    "dyck", "matching", "plane-tree", "seq1", "staircase", "binary-tree", "polyomino",
)
PERM_CLASSES = ("312", "321", "231", "213", "132", "123")
TABLE_TARGETS = ("perm-321", "perm-123", "seq2")
# Analytic sources for table-cold: every family that has an assembler.
TABLE_SOURCES = ANALYTIC + ("perm-312", "perm-231", "perm-213", "perm-132")

SHAPE_DRAWS = 2048

VERIFY_VALID = (
    "(i) S strict order: PASS\n(i) R strict order: PASS\n(ii) completeness: PASS\n"
    "(iii) disjointness: PASS\n(iv) compatibility: PASS\nvalid\n"
)


@dataclass(frozen=True)
class Op:
    """One call into the public entry point on one generated input."""

    size: int
    kind: str  # ops of one kind return the same type of output
    call: Callable[[], object]
    check: Callable[[object], bool]
    key: tuple  # what the generator drew; two equal seeds give equal keys


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: tuple[int, ...]  # the stated size mix: equal shares of each size
    tail: float  # the fixed tail percentile
    ops: list[Op]
    # Start every pass with empty caches, as a fresh interpreter does.
    cold: bool = False


# ---------------------------------------------------------------------------
# Shapes and the benchmark's own maps


def random_word(rng: random.Random, n: int) -> bytes:
    """The preorder word (1 = node, 0 = leaf) of a uniform binary tree
    with n nodes, by the cycle lemma: of the rotations of a shuffled word
    with n ones and n + 1 zeros, exactly one, the one starting after the
    first minimum prefix sum, is a preorder word."""
    word = [1] * n + [0] * (n + 1)
    rng.shuffle(word)
    height = low = cut = 0
    for i, node in enumerate(word):
        height += 1 if node else -1
        if height < low:
            low, cut = height, i + 1
    return bytes(word[cut:] + word[:cut])


def tree_of(word: bytes) -> tuple:
    """The nested-tuple tree of a preorder word."""
    stack: list[tuple] = []
    for node in reversed(word):
        stack.append((stack.pop(), stack.pop()) if node else ())
    return stack[0]


def decomposition_cost(word: bytes) -> int:
    """Sum of squared subtree sizes: how the work of the recursive
    decomposition grows with the shape."""
    total = 0
    sizes: list[int] = []
    for node in reversed(word):
        if node:
            k = sizes.pop() + sizes.pop() + 1
            total += k * k
            sizes.append(k)
        else:
            sizes.append(0)
    return total


def shapes(rng: random.Random, sizes: list[int]) -> list[tuple]:
    """One random tree for each entry of *sizes*, as a quantile sample.

    For each size, draw at least SHAPE_DRAWS uniform trees, sort them by
    decomposition cost, cut them into as many equal runs as trees are
    needed and keep the middle tree of each run, in cost order.  The kept
    trees follow the uniform distribution's cost quantiles, so neither a
    pool's cost mix nor the cost of its k-th op of a size moves much with
    the seed.
    """
    picked = {}
    for n in sorted(set(sizes)):
        count = sizes.count(n)
        run = max(1, SHAPE_DRAWS // count)
        drawn = sorted((random_word(rng, n) for _ in range(count * run)), key=decomposition_cost)
        picked[n] = iter([tree_of(drawn[i * run + run // 2]) for i in range(count)])
    return [next(picked[n]) for n in sizes]


def dyck_word(tree: tuple) -> str:
    """A node maps to U <left> D <right>."""
    out = []
    stack: list = [tree]
    while stack:
        item = stack.pop()
        if item == "D":
            out.append("D")
        elif item:
            out.append("U")
            stack += [item[1], "D", item[0]]
    return "".join(out)


def tree_text(tree: tuple) -> str:
    """The ``e`` / ``(left,right)`` text form."""
    out = []
    stack: list = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item:
            out.append("(")
            stack += [")", item[1], ",", item[0]]
        else:
            out.append("e")
    return "".join(out)


def perm_321(word: str) -> tuple[int, ...]:
    """Dyck path -> 321-avoider: each peak before the i-th down step puts
    the height reached at position i (a left-to-right maximum); the other
    positions take the unused values in increasing order."""
    n = len(word) // 2
    perm = [0] * n
    ups = column = 0
    for pos, letter in enumerate(word):
        if letter == "U":
            ups += 1
            continue
        if word[pos - 1] == "U":
            perm[column] = ups
        column += 1
    rest = iter(sorted(set(range(1, n + 1)) - set(perm)))
    return tuple(v or next(rest) for v in perm)


def source_value(cp: ModuleType, tag: str, tree: tuple) -> object:
    """The *tag* value whose decomposition tree is *tree*, validated."""
    if tag == "perm-321":
        value: object = perm_321(dyck_word(tree))
    elif tag == "perm-123":
        value = tuple(reversed(perm_321(dyck_word(tree))))
    else:
        value = cp.family(tag).assemble(tree)
    message = cp.family(tag).validate(value)
    if message is not None:
        raise RuntimeError(f"generated {tag} input is invalid: {message}")
    return value


# ---------------------------------------------------------------------------
# Operations


def convert_op(cp: ModuleType, src: str, dst: str, n: int, tree: tuple) -> Op:
    value = source_value(cp, src, tree)
    target = cp.family(dst)
    if target.assemble is not None:
        expected = target.assemble(tree)

        def check(out: object) -> bool:
            return out == expected
    else:
        source_canon = cp.canonicalize(cp.family(src).encode(value))

        def check(out: object) -> bool:
            return cp.canonicalize(target.encode(out)) == source_canon

    return Op(n, dst, lambda: cp.convert(value, src, dst), check, (src, dst, value))


def cli_call(cp: ModuleType, argv: list[str], stdin_text: str) -> Callable[[], tuple]:
    def call() -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cp.cli.main(argv)
        finally:
            sys.stdin = saved
        return code, out.getvalue(), err.getvalue()

    return call


def pair_file_op(
    cp: ModuleType, rng: random.Random, command: str, n: int, tree: tuple, flip: bool
) -> Op:
    """``verify`` or ``decompose`` on a relabelled pair file, with one
    relation bit flipped when *flip* is set."""
    image = list(range(n))
    rng.shuffle(image)
    text = cp.serialize_pair(cp.tree_to_pair(tree).relabel(image))
    if not cp.parse_pair(text).is_valid():
        raise RuntimeError("generated pair file fails the axioms")
    failing = None
    if flip:
        lines = text.splitlines()
        k = rng.randrange(1, len(lines))
        name, i, j = lines[k].split()
        if rng.random() < 0.5:
            del lines[k]  # (i, j) becomes unrelated
            axiom = "(ii) completeness"
        else:
            other = "R" if name == "S" else "S"
            lines.append(rng.choice([f"{name} {j} {i}", f"{other} {i} {j}", f"{other} {j} {i}"]))
            axiom = "(iii) disjointness"  # (i, j) becomes doubly related
        text = "\n".join(lines) + "\n"
        a, b = sorted((int(i), int(j)))
        failing = f"{axiom}: FAIL at ({a}, {b})"
    decomposed = tree_text(tree) + "\n"

    def check(result: tuple) -> bool:
        code, out, err = result
        if command == "verify" and failing is None:
            return code == 0 and out == VERIFY_VALID
        if command == "verify":
            return code == 2 and failing in out.splitlines() and out.endswith("invalid\n")
        if failing is None:
            return code == 0 and out == decomposed
        return code == 2 and out == "" and err.startswith("error: ")

    argv = [command, "--stdin"]
    return Op(n, "cli", cli_call(cp, argv, text), check, (command, text))


def encode_op(cp: ModuleType, tag: str, n: int, tree: tuple) -> Op:
    fam = cp.family(tag)
    text = fam.serialize(source_value(cp, tag, tree))

    def check(result: tuple) -> bool:
        code, out, _ = result
        lines = out.splitlines()
        # a valid pair relates every two labels exactly once
        return code == 0 and lines[:1] == [f"n {n}"] and len(lines) == 1 + n * (n - 1) // 2

    argv = ["encode", "--family", tag, text]
    return Op(n, "cli", cli_call(cp, argv, ""), check, tuple(argv))


# ---------------------------------------------------------------------------
# Workloads


def convert_ops(cp: ModuleType, rng: random.Random, routes: list[tuple[str, str, int]]) -> list[Op]:
    trees = shapes(rng, [n for _, _, n in routes])
    return [convert_op(cp, src, dst, n, t) for (src, dst, n), t in zip(routes, trees)]


def hub_large(cp: ModuleType, rng: random.Random) -> Workload:
    sizes = (32, 64, 128)
    # Each route runs at one of the sizes, so that a pass stays short.
    routes = [
        (src, dst, sizes[(7 * s + d) % len(sizes)])
        for s, src in enumerate(ANALYTIC)
        for d, dst in enumerate(ANALYTIC)
    ]
    ops = convert_ops(cp, rng, routes)
    return Workload("hub-large", sizes, 96.0, ops)


def perm_boundary(cp: ModuleType, rng: random.Random) -> Workload:
    sizes = (32, 64, 96)
    routes = [
        (f"perm-{pattern}", ANALYTIC[(c * len(sizes) + s) % len(ANALYTIC)], n)
        for c, pattern in enumerate(PERM_CLASSES)
        for s, n in enumerate(sizes)
    ]
    ops = convert_ops(cp, rng, routes)
    return Workload("perm-boundary", sizes, 81.0, ops)


def table_cold(cp: ModuleType, rng: random.Random) -> Workload:
    sizes = (5, 6, 7, 8, 9)
    routes = [
        (TABLE_SOURCES[(k + d) % len(TABLE_SOURCES)], dst, n)
        for k in range(200)
        for d, dst in enumerate(TABLE_TARGETS)
        for n in sizes
    ]
    ops = convert_ops(cp, rng, routes)
    return Workload("table-cold", sizes, 99.75, ops, cold=True)


def cli_pairs(cp: ModuleType, rng: random.Random) -> Workload:
    sizes = (8, 16, 24, 32, 40, 48)
    count = 216
    trees = shapes(rng, [sizes[j % len(sizes)] for j in range(count)])
    ops = []
    for j, tree in enumerate(trees):
        n = sizes[j % len(sizes)]
        command = ("verify", "decompose", "encode")[j // 6 % 3]
        if command == "encode":
            ops.append(encode_op(cp, ANALYTIC[j // 18 % len(ANALYTIC)], n, tree))
        else:
            ops.append(pair_file_op(cp, rng, command, n, tree, flip=j // 18 % 3 == 2))
    return Workload("cli-pairs", sizes, 99.5, ops)


WORKLOADS = {
    "hub-large": hub_large,
    "perm-boundary": perm_boundary,
    "table-cold": table_cold,
    "cli-pairs": cli_pairs,
}


def build(cp: ModuleType, name: str, seed: int) -> Workload:
    return WORKLOADS[name](cp, random.Random(f"{name}:{seed}"))
