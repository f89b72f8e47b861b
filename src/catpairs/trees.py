"""Binary trees as plain nested tuples.

A tree is either the empty tuple ``()`` or a pair ``(left, right)`` of trees.
The textual form writes the empty tree as ``e`` and an internal node as
``(left,right)`` with no whitespace, e.g. ``((e,e),e)`` for the two-node
tree whose root has a left child only.

A family built on these trees is one ``join(left, right)`` rule plus the
value of the empty tree, which :func:`fold` and :func:`grow` apply
without recursion.  A tree is also fixed by the sizes of its left
subtrees in preorder (:func:`left_sizes`), the form that pairs are built
from and read back into.

A tree is written out once, as its Dyck word (:func:`to_dyck_word`: a
node is U <left> D <right>), and what is derived from it is read off
that word: its preorder left sizes, which :func:`_enclosed` reads off it
as off any balanced word, and each word-like family's value, a letter
map of it: the word itself, its arches (matchings), the word in
parentheses (plane trees), its two paths (polyominoes), and its U steps
in the order their D steps close them (312-avoiders).  :func:`serialize`
writes the tree's own text form, not a value derived from it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from .errors import ParseError

Tree = tuple  # () or (Tree, Tree)

EMPTY: Tree = ()


def fold(tree: Tree, join: Callable, leaf: object) -> object:
    """*leaf* at every empty subtree, ``join(left, right)`` at every node.

    Nodes go in reverse preorder (right subtree, left subtree, node), so
    the left value is on top of the stack when a node pops its children.
    """
    order = []
    stack = [tree]
    while stack:
        node = stack.pop()
        order.append(node)
        if node:
            stack.append(node[1])
            stack.append(node[0])
    values = []
    for node in reversed(order):
        values.append(join(values.pop(), values.pop()) if node else leaf)
    return values[0]


def grow(n: int, join: Callable, leaf: object) -> list:
    """``fold(t, join, leaf)`` for every tree t with *n* nodes, bottom-up
    by size, so each value costs one ``join`` call."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    levels = [[leaf]]
    for m in range(1, n + 1):
        levels.append([
            join(left, right)
            for k in range(m)
            for left in levels[k]
            for right in levels[m - 1 - k]
        ])
    return levels[n]


def left_sizes(tree: Tree) -> list[int]:
    """The size of each node's left subtree, nodes in preorder, read off
    the tree's Dyck word (see the module docstring); the list fixes the
    tree (see :func:`from_left_sizes`)."""
    return _enclosed(to_dyck_word(tree), "U")


def subtree_sizes(left_sizes: list[int]) -> list[int] | None:
    """Subtree sizes, by preorder position, of the binary tree whose
    left subtrees have *left_sizes*; None if no tree has them.

    The root's block is every position; each block splits top down into
    its first position, a left block and a right block.  The blocks still
    to split tile the positions not yet read, so a split that leaves no
    negative right size reaches every position exactly once.
    """
    n = len(left_sizes)
    size = [0] * (n + 1)
    size[0] = n
    for p, a in enumerate(left_sizes):
        b = size[p] - 1 - a
        if b < 0:
            return None
        if a:
            size[p + 1] = a
        if b:
            size[p + a + 1] = b
    return size


def from_left_sizes(left_sizes: list[int]) -> Tree:
    """Inverse of :func:`left_sizes`, built bottom-up in reverse preorder.

    *left_sizes* must come from a tree; other lists give a meaningless
    tree or an error.
    """
    n = len(left_sizes)
    size = subtree_sizes(left_sizes)
    nodes: list[Tree] = [EMPTY] * (n + 1)
    for p in range(n - 1, -1, -1):
        a = left_sizes[p]
        nodes[p] = (
            nodes[p + 1] if a else EMPTY,
            nodes[p + a + 1] if size[p] - 1 - a else EMPTY,
        )
    return nodes[0]


def _dyck(left: str, right: str) -> str:
    """The Dyck rule, shared by every Dyck-word fold and enumerator."""
    return "U" + left + "D" + right


def is_tree(value: object) -> bool:
    """True if *value* is a well-formed binary tree tuple."""
    stack = [value]
    while stack:
        node = stack.pop()
        if node == ():
            continue
        if not (isinstance(node, tuple) and len(node) == 2):
            return False
        stack.extend(node)
    return True


def size(tree: Tree) -> int:
    """Number of internal nodes."""
    return fold(tree, lambda left, right: left + right + 1, 0)


def serialize(tree: Tree) -> str:
    """The ``e`` / ``(left,right)`` text, in one preorder walk that lists
    the pieces and joins them once."""
    if not tree:
        return "e"
    pieces: list[str] = []
    stack: list = [tree]  # subtrees still to write, and the text between them
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            pieces.append(item)
            continue
        left, right = item
        pieces.append("(")
        stack.append(")")
        stack.append(right or "e")
        stack.append(",")
        stack.append(left or "e")
    return "".join(pieces)


def parse(text: str) -> Tree:
    """Inverse of :func:`serialize`.  Raises ParseError on malformed input."""
    s = text.strip()
    pos = 0
    values: list[Tree] = []
    todo = ["tree"]  # what is still to be read, last first; ")" ends a node
    while todo:
        want = todo.pop()
        if want == "tree":
            if pos >= len(s):
                raise ParseError("unexpected end of input")
            if s[pos] == "(":
                todo += (")", "tree", ",", "tree")
            elif s[pos] == "e":
                values.append(EMPTY)
            else:
                raise ParseError(
                    f"expected 'e' or '(' at offset {pos}, got {s[pos]!r}"
                )
        elif pos >= len(s) or s[pos] != want:
            raise ParseError(f"expected {want!r} at offset {pos}")
        elif want == ")":
            right = values.pop()
            values.append((values.pop(), right))
        pos += 1
    if pos != len(s):
        raise ParseError(f"trailing characters at offset {pos}: {s[pos:]!r}")
    return values[0]


def _text_and_node(left: tuple[str, Tree], right: tuple[str, Tree]) -> tuple:
    """A node with its text, so that sorting by text walks no tree."""
    return "(" + left[0] + "," + right[0] + ")", (left[1], right[1])


@lru_cache(maxsize=None)
def all_trees(n: int) -> tuple[Tree, ...]:
    """All binary trees with *n* internal nodes, sorted by textual form."""
    pairs = sorted(grow(n, _text_and_node, ("e", EMPTY)))
    return tuple([tree for _, tree in pairs])


def to_dyck_word(tree: Tree) -> str:
    """Balanced word over U/D: a node maps to U <left> D <right>, as the
    Dyck rule :func:`_dyck` folded over the tree gives.  One preorder
    walk that lists the letters and joins them once."""
    letters: list[str] = []
    stack: list = [tree] if tree else []  # subtrees to write; None writes a D
    while stack:
        node = stack.pop()
        if node is None:
            letters.append("D")
            continue
        letters.append("U")
        left, right = node
        if right:
            stack.append(right)
        stack.append(None)
        if left:
            stack.append(left)
    return "".join(letters)


def _enclosed(word: str, opening: str) -> list[int]:
    """For each *opening* letter of a balanced word, in order, how many
    opening letters lie between it and the letter that closes it: the
    preorder left sizes of the word's first-return tree."""
    counts: list[int] = []
    unclosed: list[int] = []
    for letter in word:
        if letter == opening:
            unclosed.append(len(counts))
            counts.append(0)
        else:
            i = unclosed.pop()
            counts[i] = len(counts) - 1 - i
    return counts


def from_dyck_word(word: str) -> Tree:
    """Inverse of :func:`to_dyck_word` (first-return factorisation)."""
    depth = 0
    for pos, letter in enumerate(word):
        if letter == "U":
            depth += 1
        elif letter != "D":
            raise ValueError(f"unexpected letter {letter!r} at position {pos}")
        elif depth:
            depth -= 1
        else:
            raise ValueError(f"unbalanced word: unmatched 'D' at position {pos}")
    if depth:
        raise ValueError("unbalanced word: unmatched 'U'")
    return from_left_sizes(_enclosed(word, "U"))
