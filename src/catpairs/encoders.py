"""Structure -> order-pair encoders.

A tree-shaped family is one recursive ``join`` rule over binary trees,
so a value's pair is the pair of its decomposition tree
(``grammar.tree_to_pair``) relabelled in the family's reading order.  Its
encoder checks the value, reads each node's left-subtree size off it in
one pass, and builds the pair from those sizes (``grammar._left_sizes_pair``)
with preorder labels (arches by left endpoint, plane-tree nodes, sequence
positions) or inorder labels (staircases; binary trees and polyominoes
in ``grammar``).  The four preorder families keep the check and the
reading in one ``read_*`` function, and so do binary trees
(``grammar.read_binary_tree``, whose encoder keeps inorder labels).
``bijections.convert`` calls these five readers directly: the pair built
from their sizes with preorder labels is already canonical.  Each
docstring states what S and R mean for its family.

The second sequence family splits at its fixed point, and each side
spells a Dyck word through its offsets from the diagonal; the two-word
rule, both ways, lives in ``structures`` (``_seq2_words`` and
``_seq2_from_words``).  The same builder reads the prefix word with
inorder labels and the suffix word with preorder labels.  The
permutation classes carry inversion pairs.
Encoders raise ValueError on invalid input, except ``encode_perm_312``:
it is total over all permutations, and its output passes the pair axioms
exactly when the permutation avoids 312.
"""

from __future__ import annotations

from . import trees
from .errors import require
from .grammar import _left_sizes_pair, tree_to_pair
from .relations import CatalanPair, Relation, _join
from .structures import (
    Matching,
    Permutation,
    PlaneTree,
    Sequence,
    Staircase,
    _seq2_words,
    apply_steps,
    pattern_transform,
    profile_matching,
    serialize_plane_tree,
    swap_parts,
    validate_avoidance,
    validate_dyck,
    validate_matching,
    validate_perm,
    validate_plane_tree,
    validate_seq1,
    validate_seq2,
    validate_staircase,
)
from .trees import _enclosed


def read_matching(m: Matching) -> list[int]:
    """The preorder left sizes of a checked matching: arches by left
    endpoint are the tree's preorder, and an arch's left subtree is the
    (r - l - 1) / 2 arches inside it."""
    require(validate_matching(m))
    return [(r - l - 1) // 2 for l, r in m]


def encode_matching(m: Matching) -> CatalanPair:
    """S = strict arch inclusion, R = completely-left-of; labels in
    preorder, as :func:`read_matching` reads them."""
    return _left_sizes_pair(read_matching(m), inorder=False)


def read_dyck(word: str) -> list[int]:
    """The preorder left sizes of a checked Dyck word: up steps are the
    tree's preorder, and a tunnel's left subtree is the tunnels inside it."""
    require(validate_dyck(word))
    return _enclosed(word, "U")


def encode_dyck(word: str) -> CatalanPair:
    """Tunnels (matched U/D step pairs): S = strictly above, R = left of.

    Labels follow up-step order, the preorder that :func:`read_dyck`
    reads, as the arches of ``encode_matching`` do.
    """
    return _left_sizes_pair(read_dyck(word), inorder=False)


def read_plane_tree(t: PlaneTree) -> list[int]:
    """The preorder left sizes of a checked plane tree: the text form opens
    one "(" per non-root node in preorder, and a node's left subtree is
    its descendants, the nodes opened inside it."""
    require(validate_plane_tree(t))
    return _enclosed(serialize_plane_tree(t), "(")


def encode_plane_tree(t: PlaneTree) -> CatalanPair:
    """Non-root nodes in preorder; S = proper descendant, R = left of.

    One node is left of another when neither is an ancestor of the other
    and its branch leaves their closest common ancestor earlier.  The
    left sizes come from :func:`read_plane_tree`.
    """
    return _left_sizes_pair(read_plane_tree(t), inorder=False)


def encode_perm_312(p: Permutation) -> CatalanPair:
    """S = inversions, R = noninversions, labels = positions.

    Total over all permutations: the outcome passes the pair axioms
    exactly when p avoids 312, which is a tested equivalence.
    """
    require(validate_perm(p))
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
    return CatalanPair(Relation._unchecked(n, s_rows), Relation._unchecked(n, r_rows))


def encode_perm_321(p: Permutation) -> CatalanPair:
    """S = nested matched-step intervals, R = disjoint ones; labels = positions.

    Positions i < j are S-related when the running-maxima path closes
    their columns' intervals in first-opened-last-closed order (an
    inversion of ``profile_matching``), and R-related when i's interval
    closes before j's opens.
    """
    return pair_for_avoidance_class(p, "321")


def read_seq1(s: Sequence) -> list[int]:
    """The preorder left sizes of a checked seq1 value: positions are the
    tree's preorder, and a_i - i is the size of position i's left subtree."""
    require(validate_seq1(s))
    return [a - i for i, a in enumerate(s, start=1)]


def encode_seq1(s: Sequence) -> CatalanPair:
    """a_i R a_j when i < j and a_i < a_j; a_i S a_j when j < i and a_i <= a_j.

    Labels are positions, the preorder that :func:`read_seq1` reads.
    """
    return _left_sizes_pair(read_seq1(s), inorder=False)


def encode_seq2(s: Sequence) -> CatalanPair:
    """Relations over the diagonal offsets, split at the fixed point f.

    Below f, a_i S a_j holds for i < j when offset_i > offset_j and j is
    the first later position (up to f) carrying its offset; later copies
    fall to R, as do all offset-nondecreasing pairs.  Everything before f
    is R-related to everything after.  Above f the same scheme runs
    mirrored (S points backwards, first copy replaced by last).

    Each side is a Dyck word read off its offsets
    (``structures._seq2_words``).  The prefix word's tree takes inorder
    labels and the suffix word's tree preorder labels; f joins the two
    halves.
    """
    require(validate_seq2(s))
    if not s:
        return CatalanPair.empty(0)
    prefix, suffix = _seq2_words(s)
    return _join(
        _left_sizes_pair(_enclosed(prefix, "U"), inorder=True),
        _left_sizes_pair(_enclosed(suffix, "U"), inorder=False),
    )


def encode_staircase(t: Staircase) -> CatalanPair:
    """Composition of the junction-rectangle decomposition: the rectangle
    is S-dominated by the upper part and R-precedes the lower part, so
    :func:`swap_parts` puts the upper part in the left slot; inorder labels."""
    require(validate_staircase(t))
    return tree_to_pair(trees.fold(t, swap_parts, trees.EMPTY))


def pair_for_avoidance_class(p: Permutation, pattern: str) -> CatalanPair:
    """Encoder for any of the six one-pattern avoidance classes.

    The four classes without their own construction ride on the 312 and
    321 constructions through reverse/inverse symmetries.  The class check
    runs once, here: the symmetries carry members onto members of the base
    class, so the base construction needs no second check.
    """
    require(validate_perm(p) or validate_avoidance(p, pattern))
    steps, base = pattern_transform(pattern)
    q = apply_steps(p, steps)
    return _inversion_pair(q if base == "312" else profile_matching(q))
