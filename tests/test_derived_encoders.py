"""Encoders derived from the join rules, against direct constructions.

Every tree-shaped encoder reads a value's left-subtree sizes and builds
the pair from them with one builder (``grammar._left_sizes_pair``); seq2
builds each side of its fixed point that way and joins the halves.  The
oracles build the same labelled pairs without it: the per-family S/R
rules and the two bottom-up folds of pair composition.
"""

from __future__ import annotations

import random

import pytest

import oracles
from catpairs import (
    canonicalize,
    family,
    pair_to_tree,
    relations,
    tree_to_pair,
    trees,
)
from catpairs.encoders import (
    encode_dyck,
    encode_matching,
    encode_plane_tree,
    encode_seq1,
    encode_seq2,
    encode_staircase,
)
from catpairs.grammar import encode_polyomino, grammar_pair, polyomino_to_tree
from conftest import random_tree

# (family, derived encoder, oracle)
ROUTES = [
    ("dyck", encode_dyck, oracles.direct_encode_dyck),
    ("matching", encode_matching, oracles.direct_encode_matching),
    ("plane-tree", encode_plane_tree, oracles.direct_encode_plane_tree),
    ("seq1", encode_seq1, oracles.direct_encode_seq1),
    ("staircase", encode_staircase, oracles.direct_encode_staircase),
    ("binary-tree", grammar_pair, oracles.branch_rule_pair),
    ("binary-tree", tree_to_pair, oracles.join_fold_pair),
    (
        "polyomino",
        encode_polyomino,
        lambda value: oracles.branch_rule_pair(polyomino_to_tree(value)),
    ),
]

ROUTE_IDS = [f"{tag}-{encode.__name__}" for tag, encode, _ in ROUTES]


# seq2 has no assembler and a cubic oracle: small values only
SEQ2_ROUTE = ("seq2", encode_seq2, oracles.direct_encode_seq2)


@pytest.mark.parametrize(
    "tag, encode, oracle",
    ROUTES + [SEQ2_ROUTE],
    ids=ROUTE_IDS + ["seq2-encode_seq2"],
)
def test_derived_encoder_equals_oracle_on_every_small_value(tag, encode, oracle):
    for n in range(10):
        for value in family(tag).enumerate(n):
            assert encode(value) == oracle(value), (tag, value)


@pytest.mark.parametrize("n", [500, 2000])
@pytest.mark.parametrize("tag, encode, oracle", ROUTES, ids=ROUTE_IDS)
def test_derived_encoder_equals_oracle_on_random_values(tag, encode, oracle, n):
    rng = random.Random(f"derived:{tag}:{n}")
    value = family(tag).assemble(random_tree(rng, n))
    pair = encode(value)
    assert pair.n == n
    assert pair == oracle(value)


def test_seq2_encoder_equals_oracle_on_random_values():
    # the oracle scans cubically, so n stays at 500
    rng = random.Random("derived:seq2:500")
    for _ in range(2):
        value = oracles.seq2_from_tree(random_tree(rng, 500))
        assert family("seq2").validate(value) is None
        assert encode_seq2(value) == oracles.direct_encode_seq2(value)


def test_seq2_encoder_reads_the_shape_of_large_values():
    rng = random.Random("derived:seq2:2000")
    t = random_tree(rng, 2000)
    value = oracles.seq2_from_tree(t)
    assert family("seq2").validate(value) is None
    shape = pair_to_tree(canonicalize(encode_seq2(value)).pair)
    assert trees.serialize(shape) == trees.serialize(t)


def test_derived_encoders_take_no_per_bit_pass(monkeypatch):
    # the builder works on whole rows: it never lists pairs and never
    # walks the bits of a row, whatever the density of S and R
    rng = random.Random("derived:cost")
    t = random_tree(rng, 500)
    values = [(encode, family(tag).assemble(t)) for tag, encode, _ in ROUTES]
    values.append((encode_seq2, oracles.seq2_from_tree(random_tree(rng, 500))))
    walked = []
    real_bits = relations.bits

    def counting_bits(mask):
        for j in real_bits(mask):
            walked.append(j)
            yield j

    def no_pairs(cls, *args):
        raise AssertionError("from_pairs builds a relation pair by pair")

    monkeypatch.setattr(relations, "bits", counting_bits)
    monkeypatch.setattr(relations.Relation, "from_pairs", classmethod(no_pairs))
    for encode, value in values:
        assert encode(value).n == 500
    assert walked == []
