"""Shared fixtures: the worked seven-element pair, golden files, CLI runner."""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from catpairs import CatalanPair, trees
from catpairs.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

# A seven-element pair exercised throughout the suite: it is valid, already
# carries natural labels, and decodes to the tree ((e,e),(e,(((e,e),(e,e)),e))).
SEVEN_S = frozenset({(1, 0), (4, 3), (5, 3), (5, 4), (6, 3)})
SEVEN_R = frozenset(
    {
        (0, 2), (0, 3), (0, 4), (0, 5), (0, 6),
        (1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
        (2, 3), (2, 4), (2, 5), (2, 6), (4, 6), (5, 6),
    }
)


def random_tree(rng, n):
    """A uniform binary tree with n nodes, by the cycle lemma.

    Of the 2n + 1 rotations of a shuffle of n up and n + 1 down steps,
    exactly one (the one after the first lowest point) stays nonnegative
    until its last step; dropping that step leaves a Dyck word.
    """
    steps = ["U"] * n + ["D"] * (n + 1)
    rng.shuffle(steps)
    height = lowest = cut = 0
    for pos, step in enumerate(steps, start=1):
        height += 1 if step == "U" else -1
        if height < lowest:
            lowest, cut = height, pos
    word = "".join(steps[cut:] + steps[:cut])
    return trees.from_dyck_word(word[:-1])


@pytest.fixture
def seven_pair() -> CatalanPair:
    return CatalanPair.from_pairs(7, SEVEN_S, SEVEN_R)


@pytest.fixture
def golden() -> Path:
    return GOLDEN_DIR


@pytest.fixture
def run_cli(capsys, monkeypatch):
    """Invoke the CLI in process; returns (exit code, stdout, stderr)."""

    def run(argv: list[str], stdin: str | None = None):
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    return run
