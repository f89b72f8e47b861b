"""Text serialization of pairs: exact layout, round trips, error classes."""

from __future__ import annotations

import random
import sys
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from catpairs import (
    CatalanPair,
    ParseError,
    enumerate_pairs,
    parse_pair,
    pairfile,
    serialize_pair,
    tree_to_pair,
)
from catpairs.relations import Relation
from conftest import random_tree
from oracles import reference_serialize_pair


def test_serialize_layout_is_header_s_then_r():
    pair = CatalanPair.from_pairs(3, [(1, 0)], [(0, 2), (1, 2)])
    assert serialize_pair(pair) == "n 3\nS 2 1\nR 1 3\nR 2 3\n"


def test_serialize_empty_pair():
    assert serialize_pair(CatalanPair.empty(0)) == "n 0\n"
    assert serialize_pair(CatalanPair.empty(1)) == "n 1\n"


def test_lines_sorted_as_strings_within_each_relation():
    # at size >= 10 the decimal labels sort as text, not numerically
    pair = CatalanPair.from_pairs(12, [(1, 0), (10, 0), (2, 0)], [])
    body = serialize_pair(pair).splitlines()[1:]
    assert body == ["S 11 1", "S 2 1", "S 3 1"]


def test_parse_inverts_serialize_for_all_small_pairs():
    for n in range(7):
        for canon in enumerate_pairs(n):
            text = serialize_pair(canon.pair)
            assert text == reference_serialize_pair(canon.pair)
            assert parse_pair(text) == canon.pair
            assert serialize_pair(parse_pair(text)) == text


def relabelled_random_pair(rng: random.Random, n: int) -> CatalanPair:
    image = list(range(n))
    rng.shuffle(image)
    return tree_to_pair(random_tree(rng, n)).relabel(image)


def test_round_trips_relabelled_random_pairs_byte_for_byte():
    rng = random.Random(12)
    for _ in range(3):
        pair = relabelled_random_pair(rng, 500)
        text = serialize_pair(pair)
        assert text == reference_serialize_pair(pair)
        assert parse_pair(text) == pair == pairfile._parse_lines(text)
        assert serialize_pair(parse_pair(text)) == text


def test_serialized_text_never_takes_the_line_loop(monkeypatch):
    # cost guard: writing and reading a pair file are row operations, so
    # neither lists the related pairs nor falls back to the line loop
    pair = relabelled_random_pair(random.Random(13), 200)

    def refuse(*args, **kwargs):
        raise AssertionError("per-pair path taken")

    monkeypatch.setattr(pairfile, "_parse_lines", refuse)
    monkeypatch.setattr(Relation, "from_pairs", classmethod(refuse))
    monkeypatch.setattr(Relation, "pairs", property(refuse))
    assert parse_pair(serialize_pair(pair)) == pair


def test_both_readers_wrap_their_rows_unchecked(monkeypatch):
    # a pair file is checked where its lines are read, so neither the bulk
    # reader nor the line loop builds a checked Relation
    pairs = [relabelled_random_pair(random.Random(14), n) for n in (0, 1, 5, 40)]
    texts = [serialize_pair(pair) for pair in pairs]

    def refuse(*args, **kwargs):
        raise AssertionError("rows checked again")

    monkeypatch.setattr(Relation, "__post_init__", refuse)
    monkeypatch.setattr(Relation, "from_pairs", classmethod(refuse))
    for pair, text in zip(pairs, texts):
        assert parse_pair(text) == pair
        assert parse_pair(text.replace("\n", "\n\n")) == pair


def test_serialized_text_reads_each_distinct_label_once(monkeypatch):
    # cost guard: int() reads the header and each distinct label once, not
    # both labels of every line, and the line loop never runs
    n = 200
    pair = relabelled_random_pair(random.Random(15), n)
    calls = []

    class CountingInt(int):
        def __new__(cls, *args):
            calls.append(args)
            return int(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("line loop taken")

    monkeypatch.setattr(pairfile, "int", CountingInt, raising=False)
    monkeypatch.setattr(pairfile, "_parse_lines", refuse)
    assert parse_pair(serialize_pair(pair)) == pair
    assert 0 < len(calls) <= n + 1


def outcome(parse, text):
    """The parsed pair, or the class and message of the error raised."""
    try:
        return parse(text)
    except ValueError as exc:  # ParseError included
        return type(exc), str(exc)


# Text over the format's alphabet.  A run of four or more digits could
# declare a header size that allocates without bound, so none is drawn.
format_texts = st.text(alphabet="nSR 0123456789\n\r\t²١", max_size=40).filter(
    lambda text: not any(run.isdecimal() and len(run) > 3 for run in text.split())
)


EDITS = (
    "drop", "duplicate", "swap", "token", "diagonal",
    "blank", "spaces", "crlf", "no-final",
)
ODD_LABELS = ("0", "01", "²", "١", "-1", "x")


@st.composite
def mutated_files(draw):
    """A serialized relabelled pair with one to three edits of its lines."""
    canon = draw(st.sampled_from(enumerate_pairs(draw(st.integers(0, 5)))))
    image = draw(st.permutations(range(canon.pair.n)))
    lines = serialize_pair(canon.pair.relabel(image)).splitlines()
    final = "\n"
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        k = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(EDITS))
        tokens = lines[k].split()
        if edit == "drop":
            del lines[k]
        elif edit == "duplicate":
            lines.insert(k, lines[k])
        elif edit == "swap":
            m = draw(st.integers(0, len(lines) - 1))
            lines[k], lines[m] = lines[m], lines[k]
        elif edit == "token" and tokens:
            spot = draw(st.integers(0, len(tokens) - 1))
            label = draw(st.sampled_from(ODD_LABELS + ("n+1", "S", "R", "n")))
            tokens[spot] = str(canon.pair.n + 1) if label == "n+1" else label
            lines[k] = " ".join(tokens)
        elif edit == "diagonal" and len(tokens) == 3:
            tokens[2] = tokens[1]
            lines[k] = " ".join(tokens)
        elif edit == "blank":
            lines.insert(k, draw(st.sampled_from(["", " ", "\t"])))
        elif edit == "spaces":
            lines[k] = draw(st.sampled_from(["", " "])) + lines[k].replace(" ", "  ")
        elif edit == "crlf":
            lines[k] += "\r"
        elif edit == "no-final":
            final = ""
    return "\n".join(lines) + final


@settings(max_examples=300, deadline=None)
@given(st.one_of(format_texts, mutated_files()))
def test_parse_agrees_with_the_line_loop(text):
    assert outcome(parse_pair, text) == outcome(pairfile._parse_lines, text)


@pytest.mark.parametrize("label", ["0", "n+1", "01", "²", "١", "+1", "1_0", "-1"])
def test_parse_agrees_with_the_line_loop_on_odd_labels(label):
    # every number of a file, header size included, replaced in turn
    pair = relabelled_random_pair(random.Random(14), 9)
    text = serialize_pair(pair)
    for k, line in enumerate(text.splitlines()):
        for spot in range(1, len(line.split())):
            tokens = line.split()
            tokens[spot] = str(pair.n + 1) if label == "n+1" else label
            lines = text.splitlines()
            lines[k] = " ".join(tokens)
            edited = "\n".join(lines) + "\n"
            assert outcome(parse_pair, edited) == outcome(pairfile._parse_lines, edited)


LONG = "9" * 5000


@pytest.mark.parametrize(
    "text",
    [
        f"n 3\nS 1 {LONG}\n",
        f"n 3\nR {LONG} 2\nS 1 2\n",
        f"n {LONG}\nS 1 2\n",
        "n 12\nS 1 2\nS 13 1\n",
        "n 12\nR 2 100\n",
        "n 1000000\nS 1 2\n",
    ],
    ids=["long-tail", "long-head", "long-size", "above-n", "longer-than-n", "sparse"],
)
def test_parse_agrees_with_the_line_loop_on_long_and_large_labels(text):
    assert outcome(parse_pair, text) == outcome(pairfile._parse_lines, text)


def test_long_labels_name_their_line():
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ParseError) as caught:
        parse_pair(f"n 3\nS 1 2\nS 1 {LONG}\n")
    assert str(caught.value) == f"line 3: a label has more than {limit} digits"
    with pytest.raises(ParseError) as caught:
        parse_pair(f"n {LONG}\n")
    assert str(caught.value) == f"line 1: the size has more than {limit} digits"


def test_a_sparse_file_allocates_only_its_rows():
    # two lists of a million rows and their tuples, 32 MB; no table of
    # labels sized by the header
    tracemalloc.start()
    try:
        pair = parse_pair("n 1000000\nS 1 2\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pair.S.rows[0] == 2 and not any(pair.R.rows)
    assert peak < 50_000_000


def test_parse_skips_blank_lines_and_odd_spacing():
    text = "\n  n 2 \n\n  S  2   1 \n\n"
    assert parse_pair(text) == CatalanPair.from_pairs(2, [(1, 0)], [])


def test_parse_accepts_any_line_order():
    shuffled = "n 3\nR 2 3\nS 2 1\nR 1 3\n"
    assert parse_pair(shuffled) == CatalanPair.from_pairs(3, [(1, 0)], [(0, 2), (1, 2)])


def test_parse_does_not_validate_axioms():
    # the format carries arbitrary pairs; verification is a separate step
    pair = parse_pair("n 2\nS 1 2\nR 1 2\n")
    assert not pair.is_valid()


@pytest.mark.parametrize(
    "text",
    [
        "",
        "m 3\nS 1 2\n",
        "n\n",
        "n -1\n",
        "n three\n",
        "n ²\n",  # a digit to str.isdigit, but not a decimal that int() reads
        "n 3\nS 1\n",
        "n 3\nS 1 2 3\n",
        "n 3\nT 1 2\n",
        "n 3\nS one 2\n",
        "n 3\nS +1 2\n",  # int() reads these three, but they are not decimal labels
        "n 12\nS 1_0 2\n",
        "n 3\nS -1 2\n",
        "n 3\nS 1 2\nS 1 2\n",
    ],
)
def test_malformed_text_raises_parse_error(text):
    with pytest.raises(ParseError):
        parse_pair(text)


@pytest.mark.parametrize(
    "text",
    [
        "n 3\nS 1 4\n",
        "n 3\nS 0 2\n",
        "n 3\nS 2 2\n",
        "n 0\nS 1 1\n",
    ],
)
def test_impossible_labels_raise_value_error(text):
    with pytest.raises(ValueError):
        parse_pair(text)


def test_non_ascii_decimal_labels_are_read_by_the_line_loop():
    assert parse_pair("n ٢\nS ١ 2\n") == CatalanPair.from_pairs(2, [(0, 1)], [])


def test_parse_error_messages_carry_line_numbers():
    with pytest.raises(ParseError, match="line 3"):
        parse_pair("n 3\nS 1 2\nS 1 2\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_pair("n 3\nS 1 9\n")


# str.splitlines also breaks at the last eight; a pair file reads them
# as spacing inside a line
SPACING = " \t\x1f\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
BAD_LINES = {
    "diagonal": ("S{0}1{0}1", ValueError, "diagonal pair (1, 1)"),
    "two records": ("S 1 3{0}R 1 3", ParseError, "expected 'S <i> <j>' or 'R <i> <j>'"),
}


@pytest.mark.parametrize("end", ["\r\n", "\r"])
def test_crlf_and_cr_line_ends_parse(end):
    text = "n 3\nS 2 1\nR 1 3\nR 2 3\n"
    assert parse_pair(text.replace("\n", end)) == parse_pair(text)
    assert parse_pair(text.replace("\n", end).rstrip(end)) == parse_pair(text)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.text(alphabet=SPACING, min_size=1, max_size=3), max_size=6),
    st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=9, max_size=9),
    st.text(alphabet=SPACING, min_size=1, max_size=2),
    st.sampled_from(sorted(BAD_LINES)),
)
def test_a_message_line_counts_the_line_ends_before_it(blanks, ends, space, kind):
    # no line is empty, so two line ends never meet to read as one "\r\n"
    form, error, message = BAD_LINES[kind]
    lines = ["n 3", "S 2 1", *blanks, form.format(space)]
    text = "".join(line + end for line, end in zip(lines, ends))
    with pytest.raises(error) as caught:
        parse_pair(text)
    before = text[: text.rindex(form.format(space))]
    line_ends = before.count("\n") + before.count("\r") - before.count("\r\n")
    assert line_ends == len(lines) - 1
    assert str(caught.value) == f"line {line_ends + 1}: {message}"


@pytest.mark.parametrize(
    "text, line",
    [
        ("n 1048577\n", 1),
        ("n 1048577", 1),
        ("n 1048577\nS 1 2\n", 1),
        ("\nn 1048577\nS 1 2\n", 2),
    ],
)
def test_declared_size_above_the_limit_is_refused_before_allocation(text, line):
    # both paths refuse the header before any row list of that size
    # exists; one past the limit, so that a missing check costs megabytes
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as caught:
            parse_pair(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = text.split()[1]
    assert str(caught.value) == (
        f"line {line}: size {size} exceeds the limit of 1048576"
    )
    assert peak < 1 << 20
