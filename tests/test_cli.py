"""Command-line behavior: subcommands, exit codes, byte-exact golden output."""

from __future__ import annotations

import dataclasses
import io
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from catpairs import convert, enumerate_pairs, grammar, relations, serialize_pair, structures
from catpairs.bijections import ALIASES, FAMILIES, family
from catpairs.cli import main
from conftest import GOLDEN_DIR


# ------------------------------------------------------------------ verify

def test_verify_valid_file(run_cli, golden):
    code, out, err = run_cli(["verify", str(golden / "example1.pair")])
    assert code == 0
    assert out == (golden / "verify_valid.txt").read_text()
    assert err == ""


def test_verify_invalid_file(run_cli, golden):
    code, out, err = run_cli(["verify", str(golden / "invalid.pair")])
    assert code == 2
    assert out == (golden / "verify_invalid.txt").read_text()
    assert err == ""


def test_verify_malformed_file(run_cli, golden):
    code, out, err = run_cli(["verify", str(golden / "malformed.pair")])
    assert code == 1
    assert out == ""
    assert err == "error: line 1: expected header 'n <size>'\n"


def test_verify_reads_stdin(run_cli, golden):
    text = (golden / "example1.pair").read_text()
    code, out, _ = run_cli(["verify", "--stdin"], stdin=text)
    assert code == 0
    assert out.endswith("valid\n")


def test_verify_names_the_first_gap_of_a_large_empty_pair(run_cli):
    code, out, err = run_cli(["verify", "--stdin"], stdin="n 20000\n")
    assert code == 2
    assert out == (
        "(i) S strict order: PASS\n"
        "(i) R strict order: PASS\n"
        "(ii) completeness: FAIL at (1, 2)\n"
        "(iii) disjointness: PASS\n"
        "(iv) compatibility: PASS\n"
        "invalid\n"
    )
    assert err == ""


def test_verify_missing_file(run_cli, tmp_path):
    code, out, err = run_cli(["verify", str(tmp_path / "absent.pair")])
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_verify_without_path_or_stdin(run_cli):
    code, _, err = run_cli(["verify"])
    assert code == 1
    assert "expected a file path or --stdin" in err


# ------------------------------------------------------------------ encode

def test_encode_golden_outputs(run_cli, golden):
    cases = [
        (["encode", "--family", "perm-312", "2 1 3 5 6 4"], "encode_perm312.txt"),
        (["encode", "--family", "perm-321", "2 3 1 4 5"], "encode_perm321.txt"),
        (["encode", "--family", "seq1", "5 2 4 4 5 6"], "encode_seq1.txt"),
        (["encode", "--family", "seq2", "2 4 4 5 5 5 6 6"], "encode_seq2.txt"),
    ]
    for argv, name in cases:
        code, out, err = run_cli(argv)
        assert code == 0, name
        assert out == (golden / name).read_text(), name
        assert err == ""


def test_encode_rejects_class_outsiders(run_cli):
    code, out, err = run_cli(["encode", "--family", "perm-321", "3 2 1"])
    assert code == 2
    assert out == ""
    assert err == "error: permutation contains the pattern 321\n"


def test_encode_error_classes_split_the_exit_codes(run_cli):
    # foreign letters are a lexical problem (1); a sane alphabet that breaks
    # the balance rule is a semantic one (2)
    code, _, err = run_cli(["encode", "--family", "dyck", "UXDD"])
    assert code == 1
    assert err == "error: a Dyck word may only contain the letters U and D\n"
    code, _, err = run_cli(["encode", "--family", "dyck", "DU"])
    assert code == 2
    assert err == "error: prefix ending at position 1 has more D than U\n"


def test_encode_unknown_family_is_a_usage_error(run_cli):
    code, out, _ = run_cli(["encode", "--family", "nope", "UD"])
    assert code == 1
    assert out == ""


def test_encode_reads_stdin(run_cli):
    code, out, _ = run_cli(
        ["encode", "--family", "dyck", "--stdin"], stdin="UUDDUD\n"
    )
    assert code == 0
    assert out == "n 3\nS 2 1\nR 1 3\nR 2 3\n"


# ------------------------------------------------------------------ convert

def test_convert_between_families(run_cli):
    code, out, _ = run_cli(
        ["convert", "--from", "dyck", "--to", "perm-312", "UUDDUD"]
    )
    assert code == 0
    assert out == "2 1 3\n"


def test_convert_accepts_alias(run_cli):
    code, out, _ = run_cli(
        ["convert", "--from", "dyck", "--to", "grammar-tree", "UDUD"]
    )
    assert code == 0
    assert out == "(e,(e,e))\n"


def test_convert_rejects_invalid_source(run_cli):
    code, _, err = run_cli(
        ["convert", "--from", "perm-312", "--to", "dyck", "3 1 2"]
    )
    assert code == 2
    assert err == "error: permutation contains the pattern 312\n"


# ---------------------------------------------------------------- enumerate

def test_enumerate_lists_each_value(run_cli):
    code, out, _ = run_cli(["enumerate", "--family", "dyck", "-n", "3"])
    assert code == 0
    assert out == "UDUDUD\nUDUUDD\nUUDDUD\nUUDUDD\nUUUDDD\n"


def test_enumerate_size_zero(run_cli):
    code, out, _ = run_cli(["enumerate", "--family", "seq1", "-n", "0"])
    assert code == 0
    assert out == "\n"


def test_enumerate_negative_size(run_cli):
    code, _, err = run_cli(["enumerate", "--family", "dyck", "-n", "-2"])
    assert code == 1
    assert "size must be nonnegative" in err


# -------------------------------------------------------------------- count

def test_count_single_family(run_cli):
    code, out, _ = run_cli(["count", "--family", "dyck", "-n", "4"])
    assert code == 0
    assert out == (
        "n catalan dyck status\n"
        "0 1 1 PASS\n"
        "1 1 1 PASS\n"
        "2 2 2 PASS\n"
        "3 5 5 PASS\n"
        "4 14 14 PASS\n"
    )


def test_count_table_header_lists_all_families(run_cli):
    code, out, _ = run_cli(["count", "-n", "0"])
    assert code == 0
    assert out.splitlines()[0] == (
        "n catalan dyck matching plane-tree perm-312 perm-321 perm-231 "
        "perm-213 perm-132 perm-123 seq1 seq2 staircase binary-tree "
        "polyomino status"
    )


def test_failed_allocation_is_one_error_line(run_cli, monkeypatch):
    # MemoryError carries no text of its own, so the message is fixed
    def enumerate_(n):
        raise MemoryError

    dyck = dataclasses.replace(FAMILIES["dyck"], enumerate=enumerate_)
    monkeypatch.setitem(FAMILIES, "dyck", dyck)
    for argv in (["count", "--family", "dyck"], ["enumerate", "--family", "dyck"]):
        code, _, err = run_cli(argv + ["-n", "4"])
        assert (code, err) == (1, "error: out of memory\n"), argv


# --------------------------------------------------------------- decompose

def test_decompose_prints_the_recursion_tree(run_cli, golden):
    code, out, _ = run_cli(["decompose", str(golden / "example1.pair")])
    assert code == 0
    assert out == (golden / "decompose_example1.txt").read_text()


def test_decompose_rejects_broken_pairs(run_cli):
    code, _, err = run_cli(["decompose", "--stdin"], stdin="n 2\n")
    assert code == 2
    assert "axiom" in err


@pytest.mark.parametrize(
    "text, witness",
    [((GOLDEN_DIR / "invalid.pair").read_text(), "(1, 3)"), ("n 2\n", "(1, 2)")],
    ids=["invalid.pair", "n 2"],
)
def test_decompose_names_the_witness_in_the_files_labels(run_cli, monkeypatch, text, witness):
    # the labels verify prints, from the one check decompose ran
    calls = count_calls(monkeypatch, relations.check_axioms)
    code, out, err = run_cli(["decompose", "--stdin"], stdin=text)
    assert (code, out) == (2, "")
    assert err == f"error: decompose: axiom (ii) fails at {witness}\n"
    assert len(calls) == 1
    _, out, _ = run_cli(["verify", "--stdin"], stdin=text)
    assert f"(ii) completeness: FAIL at {witness}\n" in out


@pytest.mark.parametrize("command", ["verify", "decompose"])
def test_non_decimal_header_size_is_unparsable(run_cli, command):
    code, out, err = run_cli([command, "--stdin"], stdin="n ²\n")
    assert code == 1
    assert out == ""
    assert err == "error: line 1: expected header 'n <size>'\n"


@pytest.mark.parametrize("command", ["verify", "decompose"])
def test_non_decimal_labels_are_unparsable(run_cli, command):
    # int() would read "1_0" as 10 and "+1" as 1
    code, out, err = run_cli([command, "--stdin"], stdin="n 12\nS 1_0 2\nR +1 2\n")
    assert (code, out) == (1, "")
    assert err == "error: line 2: labels must be integers\n"


@pytest.mark.parametrize("command", ["verify", "decompose"])
@pytest.mark.parametrize(
    "stdin, code, err",
    [
        ("n 2\n\x0cS 1 1\n", 2, "error: line 2: diagonal pair (1, 1)\n"),
        (
            "n 2\nS 1 2\x0bR 1 2\n",
            1,
            "error: line 2: expected 'S <i> <j>' or 'R <i> <j>'\n",
        ),
    ],
    ids=["form-feed", "vertical-tab"],
)
def test_only_universal_newlines_end_a_pair_file_line(run_cli, command, stdin, code, err):
    # str.splitlines breaks at \x0c and \x0b too; a pair file reads them as spacing
    assert run_cli([command, "--stdin"], stdin=stdin) == (code, "", err)


@pytest.mark.parametrize("command", ["verify", "decompose"])
def test_header_size_above_the_limit_is_unusable_input(run_cli, command):
    code, out, err = run_cli([command, "--stdin"], stdin="n 1048577\n")
    assert code == 1
    assert out == ""
    assert err == "error: line 1: size 1048577 exceeds the limit of 1048576\n"


NOT_UTF8 = b"n 1\n\xff\n"
UTF8_ERROR = (
    "error: 'utf-8' codec can't decode byte 0xff in position 4: "
    "invalid start byte\n"
)


@pytest.mark.parametrize("command", ["verify", "decompose"])
def test_file_that_is_not_utf8_is_unusable_input(run_cli, tmp_path, command):
    path = tmp_path / "bad.pair"
    path.write_bytes(NOT_UTF8)
    code, out, err = run_cli([command, str(path)])
    assert (code, out, err) == (1, "", UTF8_ERROR)


@pytest.mark.parametrize(
    "argv", [["verify", "--stdin"], ["encode", "--family", "dyck", "--stdin"]]
)
def test_stdin_that_is_not_utf8_is_unusable_input(run_cli, monkeypatch, argv):
    stdin = io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run_cli(argv)
    assert (code, out, err) == (1, "", UTF8_ERROR)


# the CLI as its own process, with real stdin and stdout pipes
CLI_PROCESS = [sys.executable, "-m", "catpairs.cli"]
PROCESS_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--stdin"],
        ["decompose", "--stdin"],
        ["encode", "--family", "dyck", "--stdin"],
    ],
)
def test_piped_stdin_that_is_not_utf8_is_named_as_in_a_file(argv):
    # a real stdin may pass bad bytes through as surrogates
    done = subprocess.run(
        CLI_PROCESS + argv, input=NOT_UTF8, capture_output=True, env=PROCESS_ENV,
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr.decode()) == (1, b"", UTF8_ERROR)


def test_a_closed_output_pipe_ends_quietly():
    # 4862 lines, 92 KB: more than a pipe holds, so the writer is still
    # writing when the reader leaves after the first line
    argv = ["enumerate", "--family", "dyck", "-n", "9"]
    with subprocess.Popen(
        CLI_PROCESS + argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=PROCESS_ENV,
    ) as proc:
        assert proc.stdout.readline() == b"UDUDUDUDUDUDUDUDUD\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (1, b"")


LIMIT = sys.get_int_max_str_digits()
LONG = "9" * (LIMIT + 1)  # one digit more than int() reads


@pytest.mark.parametrize(
    "argv, stdin, message",
    [
        (["verify", "--stdin"], f"n {LONG}\n", "line 1: the size"),
        (["verify", "--stdin"], f"n 3\nS 1 {LONG}\n", "line 2: a label"),
        (["decompose", "--stdin"], f"n 3\n\nR {LONG} 1\n", "line 3: a label"),
        (["encode", "--family", "seq1", "--stdin"], f"1 {LONG}", "a sequence entry"),
        (["encode", "--family", "seq2", "--stdin"], LONG, "a sequence entry"),
        (
            ["encode", "--family", "perm-312", "--stdin"],
            f"{LONG} 1",
            "a permutation entry",
        ),
        (
            ["convert", "--from", "perm-231", "--to", "dyck", "--stdin"],
            f"1 {LONG}",
            "a permutation entry",
        ),
        (["encode", "--family", "matching", "--stdin"], f"1-{LONG}", "an endpoint"),
        (
            ["convert", "--from", "matching", "--to", "dyck", "--stdin"],
            f"{LONG}-2",
            "an endpoint",
        ),
    ],
    ids=[
        "header", "bulk-label", "loop-label", "seq1", "seq2", "perm",
        "perm-convert", "matching", "matching-convert",
    ],
)
def test_numbers_too_long_for_int_are_unusable_input(run_cli, argv, stdin, message):
    # the interpreter-wide digit limit stays as it is
    code, out, err = run_cli(argv, stdin=stdin)
    assert (code, out) == (1, "")
    assert err == f"error: {message} has more than {LIMIT} digits\n"
    assert sys.get_int_max_str_digits() == LIMIT


@pytest.mark.parametrize(
    "tag, text, message",
    [
        ("perm-312", "2 1 ²", "a permutation is a list of positive integers"),
        ("seq1", "1 ²", "a sequence is a list of positive integers"),
        ("matching", "1-²", "token '1-²' is not of the form <l>-<r>"),
    ],
    ids=["perm", "seq1", "matching"],
)
def test_non_decimal_digits_in_values_are_unparsable(run_cli, tag, text, message):
    # "²" is a digit to str.isdigit, but not a decimal that int() reads
    code, out, err = run_cli(["encode", "--family", tag, text])
    assert (code, out, err) == (1, "", f"error: {message}\n")


# Lines of tokens over the pair-file alphabet.  A digit run has at most
# five digits, so a header declares at most 99999 labels.
pair_file_texts = st.builds(
    lambda lines, final: "\n".join(" ".join(tokens) for tokens in lines) + final,
    st.lists(
        st.lists(
            st.one_of(
                st.sampled_from(["n", "S", "R", ""]),
                st.text(alphabet="0123456789", min_size=1, max_size=5),
            ),
            max_size=4,
        ),
        max_size=8,
    ),
    st.sampled_from(["", "\n"]),
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["verify", "decompose"]), pair_file_texts)
def test_pair_file_commands_answer_every_text(command, text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)):
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, "--stdin"])
    assert code in (0, 1, 2)
    message = err.getvalue()
    assert message == "" or (message.endswith("\n") and message.count("\n") == 1)


# Every command over every family tag, with value text drawn from a small
# alphabet per family.  At most 16 characters keep every value at size 8
# or less, so no decode table gets slow to build; pair files keep their
# digit runs to 3 digits, so that no header declares a size slow to check.
COMMANDS = ("verify", "encode", "convert", "enumerate", "count", "decompose")
TAGS = list(FAMILIES) + list(ALIASES)


def value_alphabet(tag: str) -> str:
    tag = ALIASES.get(tag, tag)
    if tag.startswith(("perm-", "seq")):
        return "0123456789 -"
    return {
        "dyck": "UDX ",
        "matching": "1234567-x ",
        "plane-tree": "()x ",
        "staircase": "(e,)x ",
        "binary-tree": "(e,)x ",
        "polyomino": "NE;x ",
    }[tag]


pair_file_lines = st.lists(
    st.lists(
        st.one_of(
            st.sampled_from(["n", "S", "R", "x"]),
            st.text(alphabet="0123456789", min_size=1, max_size=3),
        ),
        max_size=4,
    ),
    max_size=6,
).map(lambda lines: "".join(" ".join(tokens) + "\n" for tokens in lines))


@st.composite
def cli_calls(draw):
    """(argv, text, mode).  Mode "stdin" sends text with --stdin,
    "argument" puts it in argv (through a file for the pair-file
    commands), and "none" leaves the input out."""
    command = draw(st.sampled_from(COMMANDS))
    tags = st.sampled_from(TAGS)
    argv = [command]
    if command in ("encode", "enumerate"):
        argv += ["--family", draw(tags)]
    elif command == "count" and draw(st.booleans()):
        argv += ["--family", draw(st.sampled_from(["all"] + TAGS))]
    elif command == "convert":
        argv += ["--from", draw(tags), "--to", draw(tags)]
    if command in ("enumerate", "count"):
        argv += ["-n", str(draw(st.integers(-2, 7)))]
        return argv, None, None
    # half the texts are a member of the family, or the pair file of a
    # valid pair with maybe one line dropped, so that the commands get past
    # their parsers too
    valid = draw(st.booleans())
    size = draw(st.integers(0, 5))
    if command in ("verify", "decompose"):
        if valid:
            canon = draw(st.sampled_from(enumerate_pairs(size)))
            lines = serialize_pair(canon.pair).splitlines()
            if len(lines) > 1 and draw(st.booleans()):
                del lines[draw(st.integers(1, len(lines) - 1))]
            text = "".join(line + "\n" for line in lines)
        else:
            text = draw(pair_file_lines)
    else:
        fam = family(argv[2])
        text = (
            fam.serialize(draw(st.sampled_from(fam.enumerate(size))))
            if valid
            else draw(st.text(alphabet=value_alphabet(argv[2]), max_size=16))
        )
    return argv, text, draw(st.sampled_from(["stdin", "argument", "none"]))


@settings(max_examples=300, deadline=None)
@given(cli_calls())
def test_every_command_answers_with_an_exit_code_and_one_line(call):
    argv, text, mode = call
    argv = list(argv)
    stdin = ""
    with tempfile.TemporaryDirectory() as folder:
        if mode == "stdin":
            argv.append("--stdin")
            stdin = text
        elif mode == "argument" and argv[0] in ("verify", "decompose"):
            path = Path(folder) / "pair.txt"
            path.write_text(text, encoding="utf-8")
            argv.append(str(path))
        elif mode == "argument":
            argv.append(text)
        out, err = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(stdin)):
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
    assert code in (0, 1, 2)
    message = err.getvalue()
    assert "Traceback" not in message
    if message.startswith("usage:"):  # argparse's own usage block
        assert code == 1
        assert ": error: " in message.splitlines()[-1]
    else:
        assert message == "" or (message.endswith("\n") and message.count("\n") == 1)


# ------------------------------------------------------------------- misc

def test_no_command_is_a_usage_error(run_cli):
    code, _, _ = run_cli([])
    assert code == 1


def test_unknown_command_is_a_usage_error(run_cli):
    code, _, _ = run_cli(["frobnicate"])
    assert code == 1


# ------------------------------------------------------ one check per value

def count_calls(monkeypatch, fn) -> list:
    """Rebind every catpairs module name that refers to *fn* to a wrapper
    that records each call's arguments; returns the record."""
    calls: list = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "catpairs" or name.startswith("catpairs."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


FAMILY_CHECKS = {
    "dyck": [structures.validate_dyck],
    "matching": [structures.validate_matching],
    "plane-tree": [structures.validate_plane_tree],
    **{
        f"perm-{pattern}": [structures.validate_perm, structures.avoids]
        for pattern in structures.PATTERNS
    },
    "seq1": [structures.validate_seq1],
    "seq2": [structures.validate_seq2],
    "staircase": [structures.validate_staircase],
    "binary-tree": [grammar.validate_grammar_tree],
    "polyomino": [grammar.validate_polyomino],
}


@pytest.mark.parametrize("tag", list(FAMILIES))
def test_a_value_meets_its_family_check_once(run_cli, monkeypatch, tag):
    # parse only scans, so encode and convert run the family check once,
    # as the library's convert does
    assert set(FAMILY_CHECKS) == set(FAMILIES)
    fam = family(tag)
    value = fam.enumerate(4)[5]
    text = fam.serialize(value)
    checks = [count_calls(monkeypatch, fn) for fn in FAMILY_CHECKS[tag]]
    for argv in (
        ["encode", "--family", tag, text],
        ["convert", "--from", tag, "--to", "dyck", text],
    ):
        code, _, err = run_cli(argv)
        assert (code, err) == (0, "")
        assert [len(calls) for calls in checks] == [1] * len(checks), argv
        for calls in checks:
            calls.clear()
    convert(value, tag, "dyck")
    assert [len(calls) for calls in checks] == [1] * len(checks)
