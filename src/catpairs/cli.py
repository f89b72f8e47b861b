"""Command-line front end: verify, encode, convert, enumerate, count, decompose.

Exit codes: 0 success; 1 for unusable input (bad flags, unparsable or
non-UTF-8 text, pair files above the size limit, numbers with more digits
than int() reads, sizes beyond the decode-table cap, a closed stdin) or a
failed memory allocation, or an output pipe closed by its reader or a
stdout closed from the start (nothing is printed then); 2 for well-formed
input that fails validation (broken axioms, invalid structure values).
All output is deterministic, newline-terminated text.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from pathlib import Path

from . import trees
from .bijections import ALIASES, FAMILIES, convert, family, pair_to_tree
from .errors import InvariantViolation, ParseError, SizeLimitError
from .pairfile import parse_pair, serialize_pair
from .relations import catalan

_AXIOM_LINES = (
    ("i:S", "(i) S strict order"),
    ("i:R", "(i) R strict order"),
    ("ii", "(ii) completeness"),
    ("iii", "(iii) disjointness"),
    ("iv", "(iv) compatibility"),
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this front end reserves 2
    for semantic failures, so usage errors are remapped to 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _family_tags() -> list[str]:
    return list(FAMILIES) + list(ALIASES)


@cache  # one parser per process: argparse reads sys.stdout/stderr per call
def _build_parser() -> _Parser:
    parser = _Parser(prog="catpair", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    verify = commands.add_parser(
        "verify", help="check a pair file against the four axioms"
    )
    _add_file_input(verify)
    verify.set_defaults(func=cmd_verify)

    encode = commands.add_parser(
        "encode", help="print the pair file for a structure value"
    )
    encode.add_argument("--family", required=True, choices=_family_tags())
    _add_value_input(encode)
    encode.set_defaults(func=cmd_encode)

    conv = commands.add_parser(
        "convert", help="translate a value between families"
    )
    conv.add_argument("--from", dest="src", required=True, choices=_family_tags())
    conv.add_argument("--to", dest="dst", required=True, choices=_family_tags())
    _add_value_input(conv)
    conv.set_defaults(func=cmd_convert)

    enum = commands.add_parser(
        "enumerate", help="list every value of a family at one size"
    )
    enum.add_argument("--family", required=True, choices=_family_tags())
    enum.add_argument("-n", type=int, required=True)
    enum.set_defaults(func=cmd_enumerate)

    count = commands.add_parser(
        "count", help="tabulate family counts for sizes 0..N"
    )
    count.add_argument(
        "--family", default="all", choices=["all"] + _family_tags()
    )
    count.add_argument("-n", type=int, required=True)
    count.set_defaults(func=cmd_count)

    decompose = commands.add_parser(
        "decompose", help="print a pair's recursive decomposition tree"
    )
    _add_file_input(decompose)
    decompose.set_defaults(func=cmd_decompose)

    return parser


def _add_file_input(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("path", nargs="?", help="pair file (omit with --stdin)")
    sub.add_argument(
        "--stdin", action="store_true", help="read the pair file from stdin"
    )


def _add_value_input(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("value", nargs="?", help="structure text (omit with --stdin)")
    sub.add_argument(
        "--stdin", action="store_true", help="read the value from stdin"
    )


def _read_stdin() -> str:
    """All of stdin, decoded as strictly as a file: under surrogateescape
    ``sys.stdin`` lets bytes that are not UTF-8 through, so its text is
    encoded back and decoded again, raising UnicodeDecodeError on them.
    ``sys.stdin`` is None when the process started with fd 0 closed."""
    if sys.stdin is None:
        raise OSError("stdin is closed")
    return sys.stdin.read().encode("utf-8", "surrogateescape").decode("utf-8")


def _read_file(args: argparse.Namespace) -> str:
    if args.stdin:
        return _read_stdin()
    if args.path is None:
        raise ParseError("expected a file path or --stdin")
    return Path(args.path).read_text(encoding="utf-8")


def _read_value(args: argparse.Namespace) -> str:
    if args.stdin:
        return _read_stdin()
    if args.value is None:
        raise ParseError("expected a value argument or --stdin")
    return args.value


def cmd_verify(args: argparse.Namespace) -> int:
    pair = parse_pair(_read_file(args))
    report = pair.report()
    witnesses = dict(report.violations)
    for axiom, label in _AXIOM_LINES:
        if axiom in witnesses:
            print(f"{label}: FAIL at {_one_based(witnesses[axiom])}")
        else:
            print(f"{label}: PASS")
    print("valid" if report.valid else "invalid")
    return 0 if report.valid else 2


def cmd_encode(args: argparse.Namespace) -> int:
    fam = family(args.family)
    value = fam.parse(_read_value(args))
    print(serialize_pair(fam.encode(value)), end="")
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    fam_src = family(args.src)
    fam_dst = family(args.dst)
    value = fam_src.parse(_read_value(args))
    print(fam_dst.serialize(convert(value, fam_src.tag, fam_dst.tag)))
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise ParseError("size must be nonnegative")
    fam = family(args.family)
    for value in fam.enumerate(args.n):
        print(fam.serialize(value))
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise ParseError("size must be nonnegative")
    tags = list(FAMILIES) if args.family == "all" else [family(args.family).tag]
    print(" ".join(["n", "catalan"] + tags + ["status"]))
    for n in range(args.n + 1):
        expected = catalan(n)
        counts = [len(FAMILIES[tag].enumerate(n)) for tag in tags]
        status = "PASS" if all(c == expected for c in counts) else "FAIL"
        print(" ".join([str(n), str(expected)] + [str(c) for c in counts] + [status]))
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    pair = parse_pair(_read_file(args))
    try:
        tree = pair_to_tree(pair)
    except InvariantViolation as exc:  # the check's own witness, relabelled
        raise InvariantViolation(
            f"decompose: axiom ({exc.axiom}) fails at {_one_based(exc.witness)}"
        ) from None
    print(trees.serialize(tree))
    return 0


def _one_based(witness: tuple[int, ...]) -> tuple[int, ...]:
    """A witness in the pair file's 1-based labels."""
    return tuple(i + 1 for i in witness)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        if sys.stdout is None:  # fd 1 was closed at start, and print wrote nothing
            return 1
        sys.stdout.flush()  # so that a closed pipe is met here at the latest
        return code
    except BrokenPipeError:
        # the reader left: say nothing, and send what is still buffered,
        # and the interpreter's last flush, to os.devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ParseError, SizeLimitError, OSError, UnicodeDecodeError) as exc:
        # before ValueError, which ParseError and UnicodeDecodeError subclass
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError:  # its own text is empty
        sys.stderr.write("error: out of memory\n")
        return 1
    except (InvariantViolation, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
