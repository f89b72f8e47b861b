"""README.md's fenced ``python`` blocks, run as doctests, and its CLI
examples, run in a shell."""

from __future__ import annotations

import doctest
import os
import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_python_blocks_print_what_they_show():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert blocks
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    for k, block in enumerate(blocks):
        test = parser.get_doctest(block, {}, f"README.md block {k}", str(README), 0)
        runner.run(test)
    assert runner.summarize(verbose=False).failed == 0


def cli_examples(text: str) -> list[tuple[str, str]]:
    """(command, output) of each ``$ catpair ...`` example in the ``## CLI``
    section's fenced ``sh`` block; a command runs on to its closing quote."""
    section = text.split("\n## CLI\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```$", section, re.M | re.S).group(1)
    examples = []
    for chunk in block.split("\n\n"):
        lines = chunk.strip("\n").split("\n")
        assert lines[0].startswith("$ "), chunk
        end = 1
        while "\n".join(lines[:end]).count('"') % 2:
            end += 1
        command = "\n".join(lines[:end])[2:]
        examples.append((command, "".join(line + "\n" for line in lines[end:])))
    return examples


def test_readme_cli_block_prints_what_it_shows():
    examples = cli_examples(README.read_text(encoding="utf-8"))
    assert len(examples) == 6
    cli = f'"{sys.executable}" -m catpairs.cli'
    src = str(README.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, *sys.path]))
    for command, expected in examples:
        done = subprocess.run(
            ["sh", "-c", re.sub(r"\bcatpair\b", cli, command)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (done.stdout, done.stderr) == (expected, ""), command
