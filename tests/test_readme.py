"""README.md's fenced ``python`` blocks, run as doctests."""

from __future__ import annotations

import doctest
import re
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
