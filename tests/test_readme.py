"""Every Python example in the README runs as a doctest."""

import doctest
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()

# the body of each ```python block, the fences left out so that the closing
# one is not read as expected output; keyed by the body's first line
BLOCKS = {
    TEXT.count("\n", 0, m.start(1)) + 1: m.group(1)
    for m in re.finditer(r"^```python\n(.*?)^```", TEXT, re.DOTALL | re.MULTILINE)
}


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("line", sorted(BLOCKS), ids=lambda line: f"README.md:{line}")
def test_readme_example_runs(line):
    test = doctest.DocTestParser().get_doctest(
        BLOCKS[line], {}, f"README.md:{line}", str(README), line - 1
    )
    assert test.examples
    report = []
    result = doctest.DocTestRunner().run(test, out=report.append)
    assert result.failed == 0, "".join(report)
