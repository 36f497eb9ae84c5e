"""Every Python example in the README runs as a doctest, and every
``huckelpascal`` command line of its shell examples runs and exits 0."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from huckelpascal.cli import main

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


def _cli_lines() -> dict:
    """Each ``huckelpascal ...`` line of a ```sh block, keyed by its line
    number."""
    lines, inside = {}, False
    for number, line in enumerate(TEXT.splitlines(), 1):
        if line.startswith("```"):
            inside = line == "```sh"
        elif inside and line.startswith("huckelpascal "):
            lines[number] = line
    return lines


COMMANDS = _cli_lines()


def test_readme_has_cli_examples():
    assert len(COMMANDS) >= 10


@pytest.mark.parametrize("line", sorted(COMMANDS), ids=lambda line: f"README.md:{line}")
def test_readme_command_runs(line, tmp_path, monkeypatch, capsys):
    # a "# -> X" comment gives the whole output; any other comment is prose
    command, _, comment = COMMANDS[line].partition("#")
    monkeypatch.chdir(tmp_path)  # for the files --json writes
    assert main(shlex.split(command)[1:]) == 0
    out = capsys.readouterr().out
    if comment.startswith(" -> "):
        assert out.strip() == comment[len(" -> "):].strip()
