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
# one is not read as expected output, with the README line the body starts
# on for doctest's failure messages; a block's test is named by its index
BLOCKS = [
    (TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```", TEXT, re.DOTALL | re.MULTILINE)
]


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("line, body", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(line, body):
    test = doctest.DocTestParser().get_doctest(
        body, {}, f"README.md:{line}", str(README), line - 1
    )
    assert test.examples
    report = []
    result = doctest.DocTestRunner().run(test, out=report.append)
    assert result.failed == 0, "".join(report)


def _cli_lines() -> list[tuple[str, str]]:
    """Each ``huckelpascal ...`` line of a ```sh block as its command and
    its comment; a command's test is named by the command."""
    lines, inside = [], False
    for line in TEXT.splitlines():
        if line.startswith("```"):
            inside = line == "```sh"
        elif inside and line.startswith("huckelpascal "):
            command, _, comment = line.partition("#")
            lines.append((command.strip(), comment))
    return lines


COMMANDS = _cli_lines()


def test_readme_has_cli_examples():
    assert len(COMMANDS) >= 10
    # the commands name their tests, so no two may be the same
    commands = [command for command, _ in COMMANDS]
    assert len(set(commands)) == len(commands)


@pytest.mark.parametrize("command, comment", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_readme_command_runs(command, comment, tmp_path, monkeypatch, capsys):
    # a "# -> X" comment gives the whole output; any other comment is prose
    monkeypatch.chdir(tmp_path)  # for the files --json writes
    assert main(shlex.split(command)[1:]) == 0
    out = capsys.readouterr().out
    if comment.startswith(" -> "):
        assert out.strip() == comment[len(" -> "):].strip()
