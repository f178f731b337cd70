"""Every `dunklcm ...` line of the README's Examples block runs as documented.

A line exits 0 unless its comment says `# exit N`; any text quoted in the
comment must appear on stdout.
"""

import re
import shlex
from pathlib import Path

import pytest

from dunklcm.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def example_lines():
    text = README.read_text(encoding="utf-8")
    block = text.split("### Examples", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.strip() for line in block.splitlines() if line.strip().startswith("dunklcm ")]


@pytest.mark.parametrize("line", example_lines())
def test_readme_example(capsys, line):
    command, _, comment = line.partition("#")
    code = main(shlex.split(command)[1:])
    stdout = capsys.readouterr().out
    expected = re.search(r"\bexit (\d+)", comment)
    assert code == (int(expected.group(1)) if expected else 0)
    for quoted in re.findall(r'"([^"]*)"', comment):
        assert quoted in stdout


def test_readme_has_examples():
    assert len(example_lines()) >= 10
