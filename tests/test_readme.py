"""Every `dunklcm ...` line of the README's Examples block runs as documented.

A line exits 0 unless its comment says `# exit N`; any text quoted in the
comment must appear on stdout.  The Python block of the Library quick tour
runs too: the solved values of its real stratum are the ones its comment
shows, and its G(4,2,3) flat solves to c0 = c1 = 1/2 and passes the
direct test there.
"""

import ast
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


def quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("## Library quick tour", 1)[1].split("```python", 1)[1].split("```", 1)[0]


def test_readme_quick_tour(capsys):
    code = quick_tour()
    namespace: dict = {}
    exec(compile(code, "README.md quick tour", "exec"), namespace)
    assert capsys.readouterr().out.strip()
    comment = next(line.partition("#")[2] for line in code.splitlines() if line.startswith("solved ="))
    status = re.search(r"'status': '(\w+)'", comment).group(1)
    values = ast.literal_eval(re.search(r"'values': (\{[^}]*\})", comment).group(1))
    assert (status, values) == ("unique", {"c1": "1/2", "c2": "0"})
    assert (namespace["solved"]["status"], namespace["solved"]["values"]) == (status, values)
    solved_flat = namespace["solved_flat"]
    assert (solved_flat["status"], solved_flat["values"]) == ("unique", {"c0": "1/2", "c1": "1/2"})
    assert namespace["violations"] == []
