"""tools/same_outputs.py: the argvs it runs and what it captures of each."""

import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import same_outputs  # noqa: E402
from test_readme import example_lines  # noqa: E402


def test_readme_argvs_are_the_example_lines():
    assert same_outputs.readme_argvs() == [shlex.split(line.partition("#")[0])[1:] for line in example_lines()]


def test_each_side_captures_code_stdout_and_stderr():
    ok = ["check", "--family", "A", "--rank", "3", "--subgraph", "A1", "--c", "1/2", "--direct"]
    got = same_outputs.run_side(ROOT, [ok, ["check", "--bogus"], ["check", "--family", "A", "--rank", "3"]])
    assert [r["code"] for r in got] == [0, 2, 2]
    assert '"direct_invariant": true' in got[0]["stdout"] and got[0]["stderr"] == ""
    assert "--bogus" in got[1]["stderr"] and got[1]["stdout"] == ""
