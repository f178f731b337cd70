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


def test_both_sides_run_the_fixed_argvs(monkeypatch, capsys):
    runs = []

    def record(tree, argvs):
        runs.append(argvs)
        return [{"code": 0, "stdout": "", "stderr": ""} for _ in argvs]

    monkeypatch.setattr(same_outputs, "run_side", record)
    assert same_outputs.main(["--parent", "HEAD", "--seeds", "1"]) == 0
    fixed = same_outputs.FIXED_ARGVS
    assert runs == [same_outputs.all_argvs([1])] * 2
    assert runs[0][-len(fixed):] == fixed
    assert "argvs give the same stdout" in capsys.readouterr().out


def test_fixed_argvs_are_commands_that_succeed():
    # a mistyped argv would fail alike on both sides and hide behind "same outputs"
    got = same_outputs.run_side(ROOT, same_outputs.FIXED_ARGVS)
    assert [(r["code"], r["stderr"]) for r in got] == [(0, "")] * len(same_outputs.FIXED_ARGVS)
