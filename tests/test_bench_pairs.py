"""tools/bench_pairs.py against a stub checkout whose perfbench/run.py is scripted."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs  # noqa: E402

GOOD_RUN = """import json
print(json.dumps({"record": {"environment": {"source_sha256": "s", "python": "3", "nproc": 1, "cpu_model": "stub"}}}))
print(json.dumps({"failed": 0, "metrics": {"wall_s": {"value": 1.0}}}))
"""

FAILING_RUN = """import sys
for i in range(30):
    print(f"stub stderr line {i}", file=sys.stderr)
sys.exit(3)
"""


@pytest.fixture
def stub_checkout(tmp_path, monkeypatch):
    """A git repository with a benchmark spec and a good run.py committed."""
    root = tmp_path / "repo"
    (root / "perfbench").mkdir(parents=True)
    spec = {"run_seconds": 1, "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]}
    (root / "BENCHMARK.json").write_text(json.dumps(spec))
    (root / "perfbench" / "run.py").write_text(GOOD_RUN)
    git = ["git", "-c", "user.name=stub", "-c", "user.email=stub@example.invalid"]
    subprocess.run([*git, "init", "-q"], cwd=root, check=True)
    subprocess.run([*git, "add", "-A"], cwd=root, check=True)
    subprocess.run([*git, "commit", "-q", "-m", "stub"], cwd=root, check=True)
    monkeypatch.setattr(bench_pairs, "ROOT", root)
    return root


def test_failed_run_reports_side_seed_and_stderr_tail(stub_checkout, tmp_path, capsys):
    # the uncommitted run.py is the change side, and HEAD is the parent
    (stub_checkout / "perfbench" / "run.py").write_text(FAILING_RUN)
    out = tmp_path / "BENCH.json"
    code = bench_pairs.main(["--workload", "strata", "--pairs", "2", "--first-seed", "7", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert not out.exists()
    assert "pair 1/2 seed 7 parent: wall_s 1.0000" in err
    assert "pair 1/2 seed 7 change: perfbench/run.py exited 3; no row written" in err
    assert "stub stderr line 29" in err and "stub stderr line 10" in err
    assert "stub stderr line 9\n" not in err


def test_successful_pairs_write_a_row(stub_checkout, tmp_path, capsys):
    (stub_checkout / "perfbench" / "run.py").write_text(GOOD_RUN + "# edited\n")
    out = tmp_path / "BENCH.json"
    code = bench_pairs.main(["--workload", "strata", "--pairs", "2", "--first-seed", "7", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    (row,) = json.loads(out.read_text())["rows"]
    assert row["seeds"] == [7, 8] and row["failed_jobs"] == {"parent": 0, "change": 0}
    assert row["metrics"]["wall_s"]["change_wins"] == 0
    assert row["metrics"]["wall_s"]["within_bound"] is True
    assert row["metrics"]["wall_s"]["unresolved"] is False


def runs(values, name="wall_s"):
    return [{"metrics": {name: {"value": v}}} for v in values]


@pytest.mark.parametrize("better,parent,change,within,unresolved", [
    # medians 10 -> 12: 20 % worse, inside a 25 % bound; quartiles 9.75 and 10.25
    ("lower", [9, 10, 10, 11], [11, 12, 12, 13], True, False),
    # 10 -> 13: 30 % worse
    ("lower", [9, 10, 10, 11], [12, 13, 13, 14], False, False),
    # the parent's interquartile range, 9 of a median 10, is wider than the bound
    ("lower", [4, 6, 14, 16], [4, 6, 14, 16], True, True),
    # higher is better: 10 -> 7 is 30 % worse, 10 -> 8 only 20 %
    ("higher", [9, 10, 10, 11], [6, 7, 7, 8], False, False),
    ("higher", [9, 10, 10, 11], [7, 8, 8, 9], True, False),
], ids=["lower-within", "lower-beyond", "lower-unresolved", "higher-beyond", "higher-within"])
def test_bound_and_spread_per_metric(better, parent, change, within, unresolved):
    metric = {"name": "wall_s", "unit": "s", "better": better, "bound": 0.25}
    got = bench_pairs.compare([metric], runs(parent), runs(change))["wall_s"]
    assert (got["within_bound"], got["unresolved"]) == (within, unresolved)
