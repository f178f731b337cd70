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
    spec = {"run_seconds": 1, "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower"}]}
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
