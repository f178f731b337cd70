"""Paired benchmark runs: a parent revision against the working tree.

    python3 tools/bench_pairs.py --workload operators --pairs 10 --first-seed 201 \\
        --out BENCH_10.json [--parent REV]

The parent defaults to HEAD when the working tree has uncommitted changes to
tracked files, else to HEAD~1.  It is exported with ``git archive`` into a
temporary directory, removed afterwards, and ``perfbench/run.py --trace 0``
of each side runs for the ``run_seconds`` of ``BENCHMARK.json`` in
alternating order: parent first in even pairs, change first in odd ones, and
one seed per pair, the same on both sides.  For every end-to-end metric of
``BENCHMARK.json`` it records both sides' values, medians and quartiles, the
pairs the change won, and whether the gain is clear: won in at least nine
of ten pairs, with the median better by more than the parent's interquartile
range.  It also records whether the change is within the metric's ``bound``,
taken as relative (its median no worse than the parent's by more than that
share), and whether the metric is unresolved: the parent's interquartile
range, relative to its median, wider than the bound.  A row per workload
goes into ``--out``, replacing an earlier row of the same workload; the file
also names the seeds, both revisions and the machine.  If one run exits
nonzero, the side, the seed and the end of that run's stderr are printed and
the script exits 1 without writing a row.  Run from the root of the
repository; standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


STDERR_TAIL_LINES = 20


class RunFailed(Exception):
    """One perfbench run exited nonzero."""

    def __init__(self, returncode: int, stderr: str):
        super().__init__(f"exited {returncode}")
        self.returncode = returncode
        self.stderr_tail = "\n".join(stderr.splitlines()[-STDERR_TAIL_LINES:])


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(record, result) of one perfbench run in checkout; RunFailed if it exits nonzero."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if done.returncode:
        raise RunFailed(done.returncode, done.stderr)
    record_line, result_line = done.stdout.strip().splitlines()[-2:]
    return json.loads(record_line)["record"], json.loads(result_line)


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(metrics: list[dict], parent_runs: list[dict], change_runs: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        before = [r["metrics"][name]["value"] for r in parent_runs]
        after = [r["metrics"][name]["value"] for r in change_runs]
        wins = sum((a < b) if lower else (a > b) for a, b in zip(after, before))
        p, c = summary(before), summary(after)
        gain = (p["median"] - c["median"]) if lower else (c["median"] - p["median"])
        bound = metric["bound"]
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": p,
            "change": c,
            "relative_change": c["median"] / p["median"] - 1,
            "change_wins": wins,
            "clear_gain": wins >= 0.9 * len(before) and gain > p["q3"] - p["q1"],
            "within_bound": gain >= -bound * p["median"],
            "unresolved": p["q3"] - p["q1"] > bound * p["median"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--parent", help="parent revision (default HEAD with uncommitted changes, else HEAD~1)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    uncommitted = bool(git("status", "--porcelain", "--untracked-files=no"))
    parent_rev = git("rev-parse", args.parent or ("HEAD" if uncommitted else "HEAD~1"))
    seeds = [args.first_seed + i for i in range(args.pairs)]
    runs: dict[str, list] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_dir = Path(tmp)
        archive = subprocess.run(["git", "archive", "--format=tar", parent_rev], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_dir)], input=archive, check=True)
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                checkout = parent_dir if side == "parent" else ROOT
                try:
                    runs[side].append(run_bench(checkout, args.workload, seed, seconds))
                except RunFailed as exc:
                    print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: perfbench/run.py {exc}; "
                          f"no row written. Its stderr ends:\n{exc.stderr_tail}", file=sys.stderr)
                    return 1
                result = runs[side][-1][1]
                print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: "
                      f"wall_s {result['metrics']['wall_s']['value']:.4f}, failed {result['failed']}",
                      file=sys.stderr)

    records = {side: [record for record, _ in pairs] for side, pairs in runs.items()}
    results = {side: [result for _, result in pairs] for side, pairs in runs.items()}
    env = records["change"][0]["environment"]
    row = {
        "workload": args.workload,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed S --seconds {seconds} --trace 0",
        "pairs": args.pairs,
        "seeds": seeds,
        "order": "parent first in even pairs (counting from 0), change first in odd ones",
        "parent": {"revision": parent_rev, "source_sha256": records["parent"][0]["environment"]["source_sha256"]},
        "change": {
            "base_revision": git("rev-parse", "HEAD"),
            "uncommitted_changes": uncommitted,
            "source_sha256": env["source_sha256"],
        },
        "machine": {key: env[key] for key in ("python", "nproc", "cpu_model")},
        "failed_jobs": {side: sum(r["failed"] for r in rs) for side, rs in results.items()},
        "metrics": compare(spec["end_to_end"], results["parent"], results["change"]),
    }
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"rows": []}
    doc["rows"] = [r for r in doc["rows"] if r["workload"] != args.workload] + [row]
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for name, m in row["metrics"].items():
        print(f"{args.workload} {name}: {m['parent']['median']:.4g} -> {m['change']['median']:.4g} "
              f"({m['relative_change']:+.1%}), change better {m['change_wins']}/{args.pairs}, "
              f"clear gain {m['clear_gain']}, within bound {m['within_bound']}, unresolved {m['unresolved']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
