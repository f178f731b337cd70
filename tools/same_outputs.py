"""Same outputs: every benchmark job and README example on a parent revision and on the working tree.

    python3 tools/same_outputs.py [--parent REV] [--seeds 1,3,7]

The argvs are every job of every workload in ``perfbench/workloads.py`` at
each seed, then every ``dunklcm ...`` line of the README's Examples block,
then the fixed list FIXED_ARGVS, all read from the working tree, so both
sides run the same list.  The
parent defaults to HEAD when the working tree has uncommitted changes to
tracked files, else to HEAD~1; it is exported with ``git archive`` into a
temporary directory, removed afterwards.  Each side runs the whole list in
one child interpreter, in order, through ``dunklcm.cli.main`` with its own
``src`` first on the path, capturing stdout, stderr and the exit code (an
argparse exit counts as its code).  Every argv whose stdout, stderr or exit
code differs is printed with both sides' values, and the script exits 1 if
there is one, else 0.  Run from anywhere; standard library only.
"""

from __future__ import annotations

import argparse
import json
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# run by each side's interpreter: argvs as JSON on stdin, one result per argv as JSON on stdout
CHILD = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from dunklcm.cli import main
out = []
for argv in json.load(sys.stdin):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    out.append({"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()})
json.dump(out, sys.__stdout__)
"""


# commands that neither the workloads nor the README run: the gauge residues
# of every class of larger systems, the restriction identity on whole-I
# strata (where X meets span(Phi) in 0) and on strata of E6 and E8, and a
# sign-twisted block stratum
FIXED_ARGVS = [
    ["verify", "gauge", "--family", "B", "--rank", "3"],
    ["verify", "gauge", "--family", "D", "--rank", "5"],
    ["verify", "gauge", "--family", "E6"],
    ["verify", "gauge", "--family", "E7"],
    ["verify", "gauge", "--family", "E8"],
    ["verify", "restriction", "--family", "A", "--rank", "3", "--subgraph", "A3"],
    ["verify", "restriction", "--family", "G2", "--subgraph", "G2"],
    ["verify", "restriction", "--family", "E6", "--subgraph", "E6"],
    ["verify", "restriction", "--family", "E6", "--subgraph", "A2"],
    ["verify", "restriction", "--family", "E8", "--subgraph", "D4", "--degree", "8"],
    ["restrict", "--family", "D", "--rank", "4", "--subgraph", "D2^2:k=2,m=2,eps=-1"],
]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def job_argvs(seeds: list[int]) -> list[list[str]]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    return [job.argv for seed in seeds for name in sorted(WORKLOADS) for job in WORKLOADS[name](seed).jobs]


def readme_argvs() -> list[list[str]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("### Examples", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = (line.partition("#")[0].strip() for line in block.splitlines())
    return [shlex.split(line)[1:] for line in lines if line.startswith("dunklcm ")]


def all_argvs(seeds: list[int]) -> list[list[str]]:
    return job_argvs(seeds) + readme_argvs() + FIXED_ARGVS


def run_side(tree: Path, argvs: list[list[str]]) -> list[dict]:
    done = subprocess.run([sys.executable, "-c", CHILD, str(tree / "src")], input=json.dumps(argvs),
                          capture_output=True, text=True, cwd=tree)
    if done.returncode:
        raise SystemExit(f"{tree}: the child interpreter exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="parent revision (default HEAD with uncommitted changes, else HEAD~1)")
    parser.add_argument("--seeds", default="1,3,7", help="comma-separated workload seeds (1,3,7)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    uncommitted = bool(git("status", "--porcelain", "--untracked-files=no"))
    parent_rev = git("rev-parse", args.parent or ("HEAD" if uncommitted else "HEAD~1"))
    argvs = all_argvs(seeds)
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        archive = subprocess.run(["git", "archive", "--format=tar", parent_rev], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        before = run_side(Path(tmp), argvs)
    after = run_side(ROOT, argvs)

    differ = 0
    for argv, old, new in zip(argvs, before, after, strict=True):
        fields = [key for key in ("code", "stdout", "stderr") if old[key] != new[key]]
        if fields:
            differ += 1
            print(f"differs in {', '.join(fields)}: dunklcm {shlex.join(argv)}")
            for key in fields:
                print(f"  parent {key}: {old[key]!r}\n  change {key}: {new[key]!r}")
    print(f"{len(argvs) - differ} of {len(argvs)} argvs give the same stdout, stderr and exit code "
          f"at {parent_rev[:12]} and in the working tree (seeds {args.seeds})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
