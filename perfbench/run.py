"""dunklcm benchmark: runs one workload's job list and prints its metrics.

    python3 perfbench/run.py --workload operators --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
With ``--trace 0`` the job list is run again and again while another pass
still fits in ``--seconds`` (at least once), and the end-to-end metrics,
medians over the passes scaled to the reference speed, are printed.  With
``--trace 1`` the list runs once untraced and once traced, and the
per-layer metrics are printed.  Every job's answer is checked either way.
The last line of stdout is the result object; the line before it, and a
file under ``.perfbench-out/``, record the environment and every job.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

sys.path.insert(0, str(HERE))

from jobs import JOB_LIMIT_S, run_job  # noqa: E402
from reference import REFERENCE_S, time_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# set-up is timed once before each pass, so its samples spread over the run
# as the passes do, and at least this many times
SETUP_MIN_REPEATS = 5
# within a pass the reference is timed before the first job and then before
# each job that starts at least this long after the last timing
GAUGE_EVERY_S = 1.0
# no job starts later than this many seconds after the process began, so a
# run exits well inside three minutes however slow the program becomes
RUN_DEADLINE_S = 150.0
THREADING_NOTE = (
    "jobs run one after another in one process and one thread; --jobs stays at 1 "
    "because catalog --jobs 2 measured slower than --jobs 1 (4.75 s vs 4.40 s)"
)

# what the CLI does before any command, timed in a fresh interpreter:
# import the package and build the root systems and groups it names
SETUP_PROBE = """
import json, sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from run import build_systems
start = time.perf_counter()
import dunklcm
build_systems(dunklcm, json.loads(sys.argv[3]))
print(time.perf_counter() - start)
"""


def build_systems(dunklcm, systems) -> None:
    for kind, *args in systems:
        if kind == "root_system":
            dunklcm.root_system(*args)
        else:
            dunklcm.ComplexReflectionGroup(*args)


def setup_probe(systems) -> float:
    """Import plus system builds, timed in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(HERE), str(SRC), json.dumps(systems)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_pass(main, jobs, deadline, tracer=None, gauges=None):
    """Runs every job once; appends reference timings to ``gauges`` if given.

    The pass's wall time is the sum of its jobs' times, so neither the
    reference nor the garbage collection between jobs counts in it.
    """
    outcomes = []
    last_gauge = -math.inf
    for job in jobs:
        if gauges is not None and time.perf_counter() - last_gauge >= GAUGE_EVERY_S:
            gc.collect()
            gauges.append(time_reference())
            last_gauge = time.perf_counter()
        if tracer is not None:
            tracer.job = job.id
        limit = min(JOB_LIMIT_S, deadline - time.perf_counter())
        outcomes.append(run_job(main, job, limit))
    return math.fsum(o.seconds for o in outcomes), outcomes


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "dunklcm").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "git_revision": _git_revision(),
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "seed": seed,
        "threads": THREADING_NOTE,
    }


def _git_revision() -> str | None:
    """HEAD of the checkout, read from .git directly; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def timed_run(cli, dunklcm, workload, seconds, deadline):
    """End-to-end metrics, tracing off.

    A set-up probe and a pass over the job list repeat while another round
    fits in ``seconds``.  Each round is scaled by ``REFERENCE_S`` over the
    median reference timing of its pass (see ``reference.py``); set-up and
    wall time are medians of the scaled rounds.  The first pass pays lazy
    initialisation that later passes do not, and the median leaves it out.
    """
    build_systems(dunklcm, workload.systems)
    setups, passes, scales = [], [], []
    start = time.perf_counter()
    while True:
        setups.append(setup_probe(workload.systems))
        gauges = []
        passes.append(run_pass(cli.main, workload.jobs, deadline, gauges=gauges))
        scales.append(REFERENCE_S / statistics.median(gauges))
        now = time.perf_counter()
        round_s = (now - start) / len(passes)
        if now - start + round_s > seconds or now + round_s > deadline:
            break
    while len(setups) < SETUP_MIN_REPEATS:
        # a short run: the extra set-up samples take the last pass's scale
        setups.append(setup_probe(workload.systems))
        scales.append(scales[-1])
    outcomes = [o for _, pass_outcomes in passes for o in pass_outcomes]
    per_job = [
        statistics.median(outs[i].seconds * scale for (_, outs), scale in zip(passes, scales))
        for i in range(len(workload.jobs))
    ]
    metrics = {
        "setup_s": (statistics.median(t * scale for t, scale in zip(setups, scales)), "s"),
        "wall_s": (statistics.median(wall * scale for (wall, _), scale in zip(passes, scales)), "s"),
        "job_geomean_s": (math.exp(statistics.fmean(math.log(max(t, 1e-9)) for t in per_job)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "passes": len(passes),
        # unscaled figures, as the clock read them
        "pass_wall_s": [wall for wall, _ in passes],
        "setup_samples_s": setups,
        "unscaled_wall_s": statistics.median(wall for wall, _ in passes),
        "unscaled_setup_s": statistics.median(setups),
        "scales": scales,
        "job_s": {job.id: t for job, t in zip(workload.jobs, per_job)},
    }
    return outcomes, metrics, detail


def traced_run(cli, dunklcm, workload, deadline, spans_path):
    """Per-layer metrics: setup and one pass traced, one pass untraced."""
    from tracing import PER_LAYER, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        tracer.job = "setup"
        build_systems(dunklcm, workload.systems)
    finally:
        tracer.uninstall()
    plain_wall, plain = run_pass(cli.main, workload.jobs, deadline)
    tracer.install()
    try:
        # cli.main is read after install, so the traced pass calls the wrapper
        traced_wall, traced = run_pass(cli.main, workload.jobs, deadline, tracer)
    finally:
        tracer.uninstall()
    for a, b in zip(plain, traced):
        if b.failure is None and (a.code, a.stdout) != (b.code, b.stdout):
            b.failure = "traced output differs from the untraced one"
    values = tracer.metrics(traced_wall / plain_wall)
    units = dict(PER_LAYER)
    metrics = {name: (values[name], units[name]) for name, _ in PER_LAYER}
    tracer.write_spans(spans_path, {"workload": workload.name})
    detail = {
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return plain + traced, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_DEADLINE_S

    if not (SRC / "dunklcm" / "__init__.py").is_file():
        print(f"perfbench: no dunklcm package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the orbit cap must be the program's default, whatever the caller's shell says
    os.environ.pop("DUNKLCM_ORBIT_CAP", None)
    import dunklcm
    import dunklcm.cli as cli

    workload = WORKLOADS[args.workload](args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        outcomes, metrics, detail = traced_run(cli, dunklcm, workload, deadline, OUT_DIR / f"{stem}.spans.jsonl")
    else:
        outcomes, metrics, detail = timed_run(cli, dunklcm, workload, args.seconds, deadline)

    failed = sum(1 for o in outcomes if o.failure)
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": workload.name,
        "environment": environment(args.seed),
        "jobs": len(workload.jobs),
        "failures": [{"job": o.job.id, "why": o.failure} for o in outcomes if o.failure],
        **detail,
    }
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
