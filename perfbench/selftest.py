"""Tests of the benchmark itself: the answer checker, the job time limit,
and what the traced run records.

    python3 -m pytest perfbench/selftest.py                 # about a minute
    python3 -m pytest perfbench/selftest.py -k "not trace"  # a few seconds

The file name keeps these tests out of the package's own test suite.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import dunklcm.cli as cli  # noqa: E402
from jobs import check, run_job  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

# a cheap job of each workload and a wrong answer for it:
# workload, job id, output path, wrong value
PERTURBED = [
    ("operators", "commutativity-B3-d4", "violations", 1),
    ("strata", "solve-H4-A1^2", "values.c", "1/3"),
    ("operators", "direct-G2-verts:1,2-off", "direct_invariant", True),
    ("operators", "check-G(3,3,2)-1", "invariant", False),
]

# per workload, the per-layer counts and times that must be nonzero: the
# entry points each workload is chosen to exercise
MOSTLY_ON = {
    "operators": [
        "dunkl.apply.calls", "dunkl.reflect_poly.calls",
        "polynomials.mul.calls", "polynomials.add.calls", "polynomials.divide_by_linear.calls",
        "polynomials.substitute.calls",
        "invariance.solve_multiplicities.calls", "invariance.criterion_invariant.calls",
        "invariance.direct_invariance_violations.calls",
        "restriction.restricted_configuration.calls", "restriction.restriction_defects.calls",
        "fields.mul.Q.calls", "fields.mul.quadratic.calls", "fields.add.Q.calls",
        "fields.inverse.Q.calls",
        "complexgroups.apply.calls", "complexgroups.subspace_orbit.total_s",
        "complexgroups.orbit_members", "complexgroups.direct_ideal_violations.total_s",
        "fields.mul.cyclotomic.calls", "fields.add.cyclotomic.calls",
        "fields.inverse.cyclotomic.calls",
    ],
    "strata": [
        "linalg.rref.calls", "rootsystems.root_system.total_s",
        "rootsystems.orbit_of_subspace.calls", "rootsystems.orbit_members",
        "rootsystems.subspace.calls", "rootsystems.enumerate_parabolic_strata.total_s",
        "rootsystems.generalized_coxeter_number.calls",
        "invariance.solve_multiplicities.calls", "invariance.criterion_invariant.calls",
        "restriction.restricted_configuration.calls", "restriction.gauge_defects.calls",
        "restriction.catalog_row_result.calls", "cli.resolve_subgraph.calls",
        "fields.mul.Q.calls", "fields.mul.quadratic.calls",
    ],
}


def _set(doc, path: str, value) -> None:
    *parents, last = path.split(".")
    for part in parents:
        doc = doc[part]
    doc[last] = value


@pytest.mark.parametrize("workload,job_id,path,wrong", PERTURBED)
def test_wrong_answer_counts_as_failed(workload, job_id, path, wrong):
    job = next(j for j in WORKLOADS[workload](7).jobs if j.id == job_id)
    outcome = run_job(cli.main, job)
    assert outcome.failure is None, outcome.failure

    doc = json.loads(outcome.stdout)
    _set(doc, path, wrong)
    assert check(job, outcome.code, json.dumps(doc)) is not None
    assert check(job, 1 - job.code, outcome.stdout) is not None
    assert check(job, outcome.code, "not json") is not None


def test_overrunning_job_fails_and_the_next_one_runs():
    def spin(argv):
        while True:
            pass

    start = time.perf_counter()
    outcome = run_job(spin, Job("spin", [], 0), limit_s=0.3)
    assert outcome.failure and "time limit" in outcome.failure
    assert time.perf_counter() - start < 5

    def crash(argv):
        raise RuntimeError("boom")

    assert "RuntimeError" in run_job(crash, Job("crash", [], 0)).failure
    ok = run_job(lambda argv: print("{}") or 0, Job("next", [], 0))
    assert ok.failure is None


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_trace_records_each_layer_and_keeps_verdicts(workload):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=180, cwd=HERE.parent,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    # failed counts a traced job whose output differs from its untraced run
    assert result["correct"] and result["failed"] == 0, done.stdout[-3000:]
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(name for name, _ in PER_LAYER)
    zero = [name for name in MOSTLY_ON[workload] if not metrics[name]["value"] > 0]
    assert zero == []
    assert metrics["trace.overhead_ratio"]["value"] > 0
