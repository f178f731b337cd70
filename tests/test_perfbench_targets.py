"""The functions the benchmark's tracer patches exist under the names it uses.

The tracer (perfbench/tracing.py) finds its targets by module and
attribute path, so renaming a traced function would otherwise only show in
a traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import dunklcm.cli  # noqa: E402,F401  (imports every module the tracer patches)
from dunklcm import rootsystems  # noqa: E402
from dunklcm.rootsystems import parabolic_stratum, root_system  # noqa: E402
from tracing import COUNTED, ENTRY_POINTS, Tracer  # noqa: E402

TARGETS = {**ENTRY_POINTS, **COUNTED}


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_traced_target_resolves(name):
    module, path = TARGETS[name]
    owner = importlib.import_module(module)
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)


def test_stratum_orbit_goes_through_the_traced_function():
    rs = root_system("A", 3)
    lines = parabolic_stratum(rs, (0,)).lines
    tracer = Tracer()
    tracer.install()
    try:
        # the tracer replaces the module attribute, so the walk is looked up through it
        rootsystems.orbit_of_subspace(rs.simple_perms, lines, 10 ** 6)
    finally:
        tracer.uninstall()
    assert tracer.stats["rootsystems.orbit_of_subspace"][0] == 1
    assert tracer.counts["orbit_members"] == 6


def test_solve_goes_through_the_traced_coxeter_number(capsys):
    tracer = Tracer()
    tracer.install()
    try:
        code = dunklcm.cli.main(["solve", "--family", "A", "--rank", "3", "--subgraph", "A1"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert tracer.stats["rootsystems.generalized_coxeter_number"][0] > 0
