import random
from fractions import Fraction

import pytest

from dunklcm import cli, rootsystems
from dunklcm.invariance import (
    condition_equations,
    criterion_invariant,
    direct_invariance_violations,
    order_vanishing_violations,
    solve_multiplicities,
)
from dunklcm.polynomials import solve_affine
from dunklcm.rootsystems import (
    Multiplicities,
    block_stratum,
    enumerate_parabolic_strata,
    generalized_coxeter_number,
    parabolic_stratum,
    root_system,
)


def test_single_component_equation_text():
    rs = root_system("B", 4)
    st = block_stratum(rs, m=0, k=0, l=2)
    assert condition_equations(st) == ["2*c1+2*c2 = 1"]


def test_equations_split_by_component():
    rs = root_system("F4")
    st = parabolic_stratum(rs, (0, 3))  # two orthogonal nodes, one per orbit
    assert sorted(condition_equations(st)) == ["2*c1 = 1", "2*c2 = 1"]


@pytest.mark.parametrize(
    "gamma0,good,bad",
    [
        ((0,), Fraction(1, 2), Fraction(1, 3)),
        ((0, 1), Fraction(1, 3), Fraction(1, 2)),
        ((0, 2), Fraction(1, 2), Fraction(2, 3)),
    ],
)
def test_criterion_matches_direct_route(gamma0, good, bad):
    rs = root_system("A", 3)
    st = parabolic_stratum(rs, gamma0)
    for value, expect in ((good, True), (bad, False)):
        mults = Multiplicities.numeric(rs, value)
        assert criterion_invariant(st, mults) is expect
        assert (not direct_invariance_violations(st, mults)) is expect


def test_direct_route_mixed_orbits():
    rs = root_system("B", 3)
    st = block_stratum(rs, m=0, k=0, l=2)
    good = Multiplicities.numeric(rs, {"c1": Fraction(1, 3), "c2": Fraction(1, 6)})
    off = Multiplicities.numeric(rs, {"c1": Fraction(1, 3), "c2": Fraction(1, 5)})
    assert criterion_invariant(st, good) and not direct_invariance_violations(st, good)
    assert not criterion_invariant(st, off)
    assert direct_invariance_violations(st, off)


def test_direct_route_walks_no_orbit(monkeypatch):
    def no_walk(*args):
        raise AssertionError("the direct route walked an orbit")

    monkeypatch.setattr(rootsystems, "orbit_of_subspace", no_walk)
    rs = root_system("E8")
    st = parabolic_stratum(rs, (1, 2, 3, 4))  # D4, far past any orbit a test could walk
    assert direct_invariance_violations(st, Multiplicities.numeric(rs, Fraction(1, 6))) == []
    assert direct_invariance_violations(st, Multiplicities.numeric(rs, Fraction(1, 5)))


def _criterion_strata():
    for fam, rank_, m in (("H3", None, None), ("F4", None, None), ("B", 4, None), ("I2", None, 5)):
        yield from enumerate_parabolic_strata(root_system(fam, rank_, m=m))
    yield block_stratum(root_system("B", 4), m=1, k=2, l=2)
    yield block_stratum(root_system("D", 5), m=1, k=2, l=2)


def _numeric_criterion(st, mults) -> bool:
    """The criterion as it read before the affine forms: each component's number at numeric weights."""
    one = st.rs.field.one()
    return all(generalized_coxeter_number(st.rs, mults, comp).constant_term() == one for comp in st.components())


@pytest.mark.parametrize("seed", [1, 2])
def test_criterion_matches_numeric_coxeter_numbers(seed):
    rng = random.Random(seed)

    def weight():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    on_locus = 0
    for st in _criterion_strata():
        rs = st.rs
        names = rs.orbit_names
        points = [{name: weight() for name in names}]
        status, values, free = solve_affine(rs.field, names, st.conditions)
        if status != "inconsistent":
            sample = {name: rs.field.element(weight()) for name in free}
            x = tuple(sample.get(name, rs.field.zero()) for name in names)
            on = dict(sample, **{name: h.evaluate(x) for name, h in values.items()})
            points.append(on)
            if values:
                pivot = next(iter(values))
                points.append(dict(on, **{pivot: on[pivot] + Fraction(1, 7)}))
        for point in points:
            mults = Multiplicities.numeric(rs, point)
            assert criterion_invariant(st, mults) is _numeric_criterion(st, mults), (rs.name, st.label, point)
        if status != "inconsistent":
            assert criterion_invariant(st, Multiplicities.numeric(rs, points[1])), (rs.name, st.label)
            on_locus += 1
    assert on_locus >= 20


def test_conditions_computed_once_per_stratum(monkeypatch):
    calls = []

    def counted(rs, mults, line_indices):
        calls.append(tuple(line_indices))
        return generalized_coxeter_number(rs, mults, line_indices)

    monkeypatch.setattr(rootsystems, "generalized_coxeter_number", counted)
    rs = root_system("F4")
    st = parabolic_stratum(rs, (0, 3))  # two components
    condition_equations(st)
    solved = solve_multiplicities(st)
    mults = cli._instantiate_solution(st)
    assert criterion_invariant(st, mults)
    assert solved["status"] == "unique"
    assert calls == st.components() and len(calls) == 2


def test_solve_unique():
    rs = root_system("A", 3)
    st = parabolic_stratum(rs, (0, 1))
    solved = solve_multiplicities(st)
    assert solved["status"] == "unique"
    assert solved["values"] == {"c": "1/3"}
    assert solved["free"] == []


def test_solve_family():
    rs = root_system("B", 4)
    st = block_stratum(rs, m=0, k=0, l=2)
    solved = solve_multiplicities(st)
    assert solved["status"] == "family"
    assert solved["values"]["c1"] == "-c2+1/2"
    assert solved["free"] == ["c2"]


def test_solve_inconsistent():
    rs = root_system("A", 5)
    st = parabolic_stratum(rs, (0, 2, 3))  # a pair block next to a triple block
    solved = solve_multiplicities(st)
    assert solved["status"] == "inconsistent"
    assert sorted(solved["equations"]) == ["2*c = 1", "3*c = 1"]


def test_solve_unconstrained_on_full_space():
    rs = root_system("A", 2)
    st = parabolic_stratum(rs, ())
    solved = solve_multiplicities(st)
    assert solved["status"] == "unconstrained"
    assert solved["free"] == ["c"]


@pytest.mark.parametrize("m,good,bad", [(1, Fraction(1, 2), Fraction(1, 3)), (2, Fraction(3, 2), Fraction(1, 2))])
def test_order_vanishing_rank_one(m, good, bad):
    rs = root_system("A", 1)
    order = 2 * m - 1
    ok = order_vanishing_violations(rs, [0], order, Multiplicities.numeric(rs, good))
    assert ok == []
    broken = order_vanishing_violations(rs, [0], order, Multiplicities.numeric(rs, bad))
    assert broken != []


def test_order_vanishing_rejects_even_order():
    rs = root_system("A", 1)
    with pytest.raises(ValueError):
        order_vanishing_violations(rs, [0], 2, Multiplicities.numeric(rs, Fraction(1, 2)))
