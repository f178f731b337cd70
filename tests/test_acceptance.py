"""End-to-end acceptance checks, one test per advertised guarantee.

Each test prints a single PASS line with the measured scope so the suite
doubles as a report when run with -s.  Everything here is exact rational or
algebraic arithmetic; there are no tolerances anywhere.
"""

import random
import time
from fractions import Fraction

from dunklcm.cli import _instantiate_solution
from dunklcm.complexgroups import (
    CollisionFlat,
    ComplexReflectionGroup,
    direct_ideal_violations,
    weight_point,
)
from dunklcm.dunkl import DeformedContext, DunklContext
from dunklcm.invariance import (
    conditions_hold,
    criterion_invariant,
    direct_invariance_violations,
    order_vanishing_violations,
    solve_multiplicities,
)
from dunklcm.restriction import (
    catalog_compare,
    deformed_restriction_constant,
    gauge_defects,
    restriction_defects,
)
from dunklcm.rootsystems import (
    Multiplicities,
    block_stratum,
    enumerate_parabolic_strata,
    generalized_coxeter_number,
    parabolic_stratum,
    root_system,
)

from restriction_reference import reference_restriction_defects
from rootsystem_reference import reference_coxeter_number

COXETER_INSTANCES = (
    ("A", 5, None, 6),
    ("B", 4, None, 8),
    ("D", 5, None, 8),
    ("E6", None, None, 12),
    ("E7", None, None, 18),
    ("E8", None, None, 30),
    ("F4", None, None, 12),
    ("G2", None, None, 6),
    ("H3", None, None, 10),
    ("H4", None, None, 30),
    ("I2", None, 8, 8),
)


def test_criterion_01_coxeter_number_lemma():
    start = time.monotonic()
    for fam, rank_, m, h in COXETER_INSTANCES:
        rs = root_system(fam, rank_, m=m)
        ones = Multiplicities.numeric(rs, {name: 1 for name in rs.orbit_names})
        everything = range(len(rs.lines))
        got = generalized_coxeter_number(rs, ones, everything)
        assert got.constant_term() == rs.field.element(h), (fam, h)
        # the full weighted form, asserted entry by entry to be h times the scalar product
        assert reference_coxeter_number(rs, ones, everything) == got, (fam, h)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1: PASS — weighted root sum equals h times the scalar product "
          f"for all {len(COXETER_INSTANCES)} instances in {elapsed:.2f}s")


def test_criterion_02_commutativity_degree_four():
    start = time.monotonic()
    rng = random.Random(20240814)
    checked = 0
    for fam, rank_ in (("A", 3), ("B", 3), ("D", 4), ("F4", None), ("H3", None), ("G2", None)):
        rs = root_system(fam, rank_)
        for _ in range(3):
            mapping = {
                name: Fraction(rng.randint(1, 9), rng.randint(2, 9)) for name in rs.orbit_names
            }
            ctx = DunklContext(rs, Multiplicities.numeric(rs, mapping))
            assert ctx.commutativity_violations(4) == [], (fam, mapping)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 2: PASS — zero commutator violations through degree 4, "
          f"{checked} weight samples over 6 systems in {elapsed:.1f}s")


def test_criterion_03_direct_test_matches_criterion():
    pairs = 0
    for fam, rank_ in (("A", 3), ("B", 3), ("G2", None)):
        rs = root_system(fam, rank_)
        for st in enumerate_parabolic_strata(rs):
            solved = solve_multiplicities(st)
            if solved["status"] == "inconsistent":
                continue
            good = _instantiate_solution(st)
            # shifting every weight up by one leaves no equation satisfied
            bad = Multiplicities.numeric(
                rs, {name: good.scalar(name) + rs.field.one() for name in rs.orbit_names}
            )
            for mults, expect in ((good, True), (bad, False)):
                assert criterion_invariant(st, mults) is expect, (fam, st.label, expect)
                assert (not direct_invariance_violations(st, mults)) is expect, (fam, st.label, expect)
                pairs += 1
    assert pairs >= 20
    print(f"\nACCEPTANCE 3: PASS — direct ideal test and closed criterion agree on "
          f"{pairs} (stratum, weights) pairs, both satisfying and violating")


def test_criterion_04_classical_formula_strings():
    # one-orbit block collisions: c = 1/k
    for rank_, m, k in ((4, 1, 3), (5, 2, 2)):
        st = block_stratum(root_system("A", rank_), m=m, k=k)
        solved = solve_multiplicities(st)
        assert solved["status"] == "unique" and solved["values"] == {"c": str(Fraction(1, k))}

    # coordinate zeros in the doubled family: 2(l-1)c1 + 2c2 = 1
    st = block_stratum(root_system("B", 4), m=0, k=0, l=3)
    solved = solve_multiplicities(st)
    assert solved["equations"] == ["4*c1+2*c2 = 1"]
    assert solved["status"] == "family"
    assert solved["values"] == {"c1": "-1/2*c2+1/4"} and solved["free"] == ["c2"]

    # coordinate zeros in the even-sign family: c = 1/(2(p-1))
    st = block_stratum(root_system("D", 4), m=0, k=0, l=3)
    solved = solve_multiplicities(st)
    assert solved["status"] == "unique" and solved["values"] == {"c": "1/4"}

    # blocks plus zeros, doubled family: c1 = 1/k and c2 = 1/2 - (l-1)/k
    for rank_, k, l in ((4, 2, 2), (5, 2, 3)):
        st = block_stratum(root_system("B", rank_), m=1, k=k, l=l)
        solved = solve_multiplicities(st)
        c1 = Fraction(1, k)
        c2 = Fraction(1, 2) - Fraction(l - 1, k)
        assert solved["status"] == "unique"
        assert solved["values"] == {"c1": str(c1), "c2": str(c2)}, solved["values"]

    # blocks plus zeros, even-sign family: consistent exactly when l = (k+2)/2
    st = block_stratum(root_system("D", 7), m=1, k=4, l=3)
    solved = solve_multiplicities(st)
    assert solved["status"] == "unique" and solved["values"] == {"c": "1/4"}
    st = block_stratum(root_system("D", 6), m=1, k=3, l=3)
    assert solve_multiplicities(st)["status"] == "inconsistent"

    print("\nACCEPTANCE 4: PASS — solved weight strings match the classical "
          "closed forms exactly in all five shapes")


def test_criterion_05_catalog_41_rows():
    start = time.monotonic()
    diffs = catalog_compare()
    assert len(diffs) == 41
    failures = [d for d in diffs if not (d["dim_match"] and d["mults_match"])]
    size_diffs = [d for d in diffs if not d["size_match"]]
    for d in size_diffs:
        print(f"  line-count diff at row {d['index']} ({d['family']} {d['type']}): "
              f"stored {d['expected']['size']}, recomputed {d['computed']['size']}")
    assert failures == [], failures
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE 5: PASS — 41/41 catalog rows match on dimension and "
          f"multiplicity multiset, {len(size_diffs)} line-count diffs, {elapsed:.1f}s")


def test_criterion_06_restriction_identity():
    start = time.monotonic()
    ran = 0

    def check(st, mults):
        nonlocal ran
        assert restriction_defects(st, mults, degrees=(2, 4, 6)) == [], st.label
        ran += 1

    # equal-coordinate collisions, 3..6 coordinates, every block shape
    for ncoord in range(3, 7):
        rs = root_system("A", ncoord - 1)
        for k in range(2, ncoord + 1):
            for m in range(1, ncoord // k + 1):
                st = block_stratum(rs, m=m, k=k)
                check(st, Multiplicities.numeric(rs, Fraction(1, k)))

    # doubled family: blocks at c1 = 1/k with the axis weight free
    for ncoord in range(2, 5):
        rs = root_system("B", ncoord)
        for k in range(2, ncoord + 1):
            for m in range(1, ncoord // k + 1):
                st = block_stratum(rs, m=m, k=k)
                mults = Multiplicities.numeric(rs, {"c1": Fraction(1, k), "c2": Fraction(3, 7)})
                check(st, mults)
        # coordinate zero loci at 2(l-1)c1 + 2c2 = 1 with c1 sampled
        for l in range(1, ncoord + 1):
            st = block_stratum(rs, m=0, k=0, l=l)
            c1 = Fraction(2, 5)
            mults = Multiplicities.numeric(rs, {"c1": c1, "c2": Fraction(1, 2) - (l - 1) * c1})
            check(st, mults)

    # one mirror in F4, each node class, the other orbit weight free
    rs = root_system("F4")
    for gamma0, values in (((0,), {"c1": Fraction(1, 2), "c2": Fraction(2, 9)}),
                           ((3,), {"c1": Fraction(2, 9), "c2": Fraction(1, 2)})):
        check(parabolic_stratum(rs, gamma0), Multiplicities.numeric(rs, values))

    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE 6: PASS — restriction identity exact on invariant power "
          f"sums of degree <= 6 for {ran} strata in {elapsed:.1f}s")


def test_criterion_07_gauge_identity():
    start = time.monotonic()
    families = (("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
                ("D", 4), ("F4", None), ("G2", None), ("H3", None), ("H4", None),
                ("I2", 5), ("I2", 8), ("I2", 12))
    ran = 0
    for fam, rank_ in families:
        m = rank_ if fam == "I2" else None
        rs = root_system(fam, None if fam == "I2" else rank_, m=m)
        for st in enumerate_parabolic_strata(rs):
            solved = solve_multiplicities(st)
            if solved["status"] == "inconsistent":
                continue
            mults = _instantiate_solution(st)
            assert gauge_defects(st, mults) == [], (fam, st.label)
            ran += 1

    # the smaller of the two triple-mirror classes in E7
    rs = root_system("E7")
    st = parabolic_stratum(rs, (1, 4, 6))
    solved = solve_multiplicities(st)
    assert solved["status"] == "unique"
    mults = _instantiate_solution(st)
    assert gauge_defects(st, mults) == []
    ran += 1

    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE 7: PASS — gauge residues cancel on {ran} invariant strata "
          f"(all rank <= 4 families plus the distinguished rank-7 class) in {elapsed:.1f}s")


def test_criterion_08_confined_integrability_and_constant():
    start = time.monotonic()
    systems = []
    for ncoord in (3, 4):
        systems.append(root_system("A", ncoord - 1))
    for ncoord in (2, 3):
        systems.append(root_system("B", ncoord))
    systems.append(root_system("D", 3))

    checked = 0
    for rs in systems:
        if len(rs.orbit_names) == 2:
            mapping = {"c1": Fraction(1, 2), "c2": Fraction(2, 7)}
        else:
            mapping = Fraction(1, 2)
        ctx = DeformedContext(rs, Multiplicities.numeric(rs, mapping))
        for k, l in ((1, 2), (2, 2)):
            assert ctx.integrability_violations(k, l, 3) == [], (rs.family, rs.rank, k, l)
            checked += 1

    # two equal coordinates with sign flips but no axis weight: the
    # even-sign two-coordinate model realized with a zero axis weight
    rs = root_system("B", 2)
    ctx = DeformedContext(rs, Multiplicities.numeric(rs, {"c1": Fraction(1, 2), "c2": 0}))
    for k, l in ((1, 2), (2, 2)):
        assert ctx.integrability_violations(k, l, 3) == []
        checked += 1

    # exact confinement constants
    for ncoord in (3, 4):
        rs = root_system("A", ncoord - 1)
        for k in (2, 3):
            if k > ncoord:
                continue
            st = block_stratum(rs, m=1, k=k)
            mults = Multiplicities.numeric(rs, Fraction(1, k))
            want = -ncoord + Fraction(ncoord * (ncoord - 1), k)
            assert deformed_restriction_constant(st, mults) == rs.field.element(want)
            assert restriction_defects(st, mults, degrees=(2,)) == []
            assert reference_restriction_defects(st, mults, degrees=(2,), deformed=True) == []
    for ncoord in (2, 3):
        rs = root_system("B", ncoord)
        k, c2 = 2, Fraction(3, 11)
        st = block_stratum(rs, m=1, k=k)
        mults = Multiplicities.numeric(rs, {"c1": Fraction(1, k), "c2": c2})
        want = -ncoord + Fraction(2 * ncoord * (ncoord - 1), k) + 2 * c2 * ncoord
        assert deformed_restriction_constant(st, mults) == rs.field.element(want)
        assert restriction_defects(st, mults, degrees=(2,)) == []
        assert reference_restriction_defects(st, mults, degrees=(2,), deformed=True) == []

    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE 8: PASS — confined conserved powers commute through "
          f"degree 3 ({checked} (k,l) runs) and the confinement constants match "
          f"exactly in {elapsed:.1f}s")


COMPLEX_CASES = [
    # (m, p, N), (q, r, l, eps), weights, expected
    ((3, 3, 2), (1, 2, 0, 0), {"c0": Fraction(1, 2)}, True),
    ((3, 3, 2), (1, 2, 0, 0), {"c0": Fraction(1, 5)}, False),
    ((3, 3, 2), (0, 1, 1, 0), {"c0": Fraction(1, 2)}, False),  # never invariant
    ((3, 3, 2), (0, 1, 2, 0), {"c0": Fraction(1, 3)}, True),
    ((3, 3, 3), (1, 2, 0, 0), {"c0": Fraction(1, 2)}, True),
    ((3, 3, 3), (1, 3, 0, 0), {"c0": Fraction(1, 3)}, True),
    ((3, 3, 3), (1, 3, 0, 0), {"c0": Fraction(1, 2)}, False),
    ((3, 3, 3), (1, 3, 0, 1), {"c0": Fraction(1, 3)}, True),  # twisted triple
    ((3, 3, 3), (0, 1, 2, 0), {"c0": Fraction(1, 3)}, True),
    ((3, 3, 3), (0, 1, 3, 0), {"c0": Fraction(1, 6)}, True),
    ((3, 3, 3), (0, 1, 3, 0), {"c0": Fraction(1, 3)}, False),
    ((3, 3, 3), (1, 2, 1, 0), {"c0": Fraction(1, 2)}, False),  # zeros part fails
    ((4, 4, 2), (1, 2, 0, 0), {"c0": Fraction(1, 2), "c0_odd": Fraction(1, 9)}, True),
    ((4, 4, 2), (1, 2, 0, 1), {"c0": Fraction(1, 2), "c0_odd": Fraction(1, 9)}, False),
    ((4, 4, 2), (1, 2, 0, 1), {"c0": Fraction(1, 9), "c0_odd": Fraction(1, 2)}, True),
    ((4, 4, 2), (0, 1, 1, 0), {"c0": Fraction(1, 2), "c0_odd": Fraction(1, 2)}, False),
    ((4, 4, 2), (0, 1, 2, 0), {"c0": Fraction(1, 3), "c0_odd": Fraction(1, 6)}, True),
    ((4, 4, 2), (0, 1, 2, 0), {"c0": Fraction(1, 4), "c0_odd": Fraction(1, 4)}, True),
    ((4, 4, 2), (0, 1, 2, 0), {"c0": Fraction(1, 4), "c0_odd": Fraction(1, 3)}, False),
    ((4, 2, 2), (1, 2, 0, 0), {"c0": Fraction(1, 2), "c0_odd": Fraction(2, 9), "c1": Fraction(1, 7)}, True),
    ((4, 2, 2), (1, 2, 0, 1), {"c0": Fraction(2, 9), "c0_odd": Fraction(1, 2), "c1": Fraction(1, 7)}, True),
    ((4, 2, 2), (1, 2, 0, 1), {"c0": Fraction(1, 2), "c0_odd": Fraction(2, 9), "c1": Fraction(1, 7)}, False),
    ((4, 2, 2), (0, 1, 1, 0), {"c0": Fraction(1, 3), "c0_odd": Fraction(1, 5), "c1": Fraction(1, 2)}, True),
    ((4, 2, 2), (0, 1, 1, 0), {"c0": Fraction(1, 3), "c0_odd": Fraction(1, 5), "c1": Fraction(1, 3)}, False),
    ((4, 2, 2), (0, 1, 2, 0), {"c0": Fraction(1, 4), "c0_odd": 0, "c1": Fraction(1, 4)}, True),
    ((4, 2, 2), (0, 1, 2, 0), {"c0": Fraction(1, 4), "c0_odd": Fraction(1, 4), "c1": Fraction(1, 4)}, False),
    ((4, 2, 3), (1, 2, 0, 0), {"c0": Fraction(1, 2), "c1": Fraction(3, 5)}, True),
    ((4, 2, 3), (1, 3, 0, 0), {"c0": Fraction(1, 3), "c1": Fraction(3, 5)}, True),
    ((4, 2, 3), (0, 1, 1, 0), {"c0": Fraction(2, 7), "c1": Fraction(1, 2)}, True),
    ((4, 2, 3), (0, 1, 2, 0), {"c0": Fraction(1, 8), "c1": Fraction(1, 4)}, True),
    ((4, 2, 3), (0, 1, 2, 0), {"c0": Fraction(1, 8), "c1": Fraction(1, 5)}, False),
    ((4, 2, 3), (1, 2, 1, 0), {"c0": Fraction(1, 2), "c1": Fraction(1, 2)}, True),
    ((4, 2, 3), (1, 2, 1, 0), {"c0": Fraction(1, 2), "c1": Fraction(2, 5)}, False),
    ((6, 3, 2), (1, 2, 0, 0), {"c0": Fraction(1, 2), "c1": Fraction(1, 8)}, True),
    ((6, 3, 2), (1, 2, 0, 1), {"c0": Fraction(1, 2), "c1": Fraction(1, 8)}, True),  # same orbit, no split
    ((6, 3, 2), (0, 1, 1, 0), {"c0": Fraction(1, 9), "c1": Fraction(1, 2)}, True),
    ((6, 3, 2), (0, 1, 2, 0), {"c0": Fraction(1, 12), "c1": Fraction(1, 4)}, True),
    ((6, 3, 2), (0, 1, 2, 0), {"c0": Fraction(1, 2), "c1": Fraction(1, 4)}, False),
]


def test_criterion_09_complex_group_conditions():
    start = time.monotonic()
    for (m, p, N), (q, r, l, eps), weights, expect in COMPLEX_CASES:
        group = ComplexReflectionGroup(m, p, N)
        flat = CollisionFlat(group, q, r, l=l, eps=eps)
        direct = not direct_ideal_violations(flat, weights)
        closed = conditions_hold(flat, weight_point(group, weights))
        assert direct is expect, ((m, p, N), (q, r, l, eps), weights)
        assert closed is expect, ((m, p, N), (q, r, l, eps), weights)
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE 9: PASS — all four closed-form condition families agree "
          f"with direct ideal tests in {len(COMPLEX_CASES)} runs over six groups "
          f"in {elapsed:.1f}s")


def test_criterion_10_order_vanishing():
    rs1 = root_system("A", 1)
    rs2 = root_system("B", 2)
    axes = [i for i, alpha in enumerate(rs2.lines)
            if sum(1 for a in alpha if not a.is_zero()) == 1]
    assert len(axes) == 2
    checked = 0
    for m in (1, 2, 3):
        order = 2 * m - 1
        c = Fraction(2 * m - 1, 2)
        good = Multiplicities.numeric(rs1, c)
        bad = Multiplicities.numeric(rs1, c + Fraction(1, 3))
        assert order_vanishing_violations(rs1, [0], order, good) == []
        assert order_vanishing_violations(rs1, [0], order, bad) != []
        # two doubled axes with the pair weight left free
        good2 = Multiplicities.numeric(rs2, {"c1": Fraction(2, 7), "c2": c})
        bad2 = Multiplicities.numeric(rs2, {"c1": Fraction(2, 7), "c2": c + Fraction(1, 2)})
        assert order_vanishing_violations(rs2, axes, order, good2) == []
        assert order_vanishing_violations(rs2, axes, order, bad2) != []
        checked += 4
    print(f"\nACCEPTANCE 10: PASS — odd-order vanishing ideals invariant exactly at "
          f"the half-odd weights, {checked} directional checks")
