"""The conormal direct ideal test against the pointwise witness test.

`direct_invariance_violations` and `direct_ideal_violations` check one exact
identity per annihilator row of the flat, on the mirrors that contain it.
`tests/witness_reference.py` holds the pointwise route they replaced, which
evaluates T_v f at one seeded point per orbit member for a random f in the
orbit's ideal, and, as its own oracle, the symbolic route that expands f
and restricts every image to every member.
"""

import random
from fractions import Fraction

import pytest

from dunklcm.complexgroups import (
    ComplexDunklContext,
    ComplexReflectionGroup,
    collision_subspace,
    condition_forms,
    direct_ideal_violations,
    ideal_conditions_hold,
    subspace_orbit,
)
from dunklcm.dunkl import DunklContext
from dunklcm.fields import Field
from dunklcm.invariance import criterion_invariant, direct_invariance_violations
from dunklcm.polynomials import Polynomial, solve_affine
from dunklcm.restriction import _load_catalog_rows, catalog_stratum
from dunklcm.rootsystems import (
    Multiplicities,
    OrbitCapExceeded,
    flat_members,
    orbit_of_subspace,
    parabolic_stratum,
    root_system,
)
from test_acceptance import COMPLEX_CASES
from test_cli import run
from witness_reference import reference_witness_violations, witness_forms, witness_images, witness_violations

# the pointwise route's largest orbit: its error bound and cost grow with |orbit|
ORBIT_LIMIT = 64
SEEDS = range(1, 6)

# every parabolic stratum of A3, B3 and G2 at weights on its locus: c = 1/k
# on a k-coordinate block, 2(l-1)c1 + 2c2 = 1 on l zero coordinates of B,
# 3c1 + 3c2 = 1 on G2; free weights fixed
_S, _T, _H = Fraction(2, 7), Fraction(3, 8), Fraction(1, 2)
REAL_CASES = (
    ("A", 3, (0,), {"c": _H}),
    ("A", 3, (0, 1), {"c": Fraction(1, 3)}),
    ("A", 3, (0, 2), {"c": _H}),
    ("A", 3, (0, 1, 2), {"c": Fraction(1, 4)}),
    ("B", 3, (0,), {"c1": _H, "c2": _S}),
    ("B", 3, (2,), {"c1": _T, "c2": _H}),
    ("B", 3, (0, 1), {"c1": Fraction(1, 3), "c2": _S}),
    ("B", 3, (1, 2), {"c1": _T, "c2": _H - _T}),
    ("B", 3, (0, 2), {"c1": _H, "c2": _H}),
    ("B", 3, (0, 1, 2), {"c1": _S, "c2": _H - 2 * _S}),
    ("G2", None, (0,), {"c1": _H, "c2": _S}),
    ("G2", None, (1,), {"c1": _T, "c2": _H}),
    ("G2", None, (0, 1), {"c1": _S, "c2": Fraction(1, 3) - _S}),
)


def _members(st) -> dict:
    """The subspace of each member of a stratum's orbit; OrbitCapExceeded past ORBIT_LIMIT."""
    rs = st.rs
    return flat_members(rs.field, rs.dim, rs.lines, orbit_of_subspace(rs.simple_perms, st.lines, ORBIT_LIMIT))


def _real(family, rank, gamma0, values, shift):
    """(context, orbit, base subspace, conormal violations) of a parabolic stratum."""
    rs = root_system(family, rank)
    st = parabolic_stratum(rs, gamma0)
    mults = Multiplicities.numeric(rs, {k: v + shift for k, v in values.items()})
    return DunklContext(rs, mults), _members(st), st.subspace, direct_invariance_violations(st, mults)


def _complex(g, shape, weights, shift):
    """(context, orbit, base subspace, conormal violations) of a collision subspace."""
    group = ComplexReflectionGroup(*g)
    q, r, l, eps = shape
    weights = {k: v + shift for k, v in weights.items()}
    cdiag = tuple(weights.get(f"c{t}", 0) for t in range(1, group.diag_order))
    ctx = ComplexDunklContext(group, weights["c0"], weights.get("c0_odd"), cdiag=cdiag)
    sub = collision_subspace(group, q, r, l=l, eps=eps)
    return ctx, subspace_orbit(group, sub, cap=ORBIT_LIMIT), sub, direct_ideal_violations(ctx, sub)


def _agree(ctx, orbit, base, _):
    """The pointwise verdicts over SEEDS, each violation list equal to the symbolic route's."""
    verdicts = set()
    for seed in SEEDS:
        got = witness_violations(ctx, orbit, base, seed)
        assert got == reference_witness_violations(ctx, orbit, base, seed), seed
        verdicts.add(not got)
    return verdicts


def _conormal_agrees(ctx, orbit, base, direct, seeds=SEEDS):
    """The conormal verdict, which every seed's pointwise verdict must equal.

    A direction in which the pointwise route finds the base member's image
    nonzero must be one the conormal test reports.
    """
    for seed in seeds:
        pointwise = witness_violations(ctx, orbit, base, seed)
        assert (not pointwise) is (not direct), seed
        assert {v for v, key in pointwise if key == base.key} <= {v for v, _ in direct}, seed
    return not direct


@pytest.mark.parametrize("case", REAL_CASES, ids=lambda c: f"{c[0]}{c[1] or ''}-{c[2]}")
def test_conormal_matches_pointwise_real(case):
    assert _conormal_agrees(*_real(*case, 0)) is True
    assert _conormal_agrees(*_real(*case, 1)) is False


@pytest.mark.parametrize("case", COMPLEX_CASES, ids=lambda c: "G{}-{}".format(*c[:2]).replace(" ", ""))
def test_conormal_matches_pointwise_complex(case):
    g, shape, weights, expect = case
    assert _conormal_agrees(*_complex(g, shape, weights, 0)) is expect
    assert _conormal_agrees(*_complex(g, shape, weights, Fraction(1, 7))) is False


GOLDEN_ROWS = _load_catalog_rows()


def test_conormal_matches_pointwise_on_small_golden_orbits():
    small = 0
    for row in GOLDEN_ROWS:
        st = catalog_stratum(row)
        try:
            orbit = _members(st)
        except OrbitCapExceeded:
            continue
        small += 1
        rs = st.rs
        for shift, expect in ((0, True), (Fraction(1, 7), False)):
            mults = Multiplicities.numeric(rs, Fraction(row["c"]) + shift)
            direct = direct_invariance_violations(st, mults)
            assert _conormal_agrees(DunklContext(rs, mults), orbit, st.subspace, direct, seeds=(1,)) is expect, row
    assert small == 5


def test_conormal_matches_criterion_on_every_golden_row():
    for row in GOLDEN_ROWS:
        st = catalog_stratum(row)
        for shift, expect in ((0, True), (Fraction(1, 7), False)):
            mults = Multiplicities.numeric(st.rs, Fraction(row["c"]) + shift)
            assert criterion_invariant(st, mults) is expect, row
            assert (not direct_invariance_violations(st, mults)) is expect, row


def _collision_shapes(group):
    """Every (q, r, l, eps) that collision_subspace takes, blocks of one coordinate only as q = 0."""
    n = group.N
    yield from ((0, 1, l, 0) for l in range(n + 1))
    for r in range(2, n + 1):
        for q in range(1, n // r + 1):
            for l in range(n - q * r + 1):
                yield from ((q, r, l, eps) for eps in range(group.m))


@pytest.mark.parametrize("g", [(2, 2, 4), (3, 3, 4), (4, 2, 4), (6, 2, 3)], ids=lambda g: "G({},{},{})".format(*g))
def test_conormal_matches_conditions_on_every_collision_shape(g):
    group = ComplexReflectionGroup(*g)
    names = group.param_names()
    field = Field.rational()
    rng = random.Random(sum(g))
    for shape in _collision_shapes(group):
        sub = collision_subspace(group, *shape)
        seeded = {name: Fraction(rng.randint(1, 9), rng.randint(2, 9)) for name in names}
        points = [seeded]
        status, values, free = solve_affine(field, names, condition_forms(group, *shape))
        if status != "inconsistent":
            # the free weights at the seeded values, the solved ones evaluated there
            at = tuple(field.element(seeded[n]) if n in free else field.zero() for n in names)
            points.append({**seeded, **{n: Fraction(str(h.evaluate(at))) for n, h in values.items()}})
            assert ideal_conditions_hold(group, points[-1], *shape), shape
        for point in points:
            ctx = ComplexDunklContext.at_weights(group, point)
            assert (not direct_ideal_violations(ctx, sub)) is ideal_conditions_hold(group, point, *shape), (shape, point)


@pytest.mark.parametrize("case", REAL_CASES, ids=lambda c: f"{c[0]}{c[1] or ''}-{c[2]}")
def test_pointwise_matches_symbolic_real(case):
    # on the locus, then off it: each h is positive in the weights
    assert _agree(*_real(*case, 0)) == {True}
    assert _agree(*_real(*case, 1)) == {False}


@pytest.mark.parametrize("case", COMPLEX_CASES, ids=lambda c: "G{}-{}".format(*c[:2]).replace(" ", ""))
def test_pointwise_matches_symbolic_complex(case):
    g, shape, weights, expect = case
    assert _agree(*_complex(g, shape, weights, 0)) == {expect}
    # each condition is h = 1 with h positive in the weights, so shifting
    # every weight by 1/7 leaves the locus
    assert _agree(*_complex(g, shape, weights, Fraction(1, 7))) == {False}


def test_cases_reach_every_branch():
    shapes = {case[:2] for case in COMPLEX_CASES}
    assert {((3, 3, 2), (0, 1, 2, 0)), ((4, 2, 3), (0, 1, 1, 0))} <= shapes
    # G(3,3,2) with two zeros is the origin, a 0-dimensional orbit member
    _, orbit, _, _ = _complex((3, 3, 2), (0, 1, 2, 0), {"c0": Fraction(1, 3)}, 0)
    assert [m.dim for m in orbit.values()] == [0]
    # G(4,2,3) with one zero has p_v = 0 on every member, at diagonal weight c1 = 1/2
    ctx, orbit, _, _ = _complex((4, 2, 3), (0, 1, 1, 0), {"c0": Fraction(2, 7), "c1": _H}, 0)
    assert ctx.cdiag == (ctx.field.element(_H),)
    assert all(any(all(b[v].is_zero() for b in m.basis) for v in range(3)) for m in orbit.values())


POINT_CASES = {
    "A3": lambda: _real("A", 3, (0,), {"c": Fraction(2, 5)}, 0),
    "B3": lambda: _real("B", 3, (0, 2), {"c1": Fraction(1, 3), "c2": Fraction(3, 7)}, 0),
    "G2": lambda: _real("G2", None, (0,), {"c1": Fraction(2, 5), "c2": Fraction(1, 4)}, 0),
    # p_v = 0 on every member, at diagonal weight c1
    "G(4,2,3)": lambda: _complex((4, 2, 3), (0, 1, 1, 0), {"c0": Fraction(1, 3), "c1": Fraction(2, 5)}, 0),
    # d = 6 diagonal classes, one of weight zero
    "G(6,1,2)": lambda: _complex((6, 1, 2), (1, 2, 0, 0), {
        "c0": Fraction(1, 4), "c1": Fraction(1, 5), "c2": Fraction(2, 3), "c4": Fraction(1, 7), "c5": Fraction(3, 4),
    }, 0),
    "G(4,2,2)": lambda: _complex((4, 2, 2), (1, 2, 0, 1), {
        "c0": Fraction(1, 3), "c0_odd": Fraction(1, 6), "c1": Fraction(1, 2),
    }, 0),
}


@pytest.mark.parametrize("name", POINT_CASES)
def test_point_values_equal_the_expanded_images(name):
    """T_v f(p) equals apply(v, f) at points of every member, also on further
    mirrors and coordinate hyperplanes and at the origin."""
    ctx, orbit, base, _ = POINT_CASES[name]()
    field = ctx.field
    members = [orbit[k] for k in sorted(orbit)]
    forms = witness_forms(ctx, members, base, 7)
    rng = random.Random(7)
    f = Polynomial.constant(field, ctx.nvars, field.one())
    for form in forms:
        f = f * Polynomial.linear_form(field, form)
    # small coefficients, so that some points lie on more mirrors than their member
    points = [(field.zero(),) * ctx.nvars]
    for m in members:
        for _ in range(4):
            coeffs = [field.element(rng.randint(-1, 1)) for _ in m.basis]
            points.append(tuple(field.dot(coeffs, [b[j] for b in m.basis]) for j in range(ctx.nvars)))
    images = witness_images(ctx, forms, points)
    for v in range(ctx.nvars):
        g = ctx.apply(v, f)
        assert [row[v] for row in images] == [g.evaluate(p) for p in points], v


@pytest.mark.parametrize("typ,c", [("A1", Fraction(1, 2)), ("D4", Fraction(1, 6))])
def test_direct_route_reaches_e6(capsys, typ, c):
    # orbits of 36 and 45 members
    argv = ["check", "--family", "E6", "--subgraph", typ, "--direct", "--seed", "3"]
    code, out = run(capsys, *argv, f"--c={c}")
    assert code == 0 and out["direct_invariant"] is True and out["routes_agree"] is True
    code, out = run(capsys, *argv, f"--c={c + Fraction(1, 7)}")
    assert code == 1 and out["direct_invariant"] is False and out["routes_agree"] is True


@pytest.mark.parametrize("system,typ,c", [("E6", "A2", Fraction(1, 3)), ("E8", "D4", Fraction(1, 6))],
                         ids=["E6-A2", "E8-D4"])
def test_direct_route_has_no_orbit_limit(capsys, system, typ, c):
    # orbits of 120 and 3150 members, which the pointwise route could not walk
    argv = ["check", "--family", system, "--subgraph", typ, "--direct"]
    code, out = run(capsys, *argv, f"--c={c}")
    assert code == 0 and out["direct_invariant"] is True and out["routes_agree"] is True
    code, out = run(capsys, *argv, f"--c={c + Fraction(1, 7)}")
    assert code == 1 and out["direct_invariant"] is False and out["routes_agree"] is True


@pytest.mark.parametrize("argv", [
    ["check", "--family", "A", "--rank", "3", "--c", "1/2"],
    ["check", "--group", "G(3,3,2)", "--c0", "1/2"],
], ids=["real", "complex"])
def test_whole_space_has_the_zero_ideal(capsys, argv):
    # no annihilator row to check; the zero ideal is invariant
    code, out = run(capsys, *argv, "--direct")
    assert code == 0 and out["direct_invariant"] is True and out["routes_agree"] is True
