"""The pointwise direct ideal test against the symbolic one.

`witness_violations` evaluates T_v f exactly at one seeded point per orbit
member; `tests/witness_reference.py` expands the same witness and restricts
T_v f to every member.  Their violation lists must be equal, and at points
of the orbit's members the point values must equal the expanded images.
"""

import random
from fractions import Fraction

import pytest

from dunklcm.complexgroups import (
    ComplexDunklContext,
    ComplexReflectionGroup,
    collision_subspace,
    subspace_orbit,
)
from dunklcm.dunkl import DunklContext
from dunklcm.invariance import DIRECT_ORBIT_LIMIT, _random_annihilator_form, witness_violations
from dunklcm.polynomials import Polynomial
from dunklcm.rootsystems import Multiplicities, parabolic_stratum, root_system
from test_acceptance import COMPLEX_CASES
from test_cli import run
from witness_reference import reference_witness_violations

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


def _real(family, rank, gamma0, values, shift):
    rs = root_system(family, rank)
    st = parabolic_stratum(rs, gamma0)
    mults = Multiplicities.numeric(rs, {k: v + shift for k, v in values.items()})
    return DunklContext(rs, mults), st.members(cap=DIRECT_ORBIT_LIMIT), st.subspace


def _complex(g, shape, weights, shift):
    group = ComplexReflectionGroup(*g)
    q, r, l, eps = shape
    weights = {k: v + shift for k, v in weights.items()}
    cdiag = tuple(weights.get(f"c{t}", 0) for t in range(1, group.diag_order))
    ctx = ComplexDunklContext(group, weights["c0"], weights.get("c0_odd"), cdiag=cdiag)
    sub = collision_subspace(group, q, r, l=l, eps=eps)
    return ctx, subspace_orbit(group, sub, cap=DIRECT_ORBIT_LIMIT), sub


def _agree(ctx, orbit, base):
    verdicts = set()
    for seed in SEEDS:
        got = witness_violations(ctx, orbit, base, seed)
        assert got == reference_witness_violations(ctx, orbit, base, seed), seed
        verdicts.add(not got)
    return verdicts


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
    _, orbit, _ = _complex((3, 3, 2), (0, 1, 2, 0), {"c0": Fraction(1, 3)}, 0)
    assert [m.dim for m in orbit.values()] == [0]
    # G(4,2,3) with one zero has p_v = 0 on every member, at diagonal weight c1 = 1/2
    ctx, orbit, _ = _complex((4, 2, 3), (0, 1, 1, 0), {"c0": Fraction(2, 7), "c1": _H}, 0)
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
    ctx, orbit, base = POINT_CASES[name]()
    field = ctx.field
    members = [orbit[k] for k in sorted(orbit)]
    rng = random.Random(7)
    forms = [
        _random_annihilator_form(rng, m.annihilator, field, avoid_basis=None if m.key == base.key else base.basis)
        for m in members
    ]
    f = Polynomial.constant(field, ctx.nx, field.one())
    for form in forms:
        f = f * Polynomial.linear_form(field, form)
    # small coefficients, so that some points lie on more mirrors than their member
    points = [(field.zero(),) * ctx.nx]
    for m in members:
        for _ in range(4):
            coeffs = [field.element(rng.randint(-1, 1)) for _ in m.basis]
            points.append(tuple(field.dot(coeffs, [b[j] for b in m.basis]) for j in range(ctx.nx)))
    images = ctx.witness_images(forms, points)
    for v in range(ctx.nx):
        g = ctx.apply(v, f)
        assert [row[v] for row in images] == [g.evaluate(p) for p in points], v


@pytest.mark.parametrize("typ,c", [("A1", Fraction(1, 2)), ("D4", Fraction(1, 6))])
def test_direct_route_reaches_e6(capsys, typ, c):
    # orbits of 36 and 45 members, past the old limit of 24
    argv = ["check", "--family", "E6", "--subgraph", typ, "--direct", "--seed", "3"]
    code, out = run(capsys, *argv, f"--c={c}")
    assert code == 0 and out["direct_invariant"] is True and out["routes_agree"] is True
    code, out = run(capsys, *argv, f"--c={c + Fraction(1, 7)}")
    assert code == 1 and out["direct_invariant"] is False and out["routes_agree"] is True


def test_direct_route_limit(capsys):
    # E6 A2 has 120 members
    code, out = run(capsys, "check", "--family", "E6", "--subgraph", "A2", "--c", "1/3", "--direct")
    assert code == 3 and out["capped"] is True
    assert DIRECT_ORBIT_LIMIT == 64


@pytest.mark.parametrize("argv", [
    ["check", "--family", "A", "--rank", "3", "--c", "1/2"],
    ["check", "--group", "G(3,3,2)", "--c0", "1/2"],
], ids=["real", "complex"])
def test_whole_space_has_the_zero_ideal(capsys, argv):
    # no annihilator to draw a witness form from; the zero ideal is invariant
    code, out = run(capsys, *argv, "--direct")
    assert code == 0 and out["direct_invariant"] is True and out["routes_agree"] is True
