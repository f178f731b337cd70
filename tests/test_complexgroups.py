import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklcm.complexgroups import (
    ComplexDunklContext,
    ComplexReflectionGroup,
    collision_subspace,
    condition_forms,
    direct_ideal_violations,
    ideal_conditions,
    ideal_conditions_hold,
    parse_group_name,
    subspace_orbit,
    weight_point,
)
from dunklcm.dunkl import DunklContext
from dunklcm.fields import Field
from dunklcm.invariance import condition_equations
from dunklcm.linalg import vec
from dunklcm.polynomials import Polynomial, divide_by_linear, monomials, solve_affine
from dunklcm.rootsystems import Multiplicities, Subspace, block_stratum, root_system
from complex_reference import reference_subspace_orbit
from test_acceptance import COMPLEX_CASES


def test_group_basics():
    g = ComplexReflectionGroup(4, 2, 3)
    assert g.diag_order == 2
    assert not g.has_parity_split
    assert g.param_names() == ("c0", "c1")
    g2 = ComplexReflectionGroup(4, 2, 2)
    assert g2.has_parity_split
    assert g2.param_names() == ("c0", "c0_odd", "c1")


def test_group_validation():
    with pytest.raises(ValueError):
        ComplexReflectionGroup(4, 3, 2)  # p must divide m
    with pytest.raises(ValueError):
        ComplexReflectionGroup(1, 1, 3)
    with pytest.raises(ValueError):
        ComplexReflectionGroup(3, 3, 1)


def test_parse_group_name():
    g = parse_group_name("G(6,3,2)")
    assert (g.m, g.p, g.N) == (6, 3, 2)
    g = parse_group_name(" 3, 3, 3 ")
    assert (g.m, g.p, g.N) == (3, 3, 3)
    with pytest.raises(ValueError):
        parse_group_name("G(6,4,2)")


def test_pair_matrix_is_involution():
    g = ComplexReflectionGroup(6, 3, 2)
    for k in range(6):
        mat = g.pair_matrix(0, 1, k)
        sq = [
            [sum((mat[a][t] * mat[t][b] for t in range(2)), g.field.zero()) for b in range(2)]
            for a in range(2)
        ]
        for a in range(2):
            for b in range(2):
                want = g.field.one() if a == b else g.field.zero()
                assert sq[a][b] == want


def test_mirror_form_flips():
    g = ComplexReflectionGroup(4, 4, 2)
    ctx = ComplexDunklContext(g, Fraction(1, 2), Fraction(1, 3))
    xi = g.xi
    for k in range(4):
        coeffs = (g.field.one(), -(xi**k))
        form = Polynomial.linear_form(g.field, coeffs)
        assert (ctx.reflect_poly(k, form) + form).is_zero()  # the one pair (0, 1): index k


def definition_apply(g, c0, c0_odd, cdiag, i, f):
    """T_i f written out from the operator's definition, without the shared core.

    Pair reflections act through their matrices; the diagonal term uses the
    projection d * [x_i-degree = t mod d part of f] = sum_s eta^(-st) f(.., eta^s x_i, ..).
    """
    field = g.field
    axis = vec(field, [1 if v == i else 0 for v in range(g.N)])
    out = f.partial(i)
    for j in range(g.N):
        if j == i:
            continue
        for k in range(g.m):
            c = c0_odd if k % 2 and c0_odd is not None else c0
            form = axis[:j] + (-(g.xi ** k),) + axis[j + 1:]
            diff = f - f.compose_linear(g.pair_matrix(i, j, k))
            out = out - divide_by_linear(diff, form) * c
    d = g.diag_order
    for t in range(1, d):
        part = Polynomial.zero(field, g.N)
        for s in range(d):
            part = part + f.compose_linear(g.diag_matrix(i, s)) * g.eta ** (-s * t)
        out = out - divide_by_linear(part, axis) * cdiag[t - 1]
    return out


weights = st.fractions(min_value=-2, max_value=2, max_denominator=7)


@st.composite
def group_inputs(draw, g):
    """Weights for g and a polynomial of degree <= 3 with coefficients a + b*xi."""
    c0 = g.field.element(draw(weights))
    c0_odd = g.field.element(draw(weights)) if g.has_parity_split else None
    cdiag = tuple(g.field.element(draw(weights)) for _ in range(g.diag_order - 1))
    monos = draw(st.lists(st.sampled_from(monomials(g.N, 3)), max_size=6, unique=True))
    small = st.integers(min_value=-3, max_value=3)
    f = Polynomial(g.field, g.N, {
        e: g.field.element(draw(small)) + g.xi * draw(small) for e in monos
    })
    return c0, c0_odd, cdiag, f


@pytest.mark.parametrize("m,p,N", [(3, 3, 3), (4, 4, 2), (4, 2, 2), (6, 3, 2), (8, 4, 3)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_apply_matches_definition(m, p, N, data):
    g = ComplexReflectionGroup(m, p, N)
    c0, c0_odd, cdiag, f = data.draw(group_inputs(g))
    ctx = ComplexDunklContext(g, c0, c0_odd, cdiag=cdiag)
    for i in range(N):
        assert ctx.apply(i, f) == definition_apply(g, c0, c0_odd, cdiag, i, f)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_apply_along_a_vector_is_linear(data):
    g = ComplexReflectionGroup(4, 2, 3)
    c0, _, cdiag, f = data.draw(group_inputs(g))
    ctx = ComplexDunklContext(g, c0, cdiag=cdiag)
    small = st.integers(min_value=-2, max_value=2)
    xi = tuple(g.field.element(data.draw(small)) + g.xi * data.draw(small) for _ in range(g.N))
    split = Polynomial.zero(g.field, g.N)
    for i in range(g.N):
        split = split + ctx.apply(i, f) * xi[i]
    assert ctx.apply(xi, f) == split


def test_weight_validation():
    g = ComplexReflectionGroup(3, 3, 3)
    with pytest.raises(ValueError):
        ComplexDunklContext(g, Fraction(1, 2), Fraction(1, 3))  # no parity split here
    with pytest.raises(ValueError):
        ComplexDunklContext(ComplexReflectionGroup(4, 2, 3), Fraction(1, 2))  # missing c1


def test_reduces_to_signed_permutations():
    # m = 2, p = 1 is the hyperoctahedral group; the operators must agree
    g = ComplexReflectionGroup(2, 1, 3)
    c_pair, c_axis = Fraction(2, 7), Fraction(3, 5)
    cg = ComplexDunklContext(g, c_pair, cdiag=(c_axis,))
    rs = root_system("B", 3)
    cb = DunklContext(rs, Multiplicities.numeric(rs, {"c1": c_pair, "c2": c_axis}))
    for exps in monomials(3, 3):
        f = Polynomial.monomial(g.field, exps, g.field.one())
        for i in range(3):
            assert (cg.apply(i, f) - cb.apply(i, f)).is_zero()


def test_diagonal_term_reads_own_coordinate():
    g = ComplexReflectionGroup(4, 2, 2)
    lo = ComplexDunklContext(g, Fraction(1, 2), Fraction(1, 2), cdiag=(Fraction(1, 3),))
    hi = ComplexDunklContext(g, Fraction(1, 2), Fraction(1, 2), cdiag=(Fraction(2, 3),))
    f = Polynomial.monomial(g.field, (3, 0), g.field.one())
    assert (lo.apply(1, f) - hi.apply(1, f)).is_zero()
    delta = lo.apply(0, f) - hi.apply(0, f)
    expected = Polynomial.monomial(g.field, (2, 0), g.field.element(Fraction(2, 3)))
    assert (delta - expected).is_zero()


@pytest.mark.parametrize(
    "m,p,N,weights",
    [
        (3, 3, 2, {"c0": Fraction(1, 2)}),
        (3, 3, 3, {"c0": Fraction(2, 5)}),
        (4, 4, 2, {"c0": Fraction(1, 3), "c0_odd": Fraction(1, 7)}),
        (4, 2, 2, {"c0": Fraction(1, 2), "c0_odd": Fraction(1, 5), "c1": Fraction(2, 3)}),
        (4, 2, 3, {"c0": Fraction(1, 2), "c1": Fraction(1, 4)}),
        (6, 3, 2, {"c0": Fraction(1, 6), "c1": Fraction(1, 2)}),
    ],
)
def test_operators_commute(m, p, N, weights):
    g = ComplexReflectionGroup(m, p, N)
    d = g.diag_order
    ctx = ComplexDunklContext(
        g,
        weights["c0"],
        weights.get("c0_odd"),
        cdiag=tuple(weights.get("c1", 0) for _ in range(d - 1)),
    )
    assert ctx.commutativity_violations(2) == []


def test_collision_subspace_shapes():
    g = ComplexReflectionGroup(3, 3, 3)
    assert collision_subspace(g, 1, 2).dim == 2
    assert collision_subspace(g, 1, 3).dim == 1
    assert collision_subspace(g, 0, 1, l=2).dim == 1
    assert collision_subspace(g, 1, 3, eps=1).dim == 1
    with pytest.raises(ValueError):
        collision_subspace(g, 2, 2)  # needs 4 coordinates


def test_orbit_sizes():
    g = ComplexReflectionGroup(3, 3, 3)
    assert len(subspace_orbit(g, collision_subspace(g, 1, 2))) == 9
    assert len(subspace_orbit(g, collision_subspace(g, 1, 3, eps=1))) == 3
    assert len(subspace_orbit(g, collision_subspace(g, 0, 1, l=2))) == 3


# every shape of acceptance 9, the p = m shapes with one zero among them (G(3,3,2) and
# G(4,4,2) with l = 1, G(3,3,3) with q, r, l = 1, 2, 1), which are no intersection of the
# group's own mirrors; and two shapes of G(4,2,4)
ORBIT_SHAPES = sorted({(mpn, shape) for mpn, shape, _, _ in COMPLEX_CASES}) + [
    ((4, 2, 4), (1, 2, 2, 0)),
    ((4, 2, 4), (2, 2, 0, 1)),
]


@pytest.mark.parametrize("mpn,shape", ORBIT_SHAPES,
                         ids=[f"G{mpn}-qrle{shape}".replace(" ", "") for mpn, shape in ORBIT_SHAPES])
def test_subspace_orbit_matches_reference(mpn, shape):
    group = ComplexReflectionGroup(*mpn)
    sub = collision_subspace(group, *shape)
    got = subspace_orbit(group, sub)
    ref = reference_subspace_orbit(group, sub)
    assert got.keys() == ref.keys()
    for key, member in got.items():
        assert (member.annihilator, member.basis) == (ref[key].annihilator, ref[key].basis)


def test_group_builds_its_lines_and_permutations_lazily():
    g = ComplexReflectionGroup(4, 2, 4)
    assert "lines" not in vars(g) and "line_perms" not in vars(g)
    subspace_orbit(g, collision_subspace(g, 1, 2))
    assert len(g.lines) == 4 * 6 + 4
    assert len(g.line_perms) == 3 + 1 + 1
    assert all(sorted(perm) == list(range(len(g.lines))) for perm in g.line_perms)


def test_subspace_orbit_refuses_a_subspace_off_the_arrangement():
    g = ComplexReflectionGroup(3, 3, 2)
    one, two = g.field.one(), g.field.element(2)
    with pytest.raises(ValueError, match="not an intersection"):
        subspace_orbit(g, Subspace(g.field, 2, [(one, two)]))


def test_condition_texts():
    g33 = ComplexReflectionGroup(3, 3, 3)
    assert ideal_conditions(g33, q=1, r=2) == ["2*c0 = 1"]
    assert ideal_conditions(g33, l=1) == ["0 = 1"]
    assert ideal_conditions(g33, l=2) == ["3*c0 = 1"]
    g42 = ComplexReflectionGroup(4, 2, 3)
    assert ideal_conditions(g42, l=1) == ["2*c1 = 1"]
    assert ideal_conditions(g42, l=2) == ["4*c0+2*c1 = 1"]
    g422 = ComplexReflectionGroup(4, 2, 2)
    assert ideal_conditions(g422, l=2) == ["2*c0+2*c0_odd+2*c1 = 1"]
    assert ideal_conditions(g422, q=1, r=2, eps=1) == ["2*c0_odd = 1"]


def make_ctx(g, values):
    d = g.diag_order
    cdiag = tuple(values.get(f"c{t}", 0) for t in range(1, d))
    return ComplexDunklContext(g, values.get("c0", 0), values.get("c0_odd"), cdiag=cdiag)


@pytest.mark.parametrize(
    "name,qrle,values,expect",
    [
        # block collisions
        ("G(3,3,3)", (1, 2, 0, 0), {"c0": Fraction(1, 2)}, True),
        ("G(3,3,3)", (1, 2, 0, 0), {"c0": Fraction(1, 3)}, False),
        ("G(3,3,3)", (1, 3, 0, 0), {"c0": Fraction(1, 3)}, True),
        # coordinate zeros, p = m and p < m
        ("G(3,3,3)", (0, 1, 2, 0), {"c0": Fraction(1, 3)}, True),
        ("G(3,3,3)", (0, 1, 2, 0), {"c0": Fraction(1, 2)}, False),
        ("G(4,2,3)", (0, 1, 1, 0), {"c0": Fraction(1, 5), "c1": Fraction(1, 2)}, True),
        ("G(4,2,3)", (0, 1, 2, 0), {"c0": Fraction(1, 8), "c1": Fraction(1, 4)}, True),
        ("G(4,2,3)", (0, 1, 2, 0), {"c0": Fraction(1, 8), "c1": Fraction(1, 3)}, False),
        # blocks and zeros together
        ("G(4,2,3)", (1, 2, 1, 0), {"c0": Fraction(1, 2), "c1": Fraction(1, 2)}, True),
        ("G(4,2,3)", (1, 2, 1, 0), {"c0": Fraction(1, 2), "c1": Fraction(1, 3)}, False),
        # parity split: even and odd block classes are separate ideals
        ("G(4,2,2)", (1, 2, 0, 0), {"c0": Fraction(1, 2), "c0_odd": Fraction(1, 7), "c1": 0}, True),
        ("G(4,2,2)", (1, 2, 0, 1), {"c0": Fraction(1, 2), "c0_odd": Fraction(1, 7), "c1": 0}, False),
        ("G(4,2,2)", (1, 2, 0, 1), {"c0": Fraction(1, 7), "c0_odd": Fraction(1, 2), "c1": 0}, True),
        # the averaged zeros condition really mixes the two pair weights
        ("G(4,2,2)", (0, 1, 2, 0), {"c0": Fraction(1, 4), "c0_odd": 0, "c1": Fraction(1, 4)}, True),
        ("G(4,2,2)", (0, 1, 2, 0), {"c0": Fraction(1, 4), "c0_odd": Fraction(1, 4), "c1": Fraction(1, 4)}, False),
        # p odd never splits, twisted blocks share the plain orbit
        ("G(6,3,2)", (1, 2, 0, 1), {"c0": Fraction(1, 2), "c1": 0}, True),
        ("G(6,3,2)", (0, 1, 1, 0), {"c0": Fraction(1, 5), "c1": Fraction(1, 2)}, True),
    ],
)
def test_ideal_membership_both_routes(name, qrle, values, expect):
    g = parse_group_name(name)
    q, r, l, eps = qrle
    sub = collision_subspace(g, q, r, l=l, eps=eps)
    ctx = make_ctx(g, values)
    direct = not direct_ideal_violations(ctx, sub)
    assert direct is expect
    assert ideal_conditions_hold(g, values, q=q, r=r, l=l, eps=eps) is expect


def collision_shapes(N):
    """(q, r, l) fitting N coordinates: l >= 1 zeros alone, or q blocks of r >= 2 and l zeros."""
    shapes = [(0, 1, l) for l in range(1, N + 1)]
    for r in range(2, N + 1):
        for q in range(1, N // r + 1):
            shapes += [(q, r, l) for l in range(N - q * r + 1)]
    return shapes


# G(2,1,N) is the Weyl group of B_N, G(2,2,N) that of D_N, and the weights
# correspond: pair weight c0 to the long orbit, c1 to the short one of B
CLASSICAL = {"B": (1, {"c0": "c1", "c1": "c2"}), "D": (2, {"c0": "c"})}


@pytest.mark.parametrize("family,N", [("B", N) for N in range(2, 6)] + [("D", N) for N in range(4, 7)])
def test_conditions_match_classical_families(family, N):
    p, names = CLASSICAL[family]
    g = ComplexReflectionGroup(2, p, N)
    rs = root_system(family, N)
    # one zero coordinate of D_N is not an intersection of mirrors
    shapes = [s for s in collision_shapes(N) if family == "B" or s[2] != 1]
    for q, r, l in shapes:
        renamed = [re.sub(r"\bc[01]\b", lambda m: names[m.group()], e) for e in ideal_conditions(g, q, r, l)]
        assert sorted(renamed) == condition_equations(block_stratum(rs, q, r, l=l)), (q, r, l)


@pytest.mark.parametrize("m,p,N", [(3, 3, 2), (3, 3, 3), (4, 2, 2), (4, 2, 3), (4, 4, 2), (6, 3, 2)])
def test_solved_weights_pass_the_direct_test(m, p, N):
    g = ComplexReflectionGroup(m, p, N)
    names = g.param_names()
    field = Field.rational()
    solved_strata = 0
    for q, r, l in collision_shapes(N):
        for eps in (0, 1) if q else (0,):
            status, values, free = solve_affine(field, names, condition_forms(g, q, r, l, eps))
            if status == "inconsistent":
                continue
            point = {name: Fraction(2 * i + 1, 2 * i + 5) for i, name in enumerate(free)}
            x = tuple(field.element(point.get(name, 0)) for name in names)
            for name, h in values.items():
                point[name] = h.evaluate(x).as_fraction()
            sub = collision_subspace(g, q, r, l=l, eps=eps)
            assert ideal_conditions_hold(g, point, q, r, l, eps)
            assert not direct_ideal_violations(ComplexDunklContext.at_weights(g, point), sub), (q, r, l, eps)
            pivot = next(iter(values))
            off = dict(point, **{pivot: point[pivot] + Fraction(1, 7)})
            assert not ideal_conditions_hold(g, off, q, r, l, eps)
            assert direct_ideal_violations(ComplexDunklContext.at_weights(g, off), sub), (q, r, l, eps)
            solved_strata += 1
    assert solved_strata == {(3, 3, 2): 3, (3, 3, 3): 6, (4, 2, 2): 4, (4, 2, 3): 9, (4, 4, 2): 3, (6, 3, 2): 4}[m, p, N]


def test_missing_odd_weight_defaults_to_c0():
    g = ComplexReflectionGroup(4, 2, 2)
    sub = collision_subspace(g, 0, 1, l=2)
    for values, expect in (
        ({"c0": Fraction(1, 8), "c1": Fraction(1, 4)}, True),
        ({"c0": Fraction(1, 4), "c1": Fraction(1, 4)}, False),
    ):
        assert weight_point(g, values) == dict(values, c0_odd=values["c0"])
        assert ideal_conditions_hold(g, values, l=2) is expect
        assert (not direct_ideal_violations(ComplexDunklContext.at_weights(g, values), sub)) is expect
