from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_reference import (
    SymbolicOmega,
    _reflected,
    laplacian,
    reference_apply,
    reference_commutativity_violations,
    reference_equivariance_violations,
    reference_images,
)
from dunklcm.complexgroups import ComplexDunklContext, ComplexReflectionGroup
from dunklcm.dunkl import DeformedContext, DunklContext
from dunklcm.polynomials import Polynomial, monomials
from dunklcm.rootsystems import Multiplicities, root_system


def numeric_ctx(fam, rank_=None, m=None, mapping=Fraction(1, 2), deformed=False):
    rs = root_system(fam, rank_, m=m)
    mults = Multiplicities.numeric(rs, mapping)
    return DeformedContext(rs, mults) if deformed else DunklContext(rs, mults)


def test_equal_powers_apply_no_operator():
    # [H_k, H_k] = 0 at every weight, so the check returns before any image is built
    ctx = numeric_ctx("B", 3, mapping={"c1": Fraction(1, 2), "c2": Fraction(1, 3)}, deformed=True)
    assert ctx.integrability_violations(2, 2, 3) == []
    assert ctx._images == {}


def variables(ctx):
    return [Polynomial.variable(ctx.field, ctx.nvars, v) for v in range(ctx.nvars)]


def test_kills_constants():
    ctx = numeric_ctx("A", 3)
    one = Polynomial.constant(ctx.field, ctx.nvars, 1)
    for v in range(ctx.nvars):
        assert ctx.apply(v, one).is_zero()


def test_degree_one_values():
    # T_0 x_0 = 1 - 2c and T_0 x_1 = c on three coordinates with one orbit
    c = Fraction(2, 7)
    ctx = numeric_ctx("A", 2, mapping=c)
    x = variables(ctx)
    assert (ctx.apply(0, x[0]) - ctx.constant(1 - 2 * c)).is_zero()
    assert (ctx.apply(0, x[1]) - ctx.constant(c)).is_zero()
    assert (ctx.apply(0, x[2]) - ctx.constant(c)).is_zero()


def test_linear_in_direction():
    ctx = numeric_ctx("B", 2, mapping={"c1": Fraction(1, 3), "c2": Fraction(2, 5)})
    x = variables(ctx)
    f = x[0] ** 2 * x[1] + x[1] ** 3
    xi = (ctx.field.element(2), ctx.field.element(-3))
    direct = ctx.apply(xi, f)
    split = ctx.apply(0, f) * 2 - ctx.apply(1, f) * 3
    assert (direct - split).is_zero()


def test_coordinate_commutator_closed_form():
    # [T_i, x_i] f = f - c * sum of the transposed images of f
    c = Fraction(3, 5)
    ctx = numeric_ctx("A", 3, mapping=c)
    rs = ctx.rs
    x = variables(ctx)
    f = x[0] ** 2 * x[2] - x[1] * x[3]
    for i in range(ctx.nvars):
        lhs = ctx.apply(i, x[i] * f) - x[i] * ctx.apply(i, f)
        rhs = f
        for line, alpha in enumerate(rs.lines):
            if not alpha[i].is_zero():
                rhs = rhs - ctx.reflect_poly(line, f) * c
        assert (lhs - rhs).is_zero()


@pytest.mark.parametrize(
    "fam,rank_,mapping",
    [
        ("A", 3, Fraction(4, 7)),
        ("B", 3, {"c1": Fraction(1, 2), "c2": Fraction(-2, 3)}),
        ("G2", None, {"c1": Fraction(5, 3), "c2": Fraction(1, 4)}),
        ("I2", None, Fraction(3, 8)),
    ],
)
def test_commutativity_small(fam, rank_, mapping):
    m = 5 if fam == "I2" else None
    ctx = numeric_ctx(fam, rank_, m=m, mapping=mapping)
    assert ctx.commutativity_violations(3) == []


def test_equivariance():
    ctx = numeric_ctx("H3", mapping=Fraction(2, 9))
    assert reference_equivariance_violations(ctx, 3) == []


@pytest.mark.parametrize("m,p,N", [(3, 3, 2), (4, 2, 3), (4, 4, 2), (6, 2, 2)])
def test_equivariance_on_complex_groups(m, p, N):
    # over the context's own pair reflections, s_w(e_v) = e_v - alpha_w[v] alpha_w^v
    g = ComplexReflectionGroup(m, p, N)
    ctx = ComplexDunklContext(g, {"c0": Fraction(2, 7), **{f"c{t}": Fraction(t, 5) for t in range(1, g.diag_order)}})
    assert reference_equivariance_violations(ctx, 3) == []
    # weights that are not constant on the conjugacy classes break it
    ctx._set_reflections(g.field, N, [(alpha, coroot, g.field.element(Fraction(r + 1, 7)))
                                      for r, (alpha, coroot, _) in enumerate(ctx.reflections)])
    assert reference_equivariance_violations(ctx, 1)


def test_laplacian_of_invariant_quadric():
    # sum of squares is fixed by every reflection, so only the plain
    # Laplacian survives
    ctx = numeric_ctx("D", 4, mapping=Fraction(1, 6))
    x = variables(ctx)
    q = sum((xi * xi for xi in x), Polynomial.zero(ctx.field, ctx.nvars))
    lap = laplacian(ctx, q)
    lines = ctx.rs.lines
    expected = 2 * ctx.nvars - 4 * Fraction(1, 6) * len(lines)
    assert (lap - ctx.constant(expected)).is_zero()


# ---------------------------------------------------------------------------
# confined operators


def test_raising_lowering_factor_through_omega():
    c = Fraction(1, 2)
    ctx = numeric_ctx("A", 2, mapping=c, deformed=True)
    x = variables(ctx)
    f = x[0] * x[1]
    # a- a+ - a+ a- = 2 omega [T_0, x_0], with [T_0, x_0] f = f - c sum_r s_r f
    # over the lines that see x_0; the gap has weight 0, so at omega = 1 it
    # keeps the degree of f
    diff = ctx.lowering(0, ctx.raising(0, f)) - ctx.oscillator(0, f)
    commutator = f
    for line, alpha in enumerate(ctx.rs.lines):
        if not alpha[0].is_zero():
            commutator = commutator - ctx.reflect_poly(line, f) * c
    assert not diff.is_zero()
    assert diff == commutator * 2
    assert diff.degree() == f.degree()


@pytest.mark.parametrize(
    "fam,rank_,mapping,k,l",
    [
        ("A", 2, Fraction(1, 2), 1, 2),
        ("A", 3, Fraction(1, 3), 1, 2),
        ("B", 2, {"c1": Fraction(1, 2), "c2": Fraction(1, 4)}, 2, 1),
        ("D", 3, Fraction(2, 5), 1, 2),
    ],
)
def test_confined_integrability(fam, rank_, mapping, k, l):
    ctx = numeric_ctx(fam, rank_, mapping=mapping, deformed=True)
    assert ctx.integrability_violations(k, l, 2) == []


def test_pair_commutator_closed_form():
    # both sides have weight -4, so the defect at omega = 1 decides every omega on a monomial
    for fam, rank_, mapping in (
        ("B", 2, {"c1": Fraction(2, 3), "c2": Fraction(1, 5)}),
        ("A", 3, Fraction(2, 7)),
        ("D", 3, Fraction(3, 4)),
    ):
        ctx = numeric_ctx(fam, rank_, mapping=mapping, deformed=True)
        for exps in monomials(ctx.nvars, 3):
            assert ctx.pair_commutator_defect(0, 1, ctx.monomial(exps)).is_zero(), (fam, exps)


def test_pair_commutator_rejects_exceptional():
    ctx = numeric_ctx("G2", mapping={"c1": 1, "c2": 1}, deformed=True)
    f = Polynomial.variable(ctx.field, ctx.nvars, 0)
    with pytest.raises(ValueError):
        ctx.pair_commutator_defect(0, 1, f)


# ---------------------------------------------------------------------------
# the memoized core against the unmemoized reference


weights = st.fractions(min_value=-2, max_value=2, max_denominator=7)


def real_case(fam, rank_=None, deformed=False):
    def make(draw):
        rs = root_system(fam, rank_)
        mults = Multiplicities.numeric(rs, {name: draw(weights) for name in rs.orbit_names})
        return DeformedContext(rs, mults) if deformed else DunklContext(rs, mults)

    return make


def complex_case(m, p, N):
    def make(draw):
        g = ComplexReflectionGroup(m, p, N)
        cdiag = {f"c{t}": draw(weights) for t in range(1, g.diag_order)}
        return ComplexDunklContext(g, {"c0": draw(weights), **cdiag})

    return make


# Q, Q(sqrt5), the confined context (the same core), cyclotomic fields with
# and without the diagonal term
CORE_CASES = {
    "B3": real_case("B", 3),
    "H3": real_case("H3"),
    "A3-deformed": real_case("A", 3, deformed=True),
    "G(4,2,3)": complex_case(4, 2, 3),
    "G(3,3,3)": complex_case(3, 3, 3),
}


@cache
def warm_context(name):
    """One context per case that stays warm across examples."""
    rng = iter(Fraction(k, 5) for k in range(1, 100))
    return CORE_CASES[name](lambda _: next(rng))


@st.composite
def field_polynomials(draw, ctx):
    """A polynomial of degree <= 3 over every variable, coefficients a + b*g."""
    field = ctx.field
    gen = field.generator() if field.degree > 1 else field.zero()
    small = st.integers(min_value=-3, max_value=3)
    monos = draw(st.lists(st.sampled_from(monomials(ctx.nvars, 3)), min_size=1, max_size=6, unique=True))
    return Polynomial(field, ctx.nvars, {e: field.element(draw(small)) + gen * draw(small) for e in monos})


def assert_matches_reference(ctx, f, xi):
    term = Polynomial(ctx.field, ctx.nvars, dict(list(f.terms.items())[:1]))
    for v, (want, term_image) in enumerate(zip(reference_images(ctx, f), reference_images(ctx, term))):
        assert ctx.apply(v, f) == want
        assert ctx.extend(v, f) == want
        assert ctx.apply(v, term) == term_image
    assert ctx.apply(xi, f) == reference_apply(ctx, xi, f)
    for r, (alpha, coroot, _) in enumerate(ctx.reflections):
        assert ctx.reflect_poly(r, f) == _reflected(ctx, alpha, coroot, f)


@pytest.mark.parametrize("name", list(CORE_CASES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_apply_matches_reference(name, data):
    cold = CORE_CASES[name](data.draw)
    field = cold.field
    f = data.draw(field_polynomials(cold))
    g = data.draw(field_polynomials(cold))
    xi = tuple(field.element(data.draw(st.integers(-2, 2))) for _ in range(cold.nvars))
    assert_matches_reference(cold, f, xi)  # every memo empty on entry
    assert_matches_reference(cold, f, xi)  # the same inputs, all hits
    assert_matches_reference(cold, g, xi)  # partly warm
    assert_matches_reference(warm_context(name), f, xi)


@pytest.mark.parametrize("name", ["B3", "H3", "G(4,2,3)"])
def test_deep_monomials_match_reference(name):
    # the quotient recursion runs one level per degree, deeper than the draws above
    ctx = warm_context(name)
    for exps in monomials(ctx.nvars, 6):
        f = ctx.monomial(exps)
        for v, want in enumerate(reference_images(ctx, f)):
            assert ctx.apply(v, f) == want, (exps, v)
        for r, (alpha, coroot, _) in enumerate(ctx.reflections):
            assert ctx.reflect_poly(r, f) == _reflected(ctx, alpha, coroot, f), (exps, r)


def planted_context(rs, weight_of_line, deformed=False):
    """A context whose weights are not constant on the orbits of root lines."""
    mults = Multiplicities.numeric(rs, Fraction(1, 2))
    ctx = DeformedContext(rs, mults) if deformed else DunklContext(rs, mults)
    reflections = [(alpha, coroot, rs.field.element(weight_of_line(r)))
                   for r, (alpha, coroot, _) in enumerate(ctx.reflections)]
    ctx._set_reflections(rs.field, rs.dim, reflections)
    return ctx


def test_planted_violation_is_found():
    rs = root_system("B", 3)
    ctx = planted_context(rs, lambda r: Fraction(r + 1, 7))
    got = ctx.commutativity_violations(3)
    assert got
    assert got == reference_commutativity_violations(ctx, 3)


def test_weight_samples_keep_their_own_images():
    rs = root_system("B", 3)
    one = DunklContext(rs, Multiplicities.numeric(rs, {"c1": Fraction(1, 2), "c2": Fraction(1, 3)}))
    two = DunklContext(rs, Multiplicities.numeric(rs, {"c1": Fraction(1, 2), "c2": Fraction(2, 3)}))
    f = one.monomial((3, 0, 0))
    assert one.commutativity_violations(3) == [] == two.commutativity_violations(3)
    assert one.extend(0, f) != two.extend(0, f)
    assert two.extend(0, f) == reference_apply(two, 0, f)


def test_equal_powers_make_integrability_vacuous():
    # planted weights break [H_1, H_2] = 0, while [H_2, H_2] is identically zero
    ctx = planted_context(root_system("A", 2), lambda r: Fraction(r + 1, 7), deformed=True)
    assert ctx.integrability_violations(1, 2, 2)
    assert ctx.integrability_violations(2, 2, 2) == []


@pytest.mark.parametrize("planted", [False, True], ids=["orbit-weights", "planted"])
@pytest.mark.parametrize("fam,rank_,nonempty", [
    ("A", 2, False), ("A", 3, False), ("B", 3, False), ("G2", None, True), ("H3", None, True),
], ids=["A2", "A3", "B3", "G2", "H3"])
def test_confined_integrability_matches_symbolic_omega(fam, rank_, nonempty, planted):
    """[H_k, H_l] is weight-homogeneous (x of weight 1, omega of weight -2), so
    on a monomial each omega^j x^a of it has j fixed by |a|, and the check at
    omega = 1 finds the monomials that the oracle, with omega as a variable,
    finds.  Orbit weights keep A2, A3 and B3 integrable and not G2 or H3;
    planted weights break every system."""
    rs = root_system(fam, rank_)
    if planted:
        ctx = planted_context(rs, lambda r: Fraction(r + 1, 7), deformed=True)
    else:
        weights = {name: Fraction(i + 2, 7) for i, name in enumerate(rs.orbit_names)}
        ctx = DeformedContext(rs, Multiplicities.numeric(rs, weights))
    oracle = SymbolicOmega(ctx)
    found = 0
    for k, l, degree in ((1, 2, 2), (2, 3, 1), (1, 3, 2)):
        degree = 1 if fam == "H3" else degree
        got = ctx.integrability_violations(k, l, degree)
        assert got == oracle.integrability_violations(k, l, degree), (k, l, degree)
        found += len(got)
    assert bool(found) == (nonempty or planted)


# ---------------------------------------------------------------------------
# images and verdicts once per orbit of the coordinate blocks


def distinct_weights(names):
    """A nonzero weight per name, no two equal: c1 != c2, c0 != c0_odd, c1 != 0."""
    return {name: Fraction(i + 2, 7) for i, name in enumerate(names)}


def real_context(fam, rank_=None, m=None):
    rs = root_system(fam, rank_, m=m)
    return DunklContext(rs, Multiplicities.numeric(rs, distinct_weights(rs.orbit_names)))


def complex_context(m, p, N):
    g = ComplexReflectionGroup(m, p, N)
    return ComplexDunklContext(g, distinct_weights(g.param_names()))


# name: (context, degree, whether some block has two coordinates, None where not asserted)
RELABEL_CASES = {
    "A3": (lambda: real_context("A", 3), 3, True),
    "B3": (lambda: real_context("B", 3), 3, True),
    "D4": (lambda: real_context("D", 4), 3, None),
    "F4": (lambda: real_context("F4"), 3, True),
    "G2": (lambda: real_context("G2"), 3, None),
    "H3": (lambda: real_context("H3"), 3, False),
    "E6": (lambda: real_context("E6"), 3, None),
    "E7": (lambda: real_context("E7"), 2, None),
    "E8": (lambda: real_context("E8"), 2, True),
    "I2(5)": (lambda: real_context("I2", m=5), 3, None),
    "I2(6)": (lambda: real_context("I2", m=6), 3, None),
    "G(4,2,2)": (lambda: complex_context(4, 2, 2), 3, None),
    "G(4,4,2)": (lambda: complex_context(4, 4, 2), 3, None),
    "G(6,3,2)": (lambda: complex_context(6, 3, 2), 3, None),
    "G(4,2,3)": (lambda: complex_context(4, 2, 3), 3, True),
    "G(8,4,3)": (lambda: complex_context(8, 4, 3), 3, None),
}


@pytest.mark.parametrize("name", list(RELABEL_CASES))
def test_relabelled_images_match_reference(name):
    """T_v x^a from the memo is the unmemoized reference on every monomial,
    whether apply computed it or it was relabelled from its orbit's canonical image."""
    make, degree, symmetric = RELABEL_CASES[name]
    ctx = make()
    assert ctx._blocks is None  # built on first use only
    applied = []
    apply = ctx.apply
    ctx.apply = lambda v, f: applied.append(v) or apply(v, f)
    for exps in monomials(ctx.nvars, degree):
        for v, want in enumerate(reference_images(ctx, ctx.monomial(exps))):
            assert ctx._image(v, exps) == want, (exps, v)
    relabelled = len(applied) < len(ctx._images)
    assert relabelled == any(len(block) > 1 for block in ctx.coordinate_blocks)
    if symmetric is not None:
        assert relabelled == symmetric


def test_blocks_follow_the_reflections():
    """Weights that only a coordinate permutation preserves keep the reduction
    on, and the verdicts still find every violation; weights that no
    transposition preserves switch it off."""
    rs = root_system("B", 3)

    def by_root_type(r):  # c(e_i - e_j) = 1/3, c(e_i + e_j) = 1/5, c(e_i) = 1/7: S_3-symmetric, not W-invariant
        nonzero = [a for a in rs.lines[r] if not a.is_zero()]
        if len(nonzero) == 1:
            return Fraction(1, 7)
        return Fraction(1, 5) if nonzero[0] == nonzero[1] else Fraction(1, 3)

    ctx = planted_context(rs, by_root_type)
    assert ctx.coordinate_blocks == (range(3),)
    got = ctx.commutativity_violations(3)
    assert len(got) == 33
    assert got == reference_commutativity_violations(ctx, 3)
    deformed = planted_context(rs, by_root_type, deformed=True)
    got = deformed.integrability_violations(1, 2, 2)
    assert len(got) == 9
    assert got == SymbolicOmega(deformed).integrability_violations(1, 2, 2)
    # new reflections rebuild the blocks
    ctx._set_reflections(rs.field, rs.dim, [(alpha, coroot, rs.field.element(Fraction(r + 1, 7)))
                                            for r, (alpha, coroot, _) in enumerate(ctx.reflections)])
    assert ctx.coordinate_blocks == (range(1), range(1, 2), range(2, 3))
