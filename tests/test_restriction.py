import json
import random
from fractions import Fraction

import pytest

from dunklcm.restriction import (
    catalog_compare,
    catalog_row_result,
    catalog_stratum,
    _load_catalog_rows,
    conservation_defect,
    deformed_restriction_constant,
    gauge_defects,
    restricted_configuration,
    restriction_defects,
)
from dunkl_reference import laplacian
from dunklcm.cli import _instantiate_solution, main, resolve_subgraph
from dunklcm.dunkl import DeformedContext, DunklContext
from dunklcm.fields import render_scalar
from dunklcm.linalg import dot, rank
from dunklcm.polynomials import Polynomial, divide_by_linear, render_polynomial
from dunklcm.rootsystems import (
    Multiplicities,
    Stratum,
    block_stratum,
    enumerate_parabolic_strata,
    parabolic_stratum,
    root_system,
)
from rootsystem_reference import reference_components, reference_stratum, subspace
from restriction_reference import (
    full_space_restriction_defects,
    invariant_laplacian,
    invariant_power_sum,
    reference_configuration,
    reference_lines,
    reference_gauge_defects,
    reference_restriction_defects,
)


def test_pair_block_configuration():
    rs = root_system("A", 5)
    st = block_stratum(rs, m=2, k=2)
    cfg = restricted_configuration(st, Multiplicities.symbolic(rs))
    assert cfg.size == 6
    assert cfg.mult_multiset() == {"c": 1, "2*c": 4, "4*c": 1}


def test_mixed_orbit_configuration():
    rs = root_system("F4")
    cfg = restricted_configuration(parabolic_stratum(rs, (0,)), Multiplicities.symbolic(rs))
    assert cfg.size == 13
    assert cfg.mult_multiset() == {"c2": 6, "2*c1": 4, "c1+2*c2": 3}
    # the other node class swaps the two orbits
    cfg2 = restricted_configuration(parabolic_stratum(rs, (3,)), Multiplicities.symbolic(rs))
    assert cfg2.mult_multiset() == {"c1": 6, "2*c2": 4, "2*c1+c2": 3}


def test_conservation_is_weight_free():
    # the grouped projections balance for arbitrary weights, not just
    # invariant ones; this pins the grouping itself
    for fam, rank_ in (("A", 4), ("B", 3), ("D", 4)):
        rs = root_system(fam, rank_)
        sym = Multiplicities.symbolic(rs)
        for st in enumerate_parabolic_strata(rs):
            config = restricted_configuration(st, sym)
            assert conservation_defect(st, sym, config).is_zero(), (fam, st.label)


def test_fingerprint_identifies_conjugate_strata():
    rs = root_system("A", 5)
    num = Multiplicities.numeric(rs, Fraction(1, 2))
    fp = lambda g: restricted_configuration(parabolic_stratum(rs, g), num).fingerprint()
    assert fp((0,)) == fp((3,))
    assert fp((0,)) != fp((0, 1))


def test_fingerprint_needs_numeric():
    rs = root_system("A", 3)
    cfg = restricted_configuration(parabolic_stratum(rs, (0,)), Multiplicities.symbolic(rs))
    with pytest.raises(ValueError):
        cfg.fingerprint()


def test_gauge_zero_on_invariant_strata():
    rs = root_system("B", 3)
    st = block_stratum(rs, m=1, k=2, l=1)
    mults = Multiplicities.numeric(rs, {"c1": Fraction(1, 2), "c2": Fraction(1, 2)})
    assert gauge_defects(st, mults) == []


def test_gauge_needs_numeric():
    rs = root_system("B", 3)
    st = parabolic_stratum(rs, (0,))
    with pytest.raises(ValueError):
        gauge_defects(st, Multiplicities.symbolic(rs))


def test_power_sums_are_invariant():
    rs = root_system("H3")
    p4 = invariant_power_sum(rs, 4)
    assert p4.degree() == 4
    from dunklcm.dunkl import DunklContext

    ctx = DunklContext(rs, Multiplicities.numeric(rs, Fraction(1, 2)))
    for line in range(len(rs.lines)):
        assert (ctx.reflect_poly(line, p4) - p4).is_zero()


def test_restriction_needs_closed_root_lines_and_even_degrees(monkeypatch):
    # the power sum is invariant because the simple reflections permute the
    # root lines, and sign-free because its degree is even
    rs = root_system("B", 3)
    st = block_stratum(rs, m=1, k=2, l=1)
    mults = Multiplicities.numeric(rs, {"c1": Fraction(1, 2), "c2": Fraction(1, 2)})
    assert restriction_defects(st, mults, degrees=(2,)) == []
    with pytest.raises(ValueError, match="only even exponents"):
        restriction_defects(st, mults, degrees=(2, 3))
    first, *rest = rs.simple_perms
    monkeypatch.setitem(vars(rs), "simple_perms", (first[:-1] + (None,), *rest))
    with pytest.raises(ValueError, match="do not permute the root lines"):
        restriction_defects(st, mults, degrees=(2,))


def test_restriction_identity_and_its_failure():
    rs = root_system("B", 3)
    st = block_stratum(rs, m=1, k=2, l=1)
    good = Multiplicities.numeric(rs, {"c1": Fraction(1, 2), "c2": Fraction(1, 2)})
    bad = Multiplicities.numeric(rs, {"c1": Fraction(1, 3), "c2": Fraction(1, 5)})
    assert restriction_defects(st, good) == []
    assert restriction_defects(st, bad, degrees=(2,)) == [2]


def test_deformed_restriction_identity():
    rs = root_system("A", 3)
    st = block_stratum(rs, m=1, k=2)
    mults = Multiplicities.numeric(rs, Fraction(1, 2))
    assert restriction_defects(st, mults, degrees=(2, 4)) == []
    assert reference_restriction_defects(st, mults, degrees=(2, 4), deformed=True) == []
    # -N + N(N-1)/k at N = 4, k = 2
    assert deformed_restriction_constant(st, mults) == rs.field.element(2)


def test_texts_render():
    rs = root_system("A", 5)
    cfg = restricted_configuration(parabolic_stratum(rs, (0,)), Multiplicities.numeric(rs, Fraction(1, 2)))
    assert cfg.radial_text().startswith("Delta_pi - 2*(1/2)/(x5-x6) d_(x5-x6)")
    assert "(1/2)*(1/2+1)*(2)/(x5-x6)^2" in cfg.potential_text()
    js = cfg.to_json()
    assert js["size"] == cfg.size and js["dim"] == cfg.dim


def test_catalog_rows_recompute():
    rows = _load_catalog_rows()
    assert len(rows) == 41
    r9 = catalog_row_result(rows[8])
    assert (r9["c"], r9["dim"], r9["size"]) == ("1/6", 4, 24)
    assert r9["mults"] == {"1/6": 12, "4/3": 12}
    r15 = catalog_row_result(rows[14])
    assert (r15["c"], r15["dim"], r15["size"]) == ("1/12", 2, 6)
    assert r15["mults"] == {"9/4": 3, "1/12": 3}


def test_gauge_residues_cancel_on_every_catalog_row():
    rows = _load_catalog_rows()
    assert len(rows) == 41
    for row in rows:
        st = catalog_stratum(row)
        mults = Multiplicities.numeric(st.rs, Fraction(row["c"]))
        assert gauge_defects(st, mults) == [], (row["index"], row["family"], row["type"])


def test_catalog_compare_smoke():
    rows = _load_catalog_rows()
    diffs = catalog_compare()
    assert len(diffs) == len(rows)
    first = diffs[0]
    assert first["dim_match"] and first["mults_match"]


# ---------------------------------------------------------------------------
# grouping by Gram coordinates against the per-line projection


def orbit_weights(rs):
    """Numeric weights that differ from orbit to orbit."""
    return Multiplicities.numeric(rs, {name: Fraction(k + 2, 7) for k, name in enumerate(rs.orbit_names)})


def assert_matches_reference(st):
    assert st.lines == reference_lines(st), st.label
    assert st.components() == reference_components(st), st.label
    for mults in (orbit_weights(st.rs), Multiplicities.symbolic(st.rs)):
        cfg = restricted_configuration(st, mults)
        vectors, weights = reference_configuration(st, mults)
        assert cfg.vectors == tuple(vectors), st.label
        assert cfg.mults == tuple(weights), st.label


def test_grouped_projection_matches_reference_on_catalog():
    rows = _load_catalog_rows()
    assert len(rows) == 41
    for row in rows:
        assert_matches_reference(catalog_stratum(row))


def named_system(name):
    return root_system(name[0], int(name[1:])) if name[0] in "ABD" else root_system(name)


@pytest.mark.parametrize("family", [
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4", "D5", "D6", "F4", "G2", "H3", "H4",
    *[f"I2({m})" for m in (3, 4, 5, 6, 8, 12)],
])
def test_grouped_projection_matches_reference_on_parabolic_strata(family):
    # every parabolic class, and the whole space as the command line builds it
    rs = named_system(family)
    strata = enumerate_parabolic_strata(rs)
    assert strata
    for st in [resolve_subgraph(rs, ""), *strata]:
        assert_matches_reference(st)


def checked_block_strata():
    strata = [block_stratum(root_system("B", 4), m=1, k=2, l=1)]
    for family, subgraph in (("A5", "A2:k=3,m=2"), ("B4", "Bl:l=2"), ("B4", "Bl:l=3"), ("D4", "Dp:l=2")):
        strata.append(resolve_subgraph(named_system(family), subgraph))
    return strata


def test_grouped_projection_matches_reference_on_block_stratum():
    # each block stratum is X_I: the simple roots inside its blocks, then the last l
    want = [(0, 3), (0, 1, 3, 4), (2, 3), (1, 2, 3), (2, 3)]
    for st, gamma0 in zip(checked_block_strata(), want, strict=True):
        assert st.gamma0 == gamma0, st.label
        assert_matches_reference(st)


def test_span_dim_is_the_rank_of_the_projected_lines():
    # the configuration is handed rank - len(annihilator); the rank of its
    # vectors, which it no longer takes, is the oracle
    strata = list(checked_block_strata())
    for family in ("A3", "B3", "D4", "F4", "H3"):
        rs = named_system(family)
        strata += [resolve_subgraph(rs, ""), *enumerate_parabolic_strata(rs)]
    for st in strata:
        cfg = restricted_configuration(st, orbit_weights(st.rs))
        assert cfg.span_dim == (rank(cfg.vectors) if cfg.vectors else 0), (st.rs.name, st.label)


# ---------------------------------------------------------------------------
# residues and exact division against the cleared denominators


class PlantedWeight(Multiplicities):
    """Orbit weights with one root line shifted, so that the weights are
    no longer constant on orbits and the residues can fail to cancel."""

    def __init__(self, base: Multiplicities, line: int, shift):
        super().__init__(base.rs, base.values, base.params)
        self.line = line
        self.shift = base.rs.field.element(shift)

    def line_value(self, line_idx):
        value = super().line_value(line_idx)
        return value + self.shift if line_idx == self.line else value

    def line_sum(self, line_indices):
        # the base class sums per orbit, which would not see the shifted line
        line_indices = tuple(line_indices)
        total = super().line_sum(line_indices)
        return total + self.shift if self.line in line_indices else total


def oracle_strata(system):
    if system == "B4":
        return [block_stratum(root_system("B", 4), m=1, k=2, l=1)]
    return enumerate_parabolic_strata(named_system(system))


# the cleared-denominator oracle takes 25 s on E6's A1 and 1.2 s on its A1^2,
# and under 0.7 s on every other class of E6; on the whole space of H4 or E6
# it runs for over a minute
SLOW_GAUGE_ORACLE = {("E6", "A1"), ("E6", "A1^2"), ("E6", ""), ("H4", "")}


# A4, A5, G2 and E6 live in more coordinates than their rank, so X is
# bigger than its part in span(Phi), which is all the gauge test reads
@pytest.mark.parametrize("system", ["H3", "F4", "H4", "B4", "A4", "A5", "G2", "E6"])
def test_gauge_matches_cleared_denominators(system):
    # the whole space too: each class of G2 restricts to one line, where no residue is left
    strata = oracle_strata(system) + [Stratum(named_system(system), ())]
    strata = [st for st in strata if (system, st.label) not in SLOW_GAUGE_ORACLE]
    rs = strata[0].rs
    # a zero shift keeps the orbit weights, at which the residues cancel
    plants = ((0, 0), (0, 1), (len(rs.lines) // 2, 1), (len(rs.lines) - 1, 1))
    with_defects = 0
    for st in strata:
        for line, shift in plants:
            mults = PlantedWeight(orbit_weights(rs), line, shift)
            got = gauge_defects(st, mults)
            assert got == reference_gauge_defects(st, mults), (st.label, line, shift)
            with_defects += bool(got)
    assert with_defects


@pytest.mark.parametrize("system", ["H3", "F4", "H4", "B4"])
def test_restriction_matches_cleared_denominators(system):
    strata = oracle_strata(system)
    rs = strata[0].rs
    rng = random.Random(system)
    mults = Multiplicities.numeric(
        rs, {name: Fraction(rng.randint(1, 9), rng.randint(2, 9)) for name in rs.orbit_names}
    )
    # the Laplacian of the power sum dominates and is the same on every
    # stratum, so one stratum of each dimension keeps the cost down
    by_dim = {}
    for st in strata:
        by_dim.setdefault(subspace(st).dim, st)
    for st in by_dim.values():
        got = restriction_defects(st, mults, degrees=(2, 4))
        assert got == reference_restriction_defects(st, mults, degrees=(2, 4)), st.label


# ---------------------------------------------------------------------------
# projection on demand, and one text per weight and per form


def test_catalog_projects_no_line(capsys, monkeypatch):
    # catalog and verify catalog read sizes, spans and weights, never a vector
    def refuse(self):
        raise AssertionError("a catalog command projected a line")

    monkeypatch.setattr(Stratum, "key_projections", refuse)
    rows = _load_catalog_rows()
    keys = ("index", "family", "type", "gamma0", "dim", "size", "c", "mults")
    assert main(["catalog"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == [{k: row[k] for k in keys} for row in rows]
    assert main(["verify", "catalog"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["matched"], report["total"], report["size_diffs"]) == (len(rows), len(rows), [])


def expected_texts(st, mults):
    """to_json(), radial_text() and potential_text() rendered here from the
    reference vectors and the per-line sums of line_value."""
    vectors, weights = reference_configuration(st, mults)
    mult_texts = [render_polynomial(m, names=mults.params or None) for m in weights]
    xs = [f"x{i + 1}" for i in range(st.rs.dim)]
    forms = [render_polynomial(Polynomial.linear_form(st.rs.field, v), names=xs) for v in vectors]
    multiset = {}
    for text in mult_texts:
        multiset[text] = multiset.get(text, 0) + 1
    js = {
        "dim": len(subspace(st).basis),
        "span_dim": rank(vectors) if vectors else 0,
        "size": len(vectors),
        "vectors": [[render_scalar(x) for x in v] for v in vectors],
        "multiplicities": mult_texts,
        "multiplicity_multiset": multiset,
    }
    radial = ["Delta_pi", *(f"- 2*({m})/({f}) d_({f})" for m, f in zip(mult_texts, forms))]
    potential = ["Delta", *(
        f"- ({m})*({m}+1)*({render_scalar(dot(v, v))})/({f})^2" for v, m, f in zip(vectors, mult_texts, forms)
    )]
    return weights, js, " ".join(radial), " ".join(potential)


def text_strata():
    strata = [catalog_stratum(row) for row in _load_catalog_rows()]
    for family in ("F4", "H3", "B4"):
        strata += enumerate_parabolic_strata(named_system(family))
    return strata


def test_texts_match_the_per_line_rendering():
    for st in text_strata():
        rs = st.rs
        for mults in (Multiplicities.symbolic(rs), orbit_weights(rs), PlantedWeight(orbit_weights(rs), 0, 1)):
            cfg = restricted_configuration(st, mults)
            weights, js, radial, potential = expected_texts(st, mults)
            where = (rs.name, st.label, type(mults).__name__, mults.params)
            assert cfg.mults == tuple(weights), where
            # the order of the multiset's keys reaches the printed JSON
            assert list(cfg.mult_multiset().items()) == list(js["multiplicity_multiset"].items()), where
            assert cfg.to_json() == js, where
            assert (cfg.radial_text(), cfg.potential_text()) == (radial, potential), where


@pytest.mark.parametrize("family, rank_, weights", [
    ("A", 3, Fraction(1, 2)),
    ("A", 3, Fraction(1, 3)),
    ("B", 3, {"c1": Fraction(1, 2), "c2": Fraction(1, 2)}),
    ("B", 3, {"c1": Fraction(2, 3), "c2": Fraction(1, 5)}),
], ids=["A3-invariant", "A3-off-locus", "B3-invariant", "B3-off-locus"])
def test_deformed_restriction_matches_cleared_denominators(family, rank_, weights):
    rs = root_system(family, rank_)
    mults = Multiplicities.numeric(rs, weights)
    st = block_stratum(rs, m=1, k=2) if family == "A" else block_stratum(rs, m=1, k=2, l=1)
    got = restriction_defects(st, mults, degrees=(2, 4))
    assert got == reference_restriction_defects(st, mults, degrees=(2, 4), deformed=True)


@pytest.mark.parametrize("family, rank_, weights", [
    ("A", 3, (Fraction(1, 2), Fraction(1, 3))),
    ("B", 3, ({"c1": Fraction(1, 2), "c2": Fraction(1, 2)}, {"c1": Fraction(2, 3), "c2": Fraction(1, 5)})),
    ("F4", None, ({"c1": Fraction(1, 2), "c2": Fraction(1, 3)}, {"c1": Fraction(1, 3), "c2": Fraction(1, 5)})),
], ids=["A3", "B3", "F4"])
def test_plain_restriction_decides_the_confined_identity(family, rank_, weights):
    """The confined operator sum_v (T_v + omega x_v)(T_v - omega x_v) adds
    omega K g - omega^2 |x|^2 g to the restricted left-hand side, and the
    confined radial form adds omega K g - omega^2 (t^T G t) g to the right,
    with t the coordinates over the stratum's basis and G its Gram matrix.
    Restricted to the stratum |x|^2 is t^T G t, so the added terms are
    equal and the plain identity holds exactly when the confined one does.
    The oracle checks the confined identity on the Dunkl route at omega = 1,
    which by weight decides every omega; each weight is on the invariance
    locus of some strata and off that of others."""
    rs = root_system(family, rank_)
    outcomes = set()
    for w in weights:
        mults = Multiplicities.numeric(rs, w)
        for st in enumerate_parabolic_strata(rs):
            got = restriction_defects(st, mults, degrees=(2, 4))
            assert got == reference_restriction_defects(st, mults, degrees=(2, 4), deformed=True), (st.label, w)
            outcomes.add(bool(got))
    assert outcomes == {False, True}


@pytest.mark.parametrize("family, rank_, row", [("A", 3, (1, 2, 3, 0)), ("B", 3, (1, 2, 0))])
def test_identities_off_a_flat_match_cleared_denominators(family, rank_, row):
    # a plane that is no intersection of mirrors: d_v g need not vanish where
    # (v, x) does, so an exact division leaves a remainder
    rs = root_system(family, rank_)
    st = reference_stratum(rs, [row])
    mults = Multiplicities.numeric(rs, Fraction(1, 2))
    got = restriction_defects(st, mults, degrees=(2, 4))
    assert got == reference_restriction_defects(st, mults, degrees=(2, 4)) == [2, 4]
    assert gauge_defects(st, mults) == reference_gauge_defects(st, mults) != []


def test_zero_form_is_an_error_not_a_failing_degree(monkeypatch):
    import dunklcm.restriction as restriction

    rs = root_system("B", 3)
    st = parabolic_stratum(rs, (0, 1))
    mults = Multiplicities.numeric(rs, {"c1": Fraction(1, 3), "c2": Fraction(1, 5)})
    basis = subspace(st).basis
    # zero only the configuration's forms, where a remainder fails a degree:
    # on this stratum none of them is also the restricted form of a mirror
    mirror_forms = {tuple(dot(alpha, b) for b in basis) for alpha in rs.lines}
    config_forms = {tuple(dot(v, b) for b in basis) for v in restricted_configuration(st, mults).vectors}
    zeroed = config_forms - mirror_forms
    assert zeroed

    def zero_form(f, form):
        return divide_by_linear(f, tuple(x - x for x in form) if tuple(form) in zeroed else form)

    monkeypatch.setattr(restriction, "divide_by_linear", zero_form)
    with pytest.raises(ZeroDivisionError):
        restriction_defects(st, mults, degrees=(2,))


# ---------------------------------------------------------------------------
# the closed-form Laplacian against the Dunkl route


@pytest.mark.parametrize("family, rank_, degrees", [
    ("A", 3, (2, 4)), ("B", 4, (2, 4, 6)), ("D", 4, (2, 4)), ("G2", None, (2, 4)), ("F4", None, (2, 4)),
    ("H3", None, (2, 4)), ("H4", None, (2, 4)), ("E6", None, (2,)),
], ids=["A3", "B4", "D4", "G2", "F4", "H3", "H4", "E6"])
def test_closed_form_laplacian_matches_dunkl_route(family, rank_, degrees):
    """Heckman's lemma: on W-invariant f, sum_v T_v^2 f is the Calogero-Moser
    operator Delta f - sum_r 2 c_r (d_{alpha_r} f) / alpha_r(x), and the
    confined sum_v (T_v + omega x_v)(T_v - omega x_v) f adds omega K f -
    omega^2 |x|^2 f, checked at omega = 1: the three parts have degrees
    k - 2, k and k + 2, so omega = 1 decides every omega.  `restriction_defects`
    builds its left-hand side from this closed form on the stratum, so on the
    empty subgraph, where the stratum is the whole space, it compares the
    closed form with itself: this test, which applies the Dunkl operators
    themselves to the full-space closed form of the oracle, is what carries
    the lemma."""
    rs = root_system(family, rank_)
    field, n = rs.field, rs.dim
    # on B4 one orbit has weight 0, so its lines drop out of the closed form
    mults = orbit_weights(rs) if family != "B" else Multiplicities.numeric(rs, {"c1": 0, "c2": Fraction(3, 7)})
    plain, confined = DunklContext(rs, mults), DeformedContext(rs, mults)
    const = field.element(-n) + sum((mults.line_scalar(i) for i in range(len(rs.lines))), field.zero()) * 2
    norm2 = sum((Polynomial.variable(field, n, v) ** 2 for v in range(n)), Polynomial.zero(field, n))
    for k in degrees:
        f = invariant_power_sum(rs, k)
        lf = invariant_laplacian(rs, mults, f)
        assert lf == laplacian(plain, f), k
        assert lf + f * const - norm2 * f == confined.total_power(1, f), k


def test_restriction_builds_no_dunkl_context(monkeypatch):
    rs = root_system("F4")
    st = parabolic_stratum(rs, (0,))
    # on the locus c1 = 1/2 and off it
    cases = [Multiplicities.numeric(rs, {"c1": Fraction(c1), "c2": Fraction(1, 3)}) for c1 in ("1/2", "1/3")]
    expected = [reference_restriction_defects(st, m, degrees=(2, 4), deformed=d) for m in cases for d in (False, True)]
    assert expected[:2] == [[], []] and expected[2:] != [[], []]

    def refuse(self, *args, **kwargs):
        raise AssertionError("restriction_defects built a Dunkl context")

    monkeypatch.setattr(DunklContext, "__init__", refuse)
    got = [restriction_defects(st, m, degrees=(2, 4)) for m in cases]
    assert got == expected[::2] == expected[1::2]


# ---------------------------------------------------------------------------
# the identity on the stratum against the full-space route


def full_space_strata(group):
    if group == "named":
        named = (("E6", "A2"), ("E8", "D4"), ("H4", "A1"), ("F4", "A1:2"))
        return [resolve_subgraph(root_system(family), subgraph) for family, subgraph in named]
    if group == "block":
        return checked_block_strata()
    return enumerate_parabolic_strata(named_system(group))


@pytest.mark.parametrize("group", ["named", "block", "B4", "H3", "G2"])
def test_restriction_on_the_stratum_matches_the_full_space(group, monkeypatch):
    """`restriction_defects` builds the identity from the restricted root
    forms alone.  The oracle builds the power sum in all n coordinates,
    composes it with every simple reflection, and restricts its closed-form
    Laplacian at the end.  At degrees 2-6, on the invariance locus and off
    it, both fail the same degrees, and the code under test does so with
    no substitution and no composition."""
    cases = []
    for st in full_space_strata(group):
        if st.solution[0] != "inconsistent":
            cases.append((st, _instantiate_solution(st)))
        cases.append((st, orbit_weights(st.rs)))
    expected = [full_space_restriction_defects(st, m, degrees=(2, 4, 6)) for st, m in cases]
    assert [] in expected and any(expected)

    def refuse(*args, **kwargs):
        raise AssertionError("restriction_defects substituted into a polynomial")

    monkeypatch.setattr(Polynomial, "substitute", refuse)
    monkeypatch.setattr(Polynomial, "compose_linear", refuse)
    for (st, m), want in zip(cases, expected):
        assert restriction_defects(st, m, degrees=(2, 4, 6)) == want, (st.rs.name, st.label, m.values)
