"""Invariance of stratum ideals under Dunkl operators.

Two independent routes are provided.  The linear criterion takes, for
every irreducible component of the root lines vanishing on the stratum, the
weighted Coxeter number, an affine form in the orbit weights that the
stratum computes once and caches, and demands it equal one at the given
weights.  The direct route tests the definition and makes no use of the
criterion.  At a generic point p of the stratum X, df(p) runs over every
form lambda that annihilates X as f runs over the ideal of X's orbit, and
T_v f(p) is then an exact linear expression in lambda (see the dunkl
module).  The ideal is radical and w T_xi w^-1 = T_{w xi} (Dunkl, Trans.
AMS 311, 1989), so it is invariant exactly when

    lambda = sum_{r: X in mirror r} c_r lambda(alpha_r^v) alpha_r

for every row lambda of X's annihilator.  The test is exact, walks no
orbit and draws nothing at random.  The affine solver (solve_affine, in
the polynomials module) and the equation renderer take any list of forms h
with "h = 1", and the direct test any operator context, so both serve the
complex groups G(m,p,N) as well.  The solver returns exact affine forms
for the pivot weights, which a stratum keeps; text is made only for output.
"""

from __future__ import annotations

from .polynomials import (
    Polynomial,
    is_divisible_by_linear,
    monomials,
    render_polynomial,
)
from .rootsystems import (
    Multiplicities,
    RootSystem,
    Stratum,
)
from .dunkl import DunklContext


def invariance_conditions(stratum: Stratum) -> tuple[Polynomial, ...]:
    """The affine forms h over rs.orbit_names, one per component, with the conditions h = 1."""
    return stratum.conditions


def condition_equations(stratum: Stratum) -> list[str]:
    return _render_equations(stratum.rs.orbit_names, invariance_conditions(stratum))


def _render_equations(names: tuple[str, ...], hs) -> list[str]:
    """The sorted distinct equations "h = 1", h rendered in the given names."""
    return sorted({render_polynomial(h, names=names) + " = 1" for h in hs})


def criterion_invariant(stratum: Stratum, mults: Multiplicities) -> bool:
    """Each component's weighted Coxeter number must equal one."""
    if not mults.is_numeric:
        raise ValueError("criterion evaluation needs numeric multiplicities")
    rs = stratum.rs
    point = tuple(mults.scalar(name) for name in rs.orbit_names)
    one = rs.field.one()
    return all(h.evaluate(point) == one for h in invariance_conditions(stratum))


def solve_conditions(names: tuple[str, ...], hs, solution) -> dict:
    """solve_affine's solution of the conditions hs as JSON text, beside the deduplicated equations."""
    status, values, free = solution
    return {
        "equations": _render_equations(names, hs),
        "status": status,
        "values": {name: render_polynomial(h, names=names) for name, h in values.items()},
        "free": free,
    }


def solve_multiplicities(stratum: Stratum) -> dict:
    """The stratum's invariance conditions and their solution, which the stratum computes once, as text."""
    return solve_conditions(stratum.rs.orbit_names, invariance_conditions(stratum), stratum.solution)


# ---------------------------------------------------------------------------
# direct route


def conormal_violations(ctx: DunklContext, annihilator, lines) -> list:
    """(direction v, row index k) for every nonzero ctx.conormal_images(row k, lines)[v].

    Empty exactly when the ideal of the orbit of the subspace with these
    annihilator rows is invariant, lines holding the indices of the
    context's mirrors that contain the subspace (module docstring).
    """
    images = [ctx.conormal_images(row, lines) for row in annihilator]
    return [(v, k) for v in range(ctx.nvars) for k, row in enumerate(images) if not row[v].is_zero()]


def direct_invariance_violations(stratum: Stratum, mults: Multiplicities) -> list:
    """The conormal test on the stratum's annihilator; a reflection index is a line index."""
    return conormal_violations(DunklContext(stratum.rs, mults), stratum.subspace.annihilator, stratum.lines)


def is_invariant_direct(stratum: Stratum, mults: Multiplicities) -> bool:
    return not direct_invariance_violations(stratum, mults)


# ---------------------------------------------------------------------------
# higher-order vanishing


def order_vanishing_violations(
    rs: RootSystem,
    line_indices,
    order: int,
    mults: Multiplicities,
    max_degree: int = 2,
) -> list:
    """Ideal of functions divisible by each selected root form to odd order.

    Checks that the operators keep test elements inside the ideal; test
    elements are the common power product times all monomials of low degree.
    """
    if order < 1 or order % 2 == 0:
        raise ValueError("the vanishing order must be an odd positive integer")
    field = rs.field
    forms = [rs.lines[i] for i in line_indices]
    base = Polynomial.constant(field, rs.dim, field.one())
    for alpha in forms:
        base = base * Polynomial.linear_form(field, alpha) ** order
    ctx = DunklContext(rs, mults)
    bad = []
    for exps in monomials(rs.dim, max_degree):
        f = base * Polynomial.monomial(field, exps, field.one())
        for v in range(rs.dim):
            g = ctx.apply(v, f)
            if g.is_zero():
                continue
            if not all(is_divisible_by_linear(g, alpha, power=order) for alpha in forms):
                bad.append((exps, v))
                break
    return bad
