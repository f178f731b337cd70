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
orbit and draws nothing at random.

Every helper here reads a flat through the same attributes: names (the
weights), conditions (the affine forms h with h = 1), solution (their
exact solve_affine solution, pivot weights as affine forms in the free
ones), subspace and lines (the indices of the context's mirrors through
it).  A real Stratum and a G(m,p,N) CollisionFlat (complexgroups module)
both have them, and the direct test takes any operator context, so one set
of helpers serves both kinds of group; text is made only for output.
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


def condition_equations(flat) -> list[str]:
    """The sorted distinct equations "h = 1" of the flat's conditions, h rendered in flat.names."""
    return sorted({render_polynomial(h, names=flat.names) + " = 1" for h in flat.conditions})


def conditions_hold(flat, point: dict) -> bool:
    """Whether every condition h = 1 of the flat holds at point, which maps each of flat.names to a value."""
    return all(h.evaluate([h.field.element(point[name]) for name in flat.names]) == h.field.one()
               for h in flat.conditions)


def criterion_invariant(stratum: Stratum, mults: Multiplicities) -> bool:
    """Each component's weighted Coxeter number must equal one."""
    if not mults.is_numeric:
        raise ValueError("criterion evaluation needs numeric multiplicities")
    return conditions_hold(stratum, {name: mults.scalar(name) for name in stratum.names})


def solve_multiplicities(flat) -> dict:
    """The flat's invariance conditions and their solution, which the flat computes once, as text."""
    status, values, free = flat.solution
    return {
        "equations": condition_equations(flat),
        "status": status,
        "values": {name: render_polynomial(h, names=flat.names) for name, h in values.items()},
        "free": free,
    }


# ---------------------------------------------------------------------------
# direct route


def conormal_violations(ctx: DunklContext, flat) -> list:
    """(direction v, row index k) for every nonzero ctx.conormal_images(row k, flat.lines)[v].

    Empty exactly when the ideal of the flat's orbit is invariant, row k
    running over the flat's annihilator and flat.lines holding the indices
    of the context's mirrors that contain it (module docstring).
    """
    images = [ctx.conormal_images(row, flat.lines) for row in flat.subspace.annihilator]
    return [(v, k) for v in range(ctx.nvars) for k, row in enumerate(images) if not row[v].is_zero()]


def direct_invariance_violations(stratum: Stratum, mults: Multiplicities) -> list:
    """The conormal test on the stratum; a reflection index is a line index."""
    return conormal_violations(DunklContext(stratum.rs, mults), stratum)


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
