"""Invariance of stratum ideals under Dunkl operators.

Two independent routes are provided.  The linear criterion takes, for
every irreducible component of the root lines vanishing on the stratum, the
weighted Coxeter number, an affine form in the orbit weights that the
stratum computes once and caches, and demands it equal one at the given
weights.  The direct route tests the definition and makes no use of the
criterion.  Let X be a member of an orbit, p a generic point of X and f in
the ideal of the orbit.  Then f(p) and f(s_r p) vanish, since s_r p lies
on a member too, so the divided difference (f - f o s_r)(p) / alpha_r(p)
vanishes unless X lies in the mirror of r, where s_r fixes p and it is
d_{alpha_r^v} f(p).  With lambda = df(p), a form that annihilates X,

    T_v f(p) = lambda[v] - sum_{r: X in mirror r} c_r alpha_r[v] lambda(alpha_r^v),

and lambda runs over all of X's annihilator as f runs over the ideal.  The
ideal is radical and w T_xi w^-1 = T_{w xi} (Dunkl, Trans. AMS 311, 1989),
so it is invariant exactly when

    lambda = sum_{r: X in mirror r} c_r lambda(alpha_r^v) alpha_r

for every lambda in the annihilator.  The identity is linear in lambda, so
conormal_violations checks it on the flat's own defining normals, which
span the annihilator, over the (alpha, alpha^v, c) triples of the mirrors
through X that the caller lists.  It builds no operator, walks no orbit,
eliminates nothing and draws nothing at random.

Every helper here reads a flat through the same attributes: names (the
weights), conditions (the affine forms h with h = 1), solution (their
exact solve_affine solution, pivot weights as affine forms in the free
ones), normals (independent forms that cut it out) and lines (the
indices of the hyperplanes through it); none of them reduces a subspace.
A real Stratum and a G(m,p,N) CollisionFlat (complexgroups module) both
have them, so one set of helpers serves both kinds of group: a stratum
lists its root lines as mirrors (direct_invariance_violations), a
collision flat its pair mirrors and, as one more mirror each, the
diagonal term on its zero coordinates
(complexgroups.direct_ideal_violations).  Text is made only for output.
"""

from __future__ import annotations

from .linalg import dot
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


def conormal_violations(flat, mirrors) -> list:
    """(direction v, normal index k) for every nonzero entry v of
    lambda - sum c lambda(alpha^v) alpha, lambda = flat.normals[k], the sum
    over the (alpha, alpha^v, c) triples of mirrors.

    Empty exactly when the ideal of the flat's orbit is invariant, mirrors
    listing the weighted mirrors that contain the flat (module docstring).
    """
    bad = []
    for k, form in enumerate(flat.normals):
        image = list(form)
        for alpha, coroot, c in mirrors:
            scale = c * dot(form, coroot)
            if not scale.is_zero():
                for v, a in enumerate(alpha):
                    if not a.is_zero():
                        image[v] = image[v] - scale * a
        bad.extend((v, k) for v, x in enumerate(image) if not x.is_zero())
    return sorted(bad)


def direct_invariance_violations(stratum: Stratum, mults: Multiplicities) -> list:
    """The conormal test on the stratum, whose mirrors are its root lines."""
    rs = stratum.rs
    if not mults.is_numeric or mults.rs is not rs:
        raise ValueError("the direct test needs numeric multiplicities of the stratum's root system")
    return conormal_violations(stratum, [(rs.lines[i], rs.coroots[i], mults.line_scalar(i)) for i in stratum.lines])


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
