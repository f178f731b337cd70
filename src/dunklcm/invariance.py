"""Invariance of stratum ideals under Dunkl operators.

Two independent routes are provided.  The linear criterion takes, for
every irreducible component of the root lines vanishing on the stratum, the
weighted Coxeter number, an affine form in the orbit weights that the
stratum computes once and caches, and demands it equal one at the given
weights.  The direct route tests the definition and makes no use of the
criterion: it takes a random element f of the vanishing ideal of the whole
orbit, a product of one random linear form per member, and evaluates every
T_v f exactly at one seeded integer point of each member, without
expanding f.  Its cost is about |orbit|^2 times dim plus the mirrors
through a member's point, in field operations, beside the orbit walk;
DIRECT_ORBIT_LIMIT bounds both.
The values are exact, so the error is one-sided: a reported violation is
certain, and a nonzero image, of degree |orbit| - 1, vanishes at the point
with probability at most (|orbit| - 1) / (2^21 + 1) < 3.1e-5 within the
limit (Schwartz, J. ACM 27, 1980).  The affine solver (solve_affine, in
the polynomials module) and the equation renderer take any list of forms h
with "h = 1", and the witness routine any operator context, so both serve
the complex groups G(m,p,N) as well.  The solver returns exact affine forms
for the pivot weights, which a stratum keeps; text is made only for output.
"""

from __future__ import annotations

import random

from .linalg import vec_is_zero
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
    Subspace,
)
from .dunkl import DunklContext

# the largest orbit the direct route walks (module docstring: cost and error bound)
DIRECT_ORBIT_LIMIT = 64
# witness points have integer coordinates in [-POINT_RANGE, POINT_RANGE] on a member's basis
POINT_RANGE = 2 ** 20


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


def _random_annihilator_form(rng: random.Random, rows, field, avoid_basis=None):
    """Small random combination of the annihilator rows of a subspace."""
    n = len(rows[0])
    for _ in range(64):
        coeffs = [field.element(rng.randint(-3, 3)) for _ in rows]
        form = tuple(
            sum((c * r[j] for c, r in zip(coeffs, rows)), field.zero())
            for j in range(n)
        )
        if vec_is_zero(form):
            continue
        # keep the form nonzero somewhere on the reference subspace
        if avoid_basis and all(
            sum((form[j] * b[j] for j in range(n)), field.zero()).is_zero()
            for b in avoid_basis
        ):
            continue
        return form
    raise RuntimeError("could not draw a usable linear form")


def witness_violations(ctx: DunklContext, orbit: dict, base: Subspace, seed: int = 0) -> list:
    """Tests T_v f on every member for a random element f of the orbit's ideal.

    The witness f vanishes on every subspace of the orbit: one pseudo-random
    annihilator form per member, members in key order, each nonzero
    somewhere on base unless it is base's own, drawn from Random(seed).
    Each member X gets one point p = sum_i r_i b_i over its basis, the r_i
    uniform integers in [-POINT_RANGE, POINT_RANGE] from a second generator
    derived from seed, and ctx.witness_images gives T_v f(p) exactly.
    Returns (direction, member key), directions outer and members in key
    order inner, for every image that is nonzero at its member's point.

    A pair reported here is a certain violation.  A pair missed has
    T_v f nonzero on X of degree at most |orbit| - 1 in the r_i but zero
    at p, which has probability at most (|orbit| - 1) / (2 POINT_RANGE + 1)
    (Schwartz, J. ACM 27, 1980).
    """
    if not base.annihilator:
        # the whole space, alone in its orbit: its ideal is zero, and invariant
        return []
    field = ctx.field
    members = [orbit[k] for k in sorted(orbit)]
    rng = random.Random(seed)
    forms = []
    for member in members:
        avoid = None if member.key == base.key else base.basis
        forms.append(_random_annihilator_form(rng, member.annihilator, field, avoid_basis=avoid))
    point_rng = random.Random(f"witness points {seed}")
    points = []
    for member in members:
        coeffs = [field.element(point_rng.randint(-POINT_RANGE, POINT_RANGE)) for _ in member.basis]
        points.append(tuple(field.dot(coeffs, [b[j] for b in member.basis]) for j in range(ctx.nx)))
    images = ctx.witness_images(forms, points)
    return [
        (v, member.key)
        for v in range(ctx.nx)
        for member, row in zip(members, images)
        if not row[v].is_zero()
    ]


def direct_invariance_violations(
    stratum: Stratum,
    mults: Multiplicities,
    seed: int = 0,
    orbit_limit: int = DIRECT_ORBIT_LIMIT,
) -> list:
    """The pointwise witness test on the stratum's orbit.

    Raises OrbitCapExceeded when the orbit is larger than orbit_limit.
    """
    orbit = stratum.members(cap=orbit_limit)
    return witness_violations(DunklContext(stratum.rs, mults), orbit, stratum.subspace, seed)


def is_invariant_direct(stratum, mults, seed: int = 0, orbit_limit: int = DIRECT_ORBIT_LIMIT) -> bool:
    return not direct_invariance_violations(stratum, mults, seed=seed, orbit_limit=orbit_limit)


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
