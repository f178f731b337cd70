"""Test-only references for the direct ideal test.

Two routes that take a random element f of the orbit's vanishing ideal: a
product of one pseudo-random annihilator form per orbit member, members in
key order, each nonzero somewhere on the base subspace unless it is the
base's own.

The pointwise route, `witness_violations`, evaluates every T_v f exactly at
one seeded integer point of each member, without expanding f.  At such a
point p, f(p) = 0 and f(s_r p) = 0, since s_r p lies on a member too, so
only the mirrors through p contribute:

    T_v f(p) = d_v f(p) - sum_{r: alpha_r(p) = 0} c_r alpha_r(e_v) d_{alpha_r^v} f(p),

each derivative a sum over the forms l_k of l_k(direction) times the
product of the other l_j(p).  For G(m,p,N) the cyclic diagonal term adds
-c_1 (m/p) d_v f(p) where p_v = 0.  A reported violation is certain; a
nonzero image of degree |orbit| - 1 is missed with probability at most
(|orbit| - 1) / (2 POINT_RANGE + 1) (Schwartz, J. ACM 27, 1980).  It keeps
its own copy of the point formula, so it is independent of the conormal
test of `invariance`, whose oracle it is.

`reference_conormal_violations` is the conormal test as the program ran
it before it read only a flat's normals and mirrors: on every row of the
reduced annihilator, from an operator context's reflections, the mirrors
through the flat picked by index, and for G(m,p,N) the diagonal term on
the zero coordinates added on top.

The symbolic route, `reference_witness_violations`, expands f into a dense
polynomial of degree |orbit|, applies T_v by the context's `apply` and
restricts each image to every member.  It decides vanishing on a member
with no evaluation point, so it is the oracle for the pointwise route.
"""

from __future__ import annotations

import random

from dunklcm.complexgroups import ComplexDunklContext
from dunklcm.linalg import vec_is_zero
from dunklcm.polynomials import Polynomial

# witness points have integer coordinates in [-POINT_RANGE, POINT_RANGE] on a member's basis
POINT_RANGE = 2 ** 20


def random_annihilator_form(rng: random.Random, rows, field, avoid_basis=None):
    """Small random combination of the annihilator rows of a subspace."""
    n = len(rows[0])
    for _ in range(64):
        coeffs = [field.element(rng.randint(-3, 3)) for _ in rows]
        form = tuple(sum((c * r[j] for c, r in zip(coeffs, rows)), field.zero()) for j in range(n))
        if vec_is_zero(form):
            continue
        # keep the form nonzero somewhere on the reference subspace
        if avoid_basis and all(
            sum((form[j] * b[j] for j in range(n)), field.zero()).is_zero() for b in avoid_basis
        ):
            continue
        return form
    raise RuntimeError("could not draw a usable linear form")


def witness_forms(ctx, members, base, seed: int) -> list:
    """One form per member, drawn from Random(seed) in member order."""
    rng = random.Random(seed)
    return [
        random_annihilator_form(rng, m.annihilator, ctx.field, avoid_basis=None if m.key == base.key else base.basis)
        for m in members
    ]


def cofactors(values, one) -> list:
    """[prod_{j != k} values[j] for each k], from prefix and suffix products."""
    out = []
    prefix = one
    for x in values:
        out.append(prefix)
        prefix = prefix * x
    suffix = one
    for k in range(len(values) - 1, -1, -1):
        out[k] = out[k] * suffix
        suffix = suffix * values[k]
    return out


def witness_images(ctx, forms, points) -> list[list]:
    """[T_v f(p) for each direction v] for each point p, f = prod_k l_k.

    Each point must lie on a member of an orbit on which f vanishes.
    """
    field = ctx.field
    dot, one = field.dot, field.one()
    weight = None
    if isinstance(ctx, ComplexDunklContext) and ctx.cdiag and not ctx.cdiag[0].is_zero():
        weight = ctx.cdiag[0] * field.element(ctx.group.diag_order)
    columns = [[form[v] for form in forms] for v in range(ctx.nvars)]
    out = []
    for p in points:
        cof = cofactors([dot(form, p) for form in forms], one)
        grad = [dot(column, cof) for column in columns]
        # (alpha_r, c_r, d_{alpha_r^v} f(p)) for each reflection whose mirror holds p
        mirrors = [
            (alpha, c, dot([dot(form, coroot) for form in forms], cof))
            for alpha, coroot, c in ctx.reflections
            if dot(alpha, p).is_zero()
        ]
        row = []
        for v in range(ctx.nvars):
            value = grad[v]
            for alpha, c, along in mirrors:
                value = value - c * alpha[v] * along
            if weight is not None and p[v].is_zero():
                value = value - weight * grad[v]
            row.append(value)
        out.append(row)
    return out


def reference_conormal_violations(ctx, flat, lines) -> list:
    """(v, k) for every nonzero form[v] - sum_{r in lines} c_r alpha_r[v] form(alpha_r^v),
    form the k-th row of flat.subspace.annihilator, the sum over the context's reflections.

    Indices in lines past the reflections are G(m,p,N)'s coordinate
    hyperplanes, the last N of group.lines: the coordinate x_v of each
    such line also subtracts c_1 (m/p) form[v].
    """
    field = ctx.field
    zeros = set()
    if isinstance(ctx, ComplexDunklContext) and ctx.cdiag:
        first = len(ctx.group.lines) - ctx.nvars
        zeros = {r - first for r in lines if r >= first}
        weight = ctx.cdiag[0] * field.element(ctx.group.diag_order)
    mirrors = [ctx.reflections[r] for r in lines if r < len(ctx.reflections)]
    bad = []
    for k, form in enumerate(flat.subspace.annihilator):
        along = [c * field.dot(form, coroot) for _, coroot, c in mirrors]
        for v in range(ctx.nvars):
            value = form[v]
            for (alpha, _, _), scale in zip(mirrors, along):
                value = value - scale * alpha[v]
            if v in zeros:
                value = value - weight * form[v]
            if not value.is_zero():
                bad.append((v, k))
    return sorted(bad)


def witness_violations(ctx, orbit: dict, base, seed: int = 0) -> list:
    """(direction, member key) for every T_v f nonzero at its member's seeded point.

    Directions outer, members in key order inner.
    """
    if not base.annihilator:
        # the whole space, alone in its orbit: its ideal is zero, and invariant
        return []
    field = ctx.field
    members = [orbit[k] for k in sorted(orbit)]
    forms = witness_forms(ctx, members, base, seed)
    point_rng = random.Random(f"witness points {seed}")
    points = []
    for member in members:
        coeffs = [field.element(point_rng.randint(-POINT_RANGE, POINT_RANGE)) for _ in member.basis]
        points.append(tuple(field.dot(coeffs, [b[j] for b in member.basis]) for j in range(ctx.nvars)))
    images = witness_images(ctx, forms, points)
    return [
        (v, member.key)
        for v in range(ctx.nvars)
        for member, row in zip(members, images)
        if not row[v].is_zero()
    ]


def reference_witness_violations(ctx, orbit: dict, base, seed: int = 0) -> list:
    """(direction, member key) for every T_v f that does not vanish on its member, f expanded."""
    field = ctx.field
    members = [orbit[k] for k in sorted(orbit)]
    f = Polynomial.constant(field, ctx.nvars, field.one())
    for form in witness_forms(ctx, members, base, seed):
        f = f * Polynomial.linear_form(field, form)
    bad = []
    for v in range(ctx.nvars):
        g = ctx.apply(v, f)
        if g.is_zero():
            continue
        for member in members:
            if not g.restrict_to(member.basis).is_zero():
                bad.append((v, member.key))
    return bad
