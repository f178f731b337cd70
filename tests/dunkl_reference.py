"""Test-only reference for the Dunkl operator core.

Applies T_xi with no memo of any kind: every reflected polynomial is a
fresh substitution of the reflected coordinates, every divided difference
is one division per (direction, reflection), and the cyclic diagonal term
of G(m,p,N) is written out from its definition.  It reads only the data a
context holds (reflections, weights), never its caches or methods, with
one exception: `laplacian` composes the context's own `apply`, so that the
Dunkl route through the monomial memos is the oracle of the closed form in
`dunklcm.restriction.invariant_laplacian`.
"""

from __future__ import annotations

from itertools import combinations

from dunklcm.polynomials import Polynomial, divide_by_linear, monomials


def _reflected(ctx, alpha, coroot, f: Polynomial) -> Polynomial:
    """f o s_r by substituting x_v - coroot_v alpha(x) for each coordinate."""
    field = ctx.field
    images = []
    for v in range(ctx.nvars):
        if v >= ctx.nx:
            images.append(Polynomial.variable(field, ctx.nvars, v))
            continue
        row = [-(coroot[v] * a) for a in alpha]
        row[v] = row[v] + field.one()
        images.append(Polynomial.linear_form(field, tuple(row)))
    return f.substitute(images)


def _diagonal_term(ctx, i: int, f: Polynomial) -> Polynomial:
    """d * sum_t c_t [x_i-degree = t mod d part of f] / x_i, for G(m,p,N)."""
    field = ctx.field
    group = getattr(ctx, "group", None)
    if group is None or group.diag_order == 1:
        return Polynomial.zero(field, ctx.nvars)
    d = group.diag_order
    axis = tuple(field.one() if v == i else field.zero() for v in range(ctx.nvars))
    out = Polynomial.zero(field, ctx.nvars)
    for t in range(1, d):
        part = Polynomial(field, ctx.nvars, {e: c for e, c in f.terms.items() if e[i] % d == t})
        if not part.is_zero():
            out = out + divide_by_linear(part, axis) * (ctx.cdiag[t - 1] * d)
    return out


def reference_apply(ctx, direction, f: Polynomial) -> Polynomial:
    """T_direction f for a coordinate index or a vector over the coordinates."""
    field = ctx.field
    if isinstance(direction, int):
        xi = tuple(field.one() if v == direction else field.zero() for v in range(ctx.nx))
    else:
        xi = tuple(direction)
    out = Polynomial.zero(field, ctx.nvars)
    for v, weight in enumerate(xi):
        if not weight.is_zero():
            out = out + f.partial(v) * weight
    for v, weight in enumerate(xi):
        if weight.is_zero():
            continue
        for alpha, coroot, c in ctx.reflections:
            scale = c * alpha[v] * weight
            if scale.is_zero():
                continue
            diff = f - _reflected(ctx, alpha, coroot, f)
            if not diff.is_zero():
                out = out - divide_by_linear(diff, alpha) * scale
        out = out - _diagonal_term(ctx, v, f) * weight
    return out


def reference_commutativity_violations(ctx, max_degree: int) -> list:
    """(exponents, i, j) for every monomial with [T_i, T_j] x^a != 0."""
    field = ctx.field
    pad = (0,) * (ctx.nvars - ctx.nx)
    bad = []
    for exps in monomials(ctx.nx, max_degree):
        f = Polynomial.monomial(field, exps + pad, field.one())
        for i, j in combinations(range(ctx.nx), 2):
            lhs = reference_apply(ctx, i, reference_apply(ctx, j, f))
            rhs = reference_apply(ctx, j, reference_apply(ctx, i, f))
            if lhs != rhs:
                bad.append((exps, i, j))
    return bad


def laplacian(ctx, f: Polynomial) -> Polynomial:
    """sum_v T_v T_v f over the coordinate directions, through ctx.apply."""
    out = Polynomial.zero(ctx.field, ctx.nvars)
    for v in range(ctx.nx):
        out = out + ctx.apply(v, ctx.apply(v, f))
    return out
