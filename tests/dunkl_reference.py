"""Test-only reference for the Dunkl operator core.

Applies T_xi with no memo of any kind: every reflected polynomial is a
fresh substitution of the reflected coordinates, every divided difference
is one division per (direction, reflection), and the cyclic diagonal term
of G(m,p,N) is written out from its definition.  It reads only the data a
context holds (reflections, weights), never its caches or methods, with
one exception: `laplacian` composes the context's own `apply`, so that the
Dunkl route through the monomial memos is the oracle of Heckman's closed
form in `restriction_reference.invariant_laplacian`, the form that
`dunklcm.restriction.restriction_defects` builds on each stratum.

`SymbolicOmega` is the route the confined operators of
`dunklcm.dunkl.DeformedContext` replaced: the confinement strength omega
as one more variable after the coordinates, fixed by every reflection, so
that [H_k, H_l] comes out as a polynomial in omega, not at omega = 1.
"""

from __future__ import annotations

from itertools import combinations

from dunklcm.polynomials import Polynomial, divide_by_linear, linear_combination, monomials


def _reflected(ctx, alpha, coroot, f: Polynomial) -> Polynomial:
    """f o s_r by substituting x_v - coroot_v alpha(x) for each coordinate;
    a variable past the coroot's entries is fixed."""
    field = ctx.field
    images = []
    for v in range(ctx.nvars):
        if v >= len(coroot):
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
        xi = tuple(field.one() if v == direction else field.zero() for v in range(ctx.nvars))
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
    bad = []
    for exps in monomials(ctx.nvars, max_degree):
        f = Polynomial.monomial(field, exps, field.one())
        for i, j in combinations(range(ctx.nvars), 2):
            lhs = reference_apply(ctx, i, reference_apply(ctx, j, f))
            rhs = reference_apply(ctx, j, reference_apply(ctx, i, f))
            if lhs != rhs:
                bad.append((exps, i, j))
    return bad


def laplacian(ctx, f: Polynomial) -> Polynomial:
    """sum_v T_v T_v f over the coordinate directions, through ctx.apply."""
    out = Polynomial.zero(ctx.field, ctx.nvars)
    for v in range(ctx.nvars):
        out = out + ctx.apply(v, ctx.apply(v, f))
    return out


# ---------------------------------------------------------------------------
# the confined operators with omega as a variable


class SymbolicOmega:
    """A stand-in for a real context with omega as the last variable.

    Each mirror form gets a zero appended, so every reflection fixes omega
    and reference_apply treats it as a constant: T_v (omega^j x^a) is
    omega^j T_v x^a.  So T_v is summed over the terms from one image per
    coordinate monomial, kept once, as the confined commutators apply T_v
    to the same monomials many times over.
    """

    def __init__(self, ctx):
        self.field = ctx.field
        self.nvars = ctx.nvars + 1
        zero = ctx.field.zero()
        self.reflections = tuple((alpha + (zero,), coroot, c) for alpha, coroot, c in ctx.reflections)
        self._images: dict = {}

    def apply(self, v: int, f: Polynomial) -> Polynomial:
        pieces = []
        for exps, t in f.nums.items():
            coords = exps[:-1] + (0,)
            if (v, coords) not in self._images:
                self._images[v, coords] = reference_apply(self, v, Polynomial.monomial(self.field, coords))
            omega_power = (0,) * (self.nvars - 1) + exps[-1:]
            pieces.append((self._images[v, coords].shift(omega_power), t, f.den))
        return linear_combination(self.field, self.nvars, pieces)

    def oscillator(self, v: int, f: Polynomial) -> Polynomial:
        """(T_v + omega x_v)(T_v - omega x_v) f."""
        n = self.nvars
        omega_x = Polynomial.variable(self.field, n, v) * Polynomial.variable(self.field, n, n - 1)
        g = self.apply(v, f) - omega_x * f
        return self.apply(v, g) + omega_x * g

    def total_power(self, k: int, f: Polynomial) -> Polynomial:
        """H_k f = sum_v (oscillator_v)^k f over the coordinates."""
        out = Polynomial.zero(self.field, self.nvars)
        for v in range(self.nvars - 1):
            g = f
            for _ in range(k):
                g = self.oscillator(v, g)
            out = out + g
        return out

    def integrability_violations(self, k: int, l: int, max_degree: int) -> list:
        """Exponents of the coordinate monomials x^a of degree <= max_degree
        with [H_k, H_l] x^a != 0 as a polynomial in omega."""
        bad = []
        for exps in monomials(self.nvars - 1, max_degree):
            f = Polynomial.monomial(self.field, exps + (0,))
            if self.total_power(k, self.total_power(l, f)) != self.total_power(l, self.total_power(k, f)):
                bad.append(exps)
        return bad
