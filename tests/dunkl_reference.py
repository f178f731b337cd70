"""Test-only reference for the Dunkl operator core.

Applies T_xi with no memo of any kind: every reflected polynomial is a
fresh substitution of the reflected coordinates (their linear forms are
built once per reflection), every divided difference is one division per
reflection and call, and the cyclic diagonal term
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

from functools import cache
from itertools import combinations

from dunklcm.polynomials import Polynomial, divide_by_linear, linear_combination, monomials


def _reflected(ctx, alpha, coroot, f: Polynomial) -> Polynomial:
    """f o s_r by substituting x_v - coroot_v alpha(x) for each coordinate;
    a variable past the coroot's entries is fixed."""
    return f.substitute(_coordinate_images(ctx.field, ctx.nvars, alpha, coroot))


@cache
def _coordinate_images(field, nvars: int, alpha, coroot) -> tuple[Polynomial, ...]:
    """x_v o s_r for each coordinate v: the reflection's own data, built once per reflection."""
    images = []
    for v in range(nvars):
        if v >= len(coroot):
            images.append(Polynomial.variable(field, nvars, v))
            continue
        row = [-(coroot[v] * a) for a in alpha]
        row[v] = row[v] + field.one()
        images.append(Polynomial.linear_form(field, tuple(row)))
    return tuple(images)


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


def reference_images(ctx, f: Polynomial) -> list[Polynomial]:
    """[T_0 f, ..., T_{n-1} f]: each divided difference D_r f = (f - f o s_r) / alpha_r
    is one division, shared by the coordinate directions."""
    field = ctx.field
    quotients = []
    for alpha, coroot, _ in ctx.reflections:
        diff = f - _reflected(ctx, alpha, coroot, f)
        quotients.append(divide_by_linear(diff, alpha) if not diff.is_zero() else None)
    images = []
    for v in range(ctx.nvars):
        out = f.partial(v) - _diagonal_term(ctx, v, f)
        for (alpha, _, c), quotient in zip(ctx.reflections, quotients):
            scale = c * alpha[v]
            if quotient is not None and not scale.is_zero():
                out = out - quotient * scale
        images.append(out)
    return images


def reference_apply(ctx, direction, f: Polynomial) -> Polynomial:
    """T_direction f for a coordinate index or a vector over the coordinates."""
    images = reference_images(ctx, f)
    if isinstance(direction, int):
        return images[direction]
    out = Polynomial.zero(ctx.field, ctx.nvars)
    for weight, image in zip(direction, images):
        if not weight.is_zero():
            out = out + image * weight
    return out


def reference_commutativity_violations(ctx, max_degree: int) -> list:
    """(exponents, i, j) for every monomial with [T_i, T_j] x^a != 0."""
    field = ctx.field
    bad = []
    for exps in monomials(ctx.nvars, max_degree):
        # twice[j][i] = T_i T_j x^a
        twice = [reference_images(ctx, g) for g in reference_images(ctx, Polynomial.monomial(field, exps))]
        for i, j in combinations(range(ctx.nvars), 2):
            if twice[j][i] != twice[i][j]:
                bad.append((exps, i, j))
    return bad


def reference_equivariance_violations(ctx, max_degree: int) -> list:
    """(w, v, exponents) for every monomial f with s_w T_v s_w f != T_{s_w e_v} f,
    where s_w(e_v) = e_v - alpha_w[v] alpha_w^v, over every reflection w and coordinate v.

    s_w keeps the degree, so both sides are sums of the reference images
    T_u x^b of the monomials of degree <= max_degree, each computed once."""
    field = ctx.field
    basis = monomials(ctx.nvars, max_degree)
    images = {}
    for b in basis:
        for u, image in enumerate(reference_images(ctx, Polynomial.monomial(field, b))):
            images[u, b] = image

    def along(direction, g):
        """T_direction g, summed term by term from the images."""
        out = Polynomial.zero(field, ctx.nvars)
        for u, weight in enumerate(direction):
            if not weight.is_zero():
                for b, c in g.terms.items():
                    out = out + images[u, b] * (weight * c)
        return out

    bad = []
    for w, (alpha, coroot, _) in enumerate(ctx.reflections):
        for v in range(ctx.nvars):
            image = [-(alpha[v] * a) for a in coroot]
            image[v] = image[v] + field.one()
            axis = [field.one() if u == v else field.zero() for u in range(ctx.nvars)]
            for exps in basis:
                f = Polynomial.monomial(field, exps)
                lhs = _reflected(ctx, alpha, coroot, along(axis, _reflected(ctx, alpha, coroot, f)))
                if lhs != along(image, f):
                    bad.append((w, v, exps))
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
    and reference_images treats it as a constant: T_v (omega^j x^a) is
    omega^j T_v x^a.  So T_v is summed over the terms from the images of
    each coordinate monomial, kept once for every direction, as the confined
    commutators apply T_v to the same monomials many times over.
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
            if coords not in self._images:
                self._images[coords] = reference_images(self, Polynomial.monomial(self.field, coords))
            omega_power = (0,) * (self.nvars - 1) + exps[-1:]
            pieces.append((self._images[coords][v].shift(omega_power), t, f.den))
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
