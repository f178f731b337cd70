"""Test-only oracle for `dunklcm.restriction.restricted_configuration`.

Projects every root line onto the stratum on its own (solve the Gram system
for the coordinates, then sum the basis vectors entry by entry) and groups
the lines by their monic projection, in first-seen order.  This is the
per-line path that grouping by integral Gram rows, and later by simple-root
coordinates, replaced; it shares only the exact inner product and the Gram
inverse with the code under test.  The stratum's own lines are the ones
orthogonal to its basis, tested by the inner product.

It also holds the gauge and restriction identities as they were checked
before the residue argument replaced them: each rational identity is
multiplied through by the product of its linear forms and compared as a
polynomial.  These share the restricted configuration and the polynomial
arithmetic with the code under test, but not the grouping by line or the
exact division, and their left-hand side takes the Dunkl route (the
operators of `dunklcm.dunkl`), not the closed form of
`dunklcm.restriction.invariant_laplacian`.  Their confined form carries
the confinement variable omega after the coordinates, which the code under
test does not: there the confined identity is the plain one with the same
terms added to both sides.
"""

from __future__ import annotations

from dunkl_reference import laplacian
from dunklcm.dunkl import DeformedContext, DunklContext
from dunklcm.linalg import dot, gram, invert, mat_vec, vec_is_zero
from dunklcm.polynomials import Polynomial
from dunklcm.restriction import invariant_power_sum, restricted_configuration
from dunklcm.rootsystems import Subspace


def project_onto(basis, gram_inv, v):
    field = v[0].field
    coeffs = mat_vec(gram_inv, tuple(dot(b, v) for b in basis))
    out = [field.zero()] * len(v)
    for c, b in zip(coeffs, basis):
        if c.is_zero():
            continue
        for j in range(len(v)):
            out[j] = out[j] + c * b[j]
    return tuple(out)


def monic(v):
    for x in v:
        if not x.is_zero():
            inv = x.inverse()
            return tuple(inv * y for y in v)
    return v


def reference_lines(stratum) -> tuple[int, ...]:
    """Indices of the root lines orthogonal to every basis vector of the stratum."""
    basis = stratum.subspace.basis
    return tuple(i for i, alpha in enumerate(stratum.rs.lines) if all(dot(alpha, b).is_zero() for b in basis))


def reference_configuration(stratum, mults) -> tuple[list, list]:
    """(vectors, multiplicities) of the restricted configuration."""
    rs = stratum.rs
    basis = stratum.subspace.basis
    if not basis:
        return [], []
    ginv = invert(gram(basis), rs.field)
    groups: dict[tuple, list] = {}
    for i, alpha in enumerate(rs.lines):
        proj = project_onto(basis, ginv, alpha)
        if vec_is_zero(proj):
            continue
        rep = monic(proj)
        key = tuple(x.sort_key() for x in rep)
        if key in groups:
            groups[key][1] = groups[key][1] + mults.line_value(i)
        else:
            groups[key] = [rep, mults.line_value(i)]
    return [v for v, _ in groups.values()], [m for _, m in groups.values()]


def pad_variables(f, nvars):
    """f as a polynomial in nvars variables, in which the added ones do not occur."""
    return f.substitute([Polynomial.variable(f.field, nvars, i) for i in range(f.nvars)])


# ---------------------------------------------------------------------------
# the identities with denominators cleared


def partial_products(forms):
    """Product of all forms and, per index, the product of the others."""
    n = len(forms)
    field = forms[0].field
    one = Polynomial.constant(field, forms[0].nvars, field.one())
    prefix = [one]
    for f in forms:
        prefix.append(prefix[-1] * f)
    suffix = [one] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] * forms[i]
    return prefix[n], [prefix[i] * suffix[i + 1] for i in range(n)]


def reference_gauge_defects(stratum, mults) -> list[int]:
    """`gauge_defects` by clearing denominators: for each vector u, the sum
    of (u,w) m_w times the product of the other slice forms must vanish."""
    rs = stratum.rs
    field = rs.field
    config = restricted_configuration(stratum, mults)
    ms = config.scalar_mults()
    bad = []
    for i, u in enumerate(config.vectors):
        sbasis = Subspace(field, rs.dim, list(stratum.subspace.annihilator) + [u]).basis
        if not sbasis:
            continue
        terms = []
        for j, w in enumerate(config.vectors):
            coeff = dot(u, w) * ms[j]
            row = tuple(dot(w, b) for b in sbasis)
            if j != i and not coeff.is_zero() and not vec_is_zero(row):
                terms.append((coeff, Polynomial.linear_form(field, row)))
        if not terms:
            continue
        _, others = partial_products([f for _, f in terms])
        acc = Polynomial.zero(field, len(sbasis))
        for (coeff, _), rest in zip(terms, others):
            acc = acc + rest * coeff
        if not acc.is_zero():
            bad.append(i)
    return bad


_LEFT_SIDES: dict = {}


def reference_left_side(rs, mults, k, deformed):
    """The Dunkl Laplacian of the power sum of degree k, or with deformed
    its confined form sum_v (T_v + omega x_v)(T_v - omega x_v), with omega
    after the coordinates.  It does not depend on the stratum, so it is kept
    per system, line weights, degree and form."""
    key = (rs.name, tuple(mults.line_scalar(i) for i in range(len(rs.lines))), k, deformed)
    if key not in _LEFT_SIDES:
        ctx = DeformedContext(rs, mults) if deformed else DunklContext(rs, mults, extra_vars=0)
        f = pad_variables(invariant_power_sum(rs, k), ctx.nvars)
        _LEFT_SIDES[key] = ctx.total_power(1, f) if deformed else laplacian(ctx, f)
    return _LEFT_SIDES[key]


def reference_restriction_defects(stratum, mults, degrees=(2, 4, 6), deformed=False) -> list[int]:
    """`restriction_defects` by multiplying the identity through by the
    product of the configuration forms."""
    rs = stratum.rs
    field = rs.field
    basis = stratum.subspace.basis
    r = len(basis)
    if r == 0:
        return []
    config = restricted_configuration(stratum, mults)
    ms = config.scalar_mults()
    gmat = gram(basis)
    ginv = invert(gmat, field)
    extra = 1 if deformed else 0
    nt = r + extra
    ext_basis = [tuple(b) + (field.zero(),) * extra for b in basis]
    if deformed:
        ext_basis.append((field.zero(),) * rs.dim + (field.one(),))
    ext_basis = tuple(ext_basis)
    forms = []
    dirs = []
    for v in config.vectors:
        row = tuple(dot(v, b) for b in basis) + (field.zero(),) * extra
        forms.append(Polynomial.linear_form(field, row))
        dirs.append(mat_vec(ginv, tuple(dot(b, v) for b in basis)))
    if forms:
        denom, others = partial_products(forms)
    else:
        denom, others = Polynomial.constant(field, nt, field.one()), []
    total_c = field.zero()
    for i in range(len(rs.lines)):
        total_c = total_c + mults.line_scalar(i)
    bad = []
    for k in degrees:
        lhs = reference_left_side(rs, mults, k, deformed).restrict_to(ext_basis)
        g = pad_variables(invariant_power_sum(rs, k), rs.dim + extra).restrict_to(ext_basis)
        radial = Polynomial.zero(field, nt)
        for a in range(r):
            ga = g.partial(a)
            for b in range(r):
                if not ginv[a][b].is_zero():
                    radial = radial + ga.partial(b) * ginv[a][b]
        if deformed:
            omega = Polynomial.variable(field, nt, r)
            quad = Polynomial.zero(field, nt)
            for a in range(r):
                ta = Polynomial.variable(field, nt, a)
                for b in range(r):
                    if not gmat[a][b].is_zero():
                        quad = quad + ta * Polynomial.variable(field, nt, b) * gmat[a][b]
            radial = radial - omega * omega * quad * g
            radial = radial + omega * g * (field.element(-rs.dim) + total_c * 2)
        rhs = denom * radial
        for m, coeffs, rest in zip(ms, dirs, others):
            dv = Polynomial.zero(field, nt)
            for j, cj in enumerate(coeffs):
                if not cj.is_zero():
                    dv = dv + g.partial(j) * cj
            rhs = rhs - rest * dv * (m * 2)
        if denom * lhs != rhs:
            bad.append(k)
    return bad
