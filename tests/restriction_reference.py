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
`dunklcm.restriction.invariant_laplacian`.  Their confined form is checked
at omega = 1, with the operators of `dunklcm.dunkl.DeformedContext`: with
x of weight 1 and omega of weight -2 the confined identity on the power sum
of degree k is weight-homogeneous, so its omega^j terms have degree
k - 2 + 2j on the stratum, and it holds at omega = 1 exactly when it holds
for every omega.  The code under test checks no confined form: there the
confined identity is the plain one with the same terms added to both sides.
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
    its confined form sum_v (T_v + omega x_v)(T_v - omega x_v) at omega = 1.
    It does not depend on the stratum, so it is kept per system, line
    weights, degree and form."""
    key = (rs.name, tuple(mults.line_scalar(i) for i in range(len(rs.lines))), k, deformed)
    if key not in _LEFT_SIDES:
        f = invariant_power_sum(rs, k)
        if deformed:
            _LEFT_SIDES[key] = DeformedContext(rs, mults).total_power(1, f)
        else:
            _LEFT_SIDES[key] = laplacian(DunklContext(rs, mults), f)
    return _LEFT_SIDES[key]


def reference_restriction_defects(stratum, mults, degrees=(2, 4, 6), deformed=False) -> list[int]:
    """`restriction_defects` by multiplying the identity through by the
    product of the configuration forms; with deformed, the confined
    identity at omega = 1 (module docstring)."""
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
    forms = []
    dirs = []
    for v in config.vectors:
        row = tuple(dot(v, b) for b in basis)
        forms.append(Polynomial.linear_form(field, row))
        dirs.append(mat_vec(ginv, tuple(dot(b, v) for b in basis)))
    if forms:
        denom, others = partial_products(forms)
    else:
        denom, others = Polynomial.constant(field, r, field.one()), []
    total_c = field.zero()
    for i in range(len(rs.lines)):
        total_c = total_c + mults.line_scalar(i)
    bad = []
    for k in degrees:
        lhs = reference_left_side(rs, mults, k, deformed).restrict_to(basis)
        g = invariant_power_sum(rs, k).restrict_to(basis)
        radial = Polynomial.zero(field, r)
        for a in range(r):
            ga = g.partial(a)
            for b in range(r):
                if not ginv[a][b].is_zero():
                    radial = radial + ga.partial(b) * ginv[a][b]
        if deformed:
            # omega K g - omega^2 (t^T G t) g at omega = 1
            quad = Polynomial.zero(field, r)
            for a in range(r):
                ta = Polynomial.variable(field, r, a)
                for b in range(r):
                    if not gmat[a][b].is_zero():
                        quad = quad + ta * Polynomial.variable(field, r, b) * gmat[a][b]
            radial = radial - quad * g
            radial = radial + g * (field.element(-rs.dim) + total_c * 2)
        rhs = denom * radial
        for m, coeffs, rest in zip(ms, dirs, others):
            dv = Polynomial.zero(field, r)
            for j, cj in enumerate(coeffs):
                if not cj.is_zero():
                    dv = dv + g.partial(j) * cj
            rhs = rhs - rest * dv * (m * 2)
        if denom * lhs != rhs:
            bad.append(k)
    return bad
