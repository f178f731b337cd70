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
operators of `dunklcm.dunkl`), not Heckman's closed form.  Their confined form is checked
at omega = 1, with the operators of `dunklcm.dunkl.DeformedContext`: with
x of weight 1 and omega of weight -2 the confined identity on the power sum
of degree k is weight-homogeneous, so its omega^j terms have degree
k - 2 + 2j on the stratum, and it holds at omega = 1 exactly when it holds
for every omega.  The code under test checks no confined form: there the
confined identity is the plain one with the same terms added to both sides.

Last, it holds the route that building the identity from the restricted
root forms replaced: the power sum and its closed-form Laplacian
(`invariant_laplacian`) in all n coordinates, the power sum composed with
every simple reflection matrix to check its invariance, and the
restriction to the stratum at the end (`full_space_restriction_defects`).
"""

from __future__ import annotations

from dunkl_reference import laplacian
from dunklcm.dunkl import DeformedContext, DunklContext
from dunklcm.linalg import dot, gram, invert, mat_vec, reflection_matrix, vec_is_zero
from dunklcm.polynomials import Polynomial, divide_by_linear, linear_combination
from dunklcm.restriction import restricted_configuration
from dunklcm.rootsystems import Subspace
from rootsystem_reference import subspace


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
    basis = subspace(stratum).basis
    return tuple(i for i, alpha in enumerate(stratum.rs.lines) if all(dot(alpha, b).is_zero() for b in basis))


def reference_configuration(stratum, mults) -> tuple[list, list]:
    """(vectors, multiplicities) of the restricted configuration."""
    rs = stratum.rs
    basis = subspace(stratum).basis
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
        sbasis = Subspace(field, rs.dim, list(subspace(stratum).annihilator) + [u]).basis
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
    basis = subspace(stratum).basis
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


# ---------------------------------------------------------------------------
# the identity in the full space, restricted at the end


def invariant_power_sum(rs, k: int) -> Polynomial:
    """Sum of (alpha, x)^k over the full root set, for even k."""
    if k % 2:
        raise ValueError("only even exponents give a sign-free root sum")
    field = rs.field
    two = field.element(2).nums
    return linear_combination(
        field, rs.dim, ((Polynomial.linear_form(field, alpha) ** k, two, 1) for alpha in rs.lines)
    )


def check_invariant(rs, f: Polynomial) -> None:
    """Raises ValueError unless f o s = f for every simple reflection s."""
    for alpha in rs.simple:
        if f.compose_linear(reflection_matrix(rs.field, alpha)) != f:
            raise ValueError("test polynomial is not invariant under the group")


_CHECKED_SUMS: dict = {}


def checked_power_sum(rs, k: int) -> Polynomial:
    """invariant_power_sum(rs, k) after check_invariant, which dominates the
    full-space route; both depend on the system and the degree alone, so
    they are kept per system and degree."""
    key = (rs.name, k)
    if key not in _CHECKED_SUMS:
        f = invariant_power_sum(rs, k)
        check_invariant(rs, f)
        _CHECKED_SUMS[key] = f
    return _CHECKED_SUMS[key]


def invariant_laplacian(rs, mults, f: Polynomial) -> Polynomial:
    """The Dunkl Laplacian sum_v T_v^2 f of a W-invariant f, in Heckman's
    closed form L_c f = Delta f - sum_r 2 c_r (d_{alpha_r} f) / alpha_r(x),
    in all n coordinates.

    Every D_r f vanishes, so T_v f = d_v f, and d_{alpha_r} f is
    anti-invariant under s_r, so D_r d_{alpha_r} f = 2 d_{alpha_r} f /
    alpha_r(x), one exact division; lines of weight 0 drop out.
    """
    field = rs.field
    grads = [f.partial(v) for v in range(rs.dim)]
    one = field.one().nums
    pieces = [(g.partial(v), one, 1) for v, g in enumerate(grads)]
    for line, alpha in enumerate(rs.lines):
        c = mults.line_scalar(line)
        if c.is_zero():
            continue
        d_alpha = linear_combination(
            field, rs.dim, ((g, a.nums, a.den) for g, a in zip(grads, alpha) if not a.is_zero())
        )
        w = c * -2
        pieces.append((divide_by_linear(d_alpha, alpha), w.nums, w.den))
    return linear_combination(field, rs.dim, pieces)


def full_space_restriction_defects(stratum, mults, degrees=(2, 4, 6)) -> list[int]:
    """`restriction_defects` in the n coordinates of the whole space: the
    power sum f is built there, composed with every simple reflection to
    check its invariance, and its closed-form Laplacian is restricted to the
    stratum only at the end, beside g = f restricted and the exact division
    of each configuration term."""
    rs = stratum.rs
    field = rs.field
    basis = subspace(stratum).basis
    r = len(basis)
    if r == 0:
        return []
    config = restricted_configuration(stratum, mults)
    ginv = invert(gram(basis), field)
    radial = [(a, b, x) for a, row in enumerate(ginv) for b, x in enumerate(row) if not x.is_zero()]
    quotients = []
    for v, m in zip(config.vectors, config.scalar_mults()):
        if not m.is_zero():
            form = tuple(dot(v, b) for b in basis)
            quotients.append((form, mat_vec(ginv, form), m * -2))
    bad = []
    for k in degrees:
        f = checked_power_sum(rs, k)
        lhs = invariant_laplacian(rs, mults, f).restrict_to(basis)
        g = f.restrict_to(basis)
        grads = [g.partial(a) for a in range(r)]
        pieces = [(grads[a].partial(b), x.nums, x.den) for a, b, x in radial]
        try:
            for form, direction, w in quotients:
                dv = linear_combination(
                    field, r, ((grads[a], x.nums, x.den) for a, x in enumerate(direction) if not x.is_zero())
                )
                pieces.append((divide_by_linear(dv, form), w.nums, w.den))
        except ZeroDivisionError:
            raise
        except ArithmeticError:
            bad.append(k)
            continue
        if lhs != linear_combination(field, r, pieces):
            bad.append(k)
    return bad
