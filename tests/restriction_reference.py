"""Test-only oracle for `dunklcm.restriction.restricted_configuration`.

Projects every root line onto the stratum on its own (solve the Gram system
for the coordinates, then sum the basis vectors entry by entry) and groups
the lines by their monic projection, in first-seen order.  This is the
per-line path that grouping by Gram coordinates replaced; it shares only
the exact inner product and the Gram inverse with the code under test.
"""

from __future__ import annotations

from dunklcm.linalg import dot, gram, invert, mat_vec, vec_is_zero


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
