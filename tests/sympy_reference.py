"""Test-only oracle for the text forms: sympy reads what `render_scalar` and
`render_polynomial` write, and the value it reads is split back into the
power-basis coefficients of the field, independently of `dunklcm`'s own
arithmetic.  `sqrt(d)` is sympy's square root; `z` is a primitive m-th root
of unity, so a reading in z is reduced modulo sympy's cyclotomic polynomial.

Import it after `pytest.importorskip("sympy")`: sympy is a test extra.
"""

from __future__ import annotations

from fractions import Fraction

import sympy
from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations

Z = sympy.Symbol("z")
_TRANSFORMATIONS = standard_transformations + (convert_xor,)


def read(text: str, names=()) -> sympy.Expr:
    """sympy's reading of text, with z and each of names a symbol."""
    local = {name: sympy.Symbol(name) for name in names}
    local["z"] = Z
    return parse_expr(text, local_dict=local, transformations=_TRANSFORMATIONS)


def _fraction(value) -> Fraction:
    value = sympy.expand(value)
    if not value.is_Rational:
        raise AssertionError(f"{value} is not rational")
    return Fraction(int(value.p), int(value.q))


def scalar_coeffs(field, value) -> tuple[Fraction, ...]:
    """The coefficients of a sympy number of field over its power basis."""
    value = sympy.expand(value)
    if field.kind == "quadratic":
        root = sympy.sqrt(field.param)
        b = value.coeff(root)
        parts = [value - b * root, b]
    elif field.kind == "cyclotomic":
        phi = sympy.Poly(sympy.cyclotomic_poly(field.param, Z), Z, domain="QQ")
        parts = sympy.Poly(value, Z, domain="QQ").rem(phi).all_coeffs()[::-1]
        parts += [0] * (field.degree - len(parts))
    else:
        parts = [value]
    return tuple(_fraction(p) for p in parts)


def polynomial_coeffs(field, text: str, names) -> dict[tuple[int, ...], tuple[Fraction, ...]]:
    """{exponents: coefficients} of sympy's reading of a polynomial in names."""
    symbols = [sympy.Symbol(name) for name in names]
    expanded = sympy.expand(read(text, names))
    out = {}
    for exps, coeff in sympy.Poly(expanded, *symbols).terms():
        coeffs = scalar_coeffs(field, coeff)
        if any(coeffs):
            out[exps] = coeffs
    return out
