"""Test-only oracle for `dunklcm.fields`: field arithmetic on `Fraction` vectors.

`FieldElement` stores integer numerators over one common denominator.  This
module keeps the plain coefficient-vector arithmetic it replaced, with its
own cyclotomic polynomials, power tables and Euclidean inverse, so the
property tests can check the fast path against an independent computation.
Only the `Field` descriptor (kind, param, degree) is shared.
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def poly_divmod(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Univariate division with remainder, coefficients ascending."""
    num = list(num)
    out = [_ZERO] * max(1, len(num) - len(den) + 1)
    while len(num) >= len(den) and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) < len(den):
            break
        shift = len(num) - len(den)
        q = num[-1] / den[-1]
        out[shift] = q
        for i, c in enumerate(den):
            num[shift + i] -= q * c
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return out, num


def cyclotomic_polynomial(m: int) -> tuple[Fraction, ...]:
    """x^m - 1 divided by the cyclotomic polynomials of all proper divisors."""
    num = [Fraction(-1)] + [_ZERO] * (m - 1) + [_ONE]
    for d in range(1, m):
        if m % d == 0:
            num, rem = poly_divmod(num, list(cyclotomic_polynomial(d)))
            assert not rem
    return tuple(num)


def _powers(field) -> list[list[Fraction]]:
    """Reduced vectors of x^k for k in [deg, 2*deg-2]."""
    n = field.degree
    mod = cyclotomic_polynomial(field.param)
    cur = [-c for c in mod[:n]]
    rows = [cur]
    for _ in range(n - 2):
        nxt = [_ZERO] + cur[: n - 1]
        for i in range(n):
            nxt[i] -= cur[n - 1] * mod[i]
        cur = nxt
        rows.append(cur)
    return rows


class RefElement:
    """An element of `field` as a tuple of `degree` Fractions."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        assert len(self.coeffs) == field.degree

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "RefElement") -> "RefElement":
        return RefElement(self.field, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "RefElement") -> "RefElement":
        return RefElement(self.field, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "RefElement":
        return RefElement(self.field, [-a for a in self.coeffs])

    def __mul__(self, other: "RefElement") -> "RefElement":
        f = self.field
        a, b = self.coeffs, other.coeffs
        if f.kind == "rational":
            return RefElement(f, [a[0] * b[0]])
        if f.kind == "quadratic":
            return RefElement(f, [a[0] * b[0] + f.param * a[1] * b[1], a[0] * b[1] + a[1] * b[0]])
        n = f.degree
        conv = [_ZERO] * (2 * n - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                conv[i + j] += ai * bj
        out = conv[:n]
        for row, c in zip(_powers(f), conv[n:]):
            for i, rc in enumerate(row):
                out[i] += c * rc
        return RefElement(f, out)

    def inverse(self) -> "RefElement":
        f = self.field
        if self.is_zero():
            raise ZeroDivisionError("division by zero field element")
        if f.kind == "rational":
            return RefElement(f, [1 / self.coeffs[0]])
        if f.kind == "quadratic":
            a, b = self.coeffs
            norm = a * a - f.param * b * b
            return RefElement(f, [a / norm, -b / norm])
        # extended Euclid against the minimal polynomial
        r0, r1 = list(cyclotomic_polynomial(f.param)), list(self.coeffs)
        while r1[-1] == 0:
            r1.pop()
        s0, s1 = [_ZERO], [_ONE]
        while len(r1) > 1:
            q, r2 = poly_divmod(r0, r1)
            prod = [_ZERO] * (len(q) + len(s1) - 1)
            for i, qc in enumerate(q):
                for j, sc in enumerate(s1):
                    prod[i + j] += qc * sc
            s2 = [_ZERO] * max(len(s0), len(prod))
            for i, c in enumerate(s0):
                s2[i] += c
            for i, c in enumerate(prod):
                s2[i] -= c
            r0, r1, s0, s1 = r1, r2, s1, s2
        out = [c / r1[0] for c in s1]
        return RefElement(f, out + [_ZERO] * (f.degree - len(out)))

    def __eq__(self, other) -> bool:
        return isinstance(other, RefElement) and self.field is other.field and self.coeffs == other.coeffs

    def sort_key(self) -> tuple:
        return tuple((c.numerator, c.denominator) for c in self.coeffs)
