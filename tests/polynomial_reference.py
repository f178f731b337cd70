"""Test-only oracle for `dunklcm.polynomials`: one `FieldElement` per term.

`Polynomial` stores integer numerator tuples per exponent over one common
denominator.  This module keeps the per-term representation it replaced, a
map from exponent tuples to nonzero field elements where every product and
sum builds and reduces a `FieldElement`, so the property tests can check the
numerator form against an independent computation.  It also keeps the
divided difference built from the reflection matrix, a second route to
D_alpha f beside the Dunkl core's monomial quotients.
"""

from __future__ import annotations

from typing import Sequence

from dunklcm.fields import Field, FieldElement
from dunklcm.linalg import Vector, reflection_matrix


class RefPolynomial:
    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: Field, nvars: int, terms: dict[tuple[int, ...], FieldElement]):
        self.field = field
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}

    @classmethod
    def of(cls, f) -> "RefPolynomial":
        """The reference copy of a `dunklcm.polynomials.Polynomial`."""
        return cls(f.field, f.nvars, dict(f.terms))

    @classmethod
    def constant(cls, field: Field, nvars: int, value) -> "RefPolynomial":
        return cls(field, nvars, {(0,) * nvars: field.element(value)})

    @classmethod
    def linear_form(cls, field: Field, coeffs: Vector) -> "RefPolynomial":
        n = len(coeffs)
        return cls(field, n, {tuple(int(j == i) for j in range(n)): c for i, c in enumerate(coeffs)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "RefPolynomial") -> "RefPolynomial":
        out = dict(self.terms)
        for e, c in other.terms.items():
            _add_term(out, e, c)
        return RefPolynomial(self.field, self.nvars, out)

    def __neg__(self) -> "RefPolynomial":
        return RefPolynomial(self.field, self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "RefPolynomial") -> "RefPolynomial":
        return self + (-other)

    def __mul__(self, other: "RefPolynomial") -> "RefPolynomial":
        out: dict[tuple[int, ...], FieldElement] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                _add_term(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return RefPolynomial(self.field, self.nvars, out)

    def __eq__(self, other):
        return self.field is other.field and self.nvars == other.nvars and self.terms == other.terms

    def shift(self, e: tuple[int, ...]) -> "RefPolynomial":
        return RefPolynomial(self.field, self.nvars, {
            tuple(a + b for a, b in zip(k, e)): c for k, c in self.terms.items()
        })

    def partial(self, i: int) -> "RefPolynomial":
        return RefPolynomial(self.field, self.nvars, {
            e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in self.terms.items() if e[i]
        })

    def substitute(self, images: Sequence["RefPolynomial"]) -> "RefPolynomial":
        """Replace variable i by images[i], expanding every term."""
        tgt_nvars = images[0].nvars if images else self.nvars
        out = RefPolynomial(self.field, tgt_nvars, {})
        for e, c in self.terms.items():
            piece = RefPolynomial.constant(self.field, tgt_nvars, c)
            for img, k in zip(images, e):
                for _ in range(k):
                    piece = piece * img
            out = out + piece
        return out

    def compose_linear(self, m) -> "RefPolynomial":
        return self.substitute([RefPolynomial.linear_form(self.field, row) for row in m])

    def restrict_to(self, basis: tuple[Vector, ...]) -> "RefPolynomial":
        if not basis:
            return self.substitute([RefPolynomial(self.field, 1, {}) for _ in range(self.nvars)])
        return self.substitute([
            RefPolynomial.linear_form(self.field, tuple(b[i] for b in basis)) for i in range(self.nvars)
        ])


def _add_term(acc: dict, e: tuple[int, ...], c: FieldElement) -> None:
    prev = acc.get(e)
    acc[e] = c if prev is None else prev + c


def add_scaled(acc: dict, f: RefPolynomial, scale: FieldElement) -> None:
    """acc += scale * f on a term dict, in place; sums may leave zeros."""
    for e, c in f.terms.items():
        _add_term(acc, e, c * scale)


def divide_by_linear(f: RefPolynomial, form: Vector) -> RefPolynomial:
    """Exact quotient f / (form . x) by the grade sweep on the pivot variable;
    raises ArithmeticError on a remainder."""
    pivot = next((i for i, c in enumerate(form) if not c.is_zero()), None)
    if pivot is None:
        raise ZeroDivisionError("division by the zero linear form")
    others = [(j, c) for j, c in enumerate(form) if j != pivot and not c.is_zero()]
    ai_inv = form[pivot].inverse()
    grades: dict[int, dict[tuple[int, ...], FieldElement]] = {}
    for e, c in f.terms.items():
        grades.setdefault(e[pivot], {})[e] = c
    quotient: dict[tuple[int, ...], FieldElement] = {}
    for d in range(max(grades, default=0), 0, -1):
        lower = grades.setdefault(d - 1, {})
        for e, c in grades.get(d, {}).items():
            qc = c * ai_inv
            qe = e[:pivot] + (d - 1,) + e[pivot + 1:]
            quotient[qe] = qc
            for j, fc in others:
                _add_term(lower, qe[:j] + (qe[j] + 1,) + qe[j + 1:], -(qc * fc))
    if any(not c.is_zero() for c in grades.get(0, {}).values()):
        raise ArithmeticError("polynomial is not divisible by the linear form")
    return RefPolynomial(f.field, f.nvars, quotient)


def divided_difference(f, alpha: Vector):
    """(f - f o s_alpha) / (alpha, x) for the reflection s_alpha; always exact.

    Works on a `Polynomial` through its own `compose_linear` and
    `divide_by_linear`, as the library did before the Dunkl core read the
    quotients from memoized monomials.
    """
    from dunklcm.polynomials import divide_by_linear as fast_divide

    s = reflection_matrix(f.field, alpha)
    return fast_divide(f - f.compose_linear(s), alpha)
