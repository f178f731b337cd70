"""Sparse multivariate polynomials over an exact field.

A polynomial is a map from exponent tuples to nonzero field elements.
The module supplies the pieces the operator calculus needs: directional
derivatives, substitution of linear (or arbitrary) images for the
variables, and exact division by a linear form with a zero-remainder
guarantee, which is what makes reflection difference quotients exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Sequence

from .fields import Field, FieldElement, render_scalar
from .linalg import Matrix, Vector, rref


class Polynomial:
    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: Field, nvars: int, terms: dict[tuple[int, ...], FieldElement]):
        self.field = field
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}

    @classmethod
    def _nonzero(cls, field: Field, nvars: int, terms: dict[tuple[int, ...], FieldElement]) -> "Polynomial":
        """Wraps terms that hold no zero coefficient, skipping the filter."""
        out = cls.__new__(cls)
        out.field = field
        out.nvars = nvars
        out.terms = terms
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field: Field, nvars: int) -> "Polynomial":
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field: Field, nvars: int, value) -> "Polynomial":
        return cls(field, nvars, {(0,) * nvars: field.element(value)})

    @classmethod
    def variable(cls, field: Field, nvars: int, i: int) -> "Polynomial":
        e = [0] * nvars
        e[i] = 1
        return cls(field, nvars, {tuple(e): field.one()})

    @classmethod
    def linear_form(cls, field: Field, coeffs: Vector) -> "Polynomial":
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            if not c.is_zero():
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = c
        return cls(field, n, terms)

    @classmethod
    def monomial(cls, field: Field, exponents: tuple[int, ...], coeff=1) -> "Polynomial":
        return cls(field, len(exponents), {tuple(exponents): field.element(coeff)})

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def constant_term(self) -> FieldElement:
        return self.terms.get((0,) * self.nvars, self.field.zero())

    # -- ring operations ------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.field is not other.field or self.nvars != other.nvars:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            other = Polynomial.constant(self.field, self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e)
            out[e] = c if acc is None else acc + c
        return Polynomial(self.field, self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._nonzero(self.field, self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            other = Polynomial.constant(self.field, self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e)
            out[e] = -c if acc is None else acc - c
        return Polynomial(self.field, self.nvars, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            c = self.field.element(other)
            if c.is_zero():
                return Polynomial.zero(self.field, self.nvars)
            return Polynomial._nonzero(self.field, self.nvars, {e: c * v for e, v in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        out: dict[tuple[int, ...], FieldElement] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                acc = out.get(e)
                out[e] = prod if acc is None else acc + prod
        return Polynomial(self.field, self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        out = Polynomial.constant(self.field, self.nvars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            other = Polynomial.constant(self.field, self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field is other.field and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def shift(self, e: tuple[int, ...]) -> "Polynomial":
        """x^e times self."""
        return Polynomial._nonzero(self.field, self.nvars, {
            tuple(a + b for a, b in zip(k, e)): c for k, c in self.terms.items()
        })

    # -- calculus ---------------------------------------------------------------

    def partial(self, i: int) -> "Polynomial":
        # e -> e - e_i is one to one, so no two terms collide
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            if k:
                out[e[:i] + (k - 1,) + e[i + 1:]] = c * k
        return Polynomial._nonzero(self.field, self.nvars, out)

    # -- substitution ---------------------------------------------------------

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Replace variable i by images[i]; images share a common target ring."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        if not self.terms:
            tgt = images[0] if images else None
            return Polynomial.zero(self.field, tgt.nvars if tgt else self.nvars)
        tgt_nvars = images[0].nvars if images else self.nvars
        # variables mapped to themselves can stay in the exponent tuple
        id_var = [False] * self.nvars
        if tgt_nvars == self.nvars:
            for i, img in enumerate(images):
                if len(img.terms) == 1:
                    (e, c), = img.terms.items()
                    if c == self.field.one() and sum(e) == 1 and e[i] == 1:
                        id_var[i] = True
        pows: list[dict[int, Polynomial]] = [dict() for _ in range(self.nvars)]

        def power(i: int, k: int) -> Polynomial:
            cache = pows[i]
            got = cache.get(k)
            if got is None:
                if k == 0:
                    got = Polynomial.constant(self.field, tgt_nvars, 1)
                elif k == 1:
                    got = images[i]
                else:
                    half = power(i, k // 2)
                    got = half * half
                    if k % 2:
                        got = got * images[i]
                cache[k] = got
            return got

        out: dict[tuple[int, ...], FieldElement] = {}
        for e, c in self.terms.items():
            base_exp = [0] * tgt_nvars
            piece = None
            for i, k in enumerate(e):
                if not k:
                    continue
                if id_var[i]:
                    base_exp[i] += k
                else:
                    p = power(i, k)
                    piece = p if piece is None else piece * p
            if piece is None:
                _add_term(out, tuple(base_exp), c)
                continue
            for e2, c2 in piece.terms.items():
                _add_term(out, tuple(a + b for a, b in zip(base_exp, e2)), c * c2)
        return Polynomial(self.field, tgt_nvars, out)

    def compose_linear(self, m: Matrix) -> "Polynomial":
        """f(M x): substitute row i of M, as a linear form, for variable i."""
        images = [Polynomial.linear_form(self.field, row) for row in m]
        return self.substitute(images)

    def restrict_to(self, basis: tuple[Vector, ...]) -> "Polynomial":
        """Pull back along the parametrization x = sum_j t_j basis[j]."""
        k = len(basis)
        images = []
        for i in range(self.nvars):
            row = tuple(b[i] for b in basis)
            images.append(Polynomial.linear_form(self.field, row))
        if k == 0:
            images = [Polynomial.zero(self.field, 1) for _ in range(self.nvars)]
        return self.substitute(images)

    def evaluate(self, point: Vector) -> FieldElement:
        total = self.field.zero()
        for e, c in self.terms.items():
            val = c
            for i, k in enumerate(e):
                if k:
                    val = val * point[i] ** k
            total = total + val
        return total

    def __repr__(self):
        return f"Poly({render_polynomial(self)})"


def _add_term(acc: dict, e: tuple[int, ...], c: FieldElement) -> None:
    prev = acc.get(e)
    acc[e] = c if prev is None else prev + c


def add_scaled(acc: dict, f: Polynomial, scale: FieldElement) -> None:
    """acc += scale * f on a term dict, in place; sums may leave zeros."""
    get = acc.get
    for e, c in f.terms.items():
        t = c * scale
        prev = get(e)
        acc[e] = t if prev is None else prev + t


def divide_by_linear(f: Polynomial, form: Vector) -> Polynomial:
    """Exact quotient f / (form . x); raises ArithmeticError on a remainder.

    Single sweep down the grades of the pivot variable, so it runs in time
    linear in the number of terms.
    """
    field = f.field
    pivot = next((i for i, c in enumerate(form) if not c.is_zero()), None)
    if pivot is None:
        raise ZeroDivisionError("division by the zero linear form")
    others = [(j, c) for j, c in enumerate(form) if j != pivot and not c.is_zero()]
    ai_inv = form[pivot].inverse()
    grades: dict[int, dict[tuple[int, ...], FieldElement]] = {}
    for e, c in f.terms.items():
        grades.setdefault(e[pivot], {})[e] = c
    quotient: dict[tuple[int, ...], FieldElement] = {}
    top = max(grades, default=0)
    for d in range(top, 0, -1):
        bucket = grades.get(d)
        if not bucket:
            continue
        lower = grades.setdefault(d - 1, {})
        for e, c in bucket.items():
            if c.is_zero():
                continue
            qc = c * ai_inv
            qe = list(e)
            qe[pivot] = d - 1
            qe_t = tuple(qe)
            quotient[qe_t] = qc
            for j, fc in others:
                e2 = list(qe_t)
                e2[j] += 1
                e2_t = tuple(e2)
                acc = lower.get(e2_t)
                sub = qc * fc
                lower[e2_t] = -sub if acc is None else acc - sub
    remainder = grades.get(0, {})
    if any(not c.is_zero() for c in remainder.values()):
        raise ArithmeticError("polynomial is not divisible by the linear form")
    return Polynomial._nonzero(field, f.nvars, quotient)


def divided_difference(f: Polynomial, alpha: Vector) -> Polynomial:
    """(f - f o s_alpha) / (alpha, x) for the reflection s_alpha; always exact."""
    from .linalg import reflection_matrix

    s = reflection_matrix(f.field, alpha)
    return divide_by_linear(f - f.compose_linear(s), alpha)


def is_divisible_by_linear(f: Polynomial, form: Vector, power: int = 1) -> bool:
    cur = f
    for _ in range(power):
        try:
            cur = divide_by_linear(cur, form)
        except ArithmeticError:
            return False
    return True


def monomials(nvars: int, max_degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree <= max_degree, deterministic order."""
    out: list[tuple[int, ...]] = []
    for d in range(max_degree + 1):
        for combo in combinations_with_replacement(range(nvars), d):
            e = [0] * nvars
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
    return out


def solve_affine(field: Field, names: tuple[str, ...], hs) -> tuple[str, dict[str, Polynomial], list[str]]:
    """Solve the affine conditions h = 1 for the weights named by names.

    Each h is a polynomial of degree at most one in len(names) variables.
    Returns (status, values, free): status is "unique", "family",
    "unconstrained" or "inconsistent"; values maps each pivot weight to an
    affine polynomial over names in the free weights alone, earlier weights
    pivoting on later ones; free lists the free weights.
    """
    nparams = len(names)
    if not hs:
        return "unconstrained", {}, list(names)
    rows = []
    for h in hs:
        row = []
        for j in range(nparams):
            exps = tuple(1 if t == j else 0 for t in range(nparams))
            row.append(h.terms.get(exps, field.zero()))
        # affine part moves to the right hand side
        row.append(field.one() - h.constant_term())
        rows.append(tuple(row))
    reduced, pivots = rref(tuple(rows))
    if nparams in pivots:
        return "inconsistent", {}, []
    free = [j for j in range(nparams) if j not in pivots]
    values = {}
    for r, row in enumerate(reduced):
        expr = Polynomial.constant(field, nparams, row[-1])
        for k in free:
            if not row[k].is_zero():
                expr = expr - Polynomial.variable(field, nparams, k) * row[k]
        values[names[pivots[r]]] = expr
    return ("family" if free else "unique"), values, [names[k] for k in free]


# -- text form -----------------------------------------------------------------


def _default_names(nvars: int) -> list[str]:
    return [f"x{i+1}" for i in range(nvars)]


def render_polynomial(f: Polynomial, names: Sequence[str] | None = None) -> str:
    if f.is_zero():
        return "0"
    names = list(names) if names is not None else _default_names(f.nvars)
    keys = sorted(f.terms, key=lambda e: (-sum(e), tuple(-x for x in e)))
    parts: list[str] = []
    for e in keys:
        c = f.terms[e]
        factors = []
        for i, k in enumerate(e):
            if k == 1:
                factors.append(names[i])
            elif k > 1:
                factors.append(f"{names[i]}^{k}")
        ctext = render_scalar(c)
        if factors:
            mono = "*".join(factors)
            if ctext == "1":
                text = mono
            elif ctext == "-1":
                text = f"-{mono}"
            else:
                if ("+" in ctext[1:]) or ("-" in ctext[1:]):
                    ctext = f"({ctext})"
                text = f"{ctext}*{mono}"
        else:
            if ("+" in ctext[1:]) or ("-" in ctext[1:]):
                ctext = f"({ctext})"
            text = ctext
        if parts and not text.startswith("-"):
            parts.append("+" + text)
        else:
            parts.append(text)
    return "".join(parts)
