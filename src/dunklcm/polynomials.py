"""Sparse multivariate polynomials over an exact field.

A polynomial is a map from exponent tuples to integer numerator tuples
over one positive denominator, the layout of a FieldElement: coefficient e
is nums[e] / den.  Its normal form has den > 0, the gcd of den and every
numerator entry 1 and no all-zero tuple, so equal polynomials have equal
(nums, den).  Products go through Field._mul_nums and sums stay on one
running common denominator, reduced once per result, so no term builds a
FieldElement; `terms` is a read-only FieldElement map for cold callers.
The module supplies the pieces the operator calculus needs: directional
derivatives, substitution of linear (or arbitrary) images for the
variables, and exact division by a linear form with a zero-remainder
guarantee, which is what makes reflection difference quotients exact.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm
from operator import add, sub
from types import MappingProxyType
from typing import Sequence

from .fields import Field, FieldElement, render_scalar
from .linalg import Matrix, Vector, rref


class Polynomial:
    __slots__ = ("field", "nvars", "nums", "den", "_terms")

    def __init__(self, field: Field, nvars: int, terms: dict[tuple[int, ...], FieldElement]):
        for e, c in terms.items():
            if not isinstance(c, FieldElement) or c.field is not field:
                raise ValueError(f"coefficient {c!r} is not an element of {field}")
            if len(e) != nvars:
                raise ValueError(f"exponent {e} does not have {nvars} entries")
        # the lcm of the reduced denominators leaves the numerators coprime to it
        den = lcm(*(c.den for c in terms.values()))
        self.field = field
        self.nvars = nvars
        self.nums = {
            e: c.nums if c.den == den else tuple([a * (den // c.den) for a in c.nums])
            for e, c in terms.items() if any(c.nums)
        }
        self.den = den
        self._terms = None

    @classmethod
    def _normal(cls, field: Field, nvars: int, nums: dict, den: int) -> "Polynomial":
        """nums / den for a positive den, brought to normal form; the result may keep nums itself."""
        if not all(map(any, nums.values())):
            nums = {e: t for e, t in nums.items() if any(t)}
        g = den
        for t in nums.values():
            if g == 1:
                break
            g = gcd(g, *t)
        if g != 1:
            nums = {e: tuple([a // g for a in t]) for e, t in nums.items()}
            den //= g
        out = cls.__new__(cls)
        out.field = field
        out.nvars = nvars
        out.nums = nums
        out.den = den
        out._terms = None
        return out

    @property
    def terms(self) -> Mapping[tuple[int, ...], FieldElement]:
        """The coefficients as field elements: a read-only map for display and cold callers, built once."""
        if self._terms is None:
            self._terms = MappingProxyType({e: self.field.quotient(t, self.den) for e, t in self.nums.items()})
        return self._terms

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field: Field, nvars: int) -> "Polynomial":
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field: Field, nvars: int, value) -> "Polynomial":
        return cls.monomial(field, (0,) * nvars, value)

    @classmethod
    def variable(cls, field: Field, nvars: int, i: int) -> "Polynomial":
        return cls.monomial(field, _unit_exponent(nvars, i))

    @classmethod
    def linear_form(cls, field: Field, coeffs: Vector) -> "Polynomial":
        n = len(coeffs)
        return cls(field, n, {_unit_exponent(n, i): c for i, c in enumerate(coeffs) if any(c.nums)})

    @classmethod
    def monomial(cls, field: Field, exponents: tuple[int, ...], coeff=1) -> "Polynomial":
        c = field.element(coeff)
        return cls._normal(field, len(exponents), {tuple(exponents): c.nums}, c.den)

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def degree(self) -> int:
        return max((sum(e) for e in self.nums), default=-1)

    def constant_term(self) -> FieldElement:
        return self.terms.get((0,) * self.nvars, self.field.zero())

    # -- ring operations ------------------------------------------------------

    def _operand(self, other) -> "Polynomial | None":
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction, FieldElement)):
                return Polynomial.constant(self.field, self.nvars, other)
            return None
        if self.field is not other.field or self.nvars != other.nvars:
            raise ValueError("polynomials live in different rings")
        return other

    def _plus(self, other, sign: int) -> "Polynomial":
        o = self._operand(other)
        if o is None:
            return NotImplemented
        acc = dict(self.nums)
        den = add_scaled(acc, self.den, o, (sign,) + self.field._zeros, 1)
        return Polynomial._normal(self.field, self.nvars, acc, den)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        nums = {e: tuple([-a for a in t]) for e, t in self.nums.items()}
        return Polynomial._normal(self.field, self.nvars, nums, self.den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            c, mul = self.field.element(other), self.field._mul_nums
            return Polynomial._normal(self.field, self.nvars, {e: mul(t, c.nums) for e, t in self.nums.items()},
                                      self.den * c.den)
        o = self._operand(other)
        if o is None:
            return NotImplemented
        acc: dict[tuple[int, ...], tuple[int, ...]] = {}
        return Polynomial._normal(self.field, self.nvars, acc, add_product(acc, 1, self, o))

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
        return (self.field is other.field and self.nvars == other.nvars
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.nvars, self.den, frozenset(self.nums.items())))

    def shift(self, e: tuple[int, ...]) -> "Polynomial":
        """x^e times self."""
        nums = {tuple(map(add, k, e)): t for k, t in self.nums.items()}
        return Polynomial._normal(self.field, self.nvars, nums, self.den)

    def relabel(self, order) -> "Polynomial":
        """The polynomial with x_order[i] renamed x_i: entry i of each new exponent tuple is entry order[i]."""
        out = Polynomial.__new__(Polynomial)
        out.field, out.nvars, out.den, out._terms = self.field, self.nvars, self.den, None
        out.nums = {tuple([e[u] for u in order]): t for e, t in self.nums.items()}
        return out

    # -- calculus ---------------------------------------------------------------

    def partial(self, i: int) -> "Polynomial":
        # e -> e - e_i is one to one, so no two terms collide
        return Polynomial._normal(self.field, self.nvars, {
            e[:i] + (e[i] - 1,) + e[i + 1:]: tuple([a * e[i] for a in t]) for e, t in self.nums.items() if e[i]
        }, self.den)

    # -- substitution ---------------------------------------------------------

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Replace variable i by images[i]; images share a common target ring."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        tgt_nvars = images[0].nvars if images else self.nvars
        # variables mapped to themselves can stay in the exponent tuple
        unit = self.field.one().nums
        id_var = [
            tgt_nvars == self.nvars and img.den == 1 and img.nums == {_unit_exponent(tgt_nvars, i): unit}
            for i, img in enumerate(images)
        ]
        one = Polynomial.constant(self.field, tgt_nvars, 1)
        pows: list[dict[int, Polynomial]] = [{0: one, 1: img} for img in images]

        def power(i: int, k: int) -> Polynomial:
            cache = pows[i]
            got = cache.get(k)
            if got is None:
                half = power(i, k // 2)
                got = cache[k] = half * half * images[i] if k % 2 else half * half
            return got

        acc: dict[tuple[int, ...], tuple[int, ...]] = {}
        den = 1
        for e, t in self.nums.items():
            base = [0] * tgt_nvars
            piece = one
            for i, k in enumerate(e):
                if not k:
                    continue
                if id_var[i]:
                    base[i] += k
                else:
                    piece = piece * power(i, k) if piece is not one else power(i, k)
            den = add_scaled(acc, den, piece.shift(tuple(base)) if any(base) else piece, t, self.den)
        return Polynomial._normal(self.field, tgt_nvars, acc, den)

    def compose_linear(self, m: Matrix) -> "Polynomial":
        """f(M x): substitute row i of M, as a linear form, for variable i."""
        images = [Polynomial.linear_form(self.field, row) for row in m]
        return self.substitute(images)

    def restrict_to(self, basis: tuple[Vector, ...]) -> "Polynomial":
        """Pull back along the parametrization x = sum_j t_j basis[j]."""
        if not basis:
            return self.substitute([Polynomial.zero(self.field, 1) for _ in range(self.nvars)])
        return self.substitute([
            Polynomial.linear_form(self.field, tuple(b[i] for b in basis)) for i in range(self.nvars)
        ])

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


def _unit_exponent(n: int, i: int) -> tuple[int, ...]:
    """The exponent tuple of x_i among n variables."""
    return (0,) * i + (1,) + (0,) * (n - 1 - i)


def add_scaled(acc: dict, den: int, f: Polynomial, nums: tuple[int, ...], d: int) -> int:
    """acc / den += (nums / d) * f on a numerator dict, in place, for positive den and d.

    Returns the new common denominator, the lcm of den and d * f.den, so a
    sum of many pieces runs on one running denominator as in Field.dot.
    The sum may leave zero tuples and a common factor: Polynomial._normal
    takes them out once per result.
    """
    d *= f.den
    if d != den:
        den = _lcm_den(acc, den, d)
        nums = tuple([a * (den // d) for a in nums])
    # a rational scale c multiplies every entry by one integer
    c = None if any(nums[1:]) else nums[0]
    mul = f.field._mul_nums
    get = acc.get
    for e, t in f.nums.items():
        p = mul(t, nums) if c is None else t if c == 1 else tuple([a * c for a in t])
        prev = get(e)
        acc[e] = p if prev is None else tuple(map(add, prev, p))
    return den


def add_product(acc: dict, den: int, f: Polynomial, g: Polynomial) -> int:
    """acc / den += f * g on a numerator dict, in place; returns the new denominator, as add_scaled."""
    d, k = f.den * g.den, 1
    if d != den:
        den = _lcm_den(acc, den, d)
        k = den // d
    mul = f.field._mul_nums
    get = acc.get
    for e1, a in f.nums.items():
        if k != 1:
            a = tuple([x * k for x in a])
        for e2, b in g.nums.items():
            e = tuple(map(add, e1, e2))
            p = mul(a, b)
            prev = get(e)
            acc[e] = p if prev is None else tuple(map(add, prev, p))
    return den


def _lcm_den(acc: dict, den: int, d: int) -> int:
    """lcm(den, d), with the numerators in acc, over den, moved to it in place."""
    k = d // gcd(den, d)
    if k != 1:
        for e, t in acc.items():
            acc[e] = tuple([a * k for a in t])
    return den * k


def linear_combination(field: Field, nvars: int, pieces) -> Polynomial:
    """sum of (nums / d) * p over (p, nums, d) triples, on one running denominator, reduced once."""
    acc: dict[tuple[int, ...], tuple[int, ...]] = {}
    den = 1
    for p, nums, d in pieces:
        den = add_scaled(acc, den, p, nums, d)
    return Polynomial._normal(field, nvars, acc, den)


def divide_by_linear(f: Polynomial, form: Vector) -> Polynomial:
    """Exact quotient f / (form . x); raises ArithmeticError on a remainder.

    Single sweep down the grades of the pivot variable, so it runs in time
    linear in the number of terms.  With the ratios form[j] / form[pivot]
    over one common denominator D, sweeping grade d moves numerators over
    f.den * D^(top - d) to grade d - 1 over one more factor D, so each
    grade is brought to its denominator once, before it takes them.
    """
    field = f.field
    pivot = next((i for i, c in enumerate(form) if not c.is_zero()), None)
    if pivot is None:
        raise ZeroDivisionError("division by the zero linear form")
    inv = form[pivot].inverse()
    ratios = [(j, c * inv) for j, c in enumerate(form) if j != pivot and not c.is_zero()]
    D = lcm(*(r.den for _, r in ratios))
    others = [(j, tuple([a * (D // r.den) for a in r.nums])) for j, r in ratios]
    mul = field._mul_nums
    grades: dict[int, dict[tuple[int, ...], tuple[int, ...]]] = {}
    for e, t in f.nums.items():
        grades.setdefault(e[pivot], {})[e] = t
    top = max(grades, default=0)
    quotient: dict[tuple[int, ...], tuple[int, ...]] = {}
    for d in range(top, 0, -1):
        lower = grades.setdefault(d - 1, {})
        if D != 1:
            s = D ** (top - d + 1)
            for e, t in lower.items():
                lower[e] = tuple([a * s for a in t])
        # grade d is over f.den * D^(top - d); the quotient is kept over f.den * D^(top - 1)
        up = D ** (d - 1)
        for e, t in grades.get(d, {}).items():
            qe = e[:pivot] + (d - 1,) + e[pivot + 1:]
            quotient[qe] = t if up == 1 else tuple([a * up for a in t])
            for j, r in others:
                e2 = qe[:j] + (qe[j] + 1,) + qe[j + 1:]
                p = mul(t, r)
                prev = lower.get(e2)
                lower[e2] = tuple([-a for a in p]) if prev is None else tuple(map(sub, prev, p))
    if any(any(t) for t in grades.get(0, {}).values()):
        raise ArithmeticError("polynomial is not divisible by the linear form")
    quotient = {e: mul(t, inv.nums) for e, t in quotient.items()}
    return Polynomial._normal(field, f.nvars, quotient, f.den * D ** max(top - 1, 0) * inv.den)


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
    terms = f.terms
    keys = sorted(terms, key=lambda e: (-sum(e), tuple(-x for x in e)))
    parts: list[str] = []
    for e in keys:
        c = terms[e]
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
