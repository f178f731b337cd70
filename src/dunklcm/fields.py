"""Exact arithmetic in Q, real quadratic fields Q(sqrt(d)) and cyclotomic fields Q(zeta_m).

Elements are coefficient vectors over the power basis of the defining
polynomial: x^2 - d for quadratic fields, the m-th cyclotomic polynomial
for Q(zeta_m).  A vector is stored as integer numerators over one positive
common denominator in lowest terms, so the arithmetic runs on plain ints
and every operation is exact and arbitrary precision.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, sub
from typing import Iterable

RATIONAL = "rational"
QUADRATIC = "quadratic"
CYCLOTOMIC = "cyclotomic"

_ZERO = Fraction(0)


def _squarefree(n: int) -> bool:
    if n == 0:
        return False
    n = abs(n)
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


_cyclotomic_cache: dict[int, tuple[int, ...]] = {}


def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, ascending degree."""
    if m < 1:
        raise ValueError("cyclotomic index must be positive")
    cached = _cyclotomic_cache.get(m)
    if cached is not None:
        return cached
    # x^m - 1 divided by the (monic, integral) cyclotomic polynomials of all proper divisors.
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            div = cyclotomic_polynomial(d)
            k = len(div) - 1
            quo = [0] * (len(num) - k)
            for top in range(len(num) - 1, k - 1, -1):
                q = quo[top - k] = num[top]
                for i, c in enumerate(div):
                    num[top - k + i] -= q * c
            if any(num):
                raise ArithmeticError("cyclotomic recursion produced a remainder")
            num = quo
    result = tuple(num)
    _cyclotomic_cache[m] = result
    return result


class Field:
    """One of Q, Q(sqrt(d)) or Q(zeta_m), produced by the classmethod constructors."""

    __slots__ = ("kind", "param", "degree", "_zeros", "_unit", "_pow_table", "_zeta_table")

    _instances: dict[tuple[str, int | None], "Field"] = {}

    def __init__(self, kind: str, param: int | None, degree: int):
        self.kind = kind
        self.param = param
        self.degree = degree
        self._zeros = (0,) * (degree - 1)
        self._unit = (1,) + self._zeros
        self._pow_table: tuple[tuple[int, ...], ...] | None = None
        self._zeta_table: tuple[tuple[int, ...], ...] | None = None

    @classmethod
    def rational(cls) -> "Field":
        return cls._get(RATIONAL, None, 1)

    @classmethod
    def quadratic(cls, d: int) -> "Field":
        if d in (0, 1) or not _squarefree(d):
            raise ValueError(f"quadratic field parameter must be squarefree and not 0 or 1, got {d}")
        return cls._get(QUADRATIC, d, 2)

    @classmethod
    def cyclotomic(cls, m: int) -> "Field":
        if m < 3:
            raise ValueError(f"cyclotomic field order must be at least 3, got {m}")
        degree = len(cyclotomic_polynomial(m)) - 1
        return cls._get(CYCLOTOMIC, m, degree)

    @classmethod
    def _get(cls, kind: str, param: int | None, degree: int) -> "Field":
        key = (kind, param)
        inst = cls._instances.get(key)
        if inst is None:
            inst = cls(kind, param, degree)
            cls._instances[key] = inst
        return inst

    # -- basic element factories ------------------------------------------

    def element(self, value: "FieldElement | Fraction | int") -> "FieldElement":
        """Embed a rational number, or pass through an element of this field."""
        if isinstance(value, FieldElement):
            if value.field is not self:
                raise ValueError("element belongs to a different field")
            return value
        if type(value) is int:
            return FieldElement(self, (value,) + self._zeros, 1)
        q = Fraction(value)
        return FieldElement(self, (q.numerator,) + self._zeros, q.denominator)

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def generator(self) -> "FieldElement":
        """sqrt(d) or zeta_m; errors for the rational field."""
        if self.kind == RATIONAL:
            raise ValueError("the rational field has no generator")
        return FieldElement(self, (0, 1) + self._zeros[1:], 1)

    def from_coeffs(self, coeffs: Iterable[Fraction | int]) -> "FieldElement":
        vec = [Fraction(c) for c in coeffs]
        if len(vec) > self.degree:
            raise ValueError("coefficient vector longer than field degree")
        vec.extend([_ZERO] * (self.degree - len(vec)))
        # the lcm of the reduced denominators leaves the numerators coprime to it
        den = lcm(*(c.denominator for c in vec))
        return FieldElement(self, tuple(c.numerator * (den // c.denominator) for c in vec), den)

    # -- products and inner products -------------------------------------------

    def _mul_nums(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        """The integral vector of (sum a_i x^i)(sum b_j x^j), reduced in this field."""
        if self.kind == RATIONAL:
            return (a[0] * b[0],)
        if self.kind == QUADRATIC:
            return (a[0] * b[0] + self.param * a[1] * b[1], a[0] * b[1] + a[1] * b[0])
        n = self.degree
        conv = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        out = conv[:n]
        for row, c in zip(self._powers(), conv[n:]):
            if c:
                for i, rc in enumerate(row):
                    if rc:
                        out[i] += c * rc
        return tuple(out)

    def dot(self, a: Iterable["FieldElement"], b: Iterable["FieldElement"]) -> "FieldElement":
        """sum(x * y for x, y in zip(a, b)) over elements of this field, reduced once.

        The integral products are summed over one running common
        denominator, the lcm of the denominators seen so far, so no term
        builds an element or is brought to normal form.
        """
        mul = self._mul_nums
        zero = (0,) * self.degree
        total = list(zero)
        den = 1
        for x, y in zip(a, b):
            if x.field is not self or y.field is not self:
                raise ValueError("cannot mix elements of different fields")
            # a zero term adds nothing, and in a field only a zero factor makes one
            if x.nums == zero or y.nums == zero:
                continue
            p = mul(x.nums, y.nums)
            d = x.den * y.den
            if d != den:
                g = gcd(den, d)
                if g != d:
                    # d does not divide den: move the sum to lcm(den, d)
                    s = d // g
                    total = [t * s for t in total]
                    den *= s
                s = den // d
                p = [c * s for c in p]
            total = list(map(add, total, p))
        return _reduced(self, tuple(total), den)

    def int_dot(self, a: Iterable[tuple[int, ...]], b: Iterable[tuple[int, ...]]) -> tuple[int, ...]:
        """The integral vector of sum(x * y) over integral vectors x, y of this field."""
        if self.kind == RATIONAL:
            return (sum([x[0] * y[0] for x, y in zip(a, b)]),)
        mul = self._mul_nums
        total = [0] * self.degree
        for x, y in zip(a, b):
            if any(x) and any(y):
                total = list(map(add, total, mul(x, y)))
        return tuple(total)

    def norm_cofactor(self, nums: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        """(rest, norm) for a nonzero integral vector nums, with nums * rest = norm.

        rest is the product of the other Galois conjugates of nums, so it is
        integral and norm is the (nonzero integer) norm: 1 and nums[0] over
        Q or for a rational nums, a - b*sqrt(d) and a^2 - d*b^2 over
        Q(sqrt(d)).  Multiplying a row by rest makes that entry an integer.
        """
        if not any(nums[1:]):
            return self._unit, nums[0]
        if self.kind == QUADRATIC:
            a, b = nums
            return (a, -b), a * a - self.param * b * b
        rest = self._unit
        for k in range(2, self.param):
            if gcd(k, self.param) == 1:
                rest = self._mul_nums(rest, self._galois(nums, k))
        return rest, self._mul_nums(nums, rest)[0]

    def quotient(self, nums: tuple[int, ...], den: int) -> "FieldElement":
        """The element nums/den for integers nums and a nonzero den of either sign."""
        return _reduced(self, nums, den)

    # -- reduction tables --------------------------------------------------

    def _powers(self) -> tuple[tuple[int, ...], ...]:
        """Reduced coefficient vectors of x^k for k in [deg, 2*deg-2] (cyclotomic only).

        The cyclotomic polynomial is monic with integer coefficients, so
        every row is integral.
        """
        if self._pow_table is None:
            n = self.degree
            mod = cyclotomic_polynomial(self.param)
            # x^n = -(lower part of the minimal polynomial)
            cur = [-c for c in mod[:n]]
            rows = [tuple(cur)]
            for _ in range(n - 2):
                top = cur[n - 1]
                cur = [0] + cur[: n - 1]
                if top:
                    for i in range(n):
                        cur[i] -= top * mod[i]
                rows.append(tuple(cur))
            self._pow_table = tuple(rows)
        return self._pow_table

    def _galois(self, nums: tuple[int, ...], k: int) -> tuple[int, ...]:
        """The integral vector nums under zeta -> zeta^k (cyclotomic only)."""
        if self._zeta_table is None:
            # reduced (integral) coefficient vectors of zeta^e for e in range(m)
            zeta, cur, rows = self.generator(), self.one(), []
            for _ in range(self.param):
                rows.append(cur.nums)
                cur = cur * zeta
            self._zeta_table = tuple(rows)
        out = [0] * self.degree
        for j, c in enumerate(nums):
            if c:
                for i, rc in enumerate(self._zeta_table[j * k % self.param]):
                    out[i] += c * rc
        return tuple(out)

    def __repr__(self) -> str:
        if self.kind == RATIONAL:
            return "Q"
        if self.kind == QUADRATIC:
            return f"Q(sqrt({self.param}))"
        return f"Q(zeta_{self.param})"


def _reduced(field: Field, nums: tuple[int, ...], den: int) -> "FieldElement":
    """The element nums/den in normal form: den > 0 and gcd(den, *nums) == 1."""
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g == 1:
        return FieldElement(field, nums, den)
    return FieldElement(field, tuple([a // g for a in nums]), den // g)


class FieldElement:
    """An element of a Field: integer numerators `nums` over the common denominator `den`.

    The constructor takes the normal form as given: den > 0 and
    gcd(den, *nums) == 1, so zero is 0/1 and equal values have equal (nums, den).
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: Field, nums: tuple[int, ...], den: int = 1):
        self.field = field
        self.nums = nums
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficient vector as Fractions: a view for display, never used by the arithmetic."""
        return tuple(Fraction(a, self.den) for a in self.nums)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other) -> "FieldElement | None":
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValueError("cannot mix elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.element(other)
        return None

    def _combine(self, other, op):
        """op(self, other) for op in (add, sub), over the common denominator."""
        o = other if other.__class__ is FieldElement and other.field is self.field else self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da != db:
            return _reduced(self.field, tuple([op(a * db, b * da) for a, b in zip(self.nums, o.nums)]), da * db)
        nums = tuple(map(op, self.nums, o.nums))
        return FieldElement(self.field, nums, 1) if da == 1 else _reduced(self.field, nums, da)

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.nums), self.den)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = other if other.__class__ is FieldElement and other.field is self.field else self._coerce(other)
        if o is None:
            return NotImplemented
        f = self.field
        nums, den = f._mul_nums(self.nums, o.nums), self.den * o.den
        return FieldElement(f, nums, 1) if den == 1 else _reduced(f, nums, den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("division by zero field element")
        # 1 / (nums / den) = den * rest / norm, and rest is 1 for a rational value
        f, den = self.field, self.den
        rest, norm = f.norm_cofactor(self.nums)
        return _reduced(f, (den,) + f._zeros if rest is f._unit else tuple([den * c for c in rest]), norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "FieldElement":
        """Complex conjugation: zeta_m -> zeta_m^(-1); real elements unchanged."""
        f = self.field
        if f.kind == RATIONAL:
            return self
        if f.kind == QUADRATIC:
            if f.param > 0:
                return self
            return FieldElement(f, (self.nums[0], -self.nums[1]), self.den)
        return _reduced(f, f._galois(self.nums, -1), self.den)

    # -- structure ------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.element(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field is other.field and self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash((self.field.kind, self.field.param, self.nums, self.den))

    def sort_key(self) -> tuple:
        """Deterministic total order on elements of one field (not the real order).

        The key is the (numerator, denominator) pair of each coefficient in
        lowest terms.
        """
        den = self.den
        if den == 1:
            return tuple((a, 1) for a in self.nums)
        return tuple((a // g, den // g) for a in self.nums for g in (gcd(a, den),))

    def __repr__(self):
        return f"<{render_scalar(self)}>"

    def __str__(self):
        return render_scalar(self)


# -- rendering ----------------------------------------------------------------


def _render_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _render_term(coeff: Fraction, symbol: str) -> str:
    if coeff == 1:
        return symbol
    if coeff == -1:
        return f"-{symbol}"
    return f"{_render_fraction(coeff)}*{symbol}"


def render_scalar(x: FieldElement) -> str:
    """Plain text form: '3/2', '1+2*sqrt(5)', '1/3*z^2-z'."""
    f = x.field
    if f.kind == RATIONAL:
        return _render_fraction(x.coeffs[0])
    parts: list[str] = []
    if f.kind == QUADRATIC:
        symbols = ["", f"sqrt({f.param})"]
    else:
        symbols = [""] + ["z" if k == 1 else f"z^{k}" for k in range(1, f.degree)]
    for coeff, sym in zip(x.coeffs, symbols):
        if not coeff:
            continue
        text = _render_fraction(coeff) if not sym else _render_term(coeff, sym)
        if parts and not text.startswith("-"):
            parts.append("+" + text)
        else:
            parts.append(text)
    return "".join(parts) if parts else "0"
