"""Dunkl operators for the imprimitive complex reflection groups G(m,p,N).

The group permutes N coordinates and multiplies them by m-th roots of unity
whose product is a power of the p-th one.  Its pair reflections have mirrors
x_i = xi^k x_j; for p < m the cyclic diagonal symmetries contribute extra
terms supported on the coordinate hyperplanes.

The operator in coordinate i is

    T_i f = d_i f
          - sum_{j != i} sum_k c(k) (f - f o s_ij^k) / (x_i - xi^k x_j)
          - sum_{t=1}^{m/p-1} c_t (m/p) [x_i-degree = t mod m/p part of f] / x_i

where c(k) is a single weight c0, except for N = 2 with p even, where the
parity of k is a conjugation invariant and odd k may carry a second weight.
The pair reflections are handed to the shared operator core of the dunkl
module as mirror forms x_i - xi^k x_j with coroots e_i - xi^(-k) e_j, and
the direct ideal test and the orbit walk are the ones real groups use; only
the diagonal term is computed here.  Every division is exact on polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial

from .dunkl import DunklContext
from .fields import Field
from .invariance import witness_violations
from .linalg import identity
from .polynomials import Polynomial
from .rootsystems import Subspace, orbit_walk


class ComplexReflectionGroup:
    def __init__(self, m: int, p: int, N: int):
        if m < 2 or N < 2:
            raise ValueError("need m >= 2 and N >= 2")
        if p < 1 or m % p:
            raise ValueError("p must divide m")
        self.m, self.p, self.N = m, p, N
        self.field = Field.rational() if m <= 2 else Field.cyclotomic(m)
        self.xi = self.field.element(-1) if m == 2 else self.field.generator()
        self.diag_order = m // p
        self.eta = self.xi ** p
        self.order = m ** N * factorial(N) // p

    def __repr__(self):
        return f"G({self.m},{self.p},{self.N})"

    @property
    def has_parity_split(self) -> bool:
        """Whether odd-twist pair reflections form their own class."""
        return self.N == 2 and self.p % 2 == 0

    def pair_matrix(self, i: int, j: int, k: int):
        """The involution with mirror x_i = xi^k x_j."""
        field = self.field
        rows = [list(r) for r in identity(field, self.N)]
        rows[i][i] = field.zero()
        rows[j][j] = field.zero()
        rows[i][j] = self.xi ** k
        rows[j][i] = self.xi ** (-k)
        return tuple(tuple(r) for r in rows)

    def diag_matrix(self, i: int, s: int = 1):
        field = self.field
        rows = [list(r) for r in identity(field, self.N)]
        rows[i][i] = self.eta ** s
        return tuple(tuple(r) for r in rows)

    def generator_inverses(self):
        """Inverses of a reflection generating set, for orbit walks."""
        out = []
        for i in range(self.N):
            for j in range(i + 1, self.N):
                for k in range(self.m):
                    out.append(self.pair_matrix(i, j, k))
        if self.diag_order > 1:
            for i in range(self.N):
                out.append(self.diag_matrix(i, -1))
        return out

    def param_names(self) -> tuple[str, ...]:
        names = ["c0"]
        if self.has_parity_split:
            names.append("c0_odd")
        names.extend(f"c{t}" for t in range(1, self.diag_order))
        return tuple(names)


class ComplexDunklContext(DunklContext):
    """Operator application for G(m,p,N) at numeric weights.

    Reflection (i, j, k) with i < j, listed in that order, has the mirror
    x_i = xi^k x_j; its index is k + m * (its pair's index among i < j).
    """

    def __init__(self, group: ComplexReflectionGroup, c0, c0_odd=None, cdiag=()):
        field = group.field
        c_even = field.element(c0)
        if c0_odd is None:
            c_odd = c_even
        else:
            if not group.has_parity_split:
                raise ValueError("a separate odd weight needs N = 2 and even p")
            c_odd = field.element(c0_odd)
        cdiag = tuple(field.element(c) for c in cdiag)
        if len(cdiag) != group.diag_order - 1:
            raise ValueError(
                f"need {group.diag_order - 1} diagonal weights, got {len(cdiag)}"
            )
        self.group = group
        self.cdiag = cdiag
        zero, one = field.zero(), field.one()
        reflections = []
        for i, j in combinations(range(group.N), 2):
            for k in range(group.m):
                alpha = [zero] * group.N
                coroot = [zero] * group.N
                alpha[i] = coroot[i] = one
                alpha[j] = -(group.xi ** k)
                coroot[j] = -(group.xi ** (-k))
                reflections.append((alpha, coroot, c_odd if k % 2 else c_even))
        self._set_reflections(field, group.N, 0, reflections)

    def apply(self, direction, f: Polynomial) -> Polynomial:
        out = super().apply(direction, f)
        d = self.group.diag_order
        # along a vector the core sums coordinate applications, each with its own diagonal term
        if not isinstance(direction, int) or d == 1 or all(c.is_zero() for c in self.cdiag):
            return out
        # exps -> exps - e_direction is one to one, so no two terms collide
        scale = self.field.element(d)
        lowered = {}
        for exps, coeff in f.terms.items():
            t = exps[direction] % d
            if t and not self.cdiag[t - 1].is_zero():
                key = exps[:direction] + (exps[direction] - 1,) + exps[direction + 1:]
                lowered[key] = coeff * self.cdiag[t - 1] * scale
        return out - Polynomial(self.field, self.nvars, lowered)


# ---------------------------------------------------------------------------
# strata and their ideals


def collision_subspace(group: ComplexReflectionGroup, q: int, r: int, l: int = 0, eps: int = 0) -> Subspace:
    """q blocks of r coordinates equal up to the eps-th root power, then l zeros.

    The twist multiplies the last coordinate of the last block by xi^eps.
    """
    if r < 1 or q < 0 or l < 0 or q * r + l > group.N:
        raise ValueError("blocks and zeros do not fit")
    if eps % group.m and q == 0:
        raise ValueError("a twist needs at least one block")
    field = group.field
    rows = []
    for a in range(q):
        base = a * r
        for s in range(r - 1):
            row = [field.zero()] * group.N
            row[base + s] = field.one()
            twist = field.one()
            if a == q - 1 and s == r - 2:
                twist = group.xi ** eps
            row[base + s + 1] = -twist
            rows.append(tuple(row))
    for s in range(l):
        row = [field.zero()] * group.N
        row[q * r + s] = field.one()
        rows.append(tuple(row))
    return Subspace(field, group.N, rows)


def subspace_orbit(group: ComplexReflectionGroup, sub: Subspace, cap: int = 4096) -> dict:
    moves = [lambda s, m=ginv: s.transform_rows(m) for ginv in group.generator_inverses()]
    return orbit_walk(sub, moves, cap)


def direct_ideal_violations(
    ctx: ComplexDunklContext,
    sub: Subspace,
    seed: int = 0,
    orbit_limit: int = 64,
) -> list:
    """Same generic-witness membership test as in the real case."""
    orbit = subspace_orbit(ctx.group, sub, cap=orbit_limit)
    return witness_violations(ctx, orbit, sub, seed)


# ---------------------------------------------------------------------------
# closed-form invariance conditions


def _avg_pair_weight(ctx_values: dict, group: ComplexReflectionGroup):
    c0 = Fraction(ctx_values["c0"])
    if group.has_parity_split:
        return (c0 + Fraction(ctx_values.get("c0_odd", c0))) / 2
    return c0


def block_condition_text(group: ComplexReflectionGroup, r: int, parity: int = 0) -> str:
    name = "c0_odd" if (parity % 2 and group.has_parity_split) else "c0"
    return f"{name} = {Fraction(1, r)}"

def block_condition_holds(group: ComplexReflectionGroup, values: dict, r: int, parity: int = 0) -> bool:
    name = "c0_odd" if (parity % 2 and group.has_parity_split) else "c0"
    got = Fraction(values.get(name, values["c0"]))
    return got == Fraction(1, r)


def zeros_condition_text(group: ComplexReflectionGroup, l: int) -> str:
    m, p = group.m, group.p
    pair = "(c0+c0_odd)/2" if group.has_parity_split else "c0"
    if p == m:
        if l == 1:
            return "0 = 1"
        return f"{pair} = {Fraction(1, m * (l - 1))}"
    if l == 1:
        return f"c1 = {Fraction(p, m)}"
    lhs = pair if l == 2 else f"{l - 1}*{pair}"
    coeff = Fraction(1, p)
    return f"{lhs} + {coeff}*c1 = {Fraction(1, m)}"

def zeros_condition_holds(group: ComplexReflectionGroup, values: dict, l: int) -> bool:
    m, p = group.m, group.p
    avg = _avg_pair_weight(values, group)
    if p == m:
        return m * (l - 1) * avg == 1
    c1 = Fraction(values.get("c1", 0))
    return (l - 1) * avg + Fraction(c1, p) == Fraction(1, m)


def combined_condition_holds(group: ComplexReflectionGroup, values: dict, q: int, r: int, l: int, parity: int = 0) -> bool:
    ok = True
    if q and r > 1:
        ok = ok and block_condition_holds(group, values, r, parity)
    if l:
        ok = ok and zeros_condition_holds(group, values, l)
    return ok


def ideal_conditions(group: ComplexReflectionGroup, q: int = 0, r: int = 1, l: int = 0, eps: int = 0) -> list[str]:
    """Equation strings cutting out the invariance locus of the ideal."""
    out = []
    if q and r > 1:
        out.append(block_condition_text(group, r, parity=eps))
    if l:
        out.append(zeros_condition_text(group, l))
    return out


def ideal_conditions_hold(group: ComplexReflectionGroup, values: dict, q: int = 0, r: int = 1, l: int = 0, eps: int = 0) -> bool:
    return combined_condition_holds(group, values, q, r, l, parity=eps)


_GROUP_RE = None

def parse_group_name(text: str) -> ComplexReflectionGroup:
    """Accepts forms like "G(4,2,3)" or "4,2,3"."""
    global _GROUP_RE
    if _GROUP_RE is None:
        import re
        _GROUP_RE = re.compile(r"^\s*(?:G\s*\(\s*)?(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)?\s*$")
    match = _GROUP_RE.match(text)
    if not match:
        raise ValueError(f"cannot parse group {text!r}; expected G(m,p,N)")
    return ComplexReflectionGroup(*map(int, match.groups()))
