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
module as mirror forms x_i - xi^k x_j with coroots e_i - xi^(-k) e_j; only
the diagonal term is computed here, by lowering exponents: no division.
Named weights are checked and completed in one place, weight_point, which
the context calls itself.  The direct ideal test is the conormal identity
real groups use, whose right side gains c_1 (m/p) lambda[v] for each
coordinate x_v that vanishes on the flat.

A CollisionFlat, q blocks of r equal coordinates (the last block twisted
by xi^eps) and l zero coordinates, is a flat of the G(m,1,N) arrangement
x_i = xi^k x_j, x_i = 0 (Orlik and Terao, Arrangements of Hyperplanes,
1992), which G(m,p,N) permutes, so its orbit is walked on line tuples as a
real one is.  Its ideal is invariant exactly where each of its conditions
h = 1 holds, h an affine form over param_names().  With the pair weight
cbar = c0, or (c0 + c0_odd)/2 under the parity split:

    a block of r > 1 coordinates:  h = r c, c = c0_odd for odd eps under
                                   the split, c0 otherwise;
    l zero coordinates:            h = m(l-1) cbar + [p < m] (m/p) c1;
    p = m and l = 1:               h = 0, so "0 = 1" and never invariant.

The flat keeps these forms and their exact solution under the names a real
Stratum uses (names, conditions, solution, subspace, lines), so the helpers
of the invariance module render, evaluate, solve and test both kinds alike.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm

from .dunkl import DunklContext
from .fields import Field
from .invariance import conormal_violations
from .linalg import Vector, dot, identity, int_rows, line_key, mat_vec
from .polynomials import Polynomial, solve_affine
from .rootsystems import Subspace, flat_members, orbit_of_subspace


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

    @cached_property
    def lines(self) -> tuple[Vector, ...]:
        """The hyperplanes of G(m,1,N) as forms: the mirrors x_i - xi^k x_j, i < j, then x_1, ..., x_N."""
        e = identity(self.field, self.N)
        pairs = (tuple(a - self.xi ** k * b for a, b in zip(e[i], e[j]))
                 for i, j in combinations(range(self.N), 2) for k in range(self.m))
        return tuple(pairs) + e

    @cached_property
    def line_perms(self) -> tuple[tuple[int, ...], ...]:
        """Generators M as permutations l -> l M of the line indices, Broue, Malle and Rouquier's
        (J. reine angew. Math. 500, 1998): the neighbour transpositions, the reflection in x_1 = xi x_2
        and, for p < m, x_1 -> xi^p x_1."""
        gens = [self.pair_matrix(i, i + 1, 0) for i in range(self.N - 1)] + [self.pair_matrix(0, 1, 1)]
        if self.diag_order > 1:
            gens.append(self.diag_matrix(0))
        index = {line_key(self.field, row): i for i, row in enumerate(int_rows(self.lines))}
        images = ([mat_vec(tuple(zip(*g)), l) for l in self.lines] for g in gens)
        return tuple(tuple(index[line_key(self.field, row)] for row in int_rows(forms)) for forms in images)

    def param_names(self) -> tuple[str, ...]:
        names = ["c0"]
        if self.has_parity_split:
            names.append("c0_odd")
        names.extend(f"c{t}" for t in range(1, self.diag_order))
        return tuple(names)


class ComplexDunklContext(DunklContext):
    """Operator application for G(m,p,N) at numeric weights: the core's
    pair-reflection operators, minus the diagonal term.

    The weights are named as in group.param_names() and completed by
    weight_point.  Reflection r has the mirror group.lines[r], so the mirror
    x_i = xi^k x_j, i < j, has the index k + m * (its pair's index among i < j).
    """

    def __init__(self, group: ComplexReflectionGroup, weights: dict):
        field = group.field
        point = weight_point(group, weights)
        c_even = field.element(point["c0"])
        c_odd = field.element(point.get("c0_odd", c_even))
        cdiag = tuple(field.element(point[f"c{t}"]) for t in range(1, group.diag_order))
        self.group = group
        self.cdiag = cdiag
        # d * c_t over one common denominator, None for a zero weight
        den = lcm(*(c.den for c in cdiag))
        scale = group.diag_order
        self._diag_nums = tuple(
            None if c.is_zero() else tuple([a * (den // c.den) * scale for a in c.nums]) for c in cdiag
        ), den
        # the coroot of a pair mirror is its complex conjugate, e_i - xi^(-k) e_j
        reflections = [
            (alpha, tuple(x.conjugate() for x in alpha), c_odd if r % group.m % 2 else c_even)
            for r, alpha in enumerate(group.lines[:-group.N])
        ]
        self._set_reflections(field, group.N, reflections)

    def apply(self, direction, f: Polynomial) -> Polynomial:
        out = super().apply(direction, f)
        d = self.group.diag_order
        # along a vector the core sums coordinate applications, each with its own diagonal term
        if not isinstance(direction, int) or d == 1 or all(c.is_zero() for c in self.cdiag):
            return out
        # exps -> exps - e_direction is one to one, so no two terms collide
        mul = self.field._mul_nums
        weights, den = self._diag_nums
        lowered = {}
        for exps, nums in f.nums.items():
            t = exps[direction] % d
            if t and weights[t - 1] is not None:
                key = exps[:direction] + (exps[direction] - 1,) + exps[direction + 1:]
                lowered[key] = mul(nums, weights[t - 1])
        return out - Polynomial._normal(self.field, self.nvars, lowered, f.den * den)

    def conormal_images(self, form, lines) -> list:
        """The pair-reflection images, minus the diagonal term on each coordinate
        x_v whose line, one of the last N of group.lines, is in lines.

        With d = m/p the term is sum_t c_t d f_t(p) / p_v, where d f_t(p)
        sums eta^(-st) f(p with p_v -> eta^s p_v) over s.  Those maps are in
        the group, so every such value is zero where p_v != 0.  Where p_v = 0
        only the x_v-linear part of f survives the division: f_t / x_v is
        form[v] = d_v f(p) for t = 1 and 0 beyond.
        """
        images = super().conormal_images(form, lines)
        if not self.cdiag or self.cdiag[0].is_zero():
            return images
        weight = self.cdiag[0] * self.field.element(self.group.diag_order)
        first = len(self.group.lines) - self.nvars
        zeros = {r - first for r in lines if r >= first}
        return [x - weight * form[v] if v in zeros else x for v, x in enumerate(images)]


# ---------------------------------------------------------------------------
# strata and their ideals


class CollisionFlat:
    """q blocks of r coordinates equal up to the eps-th root power, then l zeros:
    a flat of the G(m,1,N) arrangement.

    The twist multiplies the last coordinate of the last block by xi^eps.
    It reads as a real Stratum does: names are the weights, conditions the
    affine forms h with h = 1 on the invariance locus, solution their exact
    solution, lines the indices of the group.lines through the subspace.
    """

    def __init__(self, group: ComplexReflectionGroup, q: int = 0, r: int = 1, l: int = 0, eps: int = 0):
        if r < 1 or q < 0 or l < 0 or q * r + l > group.N:
            raise ValueError("blocks and zeros do not fit")
        if eps % group.m and q == 0:
            raise ValueError("a twist needs at least one block")
        if eps % group.m and r == 1:
            raise ValueError("a twist needs blocks of at least two coordinates")
        self.group, self.q, self.r, self.l, self.eps = group, q, r, l, eps
        self.names = group.param_names()
        # x_i - x_{i+1} within each block, x_i - xi^eps x_{i+1} for the last pair, then x_i
        e = identity(group.field, group.N)
        rows = [tuple(a - group.xi ** (eps if i == q * r - 2 else 0) * b for a, b in zip(e[i], e[i + 1]))
                for block in range(q) for i in range(block * r, block * r + r - 1)]
        self.subspace = Subspace(group.field, group.N, rows + list(e[q * r:q * r + l]))

    @cached_property
    def lines(self) -> tuple[int, ...]:
        """The indices of the group.lines that vanish on the subspace: pair mirrors, then the zero coordinates."""
        basis = self.subspace.basis
        return tuple(i for i, l in enumerate(self.group.lines) if all(dot(l, b).is_zero() for b in basis))

    @cached_property
    def conditions(self) -> tuple[Polynomial, ...]:
        """The affine forms h over names whose equations h = 1 cut out the locus (module docstring)."""
        group = self.group
        split = group.has_parity_split
        forms = []
        if self.q and self.r > 1:
            forms.append({"c0_odd" if self.eps % 2 and split else "c0": self.r})
        if self.l:
            # m(l-1) times the pair weight, which averages c0 and c0_odd under the split
            pair = Fraction(group.m * (self.l - 1), 2 if split else 1)
            h = dict.fromkeys(("c0", "c0_odd") if split else ("c0",), pair)
            if group.p < group.m:
                h["c1"] = Fraction(group.m, group.p)
            forms.append(h)
        field = Field.rational()
        return tuple(Polynomial.linear_form(field, tuple(field.element(h.get(name, 0)) for name in self.names))
                     for h in forms)

    @cached_property
    def solution(self) -> tuple[str, dict[str, Polynomial], list[str]]:
        """solve_affine's exact (status, pivot weights, free weights) for the conditions, solved once."""
        return solve_affine(Field.rational(), self.names, self.conditions)


def subspace_orbit(group: ComplexReflectionGroup, flat: CollisionFlat, cap: int = 4096) -> dict:
    """The orbit of the flat's subspace as {Subspace.key: Subspace}, walked on the tuple of its lines."""
    return flat_members(group.field, group.N, group.lines, orbit_of_subspace(group.line_perms, flat.lines, cap))


def direct_ideal_violations(ctx: ComplexDunklContext, flat: CollisionFlat) -> list:
    """The conormal test of the real groups on the flat, with the hyperplanes of group.lines through it."""
    return conormal_violations(ctx, flat)


def weight_point(group: ComplexReflectionGroup, values: dict) -> dict:
    """Every weight of param_names(), in order: c0_odd defaults to c0, c1, ... to 0."""
    names = group.param_names()
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise ValueError(f"unknown weight name(s) {', '.join(unknown)} for {group!r}; "
                         f"its weights are {', '.join(names)}")
    if "c0" not in values:
        raise ValueError(f"{group!r} needs the pair weight c0")
    return {name: values.get(name, values["c0"] if name == "c0_odd" else 0) for name in names}


_GROUP_RE = re.compile(r"^\s*(?:G\s*\(\s*)?(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)?\s*$")


def parse_group_name(text: str) -> ComplexReflectionGroup:
    """Accepts forms like "G(4,2,3)" or "4,2,3"."""
    match = _GROUP_RE.match(text)
    if not match:
        raise ValueError(f"cannot parse group {text!r}; expected G(m,p,N)")
    return ComplexReflectionGroup(*map(int, match.groups()))
