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
the context and the direct ideal test call themselves.  The direct ideal
test is the conormal identity of the invariance module, on the flat's
normals and its weighted mirrors: the pair mirrors through it, and for
p < m the diagonal term as one more mirror (e_v, e_v, (m/p) c_1) for each
coordinate x_v that vanishes on the flat.  It builds no operator context.

A CollisionFlat, q blocks of r equal coordinates (the last pair of the
last block twisted to x_i = xi^eps x_(i+1)) and l zero coordinates, is a
flat of the G(m,1,N) arrangement x_i = xi^k x_j, x_i = 0 (Orlik and Terao,
Arrangements of Hyperplanes, 1992), which G(m,p,N) permutes, so its orbit
is walked on line tuples as a real one is.  The hyperplanes through it are
read off its block pattern in integer arithmetic, with no dot product and
no list of hyperplanes.  Its ideal is invariant exactly where each of its conditions
h = 1 holds, h an affine form over param_names().  With the pair weight
cbar = c0, or (c0 + c0_odd)/2 under the parity split:

    a block of r > 1 coordinates:  h = r c, c = c0_odd for odd eps under
                                   the split, c0 otherwise;
    l zero coordinates:            h = m(l-1) cbar + [p < m] (m/p) c1;
    p = m and l = 1:               h = 0, so "0 = 1" and never invariant.

The flat keeps these forms and their exact solution under the names a real
Stratum uses (names, conditions, solution, normals, subspace, lines), so the helpers
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
from .linalg import Vector, identity, int_rows, line_key, mat_vec
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
        rows[i][j] = self.powers[k % self.m]
        rows[j][i] = self.powers[-k % self.m]
        return tuple(tuple(r) for r in rows)

    def diag_matrix(self, i: int, s: int = 1):
        field = self.field
        rows = [list(r) for r in identity(field, self.N)]
        rows[i][i] = self.eta ** s
        return tuple(tuple(r) for r in rows)

    @cached_property
    def powers(self) -> tuple:
        """xi^0, ..., xi^(m-1): xi^k is powers[k % m]."""
        powers = [self.field.one()]
        for _ in range(1, self.m):
            powers.append(powers[-1] * self.xi)
        return tuple(powers)

    @cached_property
    def lines(self) -> tuple[Vector, ...]:
        """The hyperplanes of G(m,1,N) as forms: the mirrors x_i - xi^k x_j, i < j, then x_1, ..., x_N."""
        e = identity(self.field, self.N)
        pairs = (tuple(a - xi_k * b for a, b in zip(e[i], e[j]))
                 for i, j in combinations(range(self.N), 2) for xi_k in self.powers)
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

# ---------------------------------------------------------------------------
# strata and their ideals


class CollisionFlat:
    """q blocks of r coordinates equal up to the eps-th root power, then l zeros:
    a flat of the G(m,1,N) arrangement.

    The twist makes the last pair of the last block x_i = xi^eps x_(i+1),
    and eps is kept mod m.  It reads as a real Stratum does: names are the
    weights, conditions the affine forms h with h = 1 on the invariance
    locus, solution their exact solution, normals the forms that cut it
    out, lines the indices of the group.lines through it.
    """

    def __init__(self, group: ComplexReflectionGroup, q: int = 0, r: int = 1, l: int = 0, eps: int = 0):
        if r < 1 or q < 0 or l < 0 or q * r + l > group.N:
            raise ValueError("blocks and zeros do not fit")
        eps %= group.m
        if eps and q == 0:
            raise ValueError("a twist needs at least one block")
        if eps and r == 1:
            raise ValueError("a twist needs blocks of at least two coordinates")
        self.group, self.q, self.r, self.l, self.eps = group, q, r, l, eps
        self.names = group.param_names()
        # x_i - x_{i+1} within each block, x_i - xi^eps x_{i+1} for the last pair, then x_i
        e = identity(group.field, group.N)
        one, twist = group.powers[0], group.powers[eps]
        rows = [tuple(a - (twist if i == q * r - 2 else one) * b for a, b in zip(e[i], e[i + 1]))
                for block in range(q) for i in range(block * r, block * r + r - 1)]
        self.normals = tuple(rows) + e[q * r:q * r + l]

    @cached_property
    def subspace(self) -> Subspace:
        return Subspace(self.group.field, self.group.N, self.normals)

    @property
    def zeros(self) -> range:
        return range(self.q * self.r, self.q * self.r + self.l)

    @cached_property
    def _pair_mirrors(self) -> tuple[tuple[int, int, int, int], ...]:
        """(index in group.lines, i, j, k) for each mirror x_i = xi^k x_j, i < j, through the flat, in index order.

        A generic point is x_i = a_b on block b but for x_i = xi^-eps a_b on
        the last coordinate of the last block, and 0 on the zero
        coordinates, all else unrelated.  So the mirror holds it when i and
        j share a block and k is 0, or eps for that last coordinate j, and
        for every k when both are zero coordinates.
        """
        m, blocks, zeros = self.group.m, self.q * self.r, self.zeros
        out = []
        for n, (i, j) in enumerate(combinations(range(self.group.N), 2)):
            if i in zeros and j in zeros:
                out.extend((n * m + k, i, j, k) for k in range(m))
            elif j < blocks and i // self.r == j // self.r:
                k = self.eps if j == blocks - 1 else 0
                out.append((n * m + k, i, j, k))
        return tuple(out)

    @cached_property
    def lines(self) -> tuple[int, ...]:
        """The indices of the group.lines that vanish on the flat: pair mirrors, then the zero coordinates."""
        first = self.group.m * self.group.N * (self.group.N - 1) // 2
        return tuple(n for n, *_ in self._pair_mirrors) + tuple(first + v for v in self.zeros)

    def mirrors(self, point: dict) -> list:
        """(alpha, alpha^v, c) for each weighted mirror through the flat, at the weights of weight_point.

        The pair mirror x_i = xi^k x_j enters as (e_i - xi^k e_j, e_i - xi^-k e_j,
        c0, or c0_odd for odd k), and for p < m each zero coordinate v as
        (e_v, e_v, (m/p) c1).  That is the diagonal term at a generic point
        p of the flat: with d = m/p it is sum_t c_t d f_t(p) / p_v, where
        d f_t(p) sums eta^(-st) f(p with p_v -> eta^s p_v) over s.  Those
        maps are in the group, so every such value is zero where p_v != 0.
        Where p_v = 0 only the x_v-linear part of f survives the division:
        f_t / x_v is d_v f(p) for t = 1 and 0 beyond.
        """
        group = self.group
        field, powers = group.field, group.powers
        c_even, c_odd = field.element(point["c0"]), field.element(point.get("c0_odd", point["c0"]))

        def form(i, j=None, k=0):
            """e_i - xi^k e_j, or e_i alone."""
            row = [field.zero()] * group.N
            row[i] = powers[0]
            if j is not None:
                row[j] = -powers[k % group.m]
            return tuple(row)

        out = [(form(i, j, k), form(i, j, -k), c_odd if k % 2 else c_even) for _, i, j, k in self._pair_mirrors]
        if group.diag_order > 1:
            c1 = field.element(point["c1"]) * group.diag_order
            out.extend((form(v), form(v), c1) for v in self.zeros)
        return out

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


def direct_ideal_violations(flat: CollisionFlat, weights: dict) -> list:
    """The conormal test of the real groups on the flat at the named weights, which weight_point completes."""
    return conormal_violations(flat, flat.mirrors(weight_point(flat.group, weights)))


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
