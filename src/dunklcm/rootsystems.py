"""Finite Coxeter root systems with exact coordinates.

Each family is realized over the smallest field that makes its reflection
representation exact with the standard dot product: Q for the crystallographic
families, Q(sqrt(5)) for H3, H4 and the pentagon, Q(sqrt(2)) and Q(sqrt(3))
for the octagon and the 12-gon.  Root systems store one representative per
root line; every operation downstream is invariant under negating a root,
so a geometric choice of positive system is never needed.  Each line also
keeps its coordinates over the simple roots (RootSystem.coords), integral
over one common denominator, on which the lines are walked and strata read
their lines, their projections and their components.

A flat is read through its normals and the sorted indices of the
hyperplanes that contain it, which the group permutes: a stratum's root
lines, or for G(m,p,N) the hyperplanes of G(m,1,N).  Subspace, a flat in
canonical form (reduced echelon annihilator), flat_members, which builds
the Subspace of each tuple, and orbit_of_subspace remain only for the
tests and the benchmark's tracer; no command builds a Subspace.

Every orbit is built by one breadth-first walk, orbit_walk: the root
lines are the orbits of the simple-root lines on their coordinates, whose
order of appearance also labels the weight orbits, and flats are orbits of
line tuples under a list of line permutations (orbit_of_subspace), real and
complex groups alike.  Parabolic classes are decided on the Coxeter diagram alone, by
Deodhar's moves between subsets of the simple roots (parabolic_classes),
which both the stratum enumeration and the command line's --subgraph type
lookup consume; no command walks the orbit of a flat.

Every stratum is a standard parabolic flat X_I, the block strata of the
classical families included: it vanishes on the roots supported in I, and
its irreducible components are those of I in the Coxeter diagram.  The
weighted Coxeter number of an irreducible set of root lines is computed
in closed form, (2 / rank) * the sum of the line weights, the rank of a
parabolic component being its number of vertices; the tests keep the
weighted root form itself as the oracle it is checked against.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations

from .fields import Field, FieldElement, render_scalar
from .linalg import (
    Vector,
    dot,
    gram,
    int_rows,
    invert,
    line_key,
    mat_vec,
    nullspace,
    rank,
    reflect,
    rref,
    vec,
    vec_is_zero,
)
from .polynomials import Polynomial, linear_combination, solve_affine


class OrbitCapExceeded(RuntimeError):
    """Raised when a subspace orbit grows past the configured cap."""


def _vec_key(v: Vector) -> tuple:
    return tuple(x.sort_key() for x in v)


def _line_rep(v: Vector) -> Vector:
    """Canonical representative of {v, -v}: the one with the larger _vec_key.

    The keys first differ at the first nonzero coefficient of v, and the
    positive one is the larger there.
    """
    for x in v:
        for a in x.nums:
            if a:
                return v if a > 0 else tuple(-y for y in v)
    return v


def _negated(c: tuple) -> tuple:
    return tuple(tuple([-a for a in x]) for x in c)


def _coord_reflect(mul, den: int, i: int, column, c: tuple) -> tuple:
    """s_i on the integral coordinates c over den, signed so that the first nonzero integer is positive.

    column holds (j, den * <alpha_j, alpha_i^v>) for the nonzero Cartan
    entries of column i, as integral vectors.
    """
    pairing = [0] * len(c[i])
    for j, a in column:
        if any(c[j]):
            pairing = [p + q for p, q in zip(pairing, mul(c[j], a))]
    ci = tuple([x - p // den for x, p in zip(c[i], pairing)])
    out = c[:i] + (ci,) + c[i + 1:]
    for x in out:
        for a in x:
            if a:
                return out if a > 0 else _negated(out)
    return out


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """A linear subspace given by its annihilating forms, canonicalized."""

    __slots__ = ("field", "ambient", "annihilator", "basis", "key")

    def __init__(self, field: Field, ambient: int, annihilator_rows):
        rows = tuple(r for r in annihilator_rows if not vec_is_zero(r))
        reduced, pivots = rref(rows)
        self.field = field
        self.ambient = ambient
        self.annihilator = reduced
        self.basis = nullspace(reduced, pivots, ambient, field)
        self.key = tuple(_vec_key(r) for r in reduced)

    @property
    def dim(self) -> int:
        return self.ambient - len(self.annihilator)

    def reflect(self, alpha: Vector, alpha_norm: FieldElement | None = None) -> "Subspace":
        return Subspace(self.field, self.ambient, [reflect(r, alpha, alpha_norm) for r in self.annihilator])

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.key == other.key and self.ambient == other.ambient

    def __hash__(self):
        return hash((self.ambient, self.key))

    def __repr__(self):
        rows = "; ".join(",".join(render_scalar(x) for x in r) for r in self.annihilator)
        return f"Subspace(dim={self.dim}, rows=[{rows}])"


# ---------------------------------------------------------------------------
# root systems


_SUPPORTED_DIHEDRAL = (3, 4, 5, 6, 8, 12)


class RootSystem:
    def __init__(self, family: str, rank_: int, field: Field, simple: tuple[Vector, ...]):
        self.family = family
        self.rank = rank_
        self.field = field
        self.simple = simple
        self.dim = len(simple[0])
        self.lines, self.coords, self.coord_den, self.orbit_labels, self.orbit_names = self._line_orbits()
        self._line_index = {_vec_key(l): i for i, l in enumerate(self.lines)}
        self.line_norms = tuple(dot(l, l) for l in self.lines)

    # -- construction -------------------------------------------------------

    def _line_orbits(self) -> tuple[tuple[Vector, ...], tuple, int, tuple[int, ...], tuple[str, ...]]:
        """Root lines sorted by key, their coordinates over the simple roots and
        the coordinates' common denominator, each line's orbit label, and the
        orbit names.

        Every root is conjugate to a simple root, so the lines are the union
        of the orbits of the simple-root lines.  Orbits are numbered in order
        of first appearance among the simple roots.  The walk runs on the
        coordinates c over the simple roots, where s_i changes only c_i, by
        <c, alpha_i^v> = sum_j c_j <alpha_j, alpha_i^v>: a sum over the
        nonzero Cartan entries of column i.  The coordinates are integral
        rows over the common denominator E of the Cartan entries: they lie
        in the ring the entries generate, Z or Z[tau]
        for tau = (1 + sqrt(5)) / 2, which E times any element maps to
        integral rows, so the division by E below is exact.  Each line is
        sum_j c_j alpha_j, signed like _line_rep, its coordinates with it.
        """
        field = self.field
        norms = [dot(s, s) for s in self.simple]
        cartan = [[dot(a, s) * 2 / n for s, n in zip(self.simple, norms)] for a in self.simple]
        den = math.lcm(*(x.den for row in cartan for x in row))
        columns = [[(j, a) for j, a in enumerate(col) if any(a)] for col in zip(*int_rows(cartan))]
        mul = field._mul_nums
        moves = [partial(_coord_reflect, mul, den, i, col) for i, col in enumerate(columns)]
        zero = (0,) * field.degree
        orbits: list[dict[tuple, tuple]] = []
        for i in range(self.rank):
            start = tuple((den,) + zero[1:] if j == i else zero for j in range(self.rank))
            if not any(start in orbit for orbit in orbits):
                orbits.append(orbit_walk(start, moves, math.inf, key=tuple))
        # with the simple roots integral over sden, sum_j c_j alpha_j is integral over den * sden
        sden = math.lcm(*(x.den for s in self.simple for x in s))
        simple_columns = list(zip(*int_rows(self.simple)))
        found = []
        for label, orbit in enumerate(orbits):
            for c in orbit:
                line = tuple(field.quotient(field.int_dot(c, col), den * sden) for col in simple_columns)
                rep = _line_rep(line)
                found.append((_vec_key(rep), rep, c if rep is line else _negated(c), label))
        found.sort(key=lambda entry: entry[0])
        names = ("c",) if len(orbits) == 1 else tuple(f"c{i + 1}" for i in range(len(orbits)))
        _, lines, coords, labels = zip(*found)
        return lines, coords, den, labels, names

    # -- basic queries -------------------------------------------------------

    def line_index(self, v: Vector) -> int | None:
        return self._line_index.get(_vec_key(_line_rep(v)))

    @property
    def name(self) -> str:
        """The family with its rank where the family name does not carry it: A3, E7, I2(5)."""
        return f"{self.family}{self.rank}" if self.family[-1].isalpha() else self.family

    @cached_property
    def simple_perms(self) -> tuple[tuple[int, ...], ...]:
        """Each simple reflection as the permutation of line indices it induces."""
        return tuple(tuple(self.line_index(reflect(l, s)) for l in self.lines) for s in self.simple)

    @cached_property
    def coroots(self) -> tuple[Vector, ...]:
        """alpha * 2 / (alpha, alpha) per root line, so that s(x) = x - (alpha, x) coroot."""
        out = []
        for alpha, norm in zip(self.lines, self.line_norms):
            scale = norm.inverse() * 2
            out.append(tuple(a * scale for a in alpha))
        return tuple(out)

    @cached_property
    def bonds(self) -> tuple[tuple[int, ...], ...]:
        """The Coxeter matrix: the bond order of each pair of simple roots, 1 on the diagonal."""
        orders = _bond_orders(self.field)
        norms = [dot(s, s) for s in self.simple]
        out = [[1] * self.rank for _ in range(self.rank)]
        for i, j in combinations(range(self.rank), 2):
            c2 = dot(self.simple[i], self.simple[j]) ** 2 / (norms[i] * norms[j])
            if c2 not in orders:
                raise ValueError(f"unsupported bond angle with cos^2 = {c2}")
            out[i][j] = out[j][i] = orders[c2]
        return tuple(map(tuple, out))

    def __repr__(self):
        return f"RootSystem({self.family}, {len(self.lines)} root lines)"


def _bond_orders(field: Field) -> dict[FieldElement, int]:
    """Bond order m by cos^2(pi/m), for the angles of the supported families in field."""
    orders = {field.element(Fraction(k, 4)): m for k, m in ((0, 2), (1, 3), (2, 4), (3, 6))}
    if field.kind == "quadratic":
        g = field.generator()
        if field.param == 5:
            orders[(3 + g) / 8] = 5
        elif field.param == 2:
            orders[(2 + g) / 4] = 8
        elif field.param == 3:
            orders[(2 + g) / 4] = 12
    return orders


def _simple_A(field: Field, n_coords: int) -> tuple[Vector, ...]:
    out = []
    for i in range(n_coords - 1):
        row = [0] * n_coords
        row[i], row[i + 1] = 1, -1
        out.append(vec(field, row))
    return tuple(out)


_SYSTEM_CACHE: dict[tuple, RootSystem] = {}


def root_system(family: str, rank_: int | None = None, m: int | None = None) -> RootSystem:
    """Build one of the supported families (memoized).

    family in {A, B, D, E6, E7, E8, F4, G2, H3, H4, I2}; A/B/D need rank_,
    I2 needs m.  The other families fix their rank, and a different rank_
    is an error.  E6 and E7 are realized inside the eight E8 coordinates.
    """
    fam = family.upper()
    if fam == "E" and rank_ in (6, 7, 8):
        fam, rank_ = f"E{rank_}", None
    if fam.startswith("I2(") and fam.endswith(")"):
        m = int(fam[3:-1])
        fam = "I2"
    fixed = fam not in ("A", "B", "D")
    key = (fam, None if fixed else rank_, m)
    rs = _SYSTEM_CACHE.get(key)
    if rs is None:
        rs = _SYSTEM_CACHE[key] = _build_root_system(*key)
    if fixed and rank_ not in (None, rs.rank):
        raise ValueError(f"{rs.name} has rank {rs.rank}, not {rank_}")
    return rs


def _build_root_system(fam: str, rank_: int | None, m: int | None) -> RootSystem:
    Q = Field.rational()

    if fam == "A":
        if rank_ is None or rank_ < 1:
            raise ValueError("family A needs a rank >= 1")
        return RootSystem("A", rank_, Q, _simple_A(Q, rank_ + 1))
    if fam == "B":
        if rank_ is None or rank_ < 2:
            raise ValueError("family B needs a rank >= 2")
        simple = list(_simple_A(Q, rank_))
        last = [0] * rank_
        last[-1] = 1
        simple.append(vec(Q, last))
        return RootSystem("B", rank_, Q, tuple(simple))
    if fam == "D":
        if rank_ is None or rank_ < 3:
            raise ValueError("family D needs a rank >= 3")
        simple = list(_simple_A(Q, rank_))
        last = [0] * rank_
        last[-2], last[-1] = 1, 1
        simple.append(vec(Q, last))
        return RootSystem("D", rank_, Q, tuple(simple))
    if fam in ("E6", "E7", "E8"):
        h = Fraction(1, 2)
        e8 = [
            vec(Q, [h, -h, -h, -h, -h, -h, -h, h]),
            vec(Q, [1, 1, 0, 0, 0, 0, 0, 0]),
            vec(Q, [-1, 1, 0, 0, 0, 0, 0, 0]),
            vec(Q, [0, -1, 1, 0, 0, 0, 0, 0]),
            vec(Q, [0, 0, -1, 1, 0, 0, 0, 0]),
            vec(Q, [0, 0, 0, -1, 1, 0, 0, 0]),
            vec(Q, [0, 0, 0, 0, -1, 1, 0, 0]),
            vec(Q, [0, 0, 0, 0, 0, -1, 1, 0]),
        ]
        r = int(fam[1])
        return RootSystem(fam, r, Q, tuple(e8[:r]))
    if fam == "F4":
        h = Fraction(1, 2)
        simple = (
            vec(Q, [0, 1, -1, 0]),
            vec(Q, [0, 0, 1, -1]),
            vec(Q, [0, 0, 0, 1]),
            vec(Q, [h, -h, -h, -h]),
        )
        return RootSystem("F4", 4, Q, simple)
    if fam == "G2":
        simple = (vec(Q, [1, -1, 0]), vec(Q, [-2, 1, 1]))
        return RootSystem("G2", 2, Q, simple)
    if fam in ("H3", "H4"):
        F5 = Field.quadratic(5)
        g = F5.generator()
        phi = (1 + g) / 2
        half = F5.element(Fraction(1, 2))
        if fam == "H3":
            simple = (
                (F5.one(), F5.zero(), F5.zero()),
                (-phi * half, (1 - phi) * half, half),
                (F5.zero(), F5.zero(), -F5.one()),
            )
            return RootSystem("H3", 3, F5, simple)
        simple = (
            (F5.one(), F5.zero(), F5.zero(), F5.zero()),
            (-phi * half, (1 - phi) * half, half, F5.zero()),
            (F5.zero(), F5.zero(), -F5.one(), F5.zero()),
            (F5.zero(), phi * half, half, (phi - 1) * half),
        )
        return RootSystem("H4", 4, F5, simple)
    if fam == "I2":
        if m is None:
            raise ValueError("family I2 needs the dihedral order m")
        if m not in _SUPPORTED_DIHEDRAL:
            raise ValueError(f"unsupported dihedral order {m}; supported: {_SUPPORTED_DIHEDRAL}")
        label = f"I2({m})"
        if m == 3:
            return RootSystem(label, 2, Q, _simple_A(Q, 3))
        if m == 4:
            simple = (vec(Q, [1, -1]), vec(Q, [0, 1]))
            return RootSystem(label, 2, Q, simple)
        if m == 6:
            simple = (vec(Q, [1, -1, 0]), vec(Q, [-2, 1, 1]))
            return RootSystem(label, 2, Q, simple)
        if m == 5:
            F5 = Field.quadratic(5)
            g = F5.generator()
            phi = (1 + g) / 2
            half = F5.element(Fraction(1, 2))
            a = (half, phi * half, (phi - 1) * half)
            b = (-phi * half, (1 - phi) * half, -half)
            return RootSystem(label, 2, F5, (a, b))
        if m == 8:
            F2 = Field.quadratic(2)
            s = F2.generator()
            a = (F2.one(), F2.zero())
            b = (-1 - s / 2, s / 2)
            return RootSystem(label, 2, F2, (a, b))
        F3 = Field.quadratic(3)
        s = F3.generator()
        a = (F3.one(), F3.zero())
        b = (-1 - s / 2, F3.element(Fraction(1, 2)))
        return RootSystem(label, 2, F3, (a, b))
    raise ValueError(f"unknown family {fam!r}")


# ---------------------------------------------------------------------------
# subgraph classification


def classify_indices(rs: RootSystem, indices: tuple[int, ...]) -> list[tuple[str, int, tuple[int, ...]]]:
    """Connected components of the induced Coxeter subgraph.

    Returns (type letter, parameter, vertex tuple) per component, where the
    pair is e.g. ("A", 3), ("B", 2), ("I", 5), ("E", 7).
    """
    out = [comp[:3] for comp in _diagram_components(rs, indices)]
    out.sort()
    return out


def _diagram_components(rs: RootSystem, indices) -> list[tuple[str, int, tuple[int, ...], dict[int, int]]]:
    """(type letter, parameter, vertex tuple, opposition) per component of the induced subgraph.

    The opposition maps each vertex that the component's involution -w_0
    moves to its image; the vertices it fixes are absent.
    """
    indices = tuple(sorted(set(indices)))
    for i in indices:
        if not 0 <= i < rs.rank:
            raise ValueError(f"simple root index {i} out of range")
    bonds: dict[tuple[int, int], int] = {}
    adj: dict[int, list[int]] = {i: [] for i in indices}
    for a, b in combinations(indices, 2):
        mm = rs.bonds[a][b]
        if mm > 2:
            bonds[(a, b)] = bonds[(b, a)] = mm
            adj[a].append(b)
            adj[b].append(a)
    seen: set[int] = set()
    out = []
    for start in indices:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        out.append(_classify_component(tuple(sorted(comp)), adj, bonds))
    return out


def _classify_component(verts: tuple[int, ...], adj, bonds) -> tuple[str, int, tuple[int, ...], dict[int, int]]:
    """The type of one connected component, and its opposition involution.

    -w_0 reverses a path of type A and the two nodes of I2(m) for odd m,
    swaps the fork leaves of D_n for odd n and the two long legs of E6, and
    fixes every node of the other types.
    """
    n = len(verts)
    if n == 1:
        return ("A", 1, verts, {})
    degs = {v: len([w for w in adj[v] if w in verts]) for v in verts}
    if any(d > 3 for d in degs.values()):
        raise ValueError("subgraph has a vertex of degree > 3; not a parabolic type in scope")
    branch = [v for v in verts if degs[v] == 3]
    high = [(e, m) for e, m in bonds.items() if m > 3 and e[0] < e[1] and e[0] in verts and e[1] in verts]
    if not branch:
        ends = [v for v in verts if degs[v] == 1]
        if len(ends) != 2:
            raise ValueError("subgraph component is not a tree path")
        order = [ends[0]]
        while len(order) < n:
            nxt = [w for w in adj[order[-1]] if w in verts and (len(order) < 2 or w != order[-2])]
            order.append(nxt[0])
        reverse = dict(zip(order, reversed(order)))
        seq = [bonds[(order[i], order[i + 1])] for i in range(n - 1)]
        if all(m == 3 for m in seq):
            return ("A", n, verts, reverse)
        if len([m for m in seq if m > 3]) != 1:
            raise ValueError("subgraph has several marked bonds; not a parabolic type in scope")
        pos = next(i for i, m in enumerate(seq) if m > 3)
        mm = seq[pos]
        if n == 2:
            if mm == 4:
                return ("B", 2, verts, {})
            if mm == 6:
                return ("G", 2, verts, {})
            return ("I", mm, verts, reverse if mm % 2 else {})
        if pos in (0, n - 2):
            if mm == 4:
                return ("B", n, verts, {})
            if mm == 5 and n in (3, 4):
                return ("H", n, verts, {})
            raise ValueError(f"unrecognized marked path of order {mm}")
        if mm == 4 and n == 4:
            return ("F", 4, verts, {})
        raise ValueError("marked bond in the interior of a path; only F4 is in scope")
    if len(branch) == 1 and not high:
        b = branch[0]
        legs = []  # the vertices of each leg, outward from the branch node
        for w in adj[b]:
            if w not in verts:
                continue
            leg = [w]
            prev = b
            while True:
                nxt = [u for u in adj[leg[-1]] if u in verts and u != prev]
                if not nxt:
                    break
                prev = leg[-1]
                leg.append(nxt[0])
            legs.append(leg)
        legs.sort(key=len)
        short, middle, long_ = legs
        lengths = [len(leg) for leg in legs]
        if lengths[:2] == [1, 1]:
            return ("D", n, verts, dict(zip(short + middle, middle + short)) if n % 2 else {})
        if lengths == [1, 2, 2]:
            return ("E", 6, verts, dict(zip(middle + long_, long_ + middle)))
        if lengths == [1, 2, 3]:
            return ("E", 7, verts, {})
        if lengths == [1, 2, 4]:
            return ("E", 8, verts, {})
    raise ValueError("subgraph component is not a parabolic type in scope")


def component_type_name(t: tuple[str, int]) -> str:
    letter, param = t
    if letter == "I":
        return f"I2({param})"
    return f"{letter}{param}"


def type_name_from_counts(counts: dict[str, int]) -> str:
    """Component names with their counts, sorted and "*"-joined, as "A1^2*B3"."""
    return "*".join(name if counts[name] == 1 else f"{name}^{counts[name]}" for name in sorted(counts))


def subgraph_type_name(components: list[tuple[str, int, tuple[int, ...]]]) -> str:
    return type_name_from_counts(Counter(component_type_name((letter, param)) for letter, param, _ in components))


def type_coxeter_number(t: tuple[str, int]) -> int:
    letter, param = t
    if letter == "A":
        return param + 1
    if letter == "B":
        return 2 * param
    if letter == "D":
        return 2 * param - 2
    if letter == "E":
        return {6: 12, 7: 18, 8: 30}[param]
    if letter == "F":
        return 12
    if letter == "G":
        return 6
    if letter == "H":
        return {3: 10, 4: 30}[param]
    if letter == "I":
        return param
    raise ValueError(f"unknown component type {t}")


# ---------------------------------------------------------------------------
# multiplicity functions


class Multiplicities:
    """Reflection multiplicities, one value per root orbit.

    Values are stored as polynomials in the symbolic parameters (an empty
    parameter list means the function is numeric).
    """

    def __init__(self, rs: RootSystem, values: dict[str, Polynomial], params: tuple[str, ...]):
        self.rs = rs
        self.params = params
        self.values = values
        # line_sum's polynomial per tuple of per-orbit line counts
        self._sums: dict[tuple[int, ...], Polynomial] = {}
        for name in rs.orbit_names:
            if name not in values:
                raise ValueError(f"missing multiplicity for orbit {name!r}")

    @classmethod
    def numeric(cls, rs: RootSystem, mapping) -> "Multiplicities":
        """One value for every orbit, or {orbit name: value}; an unknown or missing name is a ValueError."""
        values = {}
        if not isinstance(mapping, dict):
            mapping = {name: mapping for name in rs.orbit_names}
        unknown = sorted(set(mapping) - set(rs.orbit_names))
        if unknown:
            raise ValueError(f"unknown weight name(s) {', '.join(unknown)} for {rs.name}; "
                             f"its orbit weights are {', '.join(rs.orbit_names)}")
        for name in rs.orbit_names:
            if name not in mapping:
                raise ValueError(f"missing multiplicity for orbit {name!r}")
            values[name] = Polynomial.constant(rs.field, 0, rs.field.element(mapping[name]))
        return cls(rs, values, ())

    @classmethod
    def symbolic(cls, rs: RootSystem) -> "Multiplicities":
        params = rs.orbit_names
        values = {
            name: Polynomial.variable(rs.field, len(params), i)
            for i, name in enumerate(params)
        }
        return cls(rs, values, params)

    @property
    def is_numeric(self) -> bool:
        return not self.params

    def line_value(self, line_idx: int) -> Polynomial:
        return self.values[self.rs.orbit_names[self.rs.orbit_labels[line_idx]]]

    def line_sum(self, line_indices) -> Polynomial:
        """The sum of the values of the given root lines: each orbit's value
        times its line count, built once per tuple of counts."""
        rs = self.rs
        counts = [0] * len(rs.orbit_names)
        for i in line_indices:
            counts[rs.orbit_labels[i]] += 1
        key = tuple(counts)
        total = self._sums.get(key)
        if total is None:
            pieces = ((self.values[name], rs.field.element(n).nums, 1) for name, n in zip(rs.orbit_names, key) if n)
            total = self._sums[key] = linear_combination(rs.field, len(self.params), pieces)
        return total

    def line_scalar(self, line_idx: int) -> FieldElement:
        if not self.is_numeric:
            raise ValueError("numeric multiplicities required")
        return self.line_value(line_idx).constant_term()

    def scalar(self, orbit_name: str) -> FieldElement:
        if not self.is_numeric:
            raise ValueError("numeric multiplicities required")
        return self.values[orbit_name].constant_term()


# ---------------------------------------------------------------------------
# strata


class Stratum:
    """The standard parabolic flat X_I of gamma0 = I, a sorted tuple of simple-root indices.

    X_I is annihilated by the simple roots of I.  Every flat is
    W-conjugate to one of these (move a point of it into the closed
    fundamental chamber: its isotropy group there is generated by the
    simple reflections it lies on; Humphreys, Reflection Groups and
    Coxeter Groups, 1990, 1.12), and the ideal of a W-orbit does not
    depend on the member chosen.  A root line alpha = sum_j c_j alpha_j
    projects onto X_I as sum_j c_j pi(alpha_j), and the projections of the
    simple roots outside I, key_roots, are a basis of those of all of
    them.  line_keys holds, for each root line, the line key of its
    coordinates outside I: lines with proportional projections share a
    key.  The lines that vanish on X_I, the stratum's lines, are the roots
    supported in I (Phi cap span Delta_I = Phi_I; Humphreys 1.10): their
    coordinates outside I are zero.  normals, the simple roots of I, are
    independent and span X_I's annihilator; line_keys is built the first
    time it is read.
    """

    def __init__(self, rs: RootSystem, gamma0, label: str = ""):
        gamma0 = tuple(sorted(set(gamma0)))
        for i in gamma0:
            if not 0 <= i < rs.rank:
                raise ValueError(f"simple root index {i} out of range")
        self.rs = rs
        self.names = rs.orbit_names
        self.gamma0 = gamma0
        self.label = label
        self.normals = tuple(rs.simple[i] for i in gamma0)
        self.key_roots = tuple(j for j in range(rs.rank) if j not in gamma0)
        self.lines = tuple(i for i, c in enumerate(rs.coords) if not any(any(c[j]) for j in self.key_roots))

    @cached_property
    def line_keys(self) -> tuple:
        """The line key of each root line's coordinates outside I, None for the stratum's lines."""
        return tuple(line_key(self.rs.field, [c[j] for j in self.key_roots]) for c in self.rs.coords)

    def key_projections(self) -> list[list[tuple[int, ...]]]:
        """The orthogonal projections pi(alpha_j) of the key roots onto X_I,
        as integral rows over one common denominator.

        pi(alpha_j) = alpha_j - sum_a y_a alpha_a over a in I, with
        y = M^-1 ((alpha_a, alpha_j))_a and M the Gram matrix of the simple
        roots of I: one |I| x |I| solve.
        """
        rs = self.rs
        field = rs.field
        normals = self.normals
        if not normals:
            return int_rows([rs.simple[j] for j in self.key_roots])
        minv = invert(gram(normals), field)
        one = field.one()
        # the coefficients of each pi(alpha_j) over (alpha_j, alpha_a for a in I)
        coeffs = int_rows([
            (one, *(-y for y in mat_vec(minv, tuple(dot(n, rs.simple[j]) for n in normals)))) for j in self.key_roots
        ])
        vectors = int_rows([*rs.simple, *normals])
        normal_columns = list(zip(*vectors[rs.rank:]))
        return [
            [field.int_dot(c, (a, *col)) for a, col in zip(vectors[j], normal_columns)]
            for j, c in zip(self.key_roots, coeffs)
        ]

    def components(self) -> list[tuple[int, ...]]:
        """Vanishing root lines grouped into irreducible root subsystems.

        These are the root systems of the components of gamma0 in the
        Coxeter diagram: a vanishing root is supported in gamma0, and its
        support is connected, so the component that holds its first simple
        root holds it.
        """
        comps = _diagram_components(self.rs, self.gamma0)
        owner = {v: k for k, (_, _, verts, _) in enumerate(comps) for v in verts}
        groups: dict[int, list[int]] = {}
        for i in self.lines:
            first = next(j for j, c in enumerate(self.rs.coords[i]) if any(c))
            groups.setdefault(owner[first], []).append(i)
        return sorted(map(tuple, groups.values()))

    @cached_property
    def conditions(self) -> tuple[Polynomial, ...]:
        """The weighted Coxeter number of each component, an affine form over names, the orbit weights.

        The stratum's ideal is invariant exactly where every form equals 1.
        """
        mults = Multiplicities.symbolic(self.rs)
        return tuple(generalized_coxeter_number(self.rs, mults, comp) for comp in self.components())

    @cached_property
    def solution(self) -> tuple[str, dict[str, Polynomial], list[str]]:
        """solve_affine's exact (status, pivot weights, free weights) for the conditions, solved once."""
        return solve_affine(self.rs.field, self.names, self.conditions)


def parabolic_stratum(rs: RootSystem, indices) -> Stratum:
    return Stratum(rs, indices, label=subgraph_type_name(classify_indices(rs, indices)))


def orbit_walk(start, moves, cap, key) -> dict:
    """Breadth-first orbit of start under moves, as a dict key(member) -> member.

    The moves must generate the group.  Raises OrbitCapExceeded when the
    orbit grows past cap.
    """
    seen = {key(start): start}
    frontier = [start]
    while frontier:
        nxt = []
        for s in frontier:
            for move in moves:
                img = move(s)
                k = key(img)
                if k not in seen:
                    if len(seen) >= cap:
                        raise OrbitCapExceeded(f"subspace orbit exceeded cap {cap}")
                    seen[k] = img
                    nxt.append(img)
        frontier = nxt
    return seen


def orbit_of_subspace(perms, lines: tuple[int, ...], cap: int) -> dict[tuple, tuple]:
    """The orbit of the flat of lines under perms, which generate the group: a step maps them by one and sorts them."""
    moves = [lambda t, p=p: tuple(sorted(p[i] for i in t)) for p in perms]
    return orbit_walk(lines, moves, cap, key=tuple)


def flat_members(field: Field, ambient: int, lines, tuples) -> dict[tuple, Subspace]:
    """The subspace annihilated by the lines of each index tuple, keyed by Subspace.key."""
    subs = (Subspace(field, ambient, [lines[i] for i in t]) for t in tuples)
    return {sub.key: sub for sub in subs}


def block_stratum(rs: RootSystem, m: int, k: int, l: int = 0, eps: int = 1) -> Stratum:
    """Collision stratum: m blocks of k equal coordinates, and the last l coordinates zero.

    It is X_I for I the simple roots x_i - x_(i+1) inside each block and
    the last l simple roots.  For family D with eps=-1 the last block
    collides up to a sign, x_(n-1) = -x_n, so alpha_n replaces
    alpha_(n-1) in I; that is a genuinely different stratum exactly when
    k is even and there are no other coordinates.
    """
    fam = rs.family
    if fam not in ("A", "B", "D"):
        raise ValueError("block strata are defined for the classical families A, B, D")
    n_coords = rs.dim
    if m < 0 or l < 0 or (m and k < 1):
        raise ValueError(f"need m >= 0, l >= 0 and k >= 1 for blocks; got m={m}, k={k}, l={l}")
    if fam == "D" and l == 1:
        # x_i = 0 lies on the mirrors x_i = +-x_j only where x_j = 0 too
        raise ValueError("family D has no stratum with exactly one zero coordinate (l=1)")
    if m * k + l > n_coords:
        raise ValueError("blocks and zeros do not fit in the coordinate space")
    if fam == "A" and l:
        raise ValueError("family A has no zero-coordinate strata")
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if eps == -1:
        if fam != "D":
            raise ValueError("the sign-twisted block stratum only exists in family D")
        if k % 2 or m * k != n_coords:
            raise ValueError("the twisted stratum needs an even block size and no other coordinates")
    indices = [b * k + j for b in range(m) for j in range(k - 1)]
    if eps == -1:
        indices[-1] = rs.rank - 1
    indices += range(rs.rank - l, rs.rank)
    label = f"blocks(m={m},k={k}"
    if l:
        label += f",l={l}"
    if eps == -1:
        label += ",eps=-1"
    label += ")"
    return Stratum(rs, indices, label=label)


def parabolic_classes(rs: RootSystem, size: int, label: str | None = None):
    """One new Stratum per group-orbit class of the size-subsets of the simple roots.

    Subsets I and J are conjugate exactly when a chain of Deodhar's moves
    I -> (I + {s}) - {opp(s)} joins them, for s not in I and opp the
    opposition involution of the component of I + {s} that holds s
    (Deodhar, Comm. Algebra 10, 1982; Howlett, J. London Math. Soc. 21,
    1980).  Subsets run in lex order, and only those of type label when it
    is given.  A subset starts a new class unless the moves reach it from an
    earlier one; each move is undone by another, so a class is the closure
    of its first subset, walked only when a later subset is asked for.
    Each class is labelled with its unsuffixed type.
    """
    moves = [partial(_deodhar_move, rs, s) for s in range(rs.rank)]
    seen: set[tuple[int, ...]] = set()
    for indices in combinations(range(rs.rank), size):
        if indices in seen:
            continue
        try:
            name = subgraph_type_name(classify_indices(rs, indices))
        except ValueError:
            continue
        if label is not None and name != label:
            continue
        yield Stratum(rs, indices, label=name)
        seen.update(orbit_walk(indices, moves, math.inf, key=tuple))


def _deodhar_move(rs: RootSystem, s: int, indices: tuple[int, ...]) -> tuple[int, ...]:
    """(indices + {s}) - {opp(s)}, the subset conjugate to indices by w_0 of the grown set times w_0 of indices."""
    if s in indices:
        return indices
    grown = tuple(sorted((*indices, s)))
    opposite = next(opp for _, _, verts, opp in _diagram_components(rs, grown) if s in verts)
    return tuple(i for i in grown if i != opposite.get(s, s))


def enumerate_parabolic_strata(rs: RootSystem) -> list[Stratum]:
    """Distinct strata from nonempty subsets of the simple roots.

    The classes of each size come from parabolic_classes, in (size, lex)
    order of their first subsets.  A type with several classes gets the
    suffixes :1, :2, ... in that order.
    """
    out = []
    for size in range(1, rs.rank + 1):
        out.extend(parabolic_classes(rs, size))
    # mark doubled types with variant suffixes
    counts: dict[str, int] = {}
    for st in out:
        counts[st.label] = counts.get(st.label, 0) + 1
    seen_count: dict[str, int] = {}
    for st in out:
        if counts[st.label] > 1:
            seen_count[st.label] = seen_count.get(st.label, 0) + 1
            st.label = f"{st.label}:{seen_count[st.label]}"
    return out


# ---------------------------------------------------------------------------
# the weighted Coxeter number


def generalized_coxeter_number(rs: RootSystem, mults: Multiplicities, line_indices) -> Polynomial:
    """The ratio h with sum_alpha c_alpha (alpha,u)(alpha,v)/(alpha,alpha) = h (u,v).

    The lines must form one irreducible root subsystem, as each of
    Stratum.components() does.  Its reflection group acts absolutely
    irreducibly on the span of the lines and the weights are invariant, so
    the weighted form is h times the scalar product there; its trace is the
    sum of c_alpha over both roots of each line, hence
    h = (2 / rank) * sum of the line weights.  When the lines hold the
    simple root of every vertex of their joint support S, as a component of
    a parabolic stratum does, they are Phi_S (each root of Phi_S is
    conjugate under W_S to one of those simple roots, and every line lies
    in Phi cap span Delta_S = Phi_S), so the rank is |S|, read off the
    coordinates; otherwise it is the rank of the lines.
    """
    line_indices = tuple(line_indices)
    support = {j for i in line_indices for j, c in enumerate(rs.coords[i]) if any(c)}
    simple_lines = sum(1 for i in line_indices if sum(map(any, rs.coords[i])) == 1)
    rank_ = len(support) if simple_lines == len(support) else rank(rs.lines[i] for i in line_indices)
    return mults.line_sum(line_indices) * rs.field.element(Fraction(2, rank_))
