"""Test-only references for the root lines of a root system and their
weighted Coxeter numbers.

reference_lines builds the line set by a breadth-first closure under the
simple reflections, then labels it by a second, independent pass: the
connected components of the line set under the same reflections, numbered
in order of first appearance among the simple roots.  It reads only the
simple roots, never the lines or labels a RootSystem computed.

reference_orbit walks the orbit of a subspace the slow way, by reflecting
its annihilator rows and re-reducing them, where the program walks the
sorted indices of its root lines.

reference_parabolic_classes decides the orbit classes of subsets of the
simple roots the old way, by walking the orbit of an earlier class's flat
(orbit_of_subspace under the simple reflections) and looking the later
subset's root lines up in it, where the program applies Deodhar's moves on
the Coxeter diagram.  reference_parabolic_strata labels every class of every
size with the program's :k suffixes of doubled types.

reference_components groups a stratum's vanishing root lines by
orthogonality connectivity, reading only the ambient lines, where the
program reads the components of a parabolic stratum off the Coxeter
diagram and the simple-root coordinates.

reference_stratum_lines takes a stratum's lines as the root lines whose
line key is None, where the program reads the roots supported in I off
the simple-root coordinates.

reference_stratum is the stratum the program built before every stratum
became a standard parabolic flat X_I: any subspace, given by annihilator
rows, keys its lines by the reduced form of its Gram rows and projects
the key roots along its annihilator rows.  It has what the restriction
code reads of a Stratum, so the identities run on flats placed anywhere
and on subspaces that are no flats, and its components are
reference_components.

reference_coxeter_number builds the weighted root form
sum_alpha c_alpha (alpha,u)(alpha,v)/(alpha,alpha) as a matrix on a basis
of the span of the lines and checks entry by entry that it is h times the
scalar product, where the program takes the trace in closed form.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cache
from itertools import combinations

from dunklcm.linalg import dot, gram, int_rows, invert, line_key, mat_vec, reflect, rref, vec
from dunklcm.polynomials import Polynomial
from dunklcm.rootsystems import Subspace, classify_indices, orbit_of_subspace, parabolic_stratum, subgraph_type_name


def _key(v) -> tuple:
    return tuple(x.sort_key() for x in v)


def _line_rep(v):
    neg = tuple(-x for x in v)
    return v if _key(v) >= _key(neg) else neg


def reference_lines(simple) -> tuple[tuple, tuple[int, ...], tuple[str, ...]]:
    """(lines sorted by key, orbit label per line, orbit names) from the simple roots."""
    norms = [dot(s, s) for s in simple]
    seen = {}
    frontier = [_line_rep(s) for s in simple]
    for r in frontier:
        seen[_key(r)] = r
    while frontier:
        nxt = []
        for r in frontier:
            for s, ns in zip(simple, norms):
                img = _line_rep(reflect(r, s, ns))
                if _key(img) not in seen:
                    seen[_key(img)] = img
                    nxt.append(img)
        frontier = nxt
    lines = tuple(sorted(seen.values(), key=_key))
    index = {_key(l): i for i, l in enumerate(lines)}

    comp = [-1] * len(lines)
    ncomp = 0
    for start in range(len(lines)):
        if comp[start] >= 0:
            continue
        comp[start] = ncomp
        stack = [start]
        while stack:
            i = stack.pop()
            for s, ns in zip(simple, norms):
                j = index[_key(_line_rep(reflect(lines[i], s, ns)))]
                if comp[j] < 0:
                    comp[j] = ncomp
                    stack.append(j)
        ncomp += 1
    order: list[int] = []
    for s in simple:
        cid = comp[index[_key(_line_rep(s))]]
        if cid not in order:
            order.append(cid)
    assert len(order) == ncomp, "a line orbit holds no simple root"
    labels = tuple(order.index(c) for c in comp)
    names = ("c",) if ncomp == 1 else tuple(f"c{i + 1}" for i in range(ncomp))
    return lines, labels, names


def reference_components(stratum) -> list[tuple[int, ...]]:
    """The stratum's vanishing lines in classes under non-orthogonality, each sorted, the classes sorted.

    The vanishing lines are closed under their own reflections, so these
    classes are their irreducible root subsystems.
    """
    lines = stratum.rs.lines
    remaining = set(stratum.lines)
    out = []
    while remaining:
        start = min(remaining)
        comp = {start}
        stack = [start]
        remaining.discard(start)
        while stack:
            i = stack.pop()
            for j in list(remaining):
                if not dot(lines[i], lines[j]).is_zero():
                    remaining.discard(j)
                    comp.add(j)
                    stack.append(j)
        out.append(tuple(sorted(comp)))
    return sorted(out)


class ReferenceStratum:
    """A stratum on any subspace, keyed by the reduced form of its Gram rows.

    The rows ((b, alpha_j))_j over the basis b of the subspace are an
    injective image of the projections pi(alpha_j): the pivot columns of
    their reduced form are the key roots, and column j holds pi(alpha_j)
    over their projections, so a line's key is the line key of its
    simple-root coordinates times the reduced rows.
    """

    gamma0 = None

    def __init__(self, rs, subspace, label=""):
        field = rs.field
        self.rs = rs
        self.subspace = subspace
        self.normals = subspace.annihilator
        self.label = label
        gram_rows = tuple(tuple(dot(b, alpha) for alpha in rs.simple) for b in subspace.basis)
        reduced, self.key_roots = rref(gram_rows)
        pushed = int_rows(reduced)
        self.line_keys = tuple(line_key(field, [field.int_dot(c, row) for row in pushed]) for c in rs.coords)
        self.lines = reference_stratum_lines(self)

    def key_projections(self):
        """pi(alpha_j) = alpha_j - sum_a y_a n_a, y = M^-1 ((n_a, alpha_j))_a, over the annihilator rows n_a."""
        rs = self.rs
        field = rs.field
        normals = self.subspace.annihilator
        if not normals:
            return int_rows([rs.simple[j] for j in self.key_roots])
        minv = invert(gram(normals), field)
        one = field.one()
        coeffs = int_rows([
            (one, *(-y for y in mat_vec(minv, tuple(dot(n, rs.simple[j]) for n in normals)))) for j in self.key_roots
        ])
        vectors = int_rows([*rs.simple, *normals])
        normal_columns = list(zip(*vectors[rs.rank:]))
        return [
            [field.int_dot(c, (a, *col)) for a, col in zip(vectors[j], normal_columns)]
            for j, c in zip(self.key_roots, coeffs)
        ]

    def components(self):
        return reference_components(self)


def reference_stratum_lines(stratum) -> tuple[int, ...]:
    """The root lines whose key is None: those whose coordinates outside the key roots' span vanish."""
    return tuple(i for i, k in enumerate(stratum.line_keys) if k is None)


def reference_stratum(rs, rows, label="") -> ReferenceStratum:
    """The stratum of the subspace annihilated by rows, each a list of rationals or field elements."""
    return ReferenceStratum(rs, Subspace(rs.field, rs.dim, [vec(rs.field, r) for r in rows]), label)


def reference_coxeter_number(rs, mults, line_indices) -> Polynomial:
    """The ratio h of the weighted root form to the scalar product on the span.

    The sum runs over the full root set (both signs), so each stored line
    contributes twice.  The basis is the reduced echelon rows of the lines;
    proportionality does not depend on the basis.  Raises ValueError when
    the form is not proportional to the scalar product, as on a reducible
    set of lines with unequal weights.
    """
    basis, _ = rref(tuple(rs.lines[i] for i in line_indices))
    size = len(basis)
    zero = Polynomial.zero(rs.field, len(mults.params))
    form = [[zero] * size for _ in range(size)]
    for i in line_indices:
        alpha = rs.lines[i]
        c = mults.line_value(i)
        proj = [dot(alpha, u) for u in basis]
        for a in range(size):
            for b in range(size):
                form[a][b] = form[a][b] + c * (proj[a] * proj[b] / rs.line_norms[i] * 2)
    metric = gram(basis)
    h = form[0][0] * metric[0][0].inverse()
    for a in range(size):
        for b in range(size):
            if form[a][b] != h * metric[a][b]:
                raise ValueError("weighted root form is not proportional to the scalar product")
    return h


def reference_orbit(rs, sub) -> dict:
    """The group orbit of a subspace as {Subspace.key: Subspace}.

    A breadth-first walk that reflects every annihilator row of a member in
    each simple root and re-reduces the rows to the canonical key; it reads
    no root lines and no line permutations.
    """
    norms = [dot(s, s) for s in rs.simple]
    seen = {sub.key: sub}
    frontier = [sub]
    while frontier:
        nxt = []
        for member in frontier:
            for s, ns in zip(rs.simple, norms):
                img = member.reflect(s, ns)
                if img.key not in seen:
                    seen[img.key] = img
                    nxt.append(img)
        frontier = nxt
    return seen


def reference_parabolic_classes(rs, size: int, label: str | None = None):
    """(subset, type) per orbit class of the size-subsets of the simple roots.

    Subsets run in lex order, and only those of type label when it is given.
    A subset starts a new class unless its lines lie in the orbit of an
    earlier class of its type; that orbit is walked the first time a later
    subset is compared with it.
    """
    orbit = cache(lambda lines: orbit_of_subspace(rs.simple_perms, lines, math.inf))
    firsts: dict[str, list[tuple[int, ...]]] = {}
    for indices in combinations(range(rs.rank), size):
        try:
            name = subgraph_type_name(classify_indices(rs, indices))
        except ValueError:
            continue
        if label is not None and name != label:
            continue
        lines = parabolic_stratum(rs, indices).lines
        bucket = firsts.setdefault(name, [])
        if any(lines in orbit(first) for first in bucket):
            continue
        bucket.append(lines)
        yield indices, name


def reference_parabolic_strata(rs) -> list[tuple[tuple[int, ...], str]]:
    """(subset, label) of every class of every size, a doubled type suffixed :1, :2, ... in order."""
    found = [c for size in range(1, rs.rank + 1) for c in reference_parabolic_classes(rs, size)]
    counts = Counter(name for _, name in found)
    seen: Counter = Counter()
    out = []
    for indices, name in found:
        if counts[name] > 1:
            seen[name] += 1
            name = f"{name}:{seen[name]}"
        out.append((indices, name))
    return out
