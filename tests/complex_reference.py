"""Test-only oracle for `dunklcm.complexgroups.subspace_orbit`.

reference_subspace_orbit walks the orbit of a subspace under G(m,p,N) the
slow way: each step maps every annihilator row of a member by the inverse
of one generator of a reflection generating set (all pair reflections and,
for p < m, the diagonal maps) and re-reduces the rows to the canonical
key with `rref`.  It reads no hyperplane list and no line permutation,
where the program walks the sorted indices of the G(m,1,N) hyperplanes
that contain a member.
"""

from __future__ import annotations

from itertools import combinations

from dunklcm.linalg import dot
from dunklcm.rootsystems import Subspace


def generator_inverses(group) -> list:
    """Inverses of a reflection generating set: every pair reflection, then the inverse diagonal maps."""
    out = [group.pair_matrix(i, j, k) for i, j in combinations(range(group.N), 2) for k in range(group.m)]
    if group.diag_order > 1:
        out.extend(group.diag_matrix(i, -1) for i in range(group.N))
    return out


def transform_rows(sub: Subspace, matrix_inverse) -> Subspace:
    """The image of sub under the map whose inverse is given: rows act as covectors."""
    cols = tuple(zip(*matrix_inverse))
    return Subspace(sub.field, sub.ambient, [tuple(dot(r, col) for col in cols) for r in sub.annihilator])


def reference_subspace_orbit(group, sub: Subspace) -> dict:
    """The orbit of sub as {Subspace.key: Subspace}, by a breadth-first walk over subspaces."""
    inverses = generator_inverses(group)
    seen = {sub.key: sub}
    frontier = [sub]
    while frontier:
        nxt = []
        for member in frontier:
            for ginv in inverses:
                img = transform_rows(member, ginv)
                if img.key not in seen:
                    seen[img.key] = img
                    nxt.append(img)
        frontier = nxt
    return seen
