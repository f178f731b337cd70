"""Test-only oracle for `dunklcm.linalg.rref`.

Gauss-Jordan elimination on field elements, as `rref` did before it ran on
integer rows: the pivot row is scaled by the pivot's inverse, and every
other row loses its multiple of it, one field element per entry.  It
shares only the field arithmetic with the code under test.
"""

from __future__ import annotations


def reference_rref(rows):
    """Reduced row echelon form with unit pivots; returns (rows, pivot columns)."""
    work = [list(r) for r in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if not work[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = work[r][c].inverse()
        work[r] = [inv * x for x in work[r]]
        for i in range(len(work)):
            if i != r and not work[i][c].is_zero():
                factor = work[i][c]
                work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)
