"""Small exact linear algebra kit over FieldElement vectors and matrices.

Vectors are tuples of FieldElement, matrices are tuples of row tuples.
The bilinear form used throughout is the plain coordinate dot product
with no conjugation; it is the complexification of the real scalar
product on the ambient space.  It is the field's exact inner-product
kernel (`Field.dot`): one sum of integer numerator products over a common
denominator, reduced once, so mat_vec, gram and reflect build no
intermediate field element per term.
"""

from __future__ import annotations

from .fields import Field, FieldElement

Vector = tuple[FieldElement, ...]
Matrix = tuple[Vector, ...]


def vec(field: Field, entries) -> Vector:
    return tuple(field.element(e) for e in entries)


def vec_is_zero(a: Vector) -> bool:
    return all(x.is_zero() for x in a)


def dot(a: Vector, b: Vector) -> FieldElement:
    return a[0].field.dot(a, b)


def reflect(v: Vector, alpha: Vector, alpha_norm: FieldElement | None = None) -> Vector:
    """Orthogonal reflection of v in the hyperplane normal to alpha."""
    if alpha_norm is None:
        alpha_norm = dot(alpha, alpha)
    c = (dot(v, alpha) / alpha_norm) * 2
    return tuple(x - c * a for x, a in zip(v, alpha))


def identity(field: Field, n: int) -> Matrix:
    one, zero = field.one(), field.zero()
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(dot(row, v) for row in m)


def reflection_matrix(field: Field, alpha: Vector) -> Matrix:
    n = len(alpha)
    norm = dot(alpha, alpha)
    return tuple(reflect(row, alpha, norm) for row in identity(field, n))


def rref(rows: list[Vector] | tuple[Vector, ...]) -> tuple[Matrix, tuple[int, ...]]:
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


def nullspace(reduced: Matrix, pivots: tuple[int, ...], ncols: int, field: Field) -> tuple[Vector, ...]:
    """Basis of the solution space of reduced . x = 0, given rref's (rows, pivot columns)."""
    free = [c for c in range(ncols) if c not in pivots]
    zero, one = field.zero(), field.one()
    basis = []
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(tuple(v))
    return tuple(basis)


def rank(rows) -> int:
    return len(rref(tuple(rows))[0])


def invert(m: Matrix, field: Field) -> Matrix:
    n = len(m)
    aug = [list(row) + list(idrow) for row, idrow in zip(m, identity(field, n))]
    reduced, pivots = rref(tuple(tuple(r) for r in aug))
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in reduced)


def gram(vectors: tuple[Vector, ...]) -> Matrix:
    return tuple(tuple(dot(a, b) for b in vectors) for a in vectors)
