"""Small exact linear algebra kit over FieldElement vectors and matrices.

Vectors are tuples of FieldElement, matrices are tuples of row tuples.
The bilinear form used throughout is the plain coordinate dot product
with no conjugation; it is the complexification of the real scalar
product on the ambient space.  It is the field's exact inner-product
kernel (`Field.dot`): one sum of integer numerator products over a common
denominator, reduced once, so mat_vec, gram and reflect build no
intermediate field element per term.

Row reduction and line keys run on integer rows: a row scaled by a common
denominator is a list of integral vectors (`int_rows`), and scaling a row
leaves its row space and its line alone.  `rref` eliminates by
cross-multiplying and dividing each updated row by its content (Bareiss's
integer-preserving elimination, without his determinant divisors), and
builds field elements only for its final unit-pivot rows.  The one
field-specific step is `Field.norm_cofactor`: multiplying a row by the
product of the other Galois conjugates of an entry makes that entry an
integer, which is how pivots become integers and lines get a canonical
primitive integer row (`line_key`).
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm

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


def int_rows(rows) -> list[list[tuple[int, ...]]]:
    """The numerators of the rows' entries over one common denominator."""
    den = lcm(*(x.den for row in rows for x in row))
    return [[x.nums if x.den == den else tuple([a * (den // x.den) for a in x.nums]) for x in row] for row in rows]


def _primitive(row: list[tuple[int, ...]], sign: int = 1) -> list[tuple[int, ...]]:
    """row divided by sign times the gcd of all its integers."""
    g = gcd(*chain.from_iterable(row)) * sign
    return row if g in (0, 1) else [tuple([a // g for a in x]) for x in row]


def _lead_to_integer(field: Field, row: list[tuple[int, ...]], lead: tuple[int, ...]):
    """(row times the norm cofactor of its entry lead, the integer that lead becomes)."""
    rest, norm = field.norm_cofactor(lead)
    if rest != field._unit:
        mul = field._mul_nums
        row = [mul(x, rest) for x in row]
    return row, norm


def line_key(field: Field, row: list[tuple[int, ...]]) -> tuple | None:
    """Canonical key of the line through an integral row; None for the zero row.

    The first nonzero entry is made an integer, then the row is divided by
    its content, signed so that this entry is positive.  Rows that are
    proportional over the field get the same key.
    """
    lead = next((x for x in row if any(x)), None)
    if lead is None:
        return None
    row, norm = _lead_to_integer(field, row, lead)
    return tuple(_primitive(row, -1 if norm < 0 else 1))


def monic_row(field: Field, row: list[tuple[int, ...]]) -> Vector:
    """The nonzero integral row as field elements, scaled so its first nonzero entry is 1."""
    row, norm = _lead_to_integer(field, row, next(x for x in row if any(x)))
    return tuple(field.quotient(x, norm) for x in row)


def rref(rows: list[Vector] | tuple[Vector, ...]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with unit pivots; returns (rows, pivot columns).

    The elimination runs on integer rows.  A pivot row is multiplied by the
    norm cofactor of its pivot, so the pivot is an integer p; every other
    row with an entry b in the pivot column becomes p*row - b*(pivot row),
    divided by its content.  Pivot entries stay integers, and the final
    rows are divided by them.  The reduced form of a row space is unique,
    so this is the same matrix a field-element elimination gives.
    """
    if not rows or not rows[0]:
        return (), ()
    field = rows[0][0].field
    mul = field._mul_nums
    work = [_primitive(row) for row in int_rows(rows)]
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(work)) if any(work[i][c])), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        prow = work[r] = _primitive(_lead_to_integer(field, work[r], work[r][c])[0])
        p = prow[c][0]
        for i in range(len(work)):
            b = work[i][c]
            if i != r and any(b):
                if any(b[1:]):
                    update = [tuple([p * s - t for s, t in zip(x, mul(b, y))]) for x, y in zip(work[i], prow)]
                else:
                    q = b[0]
                    update = [tuple([p * s - q * t for s, t in zip(x, y)]) for x, y in zip(work[i], prow)]
                work[i] = _primitive(update)
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(monic_row(field, row) for row in work[:r]), tuple(pivots)


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
