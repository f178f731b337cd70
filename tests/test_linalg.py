"""Integer-row elimination and line keys against the field-element oracle."""

import random
from fractions import Fraction
from math import gcd

import pytest

from dunklcm.fields import Field
from dunklcm.linalg import identity, int_rows, invert, line_key, monic_row, rank, rref
from linalg_reference import reference_rref

FIELDS = [
    Field.rational(),
    Field.quadratic(2),
    Field.quadratic(3),
    Field.quadratic(5),
    Field.cyclotomic(3),
    Field.cyclotomic(5),
    Field.cyclotomic(8),
]


def element(rng, field, zero_rate=0.3):
    if rng.random() < zero_rate:
        return field.zero()
    return field.from_coeffs([Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(field.degree)])


def nonzero(rng, field):
    while True:
        x = element(rng, field, 0)
        if not x.is_zero():
            return x


def combination(rng, field, rows):
    out = [field.zero()] * len(rows[0])
    for row in rows:
        c = element(rng, field)
        out = [a + c * b for a, b in zip(out, row)]
    return tuple(out)


def matrices(rng, field):
    """Seeded matrices of every shape the tests ask for, by name."""
    def random_rows(m, n):
        return [tuple(element(rng, field) for _ in range(n)) for _ in range(m)]

    yield "1xn", random_rows(1, rng.randint(1, 6))
    yield "nx1", random_rows(rng.randint(1, 6), 1)
    for _ in range(12):
        yield "random", random_rows(rng.randint(1, 5), rng.randint(1, 6))
    zeros = random_rows(4, 5)
    zeros[rng.randrange(4)] = tuple(field.zero() for _ in range(5))
    yield "zero row", zeros
    yield "all zero", [tuple(field.zero() for _ in range(3))] * 2
    repeated = random_rows(3, 4)
    yield "repeated rows", repeated + [repeated[1], repeated[0]]
    for _ in range(4):
        m, n, r = rng.randint(2, 5), rng.randint(2, 6), rng.randint(1, 2)
        base = random_rows(r, n)
        yield "rank deficient", [combination(rng, field, base) for _ in range(m)]


def assert_normal(x):
    assert x.den > 0 and gcd(x.den, *x.nums) == 1


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_rref_matches_reference(field):
    rng = random.Random(repr(field))
    for name, rows in matrices(rng, field):
        got_rows, got_pivots = rref(tuple(rows))
        want_rows, want_pivots = reference_rref(rows)
        assert got_pivots == want_pivots, name
        assert len(got_rows) == len(want_rows), name
        for got, want in zip(got_rows, want_rows):
            for x, y in zip(got, want):
                assert_normal(x)
                assert (x.nums, x.den) == (y.nums, y.den), name


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_invert_matches_reference(field):
    rng = random.Random(repr(field) + "invert")
    for n in (1, 2, 3, 4):
        while True:
            m = tuple(tuple(element(rng, field) for _ in range(n)) for _ in range(n))
            if rank(m) == n:
                break
        inv = invert(m, field)
        aug = [tuple(row) + tuple(e) for row, e in zip(m, identity(field, n))]
        want = tuple(tuple(row[n:]) for row in reference_rref(aug)[0])
        assert inv == want
        product = tuple(tuple(field.dot(row, col) for col in zip(*inv)) for row in m)
        assert product == identity(field, n)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_invert_rejects_a_singular_matrix(field):
    rng = random.Random(repr(field) + "singular")
    base = [tuple(nonzero(rng, field) for _ in range(3)) for _ in range(2)]
    m = tuple(base) + (combination(rng, field, base),)
    with pytest.raises(ValueError, match="singular"):
        invert(m, field)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_line_key_is_the_line(field):
    rng = random.Random(repr(field) + "key")
    n = 4
    assert line_key(field, int_rows([tuple(field.zero() for _ in range(n))])[0]) is None
    keys = set()
    for _ in range(10):
        v = tuple(element(rng, field) for _ in range(n))
        if all(x.is_zero() for x in v):
            continue
        key = line_key(field, int_rows([v])[0])
        # the same line through any nonzero multiple, the negative included
        for scale in (nonzero(rng, field), field.element(-1), field.element(Fraction(-3, 7))):
            assert line_key(field, int_rows([tuple(scale * x for x in v)])[0]) == key
        assert monic_row(field, int_rows([v])[0]) == reference_rref([v])[0][0]
        keys.add((key, reference_rref([v])[0]))
    # different lines get different keys
    assert len({k for k, _ in keys}) == len({m for _, m in keys})


def test_key_of_a_rational_line_has_a_positive_lead():
    q = Field.rational()
    key = line_key(q, int_rows([tuple(q.element(x) for x in (0, Fraction(-2, 3), 4, Fraction(2, 9)))])[0])
    assert key == ((0,), (3,), (-18,), (-1,))
