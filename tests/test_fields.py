import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dunklcm.fields
from dunklcm.fields import (
    Field,
    cyclotomic_polynomial,
    render_scalar,
)
from dunklcm.linalg import dot, gram, mat_vec
from fraction_reference import RefElement

Q = Field.rational()
F5 = Field.quadratic(5)
F2 = Field.quadratic(2)
C12 = Field.cyclotomic(12)


rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)


def field_elements(field):
    return st.lists(
        rationals, min_size=field.degree, max_size=field.degree
    ).map(lambda cs: field.from_coeffs(cs))


def test_field_singletons():
    assert Field.rational() is Q
    assert Field.quadratic(5) is F5
    assert Field.cyclotomic(12) is C12


def test_quadratic_rejects_bad_param():
    with pytest.raises(ValueError):
        Field.quadratic(4)
    with pytest.raises(ValueError):
        Field.quadratic(12)
    with pytest.raises(ValueError):
        Field.quadratic(1)


def test_cyclotomic_degree_is_totient():
    assert Field.cyclotomic(3).degree == 2
    assert Field.cyclotomic(4).degree == 2
    assert Field.cyclotomic(5).degree == 4
    assert Field.cyclotomic(12).degree == 4
    with pytest.raises(ValueError):
        Field.cyclotomic(2)


def test_cyclotomic_polynomial_values():
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_golden_ratio_relation():
    phi = (1 + F5.generator()) / 2
    assert phi * phi == phi + 1
    assert phi.inverse() == phi - 1


def test_sqrt2_inverse():
    s = F2.generator()
    assert (1 + s).inverse() == s - 1
    assert (s / 2) * s == F2.element(1)


def test_root_of_unity_relations():
    z = C12.generator()
    assert z ** 12 == C12.one()
    assert z ** 6 == -C12.one()
    # zeta_12^2 is a primitive 6th root: satisfies x^2 - x + 1 = 0
    w = z * z
    assert w * w - w + 1 == C12.zero()
    assert z * z.conjugate() == C12.one()


@given(field_elements(F5), field_elements(F5), field_elements(F5))
def test_quadratic_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@given(field_elements(C12), field_elements(C12))
def test_cyclotomic_product_commutes(a, b):
    assert a * b == b * a


@given(field_elements(C12))
def test_cyclotomic_inverse_round_trip(a):
    if a.is_zero():
        return
    assert a * a.inverse() == C12.one()


@given(field_elements(F5))
def test_quadratic_inverse_round_trip(a):
    if a.is_zero():
        return
    assert a * a.inverse() == F5.one()


@given(field_elements(C12), field_elements(C12))
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(rationals)
def test_rational_embedding(q):
    x = Q.element(q)
    assert x.is_rational()
    assert x.as_fraction() == q


def test_cross_field_arithmetic_rejected():
    with pytest.raises((TypeError, ValueError)):
        F5.generator() + F2.generator()


@given(field_elements(F5), field_elements(F5))
def test_sort_key_total_order(a, b):
    if a == b:
        assert a.sort_key() == b.sort_key()
    else:
        assert a.sort_key() != b.sort_key()


# sympy is the reader: text -> value -> render_scalar -> the same value
@pytest.mark.parametrize(
    "field,text",
    [
        (Q, "3/2"),
        (Q, "-7"),
        (F5, "1+2*sqrt(5)"),
        (F5, "1/2-1/2*sqrt(5)"),
        (F2, "sqrt(2)"),
        (C12, "z^2-1/3*z"),
        (C12, "1"),
    ],
)
def test_parse_render_round_trip(field, text):
    pytest.importorskip("sympy")
    from sympy_reference import read, scalar_coeffs

    x = field.from_coeffs(scalar_coeffs(field, read(text)))
    assert scalar_coeffs(field, read(render_scalar(x))) == x.coeffs


@given(field_elements(C12))
@settings(max_examples=50, deadline=None)
def test_render_round_trip_cyclotomic(a):
    pytest.importorskip("sympy")
    from sympy_reference import read, scalar_coeffs

    assert scalar_coeffs(C12, read(render_scalar(a))) == a.coeffs


RENDER_FIELDS = {"Q": Q, "Q(sqrt2)": F2, "Q(sqrt5)": F5, "Q(zeta12)": C12}
# the renderer special-cases the coefficients 0 and +-1
render_coeffs = st.one_of(st.sampled_from([Fraction(-1), Fraction(0), Fraction(1)]), rationals)


@pytest.mark.parametrize("name", RENDER_FIELDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_render_scalar_matches_sympy(name, data):
    pytest.importorskip("sympy")
    from sympy_reference import read, scalar_coeffs

    field = RENDER_FIELDS[name]
    x = field.from_coeffs(data.draw(st.lists(render_coeffs, min_size=field.degree, max_size=field.degree)))
    assert scalar_coeffs(field, read(render_scalar(x))) == x.coeffs


# -- the integer-numerator representation against the Fraction-vector oracle ----

ORACLE_FIELDS = [Q, F2, F5, Field.cyclotomic(3), Field.cyclotomic(8), C12]


@st.composite
def oracle_cases(draw):
    field = draw(st.sampled_from(ORACLE_FIELDS))
    vector = st.lists(rationals, min_size=field.degree, max_size=field.degree)
    return field, draw(vector), draw(vector), draw(st.integers(-30, 30))


def assert_matches(x, ref):
    assert x.den > 0
    assert gcd(x.den, *x.nums) == 1
    if x.is_zero():
        assert x.den == 1
    assert x.coeffs == ref.coeffs
    assert x.sort_key() == ref.sort_key()
    assert render_scalar(x) == render_scalar(ref)


@given(oracle_cases())
@settings(max_examples=300)
def test_arithmetic_matches_fraction_reference(case):
    field, u, v, k = case
    a, b = field.from_coeffs(u), field.from_coeffs(v)
    ra, rb = RefElement(field, u), RefElement(field, v)
    rk = RefElement(field, [k] + [0] * (field.degree - 1))
    pairs = [(a, ra), (b, rb), (a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb), (-a, -ra),
             (a * k, ra * rk), (a + k, ra + rk), (k - a, rk - ra)]
    for x, ref in pairs:
        assert_matches(x, ref)
    if not b.is_zero():
        assert_matches(b.inverse(), rb.inverse())
        assert_matches(a / b, ra * rb.inverse())
    assert (a == b) == (ra == rb)
    # equal values reached by different routes are equal and hash equally
    for x, y in [((a + b) - b, a), (a * b, b * a), (a - a, field.zero()), (a * 1, a)]:
        assert x == y
        assert hash(x) == hash(y)


def test_arithmetic_builds_no_fraction(monkeypatch):
    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("Fraction built on the arithmetic path")

    cases = [(Q, [Fraction(3, 4)], [Fraction(-5, 6)]),
             (F5, [Fraction(1, 2), Fraction(1, 2)], [Fraction(2, 3), Fraction(-1, 5)]),
             (C12, [1, Fraction(1, 3), 0, -2], [Fraction(-1, 2), 0, 4, Fraction(1, 7)])]
    elements = [(field.from_coeffs(u), field.from_coeffs(v)) for field, u, v in cases]
    monkeypatch.setattr(dunklcm.fields, "Fraction", NoFraction)
    for a, b in elements:
        a + b, a - b, a * b, -a, a * 2, a == b, hash(a), a.sort_key(), a.inverse(), a / b
        a.field.dot((a, b, a), (b, a, -b)), dot((a, b), (b, -a)), gram(((a, b), (b, a)))


# -- the inner-product kernel against the Fraction-vector oracle ------------------

KERNEL_FIELDS = [Q, F5, Field.cyclotomic(8), C12]

# zero entries often, and denominators that share factors or are coprime
kernel_entries = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-20, max_value=20, max_denominator=30))


@st.composite
def kernel_cases(draw):
    field = draw(st.sampled_from(KERNEL_FIELDS))
    n = draw(st.integers(1, 5))
    entry = st.lists(kernel_entries, min_size=field.degree, max_size=field.degree)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=3))
    return field, rows


def reference_dot(field, u, v):
    total = RefElement(field, [0] * field.degree)
    for x, y in zip(u, v):
        total = total + x * y
    return total


@given(kernel_cases())
@settings(max_examples=200)
def test_inner_products_match_fraction_reference(case):
    field, rows = case
    vectors = [tuple(field.from_coeffs(c) for c in row) for row in rows]
    refs = [[RefElement(field, c) for c in row] for row in rows]
    for u, ru in zip(vectors, refs):
        for v, rv in zip(vectors, refs):
            want = reference_dot(field, ru, rv)
            assert_matches(field.dot(u, v), want)
            assert_matches(dot(u, v), want)
        # the same products with opposite signs: an all-zero result
        zero = field.dot(u + u, tuple(-x for x in u) + u)
        assert_matches(zero, RefElement(field, [0] * field.degree))
        assert_matches(dot(u[:1], u[:1]), reference_dot(field, ru[:1], ru[:1]))
    for x, rv in zip(mat_vec(tuple(vectors), vectors[0]), refs):
        assert_matches(x, reference_dot(field, rv, refs[0]))
    for row, ru in zip(gram(tuple(vectors)), refs):
        for x, rv in zip(row, refs):
            assert_matches(x, reference_dot(field, ru, rv))


def test_kernel_rejects_mixed_fields():
    with pytest.raises(ValueError):
        F5.dot((F5.one(),), (F2.one(),))


@pytest.mark.parametrize(
    "field",
    [Q, F2, Field.quadratic(3), F5, Field.cyclotomic(3), Field.cyclotomic(5), Field.cyclotomic(8), C12],
    ids=repr,
)
def test_norm_cofactor_makes_the_norm(field):
    rng = random.Random(repr(field))
    for _ in range(50):
        nums = tuple(rng.randint(-9, 9) for _ in range(field.degree))
        if not any(nums):
            continue
        rest, norm = field.norm_cofactor(nums)
        assert all(type(c) is int for c in rest)
        assert norm != 0
        assert field._mul_nums(nums, rest) == (norm,) + (0,) * (field.degree - 1)
