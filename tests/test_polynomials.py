from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklcm.fields import Field
from dunklcm.linalg import reflect, vec
from dunklcm.polynomials import (
    Polynomial,
    add_product,
    add_scaled,
    divide_by_linear,
    is_divisible_by_linear,
    linear_combination,
    monomials,
    render_polynomial,
)
from polynomial_reference import RefPolynomial, divided_difference
from polynomial_reference import add_scaled as reference_add_scaled
from polynomial_reference import divide_by_linear as reference_divide_by_linear

Q = Field.rational()
F5 = Field.quadratic(5)

NVARS = 3

coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=6)


def polys(field=Q, nvars=NVARS, max_degree=3):
    monos = st.tuples(
        *[st.integers(min_value=0, max_value=max_degree) for _ in range(nvars)]
    )
    return st.dictionaries(monos, coeffs, max_size=5).map(
        lambda d: Polynomial(
            field, nvars, {e: field.element(c) for e, c in d.items()}
        )
    )


def test_constructors():
    x = Polynomial.variable(Q, 3, 0)
    y = Polynomial.variable(Q, 3, 1)
    f = 2 * x * x * y - 1
    assert f.degree() == 3
    assert f.constant_term() == Q.element(-1)
    assert Polynomial.zero(Q, 3).is_zero()
    assert Polynomial.zero(Q, 3).degree() == -1


@given(polys(), polys(), polys())
def test_ring_axioms(f, g, h):
    assert f * (g + h) == f * g + f * h
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f + (-f) == Polynomial.zero(Q, NVARS)


@given(polys())
def test_partial_derivative_of_product(f):
    g = Polynomial.variable(Q, NVARS, 0) + 2
    lhs = (f * g).partial(0)
    assert lhs == f.partial(0) * g + f * g.partial(0)


@given(polys())
@settings(max_examples=60)
def test_exact_division_round_trip(f):
    fvec = vec(Q, [1, -1, 2])
    form = Polynomial.linear_form(Q, fvec)
    assert divide_by_linear(f * form, fvec) == f


def test_division_remainder_raises():
    x = Polynomial.variable(Q, 2, 0)
    y = Polynomial.variable(Q, 2, 1)
    with pytest.raises(ArithmeticError):
        divide_by_linear(x * y + 1, vec(Q, [1, -1]))
    with pytest.raises(ZeroDivisionError):
        divide_by_linear(x, vec(Q, [0, 0]))


def test_is_divisible_by_linear_powers():
    x = Polynomial.variable(Q, 2, 0)
    y = Polynomial.variable(Q, 2, 1)
    fvec = vec(Q, [1, -1])
    form = x - y
    f = form * form * (x + y)
    assert is_divisible_by_linear(f, fvec)
    assert is_divisible_by_linear(f, fvec, power=2)
    assert not is_divisible_by_linear(f, fvec, power=3)


@given(polys())
@settings(max_examples=60)
def test_divided_difference_identity(f):
    # f - f(s x) = (alpha, x) * dd(f) for the reflection in alpha
    alpha = vec(Q, [1, -1, 0])
    refl = tuple(
        reflect(row, alpha)
        for row in (vec(Q, [1, 0, 0]), vec(Q, [0, 1, 0]), vec(Q, [0, 0, 1]))
    )
    dd = divided_difference(f, alpha)
    form = Polynomial.linear_form(Q, alpha)
    assert f - f.compose_linear(refl) == form * dd


def test_divided_difference_kills_symmetric():
    x, y, z = (Polynomial.variable(Q, 3, i) for i in range(3))
    sym = x * y + y * z + x * z
    assert divided_difference(sym, vec(Q, [1, -1, 0])).is_zero()
    assert divided_difference(sym, vec(Q, [0, 1, -1])).is_zero()


@given(polys(max_degree=2))
@settings(max_examples=40)
def test_substitute_evaluate_commute(f):
    images = tuple(
        Polynomial.linear_form(Q, vec(Q, row))
        for row in ([1, 1, 0], [0, 2, -1], [1, 0, 3])
    )
    point = vec(Q, [2, -1, Fraction(1, 2)])
    direct = f.substitute(images).evaluate(point)
    via = f.evaluate(tuple(img.evaluate(point) for img in images))
    assert direct == via


def test_restrict_to_line():
    x, y = (Polynomial.variable(Q, 2, i) for i in range(2))
    f = x * x - y * y
    g = f.restrict_to((vec(Q, [1, 1]),))
    assert g.is_zero()
    h = (x * y).restrict_to((vec(Q, [1, 1]),))
    t = Polynomial.variable(Q, 1, 0)
    assert h == t * t


def test_monomials_count():
    ms = list(monomials(3, 2))
    assert len(ms) == 10  # C(3+2,2)
    assert len(set(ms)) == 10
    assert all(sum(e) <= 2 for e in ms)


@given(polys(field=F5, nvars=2))
@settings(max_examples=40, deadline=None)
def test_render_parse_round_trip(f):
    pytest.importorskip("sympy")
    from sympy_reference import polynomial_coeffs

    text = render_polynomial(f)
    assert polynomial_coeffs(F5, text, ("x1", "x2")) == {e: c.coeffs for e, c in f.terms.items()}


def test_parse_named_variables():
    pytest.importorskip("sympy")
    from sympy_reference import polynomial_coeffs

    u = Polynomial.variable(Q, 2, 0)
    v = Polynomial.variable(Q, 2, 1)
    f = Polynomial(
        Q, 2, {e: Q.from_coeffs(c) for e, c in polynomial_coeffs(Q, "u^2-2*u*v", ("u", "v")).items()}
    )
    assert f == u * u - 2 * u * v
    assert polynomial_coeffs(Q, render_polynomial(f, names=("u", "v")), ("u", "v")) == {
        (2, 0): (Fraction(1),),
        (1, 1): (Fraction(-2),),
    }


# coefficients a + b sqrt(5), often with a or b in {0, 1, -1}
f5_coeffs = st.tuples(*[st.one_of(st.sampled_from([-1, 0, 1]).map(Fraction), coeffs)] * 2).map(F5.from_coeffs)
f5_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), f5_coeffs, max_size=5
).map(lambda d: Polynomial(F5, 2, d))


@given(f5_polys, st.sampled_from([None, ("u", "v")]))
@settings(max_examples=60, deadline=None)
def test_render_polynomial_matches_sympy(f, names):
    pytest.importorskip("sympy")
    from sympy_reference import polynomial_coeffs

    text = render_polynomial(f, names=names)
    expected = {e: c.coeffs for e, c in f.terms.items()}
    assert polynomial_coeffs(F5, text, names or ("x1", "x2")) == expected


# -- the numerator form against the per-term reference ---------------------------

Z8 = Field.cyclotomic(8)
FIELDS = {"Q": Q, "Q(sqrt5)": F5, "Q(zeta8)": Z8}


def elements(field):
    """Field elements with small fractional coordinates, often zero or a unit."""
    coord = st.one_of(st.sampled_from([-1, 0, 0, 1]).map(Fraction), coeffs)
    return st.lists(coord, min_size=field.degree, max_size=field.degree).map(field.from_coeffs)


def field_polys(field, nvars=NVARS, max_degree=3, max_size=5):
    monos = st.tuples(*[st.integers(0, max_degree)] * nvars)
    return st.dictionaries(monos, elements(field), max_size=max_size).map(lambda d: Polynomial(field, nvars, d))


@st.composite
def field_and_polys(draw, count=2, **kw):
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    return (field, *(draw(field_polys(field, **kw)) for _ in range(count)))


def assert_normal(p):
    """den > 0, gcd(den, every numerator entry) == 1, no all-zero tuple, matching tuple sizes."""
    assert p.den > 0
    entries = [a for t in p.nums.values() for a in t]
    assert gcd(p.den, *entries) == 1
    assert all(any(t) and len(t) == p.field.degree for t in p.nums.values())
    assert all(len(e) == p.nvars for e in p.nums)


def same(p, ref):
    assert_normal(p)
    assert RefPolynomial.of(p) == ref
    return True


@given(field_and_polys())
@settings(max_examples=80, deadline=None)
def test_ring_operations_match_reference(case):
    field, f, g = case
    rf, rg = RefPolynomial.of(f), RefPolynomial.of(g)
    assert same(f, rf) and same(g, rg)
    assert same(f * g, rf * rg)
    assert same(f + g, rf + rg)
    assert same(f - g, rf - rg)
    assert same(-f, -rf)


@given(field_and_polys(count=3), st.data())
@settings(max_examples=80, deadline=None)
def test_add_scaled_and_add_product_match_reference(case, data):
    field, *fs = case
    scales = [data.draw(elements(field)) for _ in fs]
    acc, den, ref = {}, 1, {}
    for f, c in zip(fs, scales):
        den = add_scaled(acc, den, f, c.nums, c.den)
        reference_add_scaled(ref, RefPolynomial.of(f), c)
    expected = RefPolynomial(field, NVARS, ref)
    assert same(linear_combination(field, NVARS, [(f, c.nums, c.den) for f, c in zip(fs, scales)]), expected)
    den = add_product(acc, den, fs[0], fs[1])
    expected = expected + RefPolynomial.of(fs[0]) * RefPolynomial.of(fs[1])
    assert same(Polynomial._normal(field, NVARS, acc, den), expected)


@given(field_and_polys(count=1), st.integers(0, NVARS - 1), st.tuples(*[st.integers(0, 2)] * NVARS))
@settings(max_examples=60, deadline=None)
def test_partial_and_shift_match_reference(case, i, e):
    _, f = case
    assert same(f.partial(i), RefPolynomial.of(f).partial(i))
    assert same(f.shift(e), RefPolynomial.of(f).shift(e))


@given(field_and_polys(count=2, max_degree=2, max_size=4), st.data())
@settings(max_examples=80, deadline=None)
def test_divide_by_linear_matches_reference(case, data):
    field, f, g = case
    form = tuple(data.draw(elements(field)) for _ in range(NVARS))
    if all(c.is_zero() for c in form):
        with pytest.raises(ZeroDivisionError):
            divide_by_linear(f, form)
        return
    product = f * Polynomial.linear_form(field, form)
    assert same(divide_by_linear(product, form), RefPolynomial.of(f))
    # g + product has a remainder exactly when g does
    try:
        expected = reference_divide_by_linear(RefPolynomial.of(g + product), form)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            divide_by_linear(g + product, form)
    else:
        assert same(divide_by_linear(g + product, form), expected)


@given(field_and_polys(count=4, max_degree=2, max_size=3))
@settings(max_examples=60, deadline=None)
def test_substitute_matches_reference(case):
    field, f, *images = case
    x0 = Polynomial.variable(field, NVARS, 0)
    for imgs in (images, [x0, images[1], images[2]]):
        assert same(f.substitute(imgs), RefPolynomial.of(f).substitute([RefPolynomial.of(p) for p in imgs]))


@given(field_and_polys(count=1), st.data())
@settings(max_examples=60, deadline=None)
def test_restrict_to_matches_reference(case, data):
    field, f = case
    k = data.draw(st.integers(0, 2))
    basis = tuple(tuple(data.draw(elements(field)) for _ in range(NVARS)) for _ in range(k))
    assert same(f.restrict_to(basis), RefPolynomial.of(f).restrict_to(basis))


@given(field_and_polys(count=2))
@settings(max_examples=60, deadline=None)
def test_equal_polynomials_compare_and_hash_equal(case):
    field, f, g = case
    routes = [
        f,
        (f + g) - g,
        Polynomial(field, NVARS, dict(f.terms)),
        linear_combination(field, NVARS, [(f * 3, (1,) + (0,) * (field.degree - 1), 3)]),
        f * Polynomial.constant(field, NVARS, 2) * field.element(Fraction(1, 2)),
    ]
    for p in routes:
        assert_normal(p)
        assert p == f and hash(p) == hash(f)


def test_constructor_rejects_foreign_coefficients():
    with pytest.raises(ValueError):
        Polynomial(Q, 2, {(1, 0): F5.generator()})
    with pytest.raises(ValueError):
        Polynomial(Q, 2, {(1, 0): 1})
    with pytest.raises(ValueError):
        Polynomial(Q, 2, {(1, 0): Fraction(1, 2)})


def test_constructor_rejects_exponents_of_another_length():
    with pytest.raises(ValueError):
        Polynomial(Q, 2, {(1, 0, 0): Q.one()})
    with pytest.raises(ValueError):
        Polynomial(Q, 2, {(1,): Q.one()})
    # the bad example of the old constructor: a Q(sqrt 5) coefficient on a 3-exponent tuple
    with pytest.raises(ValueError):
        Polynomial(Q, 2, {(1, 0, 0): F5.generator()})
