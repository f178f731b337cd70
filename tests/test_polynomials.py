from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklcm.fields import Field
from dunklcm.linalg import reflect, vec
from dunklcm.polynomials import (
    Polynomial,
    divide_by_linear,
    divided_difference,
    is_divisible_by_linear,
    monomials,
    render_polynomial,
)

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
