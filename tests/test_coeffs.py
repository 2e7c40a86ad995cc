import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srak.coeffs import (
    ArityError,
    ParamPoly,
    R0,
    R1,
    parse_rational,
    rat,
    rat_str,
)


def rand_poly(rng, arity=2, nterms=3, maxdeg=3):
    p = ParamPoly.zero(arity)
    for _ in range(nterms):
        e = tuple(rng.randint(0, maxdeg) for _ in range(arity))
        c = rat(rng.randint(-5, 5), rng.randint(1, 4))
        p = p + ParamPoly.monomial(arity, e, c)
    return p


def test_rational_parse_and_serialize():
    assert parse_rational("3/6") == rat(1, 2)
    assert rat_str(rat(4, 8)) == "1/2"
    assert rat_str(rat(-3)) == "-3"
    assert parse_rational("-7") == rat(-7)
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("a/b")


def test_poly_add_examples():
    t = ParamPoly.var(2, 0)
    c1 = ParamPoly.var(2, 1)
    assert (t + c1) + (-t) == c1
    p = rand_poly(random.Random(1))
    assert ParamPoly.zero(2) + p == p
    assert ParamPoly.monomial(2, (0, 1), rat(2, 3)) + ParamPoly.monomial(2, (0, 1), rat(1, 3)) == c1


def test_poly_mul_examples():
    t = ParamPoly.var(2, 0)
    c1 = ParamPoly.var(2, 1)
    assert t * c1 == ParamPoly.monomial(2, (1, 1), R1)
    one = ParamPoly.one(2)
    assert (t + one) * (t - one) == t * t - one
    p = rand_poly(random.Random(2))
    assert p * ParamPoly.zero(2) == ParamPoly.zero(2)


def test_arity_mismatch_errors():
    with pytest.raises(ArityError):
        ParamPoly.var(2, 0) + ParamPoly.var(3, 0)
    with pytest.raises(ArityError):
        ParamPoly.var(2, 0) * ParamPoly.var(3, 0)
    # a negative exponent would let t^-1 * t print as 1
    with pytest.raises(ArityError):
        ParamPoly.var(2, 0, power=-1)
    with pytest.raises(ArityError):
        ParamPoly.var(2, 2)
    with pytest.raises(ArityError):
        ParamPoly.monomial(2, (1, -1), R1)
    with pytest.raises(ArityError):
        ParamPoly.monomial(2, (1, 0, 0), R1)


def test_raw_constructor_checks_exponent_length():
    # a short key used to be truncated by mmul's zip: t * c1 came out as t
    with pytest.raises(ArityError):
        ParamPoly(2, {(1,): 1}) * ParamPoly.var(2, 1)
    with pytest.raises(ArityError):
        ParamPoly(2, {(1, 0, 0): 1})
    assert ParamPoly(2, {(1, 0): 1}) * ParamPoly.var(2, 1) == ParamPoly.monomial(2, (1, 1), R1)


def test_specialize_examples():
    t = ParamPoly.var(2, 0)
    c1 = ParamPoly.var(2, 1)
    p = t - 2 * c1
    assert p.specialize({0: R1, 1: rat(1, 2)}) == ParamPoly.zero(2)
    q = rand_poly(random.Random(4))
    assert q.specialize({}) == q
    assert (t * c1).specialize({0: R0}) == ParamPoly.zero(2)


def test_canonical_string_order():
    t = ParamPoly.var(2, 0)
    c1 = ParamPoly.var(2, 1)
    p = c1 + t * t + rat(1, 2) * t
    # descending graded-lex, t before c1
    assert p.to_str() == "t^2 + 1/2*t + c1"


def test_power():
    t = ParamPoly.var(2, 0)
    assert t**0 == ParamPoly.one(2)
    assert t**3 == t * t * t
    p = rand_poly(random.Random(7))
    assert p**2 == p * p


# ring axioms of ParamPoly (the coefficient type of every SRAElement), on
# two parameters with small exponents and rational coefficients
RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
EXPONENTS = st.tuples(st.integers(0, 3), st.integers(0, 3))
POLYS = st.dictionaries(EXPONENTS, RATIONALS.filter(bool), max_size=4).map(lambda t: ParamPoly(2, t))
POINTS = st.fixed_dictionaries({0: st.one_of(st.integers(-3, 3), RATIONALS), 1: st.one_of(st.integers(-3, 3), RATIONALS)})


@settings(deadline=None)
@given(a=POLYS, b=POLYS, c=POLYS)
def test_ring_axioms_random(a, b, c):
    zero, one = ParamPoly.zero(2), ParamPoly.one(2)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a
    assert (a * zero).terms == {}
    # exact cancellation leaves an empty map, not zero coefficients
    assert (a - a).terms == {} and (a + (-a)).terms == {}
    assert (a * b - b * a).terms == {}


@settings(deadline=None)
@given(a=POLYS, b=POLYS, point=POINTS)
def test_specialize_is_ring_homomorphism(a, b, point):
    one = ParamPoly.one(2)
    at = lambda p: p.specialize(point)  # noqa: E731
    assert at(a + b) == at(a) + at(b)
    assert at(a * b) == at(a) * at(b)
    assert at(one) == one
    assert at(a).is_const()
    assert all(c != 0 for c in at(a).terms.values())
