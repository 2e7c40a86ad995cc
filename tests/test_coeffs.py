import random

import pytest

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


def test_div_t_examples():
    t = ParamPoly.var(2, 0)
    c1 = ParamPoly.var(2, 1)
    assert (t * t + t * c1).div_t() == t + c1
    assert t.div_t() == ParamPoly.one(2)
    with pytest.raises(ValueError):
        c1.div_t()


def test_div_t_roundtrip_random():
    rng = random.Random(3)
    t = ParamPoly.var(2, 0)
    for _ in range(50):
        p = rand_poly(rng)
        assert (t * p).div_t() == p


def test_specialize_examples():
    t = ParamPoly.var(2, 0)
    c1 = ParamPoly.var(2, 1)
    p = t - 2 * c1
    assert p.specialize({0: R1, 1: rat(1, 2)}) == ParamPoly.zero(2)
    q = rand_poly(random.Random(4))
    assert q.specialize({}) == q
    assert (t * c1).specialize({0: R0}) == ParamPoly.zero(2)


def test_specialize_is_ring_homomorphism():
    rng = random.Random(5)
    for _ in range(40):
        a, b = rand_poly(rng), rand_poly(rng)
        vals = {0: rat(rng.randint(-3, 3)), 1: rat(rng.randint(-3, 3), 2)}
        assert (a * b).specialize(vals) == a.specialize(vals) * b.specialize(vals)
        assert (a + b).specialize(vals) == a.specialize(vals) + b.specialize(vals)


def test_ring_axioms_random():
    rng = random.Random(6)
    for _ in range(60):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a


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
