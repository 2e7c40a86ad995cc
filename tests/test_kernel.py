"""The term-map kernel against a naive dict reference.

The package's sparse-map arithmetic goes through ``srak.coeffs._kernel``
(two documented loops aside), so its contract is checked here directly,
on the three kinds of value the package stores: rationals, ints mixed with
``Fraction``s, and ``ParamPoly``s.  The reference sums over the union of
the keys and drops values that compare equal to 0 (no truthiness test).
The packed-key products are checked on keys packed as ``SRAlgebra`` packs
them, together with the guard that keeps their fields from carrying, and
so is the PBW accumulator ``pbw_addmul`` on flat normal forms, against the
Cayley table of S3 (non-abelian, so the side the group element multiplies
on shows).
"""

import itertools
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srak import sra as S
from srak.coeffs import ParamPoly
from srak.coeffs import _kernel as K

KEYS = st.tuples(st.integers(0, 2), st.integers(0, 2))
RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
SCALARS = {
    "rational": RATIONALS,
    "mixed": st.one_of(st.integers(-3, 3), RATIONALS),
    "parampoly": st.dictionaries(KEYS, RATIONALS.filter(bool), max_size=3).map(lambda t: ParamPoly(2, t)),
}
KINDS = sorted(SCALARS)


def term_maps(kind, min_size=0):
    return st.dictionaries(KEYS, SCALARS[kind].filter(lambda v: v != 0), min_size=min_size, max_size=6)


def ref_axpy(a, b, s):
    """a + s * b."""
    out = {}
    for k in set(a) | set(b):
        v = a.get(k, 0) + s * b.get(k, 0)
        if v != 0:
            out[k] = v
    return out


def add_tuples(ka, kb):
    return tuple(x + y for x, y in zip(ka, kb))


def ref_mul(a, b, join=add_tuples):
    """The convolution product; ``join`` is the product of two keys."""
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = join(ka, kb)
            out[k] = out.get(k, 0) + va * vb
    return {k: v for k, v in out.items() if v != 0}


def snapshot(m):
    """A copy of a (nested) term map that later mutation cannot reach."""
    out = {}
    for k, v in m.items():
        if isinstance(v, dict):
            out[k] = snapshot(v)
        elif isinstance(v, ParamPoly):
            out[k] = ParamPoly(v.arity, dict(v.terms))
        else:
            out[k] = v
    return out


def assert_pruned(m):
    assert all(v != 0 for v in m.values()), m


@pytest.mark.parametrize("kind", KINDS)
@settings(deadline=None)
@given(data=st.data())
def test_merges_match_reference(kind, data):
    a, b = data.draw(term_maps(kind)), data.draw(term_maps(kind))
    s = data.draw(SCALARS[kind])
    a0, b0 = snapshot(a), snapshot(b)
    results = {
        "madd": (K.madd(a, b), ref_axpy(a, b, 1)),
        "mscale": (K.mscale(a, s), ref_axpy({}, a, s)),
        "mneg": (K.mneg(a), ref_axpy({}, a, -1)),
        "mmul": (K.mmul(a, b), ref_mul(a, b)),
    }
    assert a == a0 and b == b0  # no input mutated
    for name, (got, want) in results.items():
        assert got == want, name
        assert_pruned(got)
        assert got is not a and got is not b, name  # a fresh map
    acc = dict(a)
    assert K.maxpy(acc, b, s) is acc
    assert acc == ref_axpy(a, b, s)
    assert_pruned(acc)
    assert b == b0
    # exact cancellation leaves nothing behind, for every kind of value
    assert K.madd(a, K.mneg(a)) == {}
    assert K.maxpy(dict(a), a, -1) == {}


@pytest.mark.parametrize("kind", KINDS)
@settings(deadline=None)
@given(data=st.data())
def test_emap_axpy_matches_reference(kind, data):
    out = data.draw(st.dictionaries(st.integers(0, 2), term_maps(kind, min_size=1), max_size=3))
    key = data.draw(st.integers(0, 3))
    poly = data.draw(term_maps(kind))
    s = data.draw(SCALARS[kind])
    want = snapshot(out)
    inner = ref_axpy(want.get(key, {}), poly, s)
    want.pop(key, None)
    if inner:
        want[key] = inner
    poly0 = snapshot(poly)
    assert K.emap_axpy(out, key, poly, s) is out
    assert out == want
    assert poly == poly0
    for inner in out.values():
        assert inner, "an empty inner map was kept"
        assert_pruned(inner)
        assert inner is not poly


# monomials of two parameters with exponents 0..3, packed into one int
PACKED_KEYS = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(lambda e: e[0] | e[1] << S.PACK_BITS)


def pmul(a, b):
    """The product of two packed-key maps, through ``emap_addmul``."""
    return K.emap_addmul({}, 0, a, b, 1).get(0, {})


def packed_maps(kind, min_size=0):
    return st.dictionaries(PACKED_KEYS, SCALARS[kind].filter(lambda v: v != 0), min_size=min_size, max_size=6)


@pytest.mark.parametrize("kind", KINDS)
@settings(deadline=None)
@given(data=st.data())
def test_packed_products_match_reference(kind, data):
    a, b = data.draw(packed_maps(kind)), data.draw(packed_maps(kind))
    out = data.draw(st.dictionaries(st.integers(0, 2), packed_maps(kind, min_size=1), max_size=3))
    key = data.draw(st.integers(0, 3))
    s = data.draw(SCALARS[kind])
    a0, b0 = snapshot(a), snapshot(b)
    product = ref_mul(a, b, operator.add)
    got = pmul(a, b)
    assert got == product
    assert_pruned(got)
    assert got is not a and got is not b
    want = snapshot(out)
    inner = ref_axpy(want.get(key, {}), product, s)
    want.pop(key, None)
    if inner:
        want[key] = inner
    assert K.emap_addmul(out, key, a, b, s) is out
    assert out == want
    assert a == a0 and b == b0  # no input mutated
    for inner in out.values():
        assert inner, "an empty inner map was kept"
        assert_pruned(inner)
        assert inner is not a and inner is not b
    # exact cancellation leaves nothing behind
    assert K.madd(pmul(a, b), pmul(a, K.mneg(b))) == {}
    start = pmul(a, b)
    assert K.emap_addmul({key: start} if start else {}, key, a, b, -1) == {}


# S3 as the permutations of (0, 1, 2); table[i][j] is the index of
# perms[i] after perms[j], written independently of srak.groups
S3_PERMS = list(itertools.permutations(range(3)))
S3_TABLE = [[S3_PERMS.index(tuple(p[q[k]] for k in range(3))) for q in S3_PERMS] for p in S3_PERMS]
WORDS = st.lists(st.integers(0, 3), max_size=2).map(lambda w: tuple(sorted(w)))
PBW_VALUES = {"int": st.integers(-3, 3), "rational": RATIONALS}


def flat_forms(kind):
    keys = st.tuples(WORDS, st.integers(0, 5), PACKED_KEYS)
    return st.dictionaries(keys, PBW_VALUES[kind].filter(bool), max_size=6)


def ref_pbw_addmul(out, src, poly, s, g):
    """out + s * (src times poly, each group part h multiplied by g on the
    right), summed over the union of the keys."""
    want = dict(out)
    for (m, h, kb), cb in src.items():
        for k, c in poly.items():
            key = (m, S3_TABLE[h][g], kb + k)
            want[key] = want.get(key, 0) + s * c * cb
    return {k: v for k, v in want.items() if v != 0}


@pytest.mark.parametrize("kind", sorted(PBW_VALUES))
@settings(deadline=None)
@given(data=st.data())
def test_pbw_addmul_matches_reference(kind, data):
    out, src = data.draw(flat_forms(kind)), data.draw(flat_forms(kind))
    poly = data.draw(st.dictionaries(PACKED_KEYS, PBW_VALUES[kind].filter(bool), max_size=3))
    s = data.draw(PBW_VALUES[kind])
    g = data.draw(st.integers(0, 5))
    want = ref_pbw_addmul(out, src, poly, s, g)
    src0, poly0 = dict(src), dict(poly)
    assert K.pbw_addmul(out, src, poly, s, S3_TABLE, g) is out
    assert out == want
    assert_pruned(out)
    assert src == src0 and poly == poly0  # no input mutated
    # exact cancellation leaves nothing behind
    start = ref_pbw_addmul({}, src, poly, s, g)
    assert K.pbw_addmul(start, src, poly, -s, S3_TABLE, g) == {}


def test_pbw_addmul_multiplies_the_group_part_on_the_right():
    h, g = 1, 3
    assert S3_TABLE[h][g] != S3_TABLE[g][h]
    got = K.pbw_addmul({}, {((0,), h, 0): 2}, {5: 3}, 1, S3_TABLE, g)
    assert got == {((0,), S3_TABLE[h][g], 5): 6}


def test_products_refuse_exponents_that_would_carry(omega_alg2):
    """``multiply`` raises when E(a) + E(b) + k*(L(a) + L(b))//2 reaches
    2^PACK_BITS (E the largest parameter exponent of a factor, L its
    longest word, k the largest exponent in the kappa table, 1 for S2):
    past it a packed field could carry into the next one.  Just below it
    the product is exact."""
    alg = omega_alg2
    top = 1 << S.PACK_BITS
    x, y = (0,), (1,)

    def t_power(n, word):
        return alg.element({(word, 0): {(n, 0): 1}})

    # y*x rewrites once, and its kappa term lifts t^(top-2) to t^(top-1)
    got = t_power(top - 2, y) * t_power(0, x)
    assert got == (alg.gen(1) * alg.gen(0)).scale(ParamPoly.var(2, 0, power=top - 2))
    assert any(e == (top - 1, 0) for p in got.coefficients().values() for e in p.terms)
    for a, b in [
        (t_power(top - 1, y), t_power(0, x)),  # one kappa step reaches top
        (t_power(top // 2, ()), t_power(top // 2, ())),  # the factors' exponents alone
        (t_power(top - 1, ()), t_power(1, x)),
    ]:
        with pytest.raises(S.AlgebraError, match="2\\^%d" % S.PACK_BITS):
            a * b
    # a factor's field that overflows by itself cannot be packed at all
    with pytest.raises(S.AlgebraError, match="2\\^%d" % S.PACK_BITS):
        t_power(top, ())
