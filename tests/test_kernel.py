"""The term-map kernel against a naive dict reference.

The package's sparse-map arithmetic goes through ``srak.coeffs._kernel``
(two documented loops aside), so its contract is checked here directly,
on the three kinds of value the package stores: rationals, ints mixed with
``Fraction``s, and ``ParamPoly``s.  The reference sums over the union of
the keys and drops values that compare equal to 0 (no truthiness test).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def ref_mul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
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
