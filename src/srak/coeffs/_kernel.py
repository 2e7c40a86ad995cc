"""Sparse term-map kernels: the package's only sparse-map arithmetic.

Every coefficient object in the package is ultimately a dict mapping a
hashable key (an exponent tuple, a packed monomial int, a (monomial,
group-element) pair, a (monomial, component) pair, a group id or a column
index) to an exact value: an int, a ``Fraction`` or a ``ParamPoly``.  The
functions here are the one place that merges, scales, scale-accumulates
and convolves such maps, pruning exact zeros (a value is zero when it is
falsy).  Results never alias their inputs; only ``maxpy``,
``emap_axpy`` and ``emap_addmul`` write, and only to their first argument.

Two convolutions: ``mmul`` adds exponent tuples componentwise, for
``ParamPoly`` products and ``cherednik.StandardModule.act_poly``;
``pmul`` and the fused ``emap_addmul`` take packed int keys, whose sum is
the product monomial, and serve the PBW rewriting core
(``SRAlgebra._word_normal`` and ``multiply``), which packs exponent
vectors and guards the fields against carries (see ``sra``), and the
Z[c] pairing entries of ``cherednik.packed_gram_tower``.

Callers: ``ParamPoly`` arithmetic, PBW normal ordering (``sra``), the
Dunkl module vectors and pairing matrices (``cherednik``), group-algebra
coefficients (``centralizer.GroupAlgebraCoefficients``) and the sparse
rows of the elimination (``linalg.RankTracker``).  Two loops stay outside
on purpose: ``SRAlgebra._gexpand``, the PBW hot loop, where building a
map per word costs measurably more than the merge; and
``centralizer.SmashCoefficients``, whose values are tuples with zero
``not any(v)``, which a truthiness test cannot see.
"""


def madd(a, b):
    """Merged map a + b with zero values pruned."""
    out = dict(a)
    for k, v in b.items():
        cur = out.get(k)
        if cur is None:
            out[k] = v
        else:
            cur = cur + v
            if cur:
                out[k] = cur
            else:
                del out[k]
    return out


def maxpy(acc, b, s):
    """In-place acc += s * b (s a scalar); prunes zeros; returns acc."""
    if not s:
        return acc
    for k, v in b.items():
        cur = acc.get(k)
        if cur is None:
            sv = s * v
            if sv:
                acc[k] = sv
        else:
            cur = cur + s * v
            if cur:
                acc[k] = cur
            else:
                del acc[k]
    return acc


def mscale(a, s):
    """New map s * a; empty when s == 0."""
    if not s:
        return {}
    return {k: s * v for k, v in a.items()}


def mneg(a):
    return {k: -v for k, v in a.items()}


def mmul(a, b):
    """Convolution product: keys add componentwise, values multiply."""
    if not a or not b:
        return {}
    out = {}
    # iterate over the smaller operand outside
    if len(a) > len(b):
        a, b = b, a
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = ca * cb
            cur = out.get(e)
            if cur is None:
                out[e] = c
            else:
                cur = cur + c
                if cur:
                    out[e] = cur
                else:
                    del out[e]
    return out


def pmul(a, b):
    """Convolution product of two maps with packed int keys: a key is a
    monomial, and the product of two monomials is the sum of their keys."""
    out = {}
    emap_addmul(out, 0, a, b, 1)
    return out.get(0, {})


def emap_addmul(out, key, a, b, s):
    """In-place out[key] += s * pmul(a, b), without building the product
    map; values of out are packed-key term maps."""
    if not s or not a or not b:
        return out
    acc = out.get(key)
    if acc is None:
        acc = out[key] = {}
    if len(a) > len(b):
        a, b = b, a
    for ka, ca in a.items():
        if s != 1:
            ca = s * ca
        for kb, cb in b.items():
            k = ka + kb
            cur = acc.get(k)
            if cur is None:
                acc[k] = ca * cb
            else:
                cur = cur + ca * cb
                if cur:
                    acc[k] = cur
                else:
                    del acc[k]
    if not acc:
        del out[key]
    return out


def emap_axpy(out, key, poly, s):
    """In-place out[key] += s * poly where values of out are term maps."""
    cur = out.get(key)
    if cur is None:
        cur = {}
        out[key] = cur
    maxpy(cur, poly, s)
    if not cur:
        del out[key]
    return out
