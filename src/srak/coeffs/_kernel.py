"""Sparse term-map kernels.

Every coefficient object in the package is ultimately a dict mapping a
hashable key (an exponent tuple, or a (monomial, group-element) pair) to
an exact rational or polynomial value.  The functions here are the inner
loops shared by polynomial arithmetic and PBW normal ordering: merge,
scale-accumulate and convolve such maps, pruning exact zeros.  Results
never alias their inputs.
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
