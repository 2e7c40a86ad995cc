"""Sparse term-map kernels: the package's only sparse-map arithmetic.

Every coefficient object in the package is ultimately a dict mapping a
hashable key (an exponent tuple, a packed monomial int, a (monomial,
group-element) pair, a (monomial, component) pair, a group id or a column
index) to an exact value: an int, a ``Fraction`` or a ``ParamPoly``.  The
functions here are the one place that merges, scales, scale-accumulates
and convolves such maps, pruning exact zeros (a value is zero when it is
falsy).  Results never alias their inputs; only ``maxpy``,
``emap_axpy``, ``emap_addmul`` and ``pbw_addmul`` write, and only to their
first argument.

Two convolutions: ``mmul`` adds exponent tuples componentwise, for
``ParamPoly`` products and for the memo of group images of x-monomials
in ``cherednik.StandardModule`` (one product per new image); the fused
``emap_addmul`` and ``pbw_addmul`` take packed int keys, whose sum is the
product monomial.  ``pbw_addmul`` is the PBW engine's accumulator (see
``sra``, which packs exponent vectors and guards the fields against
carries): one call adds a whole flat map {(packed word, gid, packed key):
value}, the shape of an ``sra`` element and of its cached normal forms,
times a packed polynomial, the group part multiplied on the right by one
element through the Cayley table.  A word is packed too, one field per
letter, so a key is three ints and sorting commuting letters together is
adding words.  ``pbw_addmul`` fills the letter insertions of the
rewriting (``SRAlgebra._right_letter``, where a letter does not sort
after its word) and forms conjugation sums, center brackets and scalar
multiples; ``emap_addmul`` forms the Z[c] pairing entries of
``cherednik.packed_gram_tower``.

Callers: ``ParamPoly`` arithmetic, the PBW engine and its elements
(``sra``, which converts to ``ParamPoly`` only to print, to take user
input and to parse a parameter; the group-algebra entries of ``centralizer``'s coset
matrices are group-only elements of this kind), the Dunkl module vectors
(flat maps {(x-exponents, component, packed (t, c) key): value}, whose
products by t and c are key shifts) and pairing matrices
(``cherednik``), and the sparse rows of the elimination
(``linalg.RankTracker``).  The PBW hot loops stay outside on purpose:
``SRAlgebra.multiply``, which accumulates each memoized piece with the
left word's lower-free head added to its words, ``SRAlgebra._gexpand``,
where building a map per letter costs measurably more than the merge,
and the steps of the rewriting that add one key per term (``_insert``'s
kappa terms, ``_right_letter``'s letters that sort after their word, and
``_word_normal``'s free letters sorted into the normal form of a core),
where a kernel call would add a one-term map.
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


def emap_addmul(out, key, a, b, s):
    """In-place out[key] += s * a * b for two maps with packed int keys (a
    key is a monomial, and the product of two monomials is the sum of
    their keys), without building the product map; values of out are
    packed-key term maps."""
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


def pbw_addmul(out, src, poly, s, table, g):
    """In-place out[(m, table[h][g], kb + k)] += s * c * cb for every term
    (m, h, kb): cb of the flat normal form ``src`` and every term k: c of
    the packed map ``poly``: a normal form times a coefficient polynomial
    and, on the right, the group element g (``table`` is the Cayley table).
    Values are ints or ``Fraction``s, whose products of nonzero factors are
    nonzero; only sums are pruned."""
    if not s:
        return out
    get = out.get
    for k, c in poly.items():
        if s != 1:
            c = s * c
        for (m, h, kb), cb in src.items():
            key = (m, table[h][g], kb + k)
            cur = get(key)
            if cur is None:
                out[key] = c * cb
            else:
                cur = cur + c * cb
                if cur:
                    out[key] = cur
                else:
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
