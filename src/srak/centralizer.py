"""Centralizer-of-induction construction: coset matrices over entries that
do their own arithmetic.

For finite groups H <= G and a unital algebra A carrying (an image of)
H, the H-equivariant functions G -> A form a free right A-module of rank
|G/H|; its A-endomorphism algebra is realized here as k x k matrices
over A once representatives of the left cosets H\\G are fixed (the
representative of each coset is the element with minimal canonical
matrix key, the identity coset first, so the realization is
deterministic).  The module provides the coset idempotents, the group
and invariant embeddings, the Morita witness and the rank count of the
smash-product realization with A0 = Q.

An entry is any value with ``x + y``, ``-x``, ``x * y``, ``x == y`` and
``bool(x)``, the last meaning "not an exact zero"; a rational or a
``ParamPoly`` r scales it as ``r * x``.  The context takes the map from
each element of H (a parent group id) to its coefficient, and reads zero
and one off it.  Two kinds of entries are used: group-only elements of
``sra.SRAlgebra(group, {}, 1)``, which is the group algebra of G with
``alg.group_elt`` as the map (the selftest's coset-matrix checks), and
the truncated completion's ``completion.TElt``.

The identity  u e(x) u^{-1} = e(x . u^{-1})  (right coset action) is the
orientation that the left-module matrix realization of the defining
formulas produces; conjugating by u^{-1} instead gives e(x . u), the
same family of identities reindexed by the inversion bijection.

Matrix products are sparse: group images are monomial matrices and
coordinate images mostly diagonal, so a product only multiplies pairs of
entries that are both nonzero.  Only exact zeros are skipped; an entry
that is zero merely modulo a truncation order is true, and takes part in
the product, so that the order it carries reaches the result.  Most
entries are the context's one shared zero, which an identity test
skips before any ``bool`` call, and an accumulator slot holds it until
the first product replaces it, so no product is added to zero.  The
matrices stay dense k x k tuples, which a caller may index directly.

Everything is exact and side-effect free.
"""

from . import linalg
from .groups import mat_key


class CentralizerError(ValueError):
    pass


class CentralizerContext:
    """Fixed coset data for (G, H) and the coefficient map of H.

    The identity coset comes first with the identity as its
    representative; every other coset is represented by its element of
    minimal canonical matrix key.
    """

    def __init__(self, group, sub_ids, entry):
        self.group = group
        self.sub_ids = sorted(set(sub_ids))
        if not group.is_subgroup(self.sub_ids):
            raise CentralizerError("not a subgroup")
        self._entry = entry
        self._sub_set = set(self.sub_ids)
        self.one_entry = entry(0)
        self.zero_entry = self.one_entry - self.one_entry
        seen = set()
        cosets = []
        for g in range(group.order):
            if g in seen:
                continue
            coset = sorted(group.mul(h, g) for h in self.sub_ids)
            for x in coset:
                seen.add(x)
            cosets.append(coset)
        reps = []
        for coset in cosets:
            if 0 in coset:
                reps.append(0)
            else:
                reps.append(min(coset, key=lambda g: mat_key(group.mats[g])))
        order = sorted(range(len(cosets)), key=lambda i: ((0 if 0 in cosets[i] else 1), mat_key(group.mats[reps[i]])))
        self.cosets = [tuple(cosets[i]) for i in order]
        self.reps = [reps[i] for i in order]
        self.k = len(self.reps)
        self.coset_of = {}
        for idx, coset in enumerate(self.cosets):
            for g in coset:
                self.coset_of[g] = idx

    def coefficient(self, h):
        """The coefficient of a subgroup element (parent group id)."""
        if h not in self._sub_set:
            raise CentralizerError("element outside the coefficient subgroup")
        return self._entry(h)

    def coset_act(self, idx, g):
        """Index of (coset idx) . g under right multiplication."""
        return self.coset_of[self.group.mul(self.reps[idx], g)]

    # -- element constructors ------------------------------------------

    def zero(self):
        return self.diagonal([self.zero_entry] * self.k)

    def one(self):
        return self.diagonal([self.one_entry] * self.k)

    def from_matrix(self, rows):
        return CentralizerElement(self, tuple(tuple(row) for row in rows))

    def diagonal(self, entries):
        z = self.zero_entry
        return CentralizerElement(
            self, tuple(tuple(entries[i] if i == j else z for j in range(self.k)) for i in range(self.k))
        )


class CentralizerElement:
    __slots__ = ("ctx", "mat")

    def __init__(self, ctx, mat):
        self.ctx = ctx
        self.mat = mat

    def __add__(self, other):
        return CentralizerElement(
            self.ctx, tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(self.mat, other.mat))
        )

    def __neg__(self):
        return CentralizerElement(self.ctx, tuple(tuple(-x for x in row) for row in self.mat))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        k = self.ctx.k
        zero = self.ctx.zero_entry
        # ``is not zero`` first: most entries are the context's shared zero
        right = [[(j, y) for j, y in enumerate(row) if y is not zero and y] for row in other.mat]
        out = []
        for row in self.mat:
            # a slot holds the shared zero until the first product replaces
            # it, so no product is ever added to zero
            acc = [zero] * k
            for l, x in enumerate(row):
                if x is not zero and x:
                    for j, y in right[l]:
                        cur = acc[j]
                        acc[j] = x * y if cur is zero else cur + x * y
            out.append(tuple(acc))
        return CentralizerElement(self.ctx, tuple(out))

    def scale(self, r):
        """This matrix times a central scalar: a rational or a ``ParamPoly``."""
        return CentralizerElement(self.ctx, tuple(tuple(r * x if x else x for x in row) for row in self.mat))

    def __eq__(self, other):
        if not isinstance(other, CentralizerElement):
            return NotImplemented
        return all(x == y for r1, r2 in zip(self.mat, other.mat) for x, y in zip(r1, r2))


def embed_group(ctx, g):
    """Matrix of the right-translation action of a group element."""
    rows = [[ctx.zero_entry] * ctx.k for _ in range(ctx.k)]
    for i in range(ctx.k):
        gi = ctx.reps[i]
        target = ctx.group.mul(gi, g)
        j = ctx.coset_of[target]
        h = ctx.group.mul(target, ctx.group.inv[ctx.reps[j]])
        rows[i][j] = ctx.coefficient(h)
    return ctx.from_matrix(rows)


def is_invariant(ctx, a):
    """Whether the coefficient ``a`` commutes with every element of H."""
    return all(ctx.coefficient(h) * a == a * ctx.coefficient(h) for h in ctx.sub_ids)


def embed_invariant(ctx, a):
    """diag(a, ..., a) for an H-invariant coefficient a."""
    if not is_invariant(ctx, a):
        raise CentralizerError("coefficient is not invariant under the subgroup")
    return ctx.diagonal([a] * ctx.k)


def idempotent(ctx, x):
    """The diagonal 0/1 selector of coset index x."""
    if not (0 <= x < ctx.k):
        raise CentralizerError("unknown coset index")
    return ctx.diagonal([ctx.one_entry if i == x else ctx.zero_entry for i in range(ctx.k)])


def morita_witness(ctx):
    """An explicit finite sum  sum_i  a_i e(H) b_i = 1  with a_i = embed(rep_i),
    b_i = embed(rep_i)^{-1}; returns (summand pairs, verified flag)."""
    e0 = idempotent(ctx, 0)
    total = ctx.zero()
    pairs = []
    for i in range(ctx.k):
        g = ctx.reps[i]
        a = embed_group(ctx, ctx.group.inv[g])
        b = embed_group(ctx, g)
        pairs.append((a, b))
        total = total + a * e0 * b
    return pairs, total == ctx.one()


def realization_rank(ctx):
    """Rank of the smash realization with A0 = Q, where the indicator of
    coset i maps to ``idempotent(ctx, i)`` and g to ``embed_group(ctx, g)``:
    the rank of the products of the two over all i and g, in the
    coordinates of group-algebra coefficients (the value at (0, h, 0) of
    a group-only ``SRAElement``, for h in H).  The realization is
    bijective when it equals both k |G| and k^2 |H|."""
    tracker = linalg.RankTracker()
    for i in range(ctx.k):
        e = idempotent(ctx, i)
        for g in range(ctx.group.order):
            m = e * embed_group(ctx, g)
            tracker.add([x.terms.get((0, h, 0), 0) for row in m.mat for x in row for h in ctx.sub_ids])
    return tracker.rank
