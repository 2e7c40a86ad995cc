"""Centralizer-of-induction construction over a pluggable coefficient algebra.

For finite groups H <= G and a unital algebra A carrying (an image of)
H, the H-equivariant functions G -> A form a free right A-module of rank
|G/H|; its A-endomorphism algebra is realized here as k x k matrices
over A once representatives of the left cosets H\\G are fixed (the
representative of each coset is the element with minimal canonical
matrix key, the identity coset first, so the realization is
deterministic).  The module provides the coset idempotents, the group
and invariant embeddings, the Morita witness and the rank count of the
smash-product realization with A0 = Q.  Two coefficient rings implement
``CoefficientAlgebra``: the subgroup's group algebra
(``GroupAlgebraCoefficients``) and the truncated completion
(``completion.TruncatedCoefficients``).

The identity  u e(x) u^{-1} = e(x . u^{-1})  (right coset action) is the
orientation that the left-module matrix realization of the defining
formulas produces; conjugating by u^{-1} instead gives e(x . u), the
same family of identities reindexed by the inversion bijection.

Matrix products are sparse: group images are monomial matrices and
coordinate images mostly diagonal, so a product only multiplies pairs of
entries that are both nonzero.  Only exact zeros are skipped
(``CoefficientAlgebra.is_exact_zero``); an entry that is zero merely
modulo a truncation order still takes part in the product, so that the
order it carries reaches the result.

Everything is exact and side-effect free.
"""

from .coeffs import R0, R1
from .coeffs import _kernel as K
from . import linalg
from .groups import mat_key


class CentralizerError(ValueError):
    pass


class CoefficientAlgebra:
    """Interface the matrix layer needs from a coefficient algebra.

    Implementations must be associative and unital, and ``from_group``
    supplies the image of a subgroup element.
    """

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def scale(self, r, a):
        raise NotImplementedError

    def eq(self, a, b):
        raise NotImplementedError

    def is_zero(self, a):
        return self.eq(a, self.zero())

    def is_exact_zero(self, a):
        """Whether ``a`` is zero outright, so that a product with it as a
        factor can be skipped.  Stricter than ``is_zero`` where the algebra's
        equality is only modulo something (a truncation order)."""
        return self.is_zero(a)

    def from_group(self, parent_gid):
        """Image of a subgroup element (parent group id)."""
        raise NotImplementedError


class GroupAlgebraCoefficients(CoefficientAlgebra):
    """A = the group algebra of a subgroup (elements: dict parent-id -> Q)."""

    def __init__(self, group, sub_ids):
        self.group = group
        self.sub_ids = sorted(sub_ids)
        if not group.is_subgroup(self.sub_ids):
            raise CentralizerError("coefficient group algebra needs a subgroup")
        self.pos = {g: i for i, g in enumerate(self.sub_ids)}

    def zero(self):
        return {}

    def one(self):
        return {0: R1}

    def add(self, a, b):
        return K.madd(a, b)

    def neg(self, a):
        return K.mneg(a)

    def mul(self, a, b):
        mul = self.group.mul
        out = {}
        for g, x in a.items():
            K.maxpy(out, {mul(g, h): y for h, y in b.items()}, x)
        return out

    def scale(self, r, a):
        return K.mscale(a, r)

    def eq(self, a, b):
        return a == b

    def from_group(self, parent_gid):
        if parent_gid not in self.pos:
            raise CentralizerError("element outside the coefficient subgroup")
        return {parent_gid: R1}

    def basis(self):
        return [{g: R1} for g in self.sub_ids]

    def coords(self, a):
        return tuple(a.get(g, R0) for g in self.sub_ids)

    def is_invariant(self, a, parent_gids):
        """Whether conjugation by each of ``parent_gids`` fixes ``a``: it
        moves the coefficient at h to g h g^-1."""
        mul, inv = self.group.mul, self.group.inv
        return all({mul(g, mul(h, inv[g])): x for h, x in a.items()} == a for g in parent_gids)


class CentralizerContext:
    """Fixed coset data for (G, H, A).

    The identity coset comes first with the identity as its
    representative; every other coset is represented by its element of
    minimal canonical matrix key.
    """

    def __init__(self, group, sub_ids, A):
        self.group = group
        self.sub_ids = sorted(set(sub_ids))
        if not group.is_subgroup(self.sub_ids):
            raise CentralizerError("not a subgroup")
        self.A = A
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

    def coset_act(self, idx, g):
        """Index of (coset idx) . g under right multiplication."""
        return self.coset_of[self.group.mul(self.reps[idx], g)]

    # -- element constructors ------------------------------------------

    def zero(self):
        z = self.A.zero()
        return CentralizerElement(self, tuple(tuple(z for _ in range(self.k)) for _ in range(self.k)))

    def one(self):
        z, o = self.A.zero(), self.A.one()
        return CentralizerElement(
            self, tuple(tuple(o if i == j else z for j in range(self.k)) for i in range(self.k))
        )

    def from_matrix(self, rows):
        return CentralizerElement(self, tuple(tuple(row) for row in rows))

    def diagonal(self, entries):
        z = self.A.zero()
        return CentralizerElement(
            self, tuple(tuple(entries[i] if i == j else z for j in range(self.k)) for i in range(self.k))
        )


class CentralizerElement:
    __slots__ = ("ctx", "mat")

    def __init__(self, ctx, mat):
        self.ctx = ctx
        self.mat = mat

    def __add__(self, other):
        A = self.ctx.A
        return CentralizerElement(
            self.ctx,
            tuple(tuple(A.add(x, y) for x, y in zip(r1, r2)) for r1, r2 in zip(self.mat, other.mat)),
        )

    def __neg__(self):
        A = self.ctx.A
        return CentralizerElement(self.ctx, tuple(tuple(A.neg(x) for x in row) for row in self.mat))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, CentralizerElement):
            A = self.ctx.A
            return CentralizerElement(self.ctx, tuple(tuple(A.scale(other, x) for x in row) for row in self.mat))
        A = self.ctx.A
        k = self.ctx.k
        is_zero = A.is_exact_zero
        right = [[(j, y) for j, y in enumerate(row) if not is_zero(y)] for row in other.mat]
        out = []
        for row in self.mat:
            acc = [A.zero() for _ in range(k)]
            for l, x in enumerate(row):
                if is_zero(x):
                    continue
                for j, y in right[l]:
                    acc[j] = A.add(acc[j], A.mul(x, y))
            out.append(tuple(acc))
        return CentralizerElement(self.ctx, tuple(out))

    def __rmul__(self, scalar):
        A = self.ctx.A
        return CentralizerElement(self.ctx, tuple(tuple(A.scale(scalar, x) for x in row) for row in self.mat))

    def __eq__(self, other):
        if not isinstance(other, CentralizerElement):
            return NotImplemented
        A = self.ctx.A
        return all(A.eq(x, y) for r1, r2 in zip(self.mat, other.mat) for x, y in zip(r1, r2))

    def is_zero(self):
        A = self.ctx.A
        return all(A.is_zero(x) for row in self.mat for x in row)


def build_centralizer(group, sub_ids, A):
    return CentralizerContext(group, sub_ids, A)


def embed_group(ctx, g):
    """Matrix of the right-translation action of a group element."""
    A = ctx.A
    z = A.zero()
    rows = [[z] * ctx.k for _ in range(ctx.k)]
    for i in range(ctx.k):
        gi = ctx.reps[i]
        target = ctx.group.mul(gi, g)
        j = ctx.coset_of[target]
        h = ctx.group.mul(target, ctx.group.inv[ctx.reps[j]])
        rows[i][j] = A.from_group(h)
    return CentralizerElement(ctx, tuple(tuple(r) for r in rows))


def embed_invariant(ctx, a):
    """diag(a, ..., a) for an H-invariant coefficient a."""
    if not ctx.A.is_invariant(a, [h for h in ctx.sub_ids if h != 0]):
        raise CentralizerError("coefficient is not invariant under the subgroup")
    return ctx.diagonal([a] * ctx.k)


def idempotent(ctx, x):
    """The diagonal 0/1 selector of coset index x."""
    if not (0 <= x < ctx.k):
        raise CentralizerError("unknown coset index")
    entries = [ctx.A.one() if i == x else ctx.A.zero() for i in range(ctx.k)]
    return ctx.diagonal(entries)


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
    coordinates of the group-algebra coefficients.  The realization is
    bijective when it equals both k |G| and k^2 |H|."""
    A = ctx.A
    tracker = linalg.RankTracker()
    for i in range(ctx.k):
        e = idempotent(ctx, i)
        for g in range(ctx.group.order):
            m = e * embed_group(ctx, g)
            tracker.add([c for row in m.mat for x in row for c in A.coords(x)])
    return tracker.rank
