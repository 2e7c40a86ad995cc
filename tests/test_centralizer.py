import pytest

from srak import centralizer as C
from srak import groups as G
from srak.coeffs import R0, R1, rat

from conftest import dense_product, group_algebra_context


def s2_in_s3(g3):
    return G.stabilizer(g3, (rat(2), rat(1), R0, R0))


def test_context_shapes(g2, g3):
    ctx = group_algebra_context(g2, [0, 1])
    assert ctx.k == 1
    ctx = group_algebra_context(g2, [0])
    assert ctx.k == 2
    sub = s2_in_s3(g3)
    ctx3 = group_algebra_context(g3, sub)
    assert ctx3.k == 3
    # total dimension k*k*|H| = 18
    assert ctx3.k * ctx3.k * len(sub) == 18
    # identity coset is first
    assert 0 in ctx3.cosets[0]


def test_not_subgroup_rejected(g3):
    with pytest.raises(C.CentralizerError):
        group_algebra_context(g3, [0, 1, 2])
    # the coefficient map is only read on the subgroup
    ctx = group_algebra_context(g3, [0])
    with pytest.raises(C.CentralizerError):
        ctx.coefficient(1)


def test_embed_group_examples(g2, g3):
    ctx = group_algebra_context(g2, [0])
    assert C.embed_group(ctx, 0) == ctx.one()
    swap = C.embed_group(ctx, 1)
    assert swap.mat[0][0] == ctx.zero_entry and swap.mat[1][1] == ctx.zero_entry
    assert swap.mat[0][1] == ctx.one_entry and swap.mat[1][0] == ctx.one_entry
    # 3-cycle in the coset-matrix algebra over the subgroup algebra
    sub = s2_in_s3(g3)
    ctx3 = group_algebra_context(g3, sub)
    # the product of two distinct transpositions
    s, t = G.symplectic_reflections(g3).reflections[:2]
    three_cycle = g3.mul(s, t)
    m = C.embed_group(ctx3, three_cycle)
    nonzero = [(i, j) for i in range(3) for j in range(3) if m.mat[i][j]]
    assert len(nonzero) == 3
    assert sorted(i for i, _ in nonzero) == [0, 1, 2]
    assert sorted(j for _, j in nonzero) == [0, 1, 2]
    # entries are single subgroup elements forced by coset arithmetic
    for i, j in nonzero:
        entry = m.mat[i][j]
        assert len(entry.terms) == 1
        ((word, h, key), coeff), = entry.terms.items()
        assert word == 0 and key == 0 and coeff == R1
        assert h in sub
        assert g3.mul(ctx3.reps[i], three_cycle) == g3.mul(h, ctx3.reps[j])


def test_embed_group_multiplicative_exhaustive(g3):
    sub = s2_in_s3(g3)
    ctx = group_algebra_context(g3, sub)
    for g in range(6):
        for h in range(6):
            assert C.embed_group(ctx, g) * C.embed_group(ctx, h) == C.embed_group(ctx, g3.mul(g, h))


def test_idempotent_identities_exhaustive(g2, g3):
    cases = [
        (g3, s2_in_s3(g3)),
        (g3, [0]),
        (g2, [0, 1]),
    ]
    for grp, sub in cases:
        ctx = group_algebra_context(grp, sub)
        total = ctx.zero()
        for x in range(ctx.k):
            e = C.idempotent(ctx, x)
            total = total + e
            assert e * e == e
            for y in range(ctx.k):
                prod = C.idempotent(ctx, x) * C.idempotent(ctx, y)
                if x == y:
                    assert prod == e
                else:
                    assert prod == ctx.zero()
        assert total == ctx.one()
        # conjugation permutes the coset idempotents through the right action
        for g in range(grp.order):
            ge, gi = C.embed_group(ctx, g), C.embed_group(ctx, grp.inv[g])
            for x in range(ctx.k):
                assert ge * C.idempotent(ctx, x) * gi == C.idempotent(ctx, ctx.coset_act(x, grp.inv[g]))


def test_invariant_embedding(g3):
    sub = s2_in_s3(g3)
    ctx = group_algebra_context(g3, sub)
    assert C.embed_invariant(ctx, ctx.one_entry) == ctx.one()
    # the class sum of the subgroup is invariant and embeds centrally
    csum = ctx.coefficient(sub[0]) + ctx.coefficient(sub[1])
    center_elt = C.embed_invariant(ctx, csum)
    for x in range(ctx.k):
        e = C.idempotent(ctx, x)
        assert center_elt * e == e * center_elt
    # over an abelian subgroup every coefficient is invariant; a genuine
    # rejection needs a nonabelian one
    ctx_full = group_algebra_context(g3, list(range(6)))
    transpositions = G.symplectic_reflections(g3).reflections
    with pytest.raises(C.CentralizerError):
        C.embed_invariant(ctx_full, ctx_full.coefficient(transpositions[0]))
    class_sum = ctx_full.zero_entry
    for g in transpositions:
        class_sum = class_sum + ctx_full.coefficient(g)
    assert C.embed_invariant(ctx_full, class_sum) is not None


def test_idempotent_unknown_coset(g3):
    sub = s2_in_s3(g3)
    ctx = group_algebra_context(g3, sub)
    with pytest.raises(C.CentralizerError):
        C.idempotent(ctx, 5)


def test_invariants_commute_with_idempotents(g3):
    sub = s2_in_s3(g3)
    ctx = group_algebra_context(g3, sub)
    for h in ctx.sub_ids:
        a = ctx.coefficient(h)
        if not C.is_invariant(ctx, a):
            continue
        da = C.embed_invariant(ctx, a)
        for x in range(ctx.k):
            e = C.idempotent(ctx, x)
            assert da * e == e * da


def test_morita_witness(g2, g3):
    for grp, sub in [(g3, s2_in_s3(g3)), (g3, [0]), (g2, [0, 1])]:
        ctx = group_algebra_context(grp, sub)
        pairs, ok = C.morita_witness(ctx)
        assert ok
        assert len(pairs) == ctx.k


def test_smash_realization(g3):
    # A0 = Q: theta(g) = embed_group, theta(indicator of coset i) = idempotent
    sub = s2_in_s3(g3)
    ctx = group_algebra_context(g3, sub)
    assert ctx.k * g3.order == 18
    assert ctx.k * ctx.k * len(sub) == 18
    assert C.realization_rank(ctx) == 18
    # identity goes to identity
    total = ctx.zero()
    for i in range(ctx.k):
        total = total + C.idempotent(ctx, i)
    assert total * C.embed_group(ctx, 0) == ctx.one()
    # multiplicativity and the translation action, exhaustively
    for g in range(6):
        for h in range(6):
            assert C.embed_group(ctx, g) * C.embed_group(ctx, h) == C.embed_group(ctx, g3.mul(g, h))
    for g in range(6):
        for i in range(ctx.k):
            lhs = C.embed_group(ctx, g) * C.idempotent(ctx, i) * C.embed_group(ctx, g3.inv[g])
            # (g . F)(g') = F(g' g): the translate is the indicator of the
            # coset that g sends to coset i
            translate = [j for j in range(ctx.k) if ctx.coset_act(j, g) == i]
            assert translate == [ctx.coset_act(i, g3.inv[g])]
            assert lhs == C.idempotent(ctx, translate[0])


def test_change_of_representatives_is_conjugation(g3):
    # a different representative choice conjugates every embedded matrix by
    # the diagonal transition matrix of the correcting subgroup elements
    sub = s2_in_s3(g3)
    ctx = group_algebra_context(g3, sub)
    ctx2 = C.CentralizerContext(g3, sub, ctx.coefficient)
    h1 = [h for h in sub if h != 0][0]
    for idx in range(1, ctx.k):
        rep = g3.mul(h1, ctx.reps[idx])
        assert rep != ctx.reps[idx] and ctx.coset_of[rep] == idx
        ctx2.reps[idx] = rep
    # transition: coordinates at the new reps are h-corrections of the old
    trans = ctx.diagonal([ctx.coefficient(g3.mul(ctx2.reps[i], g3.inv[ctx.reps[i]])) for i in range(ctx.k)])
    trans_inv = ctx.diagonal([ctx.coefficient(g3.inv[g3.mul(ctx2.reps[i], g3.inv[ctx.reps[i]])]) for i in range(ctx.k)])
    for g in range(6):
        m_old = C.embed_group(ctx, g)
        m_new = C.embed_group(ctx2, g)
        conj = trans_inv * m_old * trans
        assert [list(r) for r in conj.mat] == [list(r) for r in m_new.mat]
    # idempotents are representative independent outright
    for x in range(ctx.k):
        assert [list(r) for r in C.idempotent(ctx, x).mat] == [list(r) for r in C.idempotent(ctx2, x).mat]


def test_is_invariant_matches_conjugation(g3):
    # the known answers: every class sum of H is invariant, and a basis
    # element h is invariant exactly when h is central in H
    for sub in (s2_in_s3(g3), list(range(6))):
        ctx = group_algebra_context(g3, sub)
        local, to_parent = G.subgroup_group(g3, sub)
        for cls in local.classes:
            class_sum = ctx.zero_entry
            for x in cls:
                class_sum = class_sum + ctx.coefficient(to_parent[x])
            assert C.is_invariant(ctx, class_sum)
        central = [h for h in sub if all(g3.mul(h, g) == g3.mul(g, h) for g in sub)]
        assert (central == sub) == (len(sub) == 2)
        for h in sub:
            assert C.is_invariant(ctx, ctx.coefficient(h)) == (h in central)


def _sparse_samples(ctx, extra):
    """Group images plus matrices mixing them with the given entries."""
    out = [C.embed_group(ctx, g) for g in range(ctx.group.order)]
    k = ctx.k
    z = ctx.zero_entry
    for n, a in enumerate(extra):
        rows = [[z] * k for _ in range(k)]
        rows[n % k][n % k] = a
        rows[n % k][(n + 1) % k] = a
        out.append(ctx.from_matrix(rows) + out[(n + 1) % len(out)])
    return out


def test_sparse_product_matches_dense_group_algebra(g3):
    sub = s2_in_s3(g3)
    ctx = group_algebra_context(g3, sub)
    extra = [ctx.coefficient(sub[1]), ctx.one_entry + rat(-3, 2) * ctx.coefficient(sub[1])]
    samples = _sparse_samples(ctx, extra) + [C.idempotent(ctx, 1), ctx.zero()]
    for a in samples:
        for b in samples:
            assert (a * b).mat == dense_product(a, b)
