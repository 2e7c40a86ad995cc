import copy
import json
import math

import pytest

from srak import centralizer as C
from srak import cli
from srak import cherednik as CH
from srak import completion as CP
from srak import groups as G
from srak import sra as S
from srak.coeffs import ParamPoly, R0, R1, rat
from srak.selftest import tampered_cherednik, tampered_s3

from conftest import (
    S3_SPEC,
    S4_SPEC,
    WEYL_SPEC,
    dense_product,
    exhaustive_relations,
    reference_telt_product,
    tampered_iso,
)


def test_geometric_inverse(ch2):
    iso = CP.completion_iso(ch2, [R1], 6)
    talg = iso.talg
    for ref in ch2.reflections:
        bconst = sum((bb * aa for bb, aa in zip(iso.b, ref.alpha)), R0)
        series = talg.geometric_inverse(bconst, ref.alpha)
        denom = talg.x_linear(ref.alpha, bconst)
        assert (series * denom).eq_mod(talg.one())
        assert (denom * series).eq_mod(talg.one())


def test_geometric_inverse_needs_unit():
    ch2 = CH.build_cherednik({"builtin": {"type": "symmetric", "n": 2, "rep": "reflection"}})
    iso = CP.completion_iso(ch2, [R1], 4)
    with pytest.raises(CP.CompletionError):
        iso.talg.geometric_inverse(R0, [R1])


def test_rank1_iso_frozen_matrices(ch2):
    # hand-derived images at truncation order 3, base point 1:
    #   x -> diag(X + 1, -X - 1),  s -> antidiagonal ones,
    #   y -> [[Y - cS, cS], [-cS, -Y + cS]] with S = 1 - X + X^2
    iso = CP.completion_iso(ch2, [R1], 3)
    talg = iso.talg
    alg = talg.algebra
    X, Y = alg.gen(0), alg.gen(alg.x_count)
    c = ParamPoly.var(alg.nparams, 1)
    series = alg.one() - X + alg.multiply(X, X)
    expect_y = [
        [Y - series.scale(c), series.scale(c)],
        [-series.scale(c), -Y + series.scale(c)],
    ]
    for i in range(2):
        for j in range(2):
            assert iso.y_images[0].mat[i][j].value == expect_y[i][j]
    assert iso.x_images[0].mat[0][0].value == X + alg.one()
    assert iso.x_images[0].mat[1][1].value == -X - alg.one()
    assert not iso.x_images[0].mat[0][1].value and not iso.x_images[0].mat[1][0].value
    sm = iso.w_images[1]
    assert not sm.mat[0][0].value and not sm.mat[1][1].value
    assert sm.mat[0][1].value == alg.one() and sm.mat[1][0].value == alg.one()


def test_rank1_verify_order6(ch2):
    iso = CP.completion_iso(ch2, [R1], 6)
    rep = CP.verify_homomorphism(iso)
    assert rep["all_pass"], rep
    assert rep["order_checked"] == 5
    base = CP.mod_param_baseline(iso)
    assert base["pass"], base
    eq = CP.equivariance_check(iso)
    assert eq["pass"], eq


def test_rank2_verify_order4(ch3):
    iso = CP.completion_iso(ch3, [rat(2), rat(1)], 4)
    assert len(iso.sub_ids) == 2
    rep = CP.verify_homomorphism(iso)
    assert rep["all_pass"], rep
    base = CP.mod_param_baseline(iso)
    assert base["pass"], base
    eq = CP.equivariance_check(iso)
    assert eq["pass"], eq
    # the lowering image has exactly two off-stabilizer reflection terms
    outside = [r for r in ch3.reflections if r.gid not in set(iso.sub_ids)]
    assert len(outside) == 2


def test_full_stabilizer_is_identity_presentation(ch2):
    # base point 0: the stabilizer is everything and the images are the
    # generators themselves in one-by-one matrices
    iso = CP.completion_iso(ch2, [R0], 4)
    assert iso.ctx.k == 1
    alg = iso.talg.algebra
    assert iso.x_images[0].mat[0][0].value == alg.gen(0)
    assert iso.y_images[0].mat[0][0].value == alg.gen(alg.x_count)
    for g in range(2):
        assert iso.w_images[g].mat[0][0].value == alg.group_elt(g)
    rep = CP.verify_homomorphism(iso)
    assert rep["all_pass"]


def test_wrong_dimension_base_point(ch2):
    with pytest.raises(CP.CompletionError):
        CP.completion_iso(ch2, [R1, R0], 4)


def test_baseline_x_images_parameter_free(ch2, ch3):
    for ch, b in [(ch2, [R1]), (ch3, [rat(2), rat(1)])]:
        iso = CP.completion_iso(ch, b, 4)
        base = CP.mod_param_baseline(iso)
        assert base["x_parameter_free"]
        assert base["x_match"] and base["y_match"] and base["w_match"]
        # the deviation of the lowering image from its baseline carries a
        # parameter factor in every coefficient
        basemats = CP.parameter_free_baseline(iso)
        for j in range(ch.h_dim):
            diff = iso.y_images[j] - basemats["y"][j]
            for row in diff.mat:
                for e in row:
                    for (_m, _g), p in e.value.coefficients().items():
                        assert all(sum(exp) >= 1 for exp in p.terms)


def test_equivariance_weights(ch3):
    iso = CP.completion_iso(ch3, [rat(2), rat(1)], 4)
    eq = CP.equivariance_check(iso)
    assert eq["x_weight0"] and eq["w_weight0"] and eq["y_weight1"]


def test_truncation_coherence(ch2, ch3):
    for ch, b, hi, lo in [(ch2, [R1], 6, 3), (ch3, [rat(2), rat(1)], 4, 3)]:
        iso_hi = CP.completion_iso(ch, b, hi)
        iso_lo = CP.completion_iso(ch, b, lo)
        for j in range(ch.h_dim):
            for i in range(iso_hi.ctx.k):
                for k in range(iso_hi.ctx.k):
                    a = iso_hi.y_images[j].mat[i][k]
                    bb = iso_lo.y_images[j].mat[i][k]
                    # distinct builds carry distinct algebra instances;
                    # compare the raw normal forms
                    assert a.value.truncate_x(lo).terms == bb.value.truncate_x(lo).terms
        # relation results agree after reduction
        rep_lo = CP.verify_homomorphism(iso_lo)
        assert rep_lo["all_pass"]


def test_matrix_unit_relations_over_truncated_coefficients(ch3):
    iso = CP.completion_iso(ch3, [rat(2), rat(1)], 3)
    ctx = iso.ctx
    grp = ch3.group
    one = ctx.one()
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
    assert total == one
    for g in range(grp.order):
        ge, gi = C.embed_group(ctx, g), C.embed_group(ctx, grp.inv[g])
        assert ge * gi == one
        for x in range(ctx.k):
            assert ge * C.idempotent(ctx, x) * gi == C.idempotent(ctx, ctx.coset_act(x, grp.inv[g]))


def test_zero_params_reduces_to_polynomial_baseline(ch2):
    # with every parameter OFF the map is polynomial: no truncation loss
    iso = CP.completion_iso(ch2, [R1], 5)
    zero = {"t": R0, "c": [R0]}
    for j in range(ch2.h_dim):
        m = iso.y_images[j]
        for row in m.mat:
            for e in row:
                sp = e.specialize(t=R0, c=[R0])
                assert sp.value.xdegree() <= 1  # purely polynomial entries


def test_zero_parameter_map_is_polynomial_exact(ch2, ch3):
    # with every parameter off, the map is polynomial: the commutative
    # relations hold exactly, with no truncation debt in the entries
    for ch, b in [(ch2, [R1]), (ch3, [rat(2), rat(1)])]:
        iso = CP.completion_iso(ch, b, 4)
        n = ch.h_dim
        nzero = [R0] * (ch.nparams - 1)
        for i in range(n):
            for j in range(n):
                xi = iso.x_images[i]
                yj = C.CentralizerElement(
                    iso.ctx,
                    tuple(tuple(e.specialize(t=R0, c=nzero) for e in row) for row in iso.y_images[j].mat),
                )
                comm = yj * xi - xi * yj
                for row in comm.mat:
                    for e in row:
                        # exact zero after killing the parameters: the
                        # parameter-free map is polynomial, no truncation debt
                        assert not e.specialize(t=R0, c=nzero).value


def test_mutation_breaks_completion(ch3):
    b = [rat(2), rat(1)]
    sub = set(G.stabilizer(ch3.group, tuple(b) + (R0, R0)))
    s_star = next(s for s in ch3.rdata.reflections if s in sub)
    bad_ch, _ = tampered_cherednik(S3_SPEC, s_star)
    iso = CP.completion_iso_with_mu(bad_ch, b, 3, rat(-2))
    rep = CP.verify_homomorphism(iso)
    assert not rep["all_pass"]
    assert not rep["relations"]["y_x_commutator"]["pass"]


def _short_series(monkeypatch):
    """Cut every geometric series to two terms, honestly truncated at
    order 2, whatever the working order."""
    series = CP.TruncatedAlgebra.geometric_inverse
    monkeypatch.setattr(
        CP.TruncatedAlgebra, "geometric_inverse", lambda self, const, coeffs, order=None: series(self, const, coeffs, 2)
    )


@pytest.mark.parametrize("group, b, order", [("symmetric:3:reflection", "2,1", 4), ("symmetric:4:reflection", "1,-1,2", 3)])
def test_short_series_fails_be_iso_verify(group, b, order, monkeypatch, capsys):
    # every relation holds modulo the order the short series reaches, so
    # only the order check can refuse this mutant
    argv = ["be-iso", "verify", "--group", group, "--b=" + b, "--order", str(order)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    _short_series(monkeypatch)
    assert cli.main(argv) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    failures = [c["data"]["first_failure"] for c in checks.values() if c["verdict"] == "fail"]
    assert failures and all(f["order_reached"] < order - 1 for f in failures), failures
    assert checks["order_checked"]["data"]["order"] == order - 1


def _order_key(telt):
    return float("inf") if telt.order is None else telt.order


def test_sparse_product_over_truncated_coefficients(ch3):
    iso = CP.completion_iso(ch3, [rat(2), rat(1)], 4)
    samples = list(iso.w_images.values()) + iso.x_images + iso.y_images
    samples.append(iso.y_images[0] * iso.x_images[1])
    for a in samples:
        for b in samples:
            sparse = (a * b).mat
            dense = dense_product(a, b)
            for r1, r2 in zip(sparse, dense):
                for x, y in zip(r1, r2):
                    assert x.eq_mod(y)
                    assert _order_key(x) >= _order_key(y)


def test_sparse_product_exact_and_truncated_zeros(ch3):
    iso = CP.completion_iso(ch3, [rat(2), rat(1)], 4)
    ctx, talg = iso.ctx, iso.talg
    y = iso.y_images[0]
    assert any(e.order is not None for row in y.mat for e in row)
    # an exact zero times truncated entries stays an exact zero
    for row in (ctx.zero() * y).mat:
        for e in row:
            assert not e
    # a zero that is only known modulo order 3 is not skipped: the y-degree
    # of each partner entry is debited from its order
    debt = CP.TElt(talg, talg.algebra.zero(), 3)
    assert debt == talg.zero() and debt
    rows = [[talg.zero()] * ctx.k for _ in range(ctx.k)]
    rows[0][0] = debt
    prod = ctx.from_matrix(rows) * y
    dense = dense_product(ctx.from_matrix(rows), y)
    debited = 0
    for j, e in enumerate(prod.mat[0]):
        partner = y.mat[0][j]
        if not partner:
            assert not e
            continue
        expected = 3 - partner.value.ydegree()
        if partner.order is not None:
            expected = min(expected, partner.order)
        assert not e.value and e
        assert e.order == expected == dense[0][j].order
        debited += expected < 3
    assert debited


def test_verify_product_count(ch3, monkeypatch):
    # a count, not a time: it repeats exactly, so a return to dense
    # coset-matrix products (2592 here) or to the |G|^2 group law (528)
    # shows without host noise
    iso = CP.completion_iso(ch3, [rat(2), rat(1)], 4)
    mul = CP.TElt.__mul__
    calls = []

    def counted(a, b):
        calls.append(None)
        return mul(a, b)

    monkeypatch.setattr(CP.TElt, "__mul__", counted)
    counts = []
    for _ in range(2):
        calls.clear()
        assert CP.verify_homomorphism(iso)["all_pass"]
        counts.append(len(calls))
    assert counts[0] == counts[1] == 264


def test_verify_matrix_product_count_s4(ch4, monkeypatch):
    # n = 3 and |S| = 3: 24 * 3 Cayley edges, 3 * 3 * 4 conjugation
    # products, 3 * 4 commute and 9 * 2 commutator products, whatever k is
    mul = C.CentralizerElement.__mul__
    calls = []

    def counted(a, b):
        calls.append(None)
        return mul(a, b)

    isos = [CP.completion_iso(ch4, b, 2) for b in ([rat(2), R1, R1], [R1, rat(-1), rat(2)], [R1, rat(2), R1])]
    monkeypatch.setattr(C.CentralizerElement, "__mul__", counted)
    for iso in isos:
        calls.clear()
        assert CP.verify_homomorphism(iso)["all_pass"]
        assert len(calls) == 138


CONJUGATION = ("w_x_conjugation", "w_y_conjugation")
COORDINATE_RELATIONS = ("x_commute", "y_commute", "y_x_commutator")


def assert_matches_exhaustive(iso):
    """verify_homomorphism against the |G|^2 reference: the same verdicts
    on the coordinate relations; when w_e = 1, the same group-law verdict
    and the same overall verdict; when the group law passes, the same
    conjugation verdicts.  Returns (verdicts, reference verdicts)."""
    rep = CP.verify_homomorphism(iso)
    got = {k: v["pass"] for k, v in rep["relations"].items()}
    ref = exhaustive_relations(iso)
    assert set(got) == set(ref)
    for name in COORDINATE_RELATIONS:
        assert got[name] == ref[name], name
    if CP._matrices_agree(iso.w_images[0], iso.ctx.one(), None)[0]:
        assert got["group_multiplicativity"] == ref["group_multiplicativity"]
        assert rep["all_pass"] == all(ref.values())
    if got["group_multiplicativity"]:
        for name in CONJUGATION:
            assert got[name] == ref[name], name
    if rep["all_pass"]:
        assert all(v["first_failure"] is None for v in rep["relations"].values())
    return got, ref


def test_generator_check_matches_exhaustive(ch2, ch3, ch4):
    for ch, b, order in [
        (ch2, [R1], 5),
        (ch3, [rat(2), R1], 4),
        (ch4, [rat(2), R1, R1], 3),
        (ch4, [R1, rat(-1), rat(2)], 3),
    ]:
        got, ref = assert_matches_exhaustive(CP.completion_iso(ch, b, order))
        assert all(got.values()) and all(ref.values())
    # the trivial group has no generators; every relation is still reported
    weyl = CH.build_cherednik(WEYL_SPEC)
    got, ref = assert_matches_exhaustive(CP.completion_iso_with_mu(weyl, [R1], 3, rat(-2)))
    assert all(got.values()) and all(ref.values())


def test_generator_check_matches_exhaustive_on_tampered_builds(ch4):
    bad_ch, _, b = tampered_s3()
    got, _ = assert_matches_exhaustive(CP.completion_iso_with_mu(bad_ch, b, 3, rat(-2)))
    assert not all(got.values())
    got, _ = assert_matches_exhaustive(tampered_iso(ch4, S4_SPEC, [R1, rat(-1), rat(2)], 3))
    assert not got["y_commute"] and not got["y_x_commutator"]


def _mutant(iso, w_images=None, y_images=None):
    out = copy.copy(iso)
    out.w_images = dict(iso.w_images) if w_images is None else w_images
    out.y_images = list(iso.y_images) if y_images is None else y_images
    return out


def _mutants(iso):
    """Mutants of an S3 iso that the generator check must refuse: two
    group images swapped, a wrong unit, a skewed y image and w = 0."""
    grp = iso.ch.group
    g, h = [x for x in range(1, grp.order) if x not in grp.generator_ids][:2]
    swapped = _mutant(iso)
    swapped.w_images[g], swapped.w_images[h] = iso.w_images[h], iso.w_images[g]
    wrong_unit = _mutant(iso)
    wrong_unit.w_images[0] = iso.w_images[g]
    rows = [list(row) for row in iso.y_images[0].mat]
    rows[0][0] = rows[0][0] + iso.talg.one()
    skewed = _mutant(iso, y_images=[iso.ctx.from_matrix(rows)] + iso.y_images[1:])
    zero = _mutant(iso, w_images={x: iso.ctx.zero() for x in range(grp.order)})
    return {"swapped": swapped, "wrong_unit": wrong_unit, "skewed": skewed, "zero": zero}


def test_generator_check_refuses_mutants(ch3):
    mutants = _mutants(CP.completion_iso(ch3, [rat(2), R1], 3))

    got, ref = assert_matches_exhaustive(mutants["swapped"])
    assert not got["group_multiplicativity"] and not ref["group_multiplicativity"]

    got, ref = assert_matches_exhaustive(mutants["wrong_unit"])
    assert not got["group_multiplicativity"] and not ref["group_multiplicativity"]

    got, ref = assert_matches_exhaustive(mutants["skewed"])
    assert got["group_multiplicativity"] and not got["w_y_conjugation"] and not ref["w_y_conjugation"]

    # w = 0 satisfies w_g w_h = w_gh for every pair, but it is no
    # homomorphism: the reference's group law passes it, this one does not
    got, ref = assert_matches_exhaustive(mutants["zero"])
    assert ref["group_multiplicativity"] and not got["group_multiplicativity"]


# -- the product memo ----------------------------------------------------------


def test_memo_reports_match_reference_product(ch3, ch4, monkeypatch):
    # failing builds, so that the first_failure strings are compared too
    bad_ch, _, b = tampered_s3()
    isos = {
        "tampered_s4": lambda: tampered_iso(ch4, S4_SPEC, [R1, rat(-1), rat(2)], 3),
        "tampered_s3": lambda: CP.completion_iso_with_mu(bad_ch, b, 3, rat(-2)),
    }
    for name in ("swapped", "wrong_unit", "skewed", "zero"):
        isos[name] = lambda name=name: _mutants(CP.completion_iso(ch3, [rat(2), R1], 3))[name]
    for name, build in isos.items():
        with monkeypatch.context() as m:
            m.setattr(CP.TElt, "__mul__", reference_telt_product)
            ref = CP.verify_homomorphism(build())
        got = CP.verify_homomorphism(build())
        assert got == ref, name
        assert not got["all_pass"], name
        assert any(v["first_failure"] for v in got["relations"].values()), name


def _same_product(a, b):
    got, ref = a * b, reference_telt_product(a, b)
    assert got.value == ref.value and got.order == ref.order
    # a memo answer shares the memo's primitive: rescaling copies nothing
    assert got.elt is got.parent._prims[got.pid][0]
    return got


def test_memo_products_of_scalar_multiples(ch3):
    iso = CP.completion_iso(ch3, [rat(2), rat(1)], 4)
    talg = iso.talg
    y = [e for row in iso.y_images[0].mat for e in row if e.value and e.order is not None]
    x = [e for row in iso.x_images[1].mat for e in row if e.value]
    w = [e for row in iso.w_images[1].mat for e in row if e.value]
    factors = y[:2] + x[:1] + w[:1] + [talg.y_gen(0), talg.one()]
    scalars = [R1, rat(-1), rat(-3, 2), rat(2, 7), rat(6)]
    for a in factors:
        for b in factors:
            _same_product(a, b)
    # every scalar multiple of a computed pair is answered from the memo
    memo_size = len(talg._products)
    for a in factors:
        for b in factors:
            for la in scalars:
                for lb in scalars[::-1]:
                    _same_product(CP.TElt(talg, a.value.scale(la), a.order), CP.TElt(talg, b.value.scale(lb), b.order))
    assert len(talg._products) == memo_size
    # zero and truncated-zero operands, on either side
    for z in (talg.zero(), CP.TElt(talg, talg.algebra.zero(), 3), CP.TElt(talg, talg.algebra.zero(), 2)):
        for a in factors:
            assert not _same_product(z, a).value and not _same_product(a, z).value
    # equal values at different orders: the memo is keyed by the effective order
    for a in y:
        for b in factors:
            for o in (2, 3, 4, None):
                _same_product(CP.TElt(talg, a.value, o), b)
                _same_product(b, CP.TElt(talg, a.value, o))


def _interned(talg, value, order):
    """A fresh element of that value, after its first use as a factor,
    which interns it."""
    e = CP.TElt(talg, value, order)
    assert e.pid is None
    e * talg.one()
    return e


def test_memo_interns_integral_primitives(ch3):
    iso = CP.completion_iso(ch3, [rat(2), rat(1)], 4)
    talg = iso.talg
    entries = [e for m in iso.y_images + iso.x_images for row in m.mat for e in row]
    for e in entries:
        f = _interned(talg, e.value, e.order)
        prim = talg._prims[f.pid][0]
        assert f.elt is prim and prim.scale(rat(*f.lam)) == e.value
        # integral in the PBW engine's u-variables, read off its flat map
        coeffs = list(prim.terms.values())
        assert all(type(c) is int for c in coeffs)
        if coeffs:
            assert math.gcd(*coeffs) == 1
            assert prim.terms[min(prim.terms)] > 0
            # a negative multiple interns to the same primitive
            g = _interned(talg, e.value.scale(rat(-5, 3)), e.order)
            assert g.pid == f.pid and rat(*g.lam) == rat(*f.lam) * rat(-5, 3)
        else:
            assert not f.value


def test_verify_multiply_count_s4(ch4, monkeypatch):
    # a count, not a time: each distinct product of primitives up to a
    # rational is multiplied once; unmemoized products make 5304 calls here
    iso = CP.completion_iso(ch4, [R1, rat(-1), rat(2)], 3)
    mul = S.SRAlgebra.multiply
    calls = []

    def counted(self, a, b, xcap=None):
        calls.append(None)
        return mul(self, a, b, xcap)

    monkeypatch.setattr(S.SRAlgebra, "multiply", counted)
    assert CP.verify_homomorphism(iso)["all_pass"]
    assert len(calls) == 512


def _arithmetic_samples(talg, iso):
    """S3 image entries and products of them, rational multiples, exact
    and truncated zeros, and copies at lower orders."""

    def nonzero(m, count):
        return [e for row in m.mat for e in row if e.elt.terms][:count]

    samples = nonzero(iso.w_images[1], 2) + nonzero(iso.x_images[0], 2) + nonzero(iso.y_images[0], 3)
    samples += nonzero(iso.y_images[0] * iso.y_images[1], 3)
    samples += [CP.TElt(talg, e.value, o) for e in samples[3:7] for o in (2, 3)]
    samples += [samples[4] * rat(6), samples[6] * rat(-3, 2)]  # numerators with a common factor
    zero = talg.algebra.zero()
    return samples + [talg.zero(), CP.TElt(talg, zero, 3), CP.TElt(talg, zero, 2)]


def _sum_order(a, b):
    return a.order if b.order is None else b.order if a.order is None else min(a.order, b.order)


def _truncated_value(value, order):
    return value if order is None else value.truncate_x(order)


def test_entry_arithmetic_matches_dense_reference(ch3):
    # +, -, negation, rational scaling, eq_mod and bool on the content form
    # against the same operations on the expanded rational values
    iso = CP.completion_iso(ch3, [rat(2), rat(1)], 4)
    talg = iso.talg
    samples = _arithmetic_samples(talg, iso)
    assert {e.order for e in samples} == {None, 2, 3, 4}
    assert any(e.lam[1] != 1 for e in samples)
    for a in samples:
        assert bool(a) == (a.order is not None or bool(a.value))
        assert (-a).value == -a.value and (-a).order == a.order
        for r in (R0, R1, rat(-1), rat(3, 2), rat(-2, 7), rat(6)):
            for scaled in (a * r, r * a):
                assert scaled.value == a.value.scale(r) and scaled.order == a.order
        for b in samples:
            o = _sum_order(a, b)
            total, diff = a + b, a - b
            assert total.order == diff.order == o
            assert total.value == _truncated_value(a.value + b.value, o)
            assert diff.value == _truncated_value(a.value - b.value, o)
            for order in (None, 1, 2, 3):
                cut = min(a._effective(), b._effective())
                if order is not None:
                    cut = min(cut, order)
                assert a.eq_mod(b, order) == (a.value.truncate_x(cut) == b.value.truncate_x(cut))
            assert (a == b) == a.eq_mod(b)
    # zero + y is y itself, and an exact cancellation is the shared zero
    for a in samples:
        assert talg.zero() + a is a and a + talg.zero() is a
        if a.order is None:
            assert a - a is talg.zero()


def test_memo_hits_copy_no_primitive(ch4, monkeypatch):
    # a memo answer rescales only its content: no product of two entries
    # calls SRAElement.scale (one call per memo hit with a content other
    # than 1 before entries were kept in content form)
    iso = CP.completion_iso(ch4, [R1, rat(-1), rat(2)], 3)
    mul, scale = CP.TElt.__mul__, S.SRAElement.scale
    inside, scaled, rescaled = [0], [], []

    def product(a, b):
        if not isinstance(b, CP.TElt):
            return mul(a, b)
        inside[0] += 1
        try:
            out = mul(a, b)
        finally:
            inside[0] -= 1
        if out.lam != (1, 1):
            rescaled.append(None)
        return out

    def counted_scale(self, c):
        if inside[0]:
            scaled.append(c)
        return scale(self, c)

    monkeypatch.setattr(CP.TElt, "__mul__", product)
    monkeypatch.setattr(S.SRAElement, "scale", counted_scale)
    assert CP.verify_homomorphism(iso)["all_pass"]
    assert len(rescaled) > 1000 and not scaled
