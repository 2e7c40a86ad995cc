import itertools
from fractions import Fraction

import pytest

from srak import cherednik as CH
from srak import groups as G
from srak import sra as S
from srak.coeffs import ParamPoly, R0, R1, parse_rational, rat
from srak.selftest import tampered_cherednik

from conftest import S3_SPEC, WEYL_SPEC, pairwise_gram, reference_scan, unpacked


def test_build_rank_one(ch2):
    y, x = ch2.y(0), ch2.x(0)
    assert y * x - x * y == ch2.algebra.parse("t - 2*c1*s")
    ref = ch2.reflections[0]
    pair = sum((a * b for a, b in zip(ref.alpha, ref.alpha_vee)), R0)
    assert pair == rat(2)
    assert ref.eigenvalue == rat(-1)


def test_build_weyl():
    ch = CH.build_cherednik(WEYL_SPEC)
    assert ch.reflections == []
    com = ch.y(0) * ch.x(0) - ch.x(0) * ch.y(0)
    assert com == ch.algebra.param(0)


def test_build_s3_reflection_terms(ch3):
    # across the commutator table all three reflections contribute
    gids = set()
    for i in range(2):
        for j in range(2):
            com = ch3.y(i) * ch3.x(j) - ch3.x(j) * ch3.y(i)
            gids |= {g for (m, g) in com.coefficients() if g != 0}
    assert gids == set(ch3.rdata.reflections)
    assert len(gids) == 3


def test_alpha_data_invariants(ch3):
    for ref in ch3.reflections:
        pair = sum((a * b for a, b in zip(ref.alpha, ref.alpha_vee)), R0)
        assert pair == rat(2)
        assert ref.eigenvalue == rat(-1)
        # alpha spans the moving line on h*: s.alpha = -alpha
        hs = ch3.group.hstar_block(ref.gid)
        img = tuple(sum((hs[i][j] * ref.alpha[j] for j in range(ch3.h_dim)), R0) for i in range(ch3.h_dim))
        assert img == tuple(-a for a in ref.alpha)


def test_convention_factor(ch2, ch3):
    assert CH.convention_solve(ch2) == rat(-2)
    assert CH.convention_solve(ch3) == rat(-2)


def test_convention_factor_inconsistent_error():
    bad, _ = tampered_cherednik(S3_SPEC)
    with pytest.raises(CH.CherednikError, match="consistent"):
        CH.convention_solve(bad)


def test_convention_factor_no_reflections():
    ch = CH.build_cherednik(WEYL_SPEC)
    with pytest.raises(CH.CherednikError):
        CH.convention_solve(ch)


def test_euler_element(ch2, ch3):
    h2 = CH.euler_element(ch2)
    assert h2 == ch2.algebra.parse("x*y + 1/2 - c1*s")
    for ch in (ch2, ch3):
        h = CH.euler_element(ch)
        for i in range(ch.h_dim):
            cx = h.commutator(ch.x(i)).specialize(t=R1)
            cy = h.commutator(ch.y(i)).specialize(t=R1)
            assert cx == ch.x(i).specialize(t=R1)
            assert cy == (-ch.y(i)).specialize(t=R1)
    # trivial группа: the Weyl grading element
    chw = CH.build_cherednik(WEYL_SPEC)
    hw = CH.euler_element(chw)
    assert hw == chw.algebra.parse("x*y + 1/2")


def test_dunkl_examples(ch2):
    mod = CH.StandardModule(ch2)
    lowest = mod.monomial((0,))
    assert mod.lowering_basis(0, lowest) == {}
    dx = mod.lowering_basis(0, mod.monomial((1,)))
    assert unpacked(dx, ch2.nparams) == {((0,), 0): ch2.algebra.parse("t - 2*c1").coefficients()[((), 0)]}
    dx2 = mod.lowering_basis(0, mod.monomial((2,)))
    assert unpacked(dx2, ch2.nparams) == {((1,), 0): ParamPoly.var(ch2.nparams, 0, coeff=rat(2))}
    # t is the lowest field of a packed key and c1 the next; values are ints
    assert dx == {((0,), 0, 1): 1, ((0,), 0, 1 << S.PACK_BITS): -2}
    assert all(type(a) is int for a in dx2.values())


def test_dunkl_degree_drop(ch3):
    mod = CH.StandardModule(ch3)
    for e in [(2, 1), (0, 3), (1, 1)]:
        v = mod.monomial(e)
        for i in range(2):
            out = mod.lowering_basis(i, v)
            if out:
                assert mod.degree(out) == sum(e) - 1


def test_monomials_match_brute_force():
    for n in range(1, 5):
        for d in range(6):
            brute = sorted(e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d)
            assert S.monomials(n, d) == brute


def test_module_relations_and_commutativity(ch2, ch3):
    for ch in (ch2, ch3):
        rels = CH.module_relation_report(ch, 4)
        assert all(rels.values()), rels


def test_module_sign_is_forced(ch2):
    assert CH.solve_module_sign(ch2) == CH.MODULE_LOWERING_SIGN == -1


def test_euler_grading_on_module(ch2, ch3):
    # the grading element acts on degree-d vectors by (d + const) at t=1,
    # with the constant independent of d
    for ch in (ch2, ch3):
        mod = CH.StandardModule(ch)
        h = CH.euler_element(ch)
        consts = set()
        for d, e in [(0, (0,) * ch.h_dim), (1, (1,) + (0,) * (ch.h_dim - 1)), (2, (2,) + (0,) * (ch.h_dim - 1))]:
            v = mod.monomial(e)
            out = mod.zero()
            for (mono, g), p in h.specialize(t=R1).coefficients().items():
                w = dict(v)
                # apply right-to-left: group, then y's, then x's
                w = mod.act(g, w)
                for vi in reversed(mono):
                    if vi >= ch.h_dim:
                        w = mod.lowering_basis(vi - ch.h_dim, w)
                    else:
                        w = mod.mul_x(vi, w)
                # times the coefficient p: a parameter exponent is a key shift
                for pe, a in p.specialize({0: R1}).terms.items():
                    term = w
                    for pv, k in enumerate(pe):
                        for _ in range(k):
                            term = mod.mul_param(pv, term)
                    out = mod.add(out, mod.scale(term, a))
            # out = (d + const) v
            coeff = unpacked(out, ch.nparams).get((e, 0), ParamPoly.zero(ch.nparams)).specialize({0: R1})
            consts.add((coeff - ParamPoly.const(ch.nparams, rat(d))).to_str())
        assert len(consts) == 1


def test_gram_product_formula_rank_one(ch2):
    # independent oracle: B_d = prod_{k=1..d} (k - 2c [k odd])
    c = ParamPoly.var(2, 1)
    for d in range(9):
        expect = ParamPoly.one(2)
        for k in range(1, d + 1):
            term = ParamPoly.const(2, rat(k)) - (2 * c if k % 2 == 1 else ParamPoly.zero(2))
            expect = expect * term
        monos, rows = CH.contravariant_gram(ch2, d)
        assert len(rows) == 1
        assert rows[0][0] == expect


def test_gram_b0_and_singular_vector(ch2):
    _, rows = CH.contravariant_gram(ch2, 0)
    assert rows[0][0] == ParamPoly.one(2)
    _, rows1 = CH.contravariant_gram(ch2, 1, c_values=[rat(1, 2)])
    assert rows1[0][0] == ParamPoly.zero(2)


def _assert_tower_matches(ch, cutoff, c_values=None, tau=None):
    assert len(CH.packed_gram_tower(ch, cutoff, c_values=c_values, tau=tau)) == cutoff + 1
    for d in range(cutoff + 1):
        assert CH.contravariant_gram(ch, d, c_values=c_values, tau=tau) == pairwise_gram(ch, d, c_values=c_values, tau=tau), d


@pytest.mark.parametrize("weight", ["trivial", "determinant"])
def test_gram_tower_matches_pairwise(ch2, ch3, weight):
    # symbolic entries, both one-dimensional lowest weights
    for ch in (ch2, ch3):
        tau = CH.determinant_character(ch) if weight == "determinant" else None
        _assert_tower_matches(ch, 6, tau=tau)


def test_gram_tower_matches_pairwise_specialized(ch3):
    for c in (rat(1, 3), rat(2, 5)):
        _assert_tower_matches(ch3, 5, c_values=[c])
        _assert_tower_matches(ch3, 5, c_values=[c], tau=CH.determinant_character(ch3))


def test_gram_tower_matches_pairwise_s4():
    ch4 = CH.build_cherednik({"builtin": {"type": "symmetric", "n": 4, "rep": "reflection"}})
    _assert_tower_matches(ch4, 4)
    # specialized before the products, on both weights
    _assert_tower_matches(ch4, 4, c_values=[rat(1, 4)])
    _assert_tower_matches(ch4, 4, c_values=[rat(-2, 3)], tau=CH.determinant_character(ch4))


def test_gram_tower_keeps_operator_order(ch3):
    # dropping one reflection from the lowering operators makes them fail to
    # commute; the lowest-index peel still applies them in the per-pair order
    skew = CH.CherednikAlgebra(ch3.group, ch3.rdata, ch3.reflections[1:], ch3.algebra)
    assert not CH.module_relation_report(skew, 2)["y_commute"]
    _assert_tower_matches(skew, 4)


def test_scan_lowering_count(ch3, monkeypatch):
    # the tower applies n * dim_d lowering operators per degree and weight:
    # 2 * (2 + 3 + ... + 9) = 88 for each of the two weights at cutoff 8
    calls = []
    inner = CH.StandardModule.lowering_basis

    def counting(self, i, u):
        calls.append(i)
        return inner(self, i, u)

    monkeypatch.setattr(CH.StandardModule, "lowering_basis", counting)
    counts = []
    for _ in range(2):
        calls.clear()
        CH.finite_dim_scan(ch3, ["1/3"], 8)
        counts.append(len(calls))
    assert counts == [176, 176]


def test_gram_kernel_vectors_are_singular(ch2, ch3):
    # at the first degenerate degree the kernel really consists of
    # singular vectors: annihilated by every lowering operator
    for ch, c, first in [(ch2, rat(1, 2), 1), (ch2, rat(3, 2), 3), (ch3, rat(1, 3), 1)]:
        spec = {0: R1, 1: c}
        mod = CH.StandardModule(ch)
        kern = CH.gram_kernel_vectors(ch, first, [c])
        assert kern
        for vec in kern:
            # constant coefficients: every packed key is 0
            assert vec and all(key == 0 for (_, _, key) in vec)
            for i in range(ch.h_dim):
                out = unpacked(mod.lowering_basis(i, vec), ch.nparams)
                assert not any(p.specialize(spec) for p in out.values())


def test_gram_kernel_is_lowering_stable(ch2, ch3):
    # in general the kernel is the degree slice of the radical submodule:
    # lowering maps ker(B_d) into ker(B_{d-1})
    from srak import linalg

    for ch, c in [(ch2, rat(1, 2)), (ch3, rat(1, 3))]:
        spec = {0: R1, 1: c}
        mod = CH.StandardModule(ch)
        for d in range(2, 5):
            kern_d = CH.gram_kernel_vectors(ch, d, [c])
            monos_prev, rows_prev = CH.contravariant_gram(ch, d - 1, c_values=[c])
            prev_kernel = CH.gram_kernel_vectors(ch, d - 1, [c])
            # coordinates of the previous kernel span
            idx = {m: k for k, m in enumerate(monos_prev)}
            span = linalg.RankTracker()
            for vec in prev_kernel:
                coords = [R0] * len(monos_prev)
                for (e, _), p in unpacked(vec, ch.nparams).items():
                    coords[idx[e]] = p.specialize(spec).const_value()
                span.add(coords)
            for vec in kern_d:
                for i in range(ch.h_dim):
                    out = unpacked(mod.lowering_basis(i, vec), ch.nparams)
                    coords = [R0] * len(monos_prev)
                    for (e, _), p in out.items():
                        val = p.specialize(spec).const_value()
                        if val:
                            coords[idx[e]] = val
                    if any(coords):
                        assert not span.reduce(coords)


def test_scan_n2_iff_half_integers(ch2):
    cs = ["1/2", "-1/2", "3/2", "-3/2", "5/2", "-5/2", "1/3", "-1/3", "1/4", "-1/4", "2/3", "-2/3"]
    scan = CH.finite_dim_scan(ch2, cs, 8)
    for res in scan:
        c = parse_rational(res["c"])
        half_integer = (2 * c) == int(2 * c) and c != int(c)
        if half_integer:
            assert res["verdict"] == "finite"
        else:
            assert res["verdict"] != "finite"
    dims = {res["c"]: res.get("dim") for res in scan}
    assert dims["1/2"] == 1 and dims["3/2"] == 3 and dims["5/2"] == 5


def test_scan_negative_half_integers_dims(ch2):
    scan = CH.finite_dim_scan(ch2, ["-1/2", "-3/2"], 8)
    assert all(r["verdict"] == "finite" for r in scan)


def test_scan_n3(ch3):
    scan = CH.finite_dim_scan(ch3, ["1/3", "1/2", "1/4"], 8)
    assert scan[0]["verdict"] == "finite" and scan[0]["dim"] == 1
    assert scan[1]["verdict"] != "finite"
    assert scan[2]["verdict"] != "finite"


# the c-list pool of the S3 scan benchmark: +-p/q for p <= 8, q <= 6
S3_SCAN_POOL = sorted({Fraction(s * p, q) for s in (1, -1) for p in range(1, 9) for q in range(1, 7)})


@pytest.mark.parametrize(
    "n, cutoff, cs",
    [
        (2, 8, ["1/2", "-1/2", "3/2", "-3/2", "5/2", "-5/2", "7/2", "-7/2", "0", "1", "-2", "1/3", "-3/4", "9/2"]),
        (3, 8, S3_SCAN_POOL),
        (4, 5, ["1/4", "-1/3", "1/2", "3/4", "2/5"]),
    ],
)
def test_scan_matches_per_value_reference(request, n, cutoff, cs):
    # one integer matrix per c against specializing every entry and
    # ranking over Fraction: profiles on both weights and verdicts agree
    ch = request.getfixturevalue("ch%d" % n)
    if n == 3:
        assert len(cs) == 64
    assert CH.finite_dim_scan(ch, cs, cutoff) == reference_scan(ch, cs, cutoff)


def test_scan_values_build_no_param_poly(ch3, monkeypatch):
    # the Dunkl lowering, the towers, the per-value ranks and the module's
    # relation checks all run on packed maps
    def refuse(*args, **kwargs):
        raise AssertionError("a parameter polynomial was built on the packed path")

    monkeypatch.setattr(ParamPoly, "specialize", refuse)
    monkeypatch.setattr(ParamPoly, "__init__", refuse)
    grams = CH.scan_grams(ch3, 8)
    got = [CH.scan_one(grams, 8, Fraction(c)) for c in ("1/3", "-2/3", "1/2", "5/4", "7")]
    rels = [CH.module_relation_report(ch3, 3, tau=tau) for tau in (None, CH.determinant_character(ch3))]
    sign = CH.solve_module_sign(ch3)
    monkeypatch.undo()
    assert got == reference_scan(ch3, ["1/3", "-2/3", "1/2", "5/4", "7"], 8)
    assert all(all(r.values()) for r in rels), rels
    assert sign == CH.MODULE_LOWERING_SIGN


def _evaluated_rank(rows, c):
    """Rank of a packed one-orbit matrix evaluated at c over Fraction."""
    from srak import linalg

    num = [[sum((a * c**k for k, a in row.get(j, {}).items()), Fraction(0)) for j in range(len(rows))] for row in rows]
    return linalg.rank(num, len(rows))


def test_scan_clears_fraction_denominators():
    # a hand-built packed tower whose values have denominators, so the
    # integer matrix needs its lcm L; keys are exponents of c
    half, third = Fraction(1, 2), Fraction(1, 3)
    grams = {
        "trivial": [
            [{0: {0: 1}}],
            [{0: {0: half, 1: -third}}],  # 1/2 - c/3, zero at c = 3/2
            [{0: {1: half}, 1: {0: third}}, {0: {0: Fraction(3, 4)}, 1: {1: 2}}],  # det c^2 - 1/4
        ],
        "determinant": [
            [{0: {0: 1}}],
            [{0: {2: Fraction(2, 7), 0: Fraction(-1, 14)}}],  # zero at c = +-1/2
            [{0: {0: half, 1: third}, 1: {0: 1, 1: Fraction(2, 3)}}, {}],  # rank 1 everywhere
        ],
    }
    cs = [Fraction(3, 2), Fraction(1, 2), Fraction(-1, 2), Fraction(1), Fraction(0), Fraction(2, 5)]
    for c in cs:
        got = CH.scan_one(grams, 2, c)
        for name, tower in grams.items():
            assert got["profiles"][name] == [_evaluated_rank(rows, c) for rows in tower], (name, c)
    assert CH.scan_one(grams, 2, Fraction(1, 2))["profiles"] == {"trivial": [1, 1, 1], "determinant": [1, 0, 1]}
    assert CH.scan_one(grams, 2, Fraction(3, 2))["profiles"]["trivial"] == [1, 0, 2]


def test_cutoff_0_profiles_are_inconclusive(ch2, ch3):
    # the degree-0 rank is 1 at every c, finite (1/2) and infinite (1/4) alike
    for ch in (ch2, ch3):
        for r in CH.finite_dim_scan(ch, ["1/2", "1/4", "-1/2"], 0):
            assert r["verdict"] == "inconclusive"
            assert r["profiles"] == {"trivial": [1], "determinant": [1]}
    assert CH.finite_dim_scan(ch2, ["1/2"], 1)[0]["verdict"] == "finite"


def test_scan_rejects_bad_input_before_any_gram(ch2, monkeypatch):
    def no_lowering(*args):
        raise AssertionError("a pairing matrix was built for rejected input")

    monkeypatch.setattr(CH.StandardModule, "lowering_basis", no_lowering)
    with pytest.raises(CH.CherednikError, match="non-negative"):
        CH.finite_dim_scan(ch2, ["1/2"], -1)
    with pytest.raises(CH.CherednikError, match="names no parameter"):
        CH.finite_dim_scan(ch2, [], 3)
    with pytest.raises(CH.CherednikError, match="non-negative"):
        CH.type_a_report(3, "1/2", slice_cutoff=-1)
    with pytest.raises(CH.CherednikError, match="decides nothing"):
        CH.type_a_report(5, "1/2", slice_cutoff=0)
    with pytest.raises(CH.CherednikError, match="non-negative"):
        CH.contravariant_gram(ch2, -1)


def test_type_a_reports():
    r = CH.type_a_report(5, rat(1, 2))
    assert not r["simple"]
    assert r["ideal_count"] == 2
    assert [e["subgroup"] for e in r["ideal_chain"]] == ["S2", "S2 x S2"]
    assert r["slice_has_finite_dim_module"]
    r = CH.type_a_report(4, rat(1, 4))
    assert not r["simple"] and r["ideal_count"] == 1
    assert [e["subgroup"] for e in r["ideal_chain"]] == ["S4"]
    r = CH.type_a_report(3, rat(2, 7))
    assert r["simple"]
    r = CH.type_a_report(3, R0)
    assert r["simple"]


def test_leaf_support_labels():
    lab = CH.leaf_support_label(5, 2, 0)
    assert lab["dimension"] == 8
    lab = CH.leaf_support_label(5, 2, 2)
    assert lab["dimension"] == 4
    assert lab["subgroup"] == "S2 x S2"
    lab = CH.leaf_support_label(4, 4, 1)
    assert lab["dimension"] == 0
    with pytest.raises(CH.CherednikError):
        CH.leaf_support_label(5, 2, 3)
    with pytest.raises(CH.CherednikError):
        CH.leaf_support_label(5, 0, 1)


def test_tau_representation_validation(ch2):
    # sign representation of the rank-one group
    tau = {0: [[R1]], 1: [[rat(-1)]]}
    mod = CH.StandardModule(ch2, tau=tau)
    rels = CH.module_relation_report(ch2, 3, tau=tau)
    assert all(rels.values())
    bad = {0: [[R1]], 1: [[rat(2)]]}
    with pytest.raises(CH.CherednikError):
        CH.StandardModule(ch2, tau=bad)


def test_tau_validation_refuses_the_zero_map(ch3):
    # tau = 0 satisfies tau(g) tau(h) = tau(gh) but is no representation
    with pytest.raises(CH.CherednikError):
        CH.StandardModule(ch3, tau={g: ((0,),) for g in range(ch3.group.order)})
    transpositions = G.symplectic_reflections(ch3.group).reflections
    sign = {g: ((rat(-1) if g in transpositions else R1,),) for g in range(6)}
    CH.StandardModule(ch3, tau=sign)
    swapped = dict(sign)
    swapped[0], swapped[1] = sign[1], sign[0]
    with pytest.raises(CH.CherednikError):
        CH.StandardModule(ch3, tau=swapped)


def test_tau_validation_refuses_misshapen_matrices(ch3):
    # a 1x2 "matrix" satisfies every product check that zip truncates
    with pytest.raises(CH.CherednikError, match="square"):
        CH.StandardModule(ch3, tau={g: ((1, 0),) for g in range(6)})
    # square but of two sizes: the identity and a 2x2 block elsewhere
    mixed = {g: ((1,),) for g in range(6)}
    mixed[1] = ((1, 0), (0, 1))
    with pytest.raises(CH.CherednikError, match="square"):
        CH.StandardModule(ch3, tau=mixed)
    with pytest.raises(CH.CherednikError, match="square"):
        CH.StandardModule(ch3, tau={g: () for g in range(6)})
