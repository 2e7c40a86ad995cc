"""Acceptance criteria, one test per criterion.

Every check is exact (zero tolerance, rational arithmetic); each test
prints its own pass/fail line with the elapsed time and asserts the
stated runtime budget.
"""

import sys
import time
from fractions import Fraction
from itertools import combinations, permutations

from srak import centralizer as C
from srak import cherednik as CH
from srak import completion as CP
from srak import groups as G
from srak import sra as S
from srak.coeffs import R0, R1, parse_rational, rat
from srak.selftest import associativity_suite, tampered_cherednik, tampered_reflection_data

from conftest import S3_SPEC, S4_SPEC, group_algebra_context, tampered_iso


LINES = []


class Criterion:
    def __init__(self, number, label, budget_seconds):
        self.number = number
        self.label = label
        self.budget = budget_seconds
        self.t0 = time.time()

    def finish(self, ok):
        elapsed = time.time() - self.t0
        line = "[%s] criterion %02d: %s (%.1fs / budget %ds)" % (
            "PASS" if ok else "FAIL",
            self.number,
            self.label,
            elapsed,
            self.budget,
        )
        LINES.append(line)
        print(line, file=sys.__stdout__, flush=True)
        assert ok, line
        assert elapsed <= self.budget, "budget exceeded: " + line


def test_criterion_01_pbw_flatness(ch2, ch3, omega_alg2, omega_alg3):
    cr = Criterion(1, "rewriting confluence and graded dimensions", 60)
    ok = associativity_suite(omega_alg2, 200) == 0
    ok = ok and associativity_suite(omega_alg3, 200, seed=771) == 0
    import math

    for alg in (ch2.algebra, ch3.algebra, omega_alg2, omega_alg3):
        for d in range(7):
            expect = math.comb(d + alg.nv - 1, alg.nv - 1) * alg.group.order
            ok = ok and S.pbw_dimension(alg, d) == expect
    cr.finish(ok)


def test_criterion_02_centralizer_identities(g2, g3):
    cr = Criterion(2, "coset-matrix identities, unit decomposition, smash count", 30)
    ok = True
    sub32 = G.stabilizer(g3, (rat(2), rat(1), R0, R0))
    for grp, sub in [(g3, sub32), (g3, [0]), (g2, [0, 1])]:
        ctx = group_algebra_context(grp, sub)
        total = ctx.zero()
        for x in range(ctx.k):
            e = C.idempotent(ctx, x)
            total = total + e
            for y in range(ctx.k):
                prod = C.idempotent(ctx, x) * C.idempotent(ctx, y)
                ok = ok and (prod == e if x == y else prod == ctx.zero())
        ok = ok and total == ctx.one()
        for g in range(grp.order):
            ge, gi = C.embed_group(ctx, g), C.embed_group(ctx, grp.inv[g])
            for x in range(ctx.k):
                ok = ok and ge * C.idempotent(ctx, x) * gi == C.idempotent(ctx, ctx.coset_act(x, grp.inv[g]))
        for h in ctx.sub_ids:
            a = ctx.coefficient(h)
            if not C.is_invariant(ctx, a):
                continue
            da = C.embed_invariant(ctx, a)
            for x in range(ctx.k):
                e = C.idempotent(ctx, x)
                ok = ok and da * e == e * da
        _, morita_ok = C.morita_witness(ctx)
        ok = ok and morita_ok
    # smash realization with A0 = Q over the group-algebra coefficients
    ctx = group_algebra_context(g3, sub32)
    ok = ok and ctx.k * g3.order == 18 == ctx.k * ctx.k * len(sub32)
    ok = ok and C.realization_rank(ctx) == 18
    for g in range(6):
        for h in range(6):
            ok = ok and C.embed_group(ctx, g) * C.embed_group(ctx, h) == C.embed_group(ctx, g3.mul(g, h))
        for i in range(ctx.k):
            lhs = C.embed_group(ctx, g) * C.idempotent(ctx, i) * C.embed_group(ctx, g3.inv[g])
            ok = ok and lhs == C.idempotent(ctx, ctx.coset_act(i, g3.inv[g]))
    cr.finish(ok)


def test_criterion_03_euler_element(ch2, ch3):
    cr = Criterion(3, "grading element commutators", 10)
    ok = True
    for ch in (ch2, ch3):
        h = CH.euler_element(ch)
        for i in range(ch.h_dim):
            cx = h.commutator(ch.x(i)).specialize(t=R1)
            cy = h.commutator(ch.y(i)).specialize(t=R1)
            ok = ok and cx == ch.x(i).specialize(t=R1)
            ok = ok and cy == (-ch.y(i)).specialize(t=R1)
    cr.finish(ok)


def test_criterion_04_module_relations(ch2, ch3):
    cr = Criterion(4, "lowering-operator module relations to degree 5", 120)
    ok = True
    for ch in (ch2, ch3):
        rels = CH.module_relation_report(ch, 5)
        ok = ok and all(rels.values())
    cr.finish(ok)


def test_criterion_05_rank1_scan(ch2):
    cr = Criterion(5, "rank-1 finite-dimensionality scan with product-formula oracle", 60)
    cs = ["1/2", "-1/2", "3/2", "-3/2", "5/2", "-5/2", "1/3", "-1/3", "1/4", "-1/4", "2/3", "-2/3"]
    scan = CH.finite_dim_scan(ch2, cs, 8)
    ok = True
    dims = {}
    for res in scan:
        c = parse_rational(res["c"])
        half_integer = (2 * c) == int(2 * c) and c != int(c)
        ok = ok and (res["verdict"] == "finite") == half_integer
        dims[res["c"]] = res.get("dim")
    ok = ok and dims["1/2"] == 1 and dims["3/2"] == 3 and dims["5/2"] == 5
    # independent oracle: B_d = prod_{k<=d} (k - 2c [k odd]); the quotient
    # dimension is the count of degrees before the first vanishing factor
    for cs_, want in [("1/2", 1), ("3/2", 3), ("5/2", 5)]:
        c = parse_rational(cs_)
        d, prod = 0, rat(1)
        while True:
            d += 1
            prod = prod * (rat(d) - 2 * c * (d % 2))
            if not prod:
                break
        ok = ok and d == want
    cr.finish(ok)


def test_criterion_06_rank2_scan(ch3):
    cr = Criterion(6, "rank-2 scan: finite only at 1/3", 600)
    scan = CH.finite_dim_scan(ch3, ["1/3", "1/2", "1/4"], 8)
    ok = scan[0]["verdict"] == "finite"
    ok = ok and scan[1]["verdict"] != "finite"
    ok = ok and scan[2]["verdict"] != "finite"
    cr.finish(ok)


def test_criterion_07_center(ch2):
    cr = Criterion(7, "t=0 center: graded dimensions and the coupled degree-2 element", 60)
    cb = S.center_basis(ch2.algebra, 4)
    ok = cb.graded_dims == [1, 0, 3, 0, 5]
    ok = ok and any(z.to_str() == "-c1*s + x*y" for z in cb.elements)
    ok = ok and all(S.recheck_central(ch2.algebra, z) for z in cb.elements)
    sat = S.satake_corner_check(ch2.algebra, cb.elements, 4)
    ok = ok and sat["spans_corner"]
    cr.finish(ok)


def test_criterion_08_poisson(ch2):
    cr = Criterion(8, "Poisson bracket: antisymmetry, Leibniz, Jacobi, classical tops", 120)
    alg = ch2.algebra
    cb = S.center_basis(alg, 4)
    zs = cb.elements
    ok = True

    def pb(a, b):
        return S.poisson_bracket(alg, a, b)

    for z1 in zs:
        ok = ok and pb(z1, z1) == alg.zero()
        for z2 in zs:
            ok = ok and (pb(z1, z2) + pb(z2, z1)) == alg.zero()
    for (a, b, c) in combinations(zs, 3):
        ok = ok and pb(a, pb(b, c)) + pb(b, pb(c, a)) + pb(c, pb(a, b)) == alg.zero()
    for a in zs:
        for b in zs:
            for c in zs:
                prod = alg.multiply(b, c).specialize(t=R0)
                lhs = pb(a, prod)
                rhs = alg.multiply(pb(a, b), c).specialize(t=R0) + alg.multiply(b, pb(a, c)).specialize(t=R0)
                ok = ok and lhs == rhs
    # classical leading terms via the commutative-bracket oracle
    from test_sra import classical_bracket_top

    for z1 in zs:
        for z2 in zs:
            if z1.vdegree() < 2 or z2.vdegree() < 2:
                continue
            deg = z1.vdegree() + z2.vdegree() - 2
            got = {}
            for (m, g), p in pb(z1, z2).coefficients().items():
                if len(m) == deg and g == 0:
                    e = [0] * alg.nv
                    for v in m:
                        e[v] += 1
                    got[tuple(e)] = p
            want = {k: v for k, v in classical_bracket_top(alg, z1, z2).items() if v}
            ok = ok and got == want
    cr.finish(ok)


def test_criterion_09_completion_isomorphism(ch2, ch3):
    cr = Criterion(9, "completion isomorphism relations, baseline, second scaling", 300)
    iso2 = CP.completion_iso(ch2, [R1], 6)
    rep2 = CP.verify_homomorphism(iso2)
    ok = rep2["all_pass"]
    ok = ok and CP.mod_param_baseline(iso2)["pass"]
    ok = ok and CP.equivariance_check(iso2)["pass"]
    iso3 = CP.completion_iso(ch3, [rat(2), rat(1)], 4)
    ok = ok and len(iso3.sub_ids) == 2
    rep3 = CP.verify_homomorphism(iso3)
    ok = ok and rep3["all_pass"]
    ok = ok and CP.mod_param_baseline(iso3)["pass"]
    ok = ok and CP.equivariance_check(iso3)["pass"]
    cr.finish(ok)


def test_criterion_10_simplicity_gate(g2, rd2, ch2):
    cr = Criterion(10, "trace lattice gate matches the rank-1 finite locus", 10)
    m = [G.reflection_weight(g2, rd2, 0)]
    irr = [(dim, (tr,)) for (_l, dim, tr) in S.sn_reflection_characters(2)]
    lat = S.simplicity_lattice(m, irr)
    ok = lat == [(rat(-1),), (rat(1),)]
    mu = CH.convention_solve(ch2)
    ok = ok and mu == rat(-2)
    for num in range(-8, 9):
        for den in (1, 2, 3, 4):
            c_pair = rat(num, den)
            flagged = S.lattice_gate(lat, [mu * c_pair], t_value=R1)["candidate_nonsimple"]
            ok = ok and flagged == ((2 * c_pair) == int(2 * c_pair))
    cr.finish(ok)


def test_criterion_11_type_a_reports():
    cr = Criterion(11, "type-A ideal lattice reports", 1)
    r = CH.type_a_report(5, rat(1, 2))
    ok = not r["simple"] and r["ideal_count"] == 2
    ok = ok and [e["subgroup"] for e in r["ideal_chain"]] == ["S2", "S2 x S2"]
    ok = ok and r["slice_has_finite_dim_module"]
    r = CH.type_a_report(4, rat(1, 4))
    ok = ok and not r["simple"] and r["ideal_count"] == 1
    ok = ok and r["slice_has_finite_dim_module"]
    r = CH.type_a_report(3, rat(2, 7))
    ok = ok and r["simple"]
    cr.finish(ok)


def test_criterion_12_mutation_sensitivity(ch3):
    cr = Criterion(12, "one flipped reflection form breaks criteria 1 and 9", 60)
    b = [rat(2), rat(1)]
    sub = set(G.stabilizer(ch3.group, tuple(b) + (R0, R0)))
    s_star = next(s for s in ch3.rdata.reflections if s in sub)
    bad_ch, _ = tampered_cherednik(S3_SPEC, s_star)
    bad_alg = S.SRAlgebra.omega_form(bad_ch.group, bad_ch.rdata)
    ok = associativity_suite(bad_alg, 200, fail_fast=True) > 0
    iso = CP.completion_iso_with_mu(bad_ch, b, 3, rat(-2))
    rep = CP.verify_homomorphism(iso)
    ok = ok and not rep["all_pass"]
    cr.finish(ok)


def test_criterion_13_completion_isomorphism_s4_s5(ch4):
    cr = Criterion(13, "completion isomorphism on S4 at order 4 and S5 at order 2; tampered S4 fails", 60)
    b4 = [R1, rat(-1), rat(2)]
    ok = CP.verify_homomorphism(CP.completion_iso(ch4, b4, 4))["all_pass"]
    ch5 = CH.build_cherednik({"builtin": {"type": "symmetric", "n": 5, "rep": "reflection"}})
    ok = ok and CP.verify_homomorphism(CP.completion_iso(ch5, [R1, rat(-1), rat(2), R0], 2))["all_pass"]
    ok = ok and not CP.verify_homomorphism(tampered_iso(ch4, S4_SPEC, b4, 3))["all_pass"]
    cr.finish(ok)



# S4 on C^4 = h + (the trivial line), by a transposition and a 4-cycle
S4_PERMUTATION_GENERATORS = (((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
                             ((0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)))


def _int_det(m):
    """Leibniz determinant of a small int matrix (1 for the empty one)."""
    total = 0
    for perm in permutations(range(len(m))):
        inversions = sum(1 for i, j in combinations(range(len(m)), 2) if perm[i] > perm[j])
        term = (-1) ** inversions
        for row, col in enumerate(perm):
            term *= m[row][col]
        total += term
    return total


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def molien_dims_s4(max_degree):
    """dim C[h + h*]^{S4} in degrees 0..max_degree by Molien's formula,
    from the permutation matrices P_g on C^4 = h + C: det(1 - t P_g) is
    (1 - t) det(1 - t g|h), and P_g^-T = P_g, so g contributes
    (1 - t)^2 / det(1 - t P_g)^2.  det(1 - t P) is the sum over k of
    (-t)^k times the principal k x k minors of P."""
    group, frontier = {S4_PERMUTATION_GENERATORS[0]}, [S4_PERMUTATION_GENERATORS[0]]
    while frontier:
        nxt = []
        for m in frontier:
            for g in S4_PERMUTATION_GENERATORS:
                p = tuple(tuple(sum(m[i][k] * g[k][j] for k in range(4)) for j in range(4)) for i in range(4))
                if p not in group:
                    group.add(p)
                    nxt.append(p)
        frontier = nxt
    assert len(group) == 24
    total = [Fraction(0)] * (max_degree + 1)
    for g in group:
        det = [(-1) ** k * sum(_int_det([[g[i][j] for j in idx] for i in idx]) for idx in combinations(range(4), k))
               for k in range(5)]
        den = _poly_mul(det, det)
        num = [1, -2, 1] + [0] * max_degree
        series = []  # num / den, den[0] == 1
        for d in range(max_degree + 1):
            series.append(Fraction(num[d]) - sum(den[k] * series[d - k] for k in range(1, min(d, len(den) - 1) + 1)))
        total = [a + b for a, b in zip(total, series)]
    dims = [x / len(group) for x in total]
    assert all(x.denominator == 1 for x in dims)
    return [int(x) for x in dims]


def _center_matches_molien(alg, molien, c_values=None):
    cb = S.center_basis(alg, len(molien) - 1, c_values=c_values)
    ok = cb.graded_dims == molien
    ok = ok and all(S.recheck_central(alg, z, c_values=c_values) for z in cb.elements)
    return ok and S.satake_corner_check(alg, cb.elements, len(molien) - 1, c_values=c_values)["spans_corner"]


def test_criterion_14_s4_center_molien(ch4):
    cr = Criterion(14, "S4 center to degree 3 matches Molien, generic and at c = -5/13; tampered S4 fails", 60)
    molien = molien_dims_s4(3)
    ok = molien == [1, 0, 3, 4]
    ok = ok and _center_matches_molien(ch4.algebra, molien)
    ok = ok and _center_matches_molien(ch4.algebra, molien, [rat(-5, 13)])
    # the criterion-12 flip reaches the center through the form-driven
    # presentation (the tampered Cherednik build keeps the clean algebra)
    bad_rdata = tampered_reflection_data(ch4.rdata, ch4.rdata.reflections[0])
    ok = ok and not _center_matches_molien(S.SRAlgebra.omega_form(ch4.group, bad_rdata), molien)
    cr.finish(ok)
