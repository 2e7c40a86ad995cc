"""Library-level invariant suites at desk scale.

Each suite re-derives its expectations from the objects it builds (no
golden numbers here; those live in the test suite) and reports one
record per invariant.  ``run_selftest`` drives all suites over the rank-1
and rank-2 symmetric-group instances; ``mutate="flip-omega-s"`` runs the
deliberately perturbed build that must make the rewriting and the
completion-isomorphism checks fail (a vacuous-pass guard).
"""

import math
import random

from . import centralizer as C
from . import completion as CP
from . import cherednik as CH
from . import groups as G
from . import linalg
from . import sra as S
from .coeffs import R0, R1, rat
from .report import Report

S2_SPEC = {"builtin": {"type": "symmetric", "n": 2, "rep": "reflection"}, "gen_names": ["s"]}
S3_SPEC = {"builtin": {"type": "symmetric", "n": 3, "rep": "reflection"}, "gen_names": ["s1", "s2"]}


def random_element(alg, rng, max_degree=4, nterms=2):
    out = alg.zero()
    for _ in range(nterms):
        deg = rng.randint(0, max_degree)
        word = tuple(rng.randrange(alg.nv) for _ in range(deg))
        gid = rng.randrange(alg.group.order)
        coeff = rng.choice([1, 2, -1, 3])
        out = out + alg.normalize_word([("g", 0)] + [tuple(R1 if k == v else R0 for k in range(alg.nv)) for v in word] + [("g", gid)]).scale(rat(coeff))
    return out


def associativity_trial(alg, rng):
    a = random_element(alg, rng)
    b = random_element(alg, rng)
    c = random_element(alg, rng)
    return alg.multiply(alg.multiply(a, b), c) == alg.multiply(a, alg.multiply(b, c))


def associativity_suite(alg, trials, seed=20210, fail_fast=False):
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        if not associativity_trial(alg, rng):
            failures += 1
            if fail_fast:
                return failures
    return failures


def tampered_reflection_data(rdata, s_id):
    """Copy of the reflection data with one reflection's form negated."""
    flipped = dict(rdata.omega_s)
    flipped[s_id] = tuple(tuple(-x for x in row) for row in flipped[s_id])
    out = G.ReflectionData(rdata.group, rdata.reflections, rdata.orbits, dict(rdata.projection), flipped)
    return out


def tampered_cherednik(spec, s_id=None):
    """A pairing-presentation build whose reflection-form table carries
    one sign flip (the perturbation used by the sensitivity checks)."""
    ch = CH.build_cherednik(spec)
    if s_id is None:
        s_id = ch.rdata.reflections[0]
    bad = tampered_reflection_data(ch.rdata, s_id)
    return CH.CherednikAlgebra(ch.group, bad, ch.reflections, ch.algebra), s_id


def tampered_s3():
    """The tampered S3 build at the base point b = (2, 1): the form of the
    first reflection fixing b is sign-flipped, so that both the rewriting and
    the completion isomorphism at b see the flip.  Returns the tampered
    Cherednik algebra, its omega-form algebra and b."""
    b = [rat(2), rat(1)]
    ch3 = CH.build_cherednik(S3_SPEC)
    sub = set(G.stabilizer(ch3.group, tuple(b) + (R0, R0)))
    s_star = next(s for s in ch3.rdata.reflections if s in sub)
    bad_rdata = tampered_reflection_data(ch3.rdata, s_star)
    bad_ch = CH.CherednikAlgebra(ch3.group, bad_rdata, ch3.reflections, ch3.algebra)
    return bad_ch, S.SRAlgebra.omega_form(ch3.group, bad_rdata), b


def groups_suite(report):
    g2 = G.group_from_spec(S2_SPEC)
    g3 = G.group_from_spec(S3_SPEC)
    report.add_bool("group_orders", "plumbing", g2.order == 2 and g3.order == 6,
                    {"s2": g2.order, "s3": g3.order})
    report.add_bool("conjugacy_class_counts", "plumbing",
                    len(g2.classes) == 2 and len(g3.classes) == 3,
                    {"s2": len(g2.classes), "s3": len(g3.classes)})
    rd2, rd3 = G.symplectic_reflections(g2), G.symplectic_reflections(g3)
    report.add_bool("reflection_counts", "rank(s-1)=2 reflection census",
                    len(rd2.reflections) == 1 and len(rd3.reflections) == 3 and rd2.num_orbits == 1 and rd3.num_orbits == 1,
                    {"s2": len(rd2.reflections), "s3": len(rd3.reflections)})
    # conjugation equivariance of the reflection forms
    ok = True
    for g in range(g3.order):
        for s in rd3.reflections:
            s2 = g3.conjugate(g, s)
            if rd3.orbit_of[s2] != rd3.orbit_of[s]:
                ok = False
            for xi in range(g3.dim):
                for yi in range(g3.dim):
                    x = tuple(R1 if k == xi else R0 for k in range(g3.dim))
                    y = tuple(R1 if k == yi else R0 for k in range(g3.dim))
                    lhs = rd3.omega_s_eval(s2, g3.apply(g, x), g3.apply(g, y))
                    if lhs != rd3.omega_s_eval(s, x, y):
                        ok = False
    report.add_bool("reflection_form_equivariance", "conjugation carries the reflection forms", ok)
    # moving-fixed splitting by rank additivity
    ok = True
    ident = linalg.mat_identity(g3.dim)
    for s in rd3.reflections:
        m = linalg.mat_sub([list(r) for r in g3.mats[s]], ident)
        if linalg.mat_rank(m) + len(linalg.nullspace(m, g3.dim)) != g3.dim:
            ok = False
    report.add_bool("moving_plus_fixed_splits", "finite order acts semisimply", ok)
    # leaf decomposition: restriction of the form to the fixed space
    sub = G.stabilizer(g3, (rat(2), rat(1)) + (R0, R0))
    leaf = G.leaf_data(g3, sub)
    okleaf = len(leaf.v0_basis) == 2 and len(leaf.vplus_basis) == 2 and leaf.xi_order == 1
    # omega restricted to V0 nondegenerate and Vplus = V0-perp
    v0 = leaf.v0_basis
    gram = [[g3.omega_eval(a, b) for b in v0] for a in v0]
    okleaf = okleaf and linalg.mat_rank(gram) == len(v0)
    perp_ok = all(g3.omega_eval(a, b) == R0 for a in v0 for b in leaf.vplus_basis)
    report.add_bool("leaf_decomposition", "stable splitting with symplectic pieces", okleaf and perp_ok,
                    {"dim_v0": len(leaf.v0_basis), "dim_vplus": len(leaf.vplus_basis), "xi": leaf.xi_order})
    # stabilizer scaling
    b = (rat(2), rat(1), R0, R0)
    tb = tuple(rat(5) * v for v in b)
    report.add_bool("stabilizer_scaling", "stabilizers are cone data",
                    G.stabilizer(g3, b) == G.stabilizer(g3, tb))
    return {"g2": g2, "g3": g3, "rd2": rd2, "rd3": rd3}


def sra_suite(report, built, trials=60, max_center_degree=4):
    g2, g3 = built["g2"], built["g3"]
    rd2, rd3 = built["rd2"], built["rd3"]
    a2 = S.SRAlgebra.omega_form(g2, rd2)
    a3 = S.SRAlgebra.omega_form(g3, rd3)
    f2 = associativity_suite(a2, trials)
    f3 = associativity_suite(a3, trials)
    report.add_bool("associativity", "rewriting confluence (PBW flatness)", f2 == 0 and f3 == 0,
                    {"trials": trials, "failures_s2": f2, "failures_s3": f3})
    ok = True
    for alg in (a2, a3):
        for d in range(7):
            expect = math.comb(d + alg.nv - 1, alg.nv - 1) * alg.group.order
            if S.pbw_dimension(alg, d) != expect:
                ok = False
    report.add_bool("graded_dimensions", "normal-form count matches the commutative smash product", ok)
    e2 = S.spherical_idempotent(a2)
    report.add_bool("idempotent_square", "averaging idempotent", a2.multiply(e2, e2) == e2)
    ch2 = CH.build_cherednik(S2_SPEC)
    cb = S.center_basis(ch2.algebra, max_center_degree)
    okc = all(S.recheck_central(ch2.algebra, z) for z in cb.elements)
    report.add_bool("center_recheck", "degree-truncated center really commutes", okc,
                    {"graded_dims": cb.graded_dims})
    sat = S.satake_corner_check(ch2.algebra, cb.elements, max_center_degree)
    report.add_bool("center_corner_correspondence", "center/corner correspondence at t=0", sat["spans_corner"], sat)
    gen_center = S.center_basis(ch2.algebra, 4, include_t=True)
    only_scalars = all(z.vdegree() == 0 for z in gen_center.elements)
    report.add_bool("generic_center_trivial", "generic-parameter center reduces to parameters", only_scalars)
    # Poisson properties on the degree-2 part
    zs = [z for z in cb.elements if z.vdegree() == 2]
    okp = True
    for z1 in zs:
        if S.poisson_bracket(ch2.algebra, z1, z1):
            okp = False
        for z2 in zs:
            b12 = S.poisson_bracket(ch2.algebra, z1, z2)
            b21 = S.poisson_bracket(ch2.algebra, z2, z1)
            if b12 + b21:
                okp = False
    report.add_bool("poisson_antisymmetry", "Poisson bracket on the t=0 center", okp)
    return {"a2": a2, "a3": a3, "ch2": ch2}


def centralizer_pair_suite(report, G_big, sub_ids, label):
    ctx = C.CentralizerContext(G_big, sub_ids, S.SRAlgebra(G_big, {}, 1).group_elt)
    one = ctx.one()
    total = ctx.zero()
    for x in range(ctx.k):
        total = total + C.idempotent(ctx, x)
    ok_sum = total == one
    ok_orth = all(
        C.idempotent(ctx, x) * C.idempotent(ctx, y) == (C.idempotent(ctx, x) if x == y else ctx.zero())
        for x in range(ctx.k)
        for y in range(ctx.k)
    )
    ok_conj = True
    for g in range(G_big.order):
        ge = C.embed_group(ctx, g)
        gi = C.embed_group(ctx, G_big.inv[g])
        if not ge * gi == one:
            ok_conj = False
        for x in range(ctx.k):
            lhs = ge * C.idempotent(ctx, x) * gi
            if not lhs == C.idempotent(ctx, ctx.coset_act(x, G_big.inv[g])):
                ok_conj = False
    ok_mult = all(
        C.embed_group(ctx, g) * C.embed_group(ctx, h) == C.embed_group(ctx, G_big.mul(g, h))
        for g in range(G_big.order)
        for h in range(G_big.order)
    )
    # invariant coefficients commute with the idempotents
    ok_inv = True
    for h in ctx.sub_ids:
        a = ctx.coefficient(h)
        if not C.is_invariant(ctx, a):
            continue
        da = C.embed_invariant(ctx, a)
        for x in range(ctx.k):
            e = C.idempotent(ctx, x)
            if not da * e == e * da:
                ok_inv = False
    pairs, morita_ok = C.morita_witness(ctx)
    report.add_bool("coset_matrix_identities_%s" % label, "coset-matrix identities",
                    ok_sum and ok_orth and ok_conj and ok_mult and ok_inv,
                    {"k": ctx.k, "sum": ok_sum, "orthogonal": ok_orth, "conjugation": ok_conj,
                     "multiplicative": ok_mult, "invariants_commute": ok_inv})
    report.add_bool("morita_witness_%s" % label, "explicit unit decomposition across the corner", morita_ok,
                    {"summands": len(pairs)})
    return ctx


def centralizer_suite(report, built):
    g3 = built["g3"]
    g2 = built["g2"]
    s2_in_s3 = G.stabilizer(g3, (rat(2), rat(1), R0, R0))
    ctx = centralizer_pair_suite(report, g3, s2_in_s3, "s3_s2")
    centralizer_pair_suite(report, g3, [0], "s3_triv")
    centralizer_pair_suite(report, g2, list(range(g2.order)), "s2_s2")
    # smash realization with A0 = Q over the S3 > S2 context: theta(g) is the
    # group embedding and the indicator of coset i goes to its idempotent
    dims = (ctx.k * g3.order, ctx.k * ctx.k * len(ctx.sub_ids), C.realization_rank(ctx))
    report.add_bool("smash_realization_bijective", "smash realization dimension/rank count",
                    dims[0] == dims[1] == dims[2], {"domain": dims[0], "codomain": dims[1], "rank": dims[2]})
    ok_mult = all(
        C.embed_group(ctx, g) * C.embed_group(ctx, h) == C.embed_group(ctx, g3.mul(g, h))
        for g in range(g3.order)
        for h in range(g3.order)
    )
    # g F g^-1 is the translate (g . F)(g') = F(g' g): the indicator of
    # coset i goes to that of the coset sent to i by g
    ok_transl = all(
        C.embed_group(ctx, g) * C.idempotent(ctx, i) * C.embed_group(ctx, g3.inv[g])
        == C.idempotent(ctx, ctx.coset_act(i, g3.inv[g]))
        for g in range(g3.order)
        for i in range(ctx.k)
    )
    report.add_bool("smash_translation_action", "translation action matches conjugation",
                    ok_mult and ok_transl)


def cherednik_suite(report, built, degree=3):
    ch2 = built["ch2"]
    ch3 = CH.build_cherednik(S3_SPEC)
    mu2, mu3 = CH.convention_solve(ch2), CH.convention_solve(ch3)
    report.add_bool("convention_factor", "presentation conversion scalar is consistent",
                    mu2 == mu3 == rat(-2), {"mu_s2": mu2, "mu_s3": mu3})
    okrel = True
    for ch in (ch2, ch3):
        rels = CH.module_relation_report(ch, degree)
        if not all(rels.values()):
            okrel = False
    report.add_bool("module_relations", "lowering-operator module satisfies the relations", okrel,
                    {"degree": degree})
    sign = CH.solve_module_sign(ch2)
    report.add_bool("module_sign_pinned", "relation-derived lowering sign", sign == CH.MODULE_LOWERING_SIGN,
                    {"solved": sign})
    okeuler = True
    for ch in (ch2, ch3):
        h = CH.euler_element(ch)
        for i in range(ch.h_dim):
            cx = h.commutator(ch.x(i)).specialize(t=R1)
            cy = h.commutator(ch.y(i)).specialize(t=R1)
            if cx != ch.x(i) or cy != -ch.y(i):
                okeuler = False
    report.add_bool("euler_grading", "Euler grading element", okeuler)
    scan = CH.finite_dim_scan(ch2, ["1/2", "3/2", "1/3"], 6)
    verd = [v["verdict"] for v in scan]
    dims = [v.get("dim") for v in scan]
    report.add_bool("rank1_scan", "pairing rank collapse on half-integers (n=2)",
                    verd == ["finite", "finite", "infinite"] and dims[:2] == [1, 3], {"scan": scan})
    return {"ch2": ch2, "ch3": ch3}


def completion_suite(report, built, order_s2=4, order_s3=3):
    ch2, ch3 = built["ch2"], built["ch3"]
    iso2 = CP.completion_iso(ch2, [R1], order_s2)
    rep2 = CP.verify_homomorphism(iso2)
    report.add_bool("completion_relations_rank1", "completion isomorphism defining relations",
                    rep2["all_pass"], rep2)
    base2 = CP.mod_param_baseline(iso2)
    report.add_bool("parameter_free_baseline_rank1", "parameter-free completion baseline", base2["pass"], base2)
    eq2 = CP.equivariance_check(iso2)
    report.add_bool("second_scaling_rank1", "second-scaling homogeneity of the images", eq2["pass"], eq2)
    iso3 = CP.completion_iso(ch3, [rat(2), rat(1)], order_s3)
    rep3 = CP.verify_homomorphism(iso3)
    report.add_bool("completion_relations_rank2", "completion isomorphism defining relations",
                    rep3["all_pass"], rep3)
    # geometric series sanity
    talg = iso2.talg
    for ref in ch2.reflections:
        bconst = sum((bb * aa for bb, aa in zip(iso2.b, ref.alpha)), R0)
        series = talg.geometric_inverse(bconst, ref.alpha)
        denom = talg.x_linear(ref.alpha, bconst)
        prod = series * denom
        report.add_bool("geometric_series_inverse", "series inverse times denominator is one",
                        prod.eq_mod(talg.one()))
    return {"iso2": iso2, "iso3": iso3}


def mutation_suite(report, order_s3=3):
    """Perturbed build: one reflection form sign-flipped.  The rewriting
    associativity and the completion relation check must both fail."""
    bad_ch, bad_alg, b = tampered_s3()
    failures = associativity_suite(bad_alg, 60)
    report.add_bool("mutation_breaks_associativity", "vacuous-pass guard", failures > 0,
                    {"failures": failures})
    try:
        iso = CP.completion_iso_with_mu(bad_ch, b, order_s3, rat(-2))
        rep = CP.verify_homomorphism(iso)
        broke = not rep["all_pass"]
    except (CP.CompletionError, CH.CherednikError):
        broke = True
    report.add_bool("mutation_breaks_completion_iso", "vacuous-pass guard", broke)


def run_selftest(quick=False, mutate=None):
    """Run every suite; returns a Report.  ``mutate`` = "flip-omega-s"
    swaps in the perturbed build (expected outcome: reported failures)."""
    report = Report("selftest" + (" --quick" if quick else "") + (" [mutated]" if mutate else ""))
    if mutate == "flip-omega-s":
        bad_ch, bad_alg, b = tampered_s3()
        failures = associativity_suite(bad_alg, 40)
        report.add_bool("associativity", "rewriting confluence (PBW flatness)", failures == 0,
                        {"failures": failures, "mutated": True})
        try:
            iso = CP.completion_iso_with_mu(bad_ch, b, 3, rat(-2))
            rep = CP.verify_homomorphism(iso)
            report.add_bool("completion_relations_rank2", "completion isomorphism defining relations",
                            rep["all_pass"], rep)
        except (CP.CompletionError, CH.CherednikError) as exc:
            report.add_bool("completion_relations_rank2", "completion isomorphism defining relations",
                            False, {"error": str(exc)})
        return report
    trials = 25 if quick else 60
    degree = 2 if quick else 3
    built = groups_suite(report)
    built.update(sra_suite(report, built, trials=trials))
    centralizer_suite(report, built)
    built.update(cherednik_suite(report, built, degree=degree))
    completion_suite(report, built, order_s2=3 if quick else 4, order_s3=3)
    mutation_suite(report)
    return report
