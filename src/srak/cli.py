"""Command line front end.

Commands: group analyze; sra normalize|mul|center|poisson; centralizer
selftest; cherednik gram|scan|typea; be-iso verify; simplicity lattice;
selftest.  Group specs are JSON files (fields ``dim_h``,
``generators_on_h``, optional ``builtin``/``gen_names``) or the inline
shorthand ``symmetric:<n>:<rep>``.  Reports are deterministic JSON on
stdout (or --out); human summaries and timing go to stderr.  Exit codes:
0 all verdicts pass, 1 some check failed, 2 parse/spec errors (among
them ``ArityError``, an exponent vector of the wrong length or with a
negative entry, a typea ``--n`` below 2, a typea ``--slice-cutoff`` of
0, a be-iso ``--order`` below 2 and a be-iso ``--c`` other than
``generic``), 3 computational precondition failures (among them a
product or element literal whose words could reach 2^``sra.WORD_BITS``
letters), 4 internal error (any other exception; its traceback goes to
stderr).  No environment variable is consulted.
"""

import argparse
import json
import os
import sys
import time
import traceback

from . import centralizer as C
from . import cherednik as CH
from . import completion as CP
from . import groups as G
from . import sra as S
from .coeffs import R1, parse_rational, rat_str
from .report import Report
from .selftest import centralizer_pair_suite, run_selftest

PARSE_ERRORS = (ValueError, KeyError, json.JSONDecodeError, OSError)
COMPUTE_ERRORS = (
    G.GroupError,
    S.AlgebraError,
    CH.CherednikError,
    CP.CompletionError,
    C.CentralizerError,
)

C_LIST_PRESETS = {
    "half_integers": ["1/2", "-1/2", "3/2", "-3/2", "5/2", "-5/2"],
}


class CliParseError(Exception):
    pass


def load_group_spec(text):
    """A group spec from a JSON file path or the symmetric:<n>:<rep> shorthand."""
    if text.startswith("symmetric:"):
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise CliParseError("shorthand is symmetric:<n>[:<rep>]")
        n = int(parts[1])
        rep = parts[2] if len(parts) == 3 else "reflection"
        names = ["s"] if n == 2 else ["s%d" % (i + 1) for i in range(n - 1)]
        return {"builtin": {"type": "symmetric", "n": n, "rep": rep}, "gen_names": names}
    with open(text, "r", encoding="utf-8") as fh:
        return json.load(fh)


def parse_c_list(text):
    if text in C_LIST_PRESETS:
        return [parse_rational(x) for x in C_LIST_PRESETS[text]]
    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as fh:
            content = fh.read().strip()
        if content.startswith("["):
            return [parse_rational(str(x)) for x in json.loads(content)]
        return [parse_rational(line) for line in content.split() if line.strip()]
    return [parse_rational(chunk) for chunk in text.split(",") if chunk.strip()]


def int_at_least(low):
    """argparse type for an int of at least ``low``: 0 for degrees and
    cutoffs, 1 for the typea slice cutoff (a cutoff of 0 decides nothing),
    2 for typea ``--n`` (S_1 has no reflection) and for the be-iso
    truncation order (relations are checked modulo order - 1, so order 1
    checks nothing)."""

    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("expected an integer of at least %d, got %s" % (low, text))
        return value

    return integer


def parse_c_values(text, nparams):
    """Parameter values: "generic" -> None, else commas of rationals."""
    if text is None or text == "generic":
        return None
    vals = [parse_rational(chunk) for chunk in text.split(",")]
    if len(vals) == 1 and nparams - 1 > 1:
        vals = vals * (nparams - 1)
    if len(vals) != nparams - 1:
        raise CliParseError("expected %d orbit parameters" % (nparams - 1))
    return vals


def emit(report, args, t0):
    report.wall_seconds = time.time() - t0
    text = report.to_json()
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    for line in report.summary_lines():
        sys.stderr.write(line + "\n")
    sys.stderr.write("wall: %.3fs\n" % report.wall_seconds)
    return 0 if report.all_pass else 1


def cmd_group_analyze(args):
    t0 = time.time()
    spec = load_group_spec(args.group)
    grp = G.group_from_spec(spec)
    rdata = G.symplectic_reflections(grp)
    report = Report("group analyze --group %s" % args.group)
    report.add("order", "plumbing", "info", {"order": grp.order, "dim_v": grp.dim, "dim_h": grp.h_dim})
    report.add("conjugacy_classes", "plumbing", "info", {"count": len(grp.classes), "sizes": [len(c) for c in grp.classes]})
    report.add("reflections", "rank(s-1)=2 reflection census", "info",
               {"count": len(rdata.reflections), "orbit_sizes": [len(o) for o in rdata.orbits]})
    weights = []
    for i in range(rdata.num_orbits):
        try:
            weights.append(rat_str(G.reflection_weight(grp, rdata, i)))
        except G.GroupError as exc:
            weights.append("undefined (%s)" % exc)
    report.add("orbit_form_weights", "orbit form sums proportional to the ambient form", "info", {"m": weights})
    try:
        refl = CH.reflection_alpha_data(grp, rdata)
        report.add("reflection_eigenvalues", "nontrivial reflection eigenvalue is -1", "pass",
                   {"eigenvalues": [rat_str(r.eigenvalue) for r in refl]})
    except CH.CherednikError as exc:
        report.add("reflection_eigenvalues", "nontrivial reflection eigenvalue is -1", "fail", {"error": str(exc)})
    return emit(report, args, t0)


def _build_cherednik(args):
    return CH.build_cherednik(load_group_spec(args.group))


def parse_element(ch, text):
    """An element literal of the algebra; a malformed one is a parse error."""
    try:
        return ch.algebra.parse(text)
    except S.LiteralError as exc:
        raise CliParseError(str(exc)) from None


def cmd_sra_normalize(args):
    t0 = time.time()
    ch = _build_cherednik(args)
    elt = parse_element(ch, args.expr)
    report = Report("sra normalize --group %s --expr %r" % (args.group, args.expr))
    report.add("normal_form", "PBW normal ordering", "info", {"input": args.expr, "result": elt.to_str()})
    return emit(report, args, t0)


def cmd_sra_mul(args):
    t0 = time.time()
    ch = _build_cherednik(args)
    lhs, rhs = parse_element(ch, args.lhs), parse_element(ch, args.rhs)
    report = Report("sra mul --group %s" % args.group)
    report.add("product", "PBW normal ordering", "info",
               {"lhs": lhs.to_str(), "rhs": rhs.to_str(), "result": (lhs * rhs).to_str()})
    return emit(report, args, t0)


SAMPLE_RATIONALS = ["5/7", "3/11", "9/5", "7/13", "2/9"]


def cmd_sra_center(args):
    t0 = time.time()
    ch = _build_cherednik(args)
    if getattr(args, "sample", False):
        # deterministic sampled rationals instead of symbolic parameters
        c_values = [parse_rational(SAMPLE_RATIONALS[i % len(SAMPLE_RATIONALS)]) for i in range(ch.nparams - 1)]
        c_label = "sample(%s)" % ",".join(rat_str(v) for v in c_values)
    else:
        c_values = parse_c_values(args.c, ch.nparams)
        c_label = args.c or "generic"
    basis = S.center_basis(ch.algebra, args.deg, c_values=c_values)
    report = Report("sra center --group %s --deg %d --c %s" % (args.group, args.deg, c_label))
    report.add("basis", "center/corner correspondence at t=0", "info",
               {"elements": [z.to_str() for z in basis.elements], "graded_dims": basis.graded_dims,
                "cutoff": basis.cutoff, "mode": basis.mode})
    ok = all(S.recheck_central(ch.algebra, z, c_values=c_values) for z in basis.elements)
    report.add_bool("recheck", "degree-truncated center really commutes", ok)
    sat = S.satake_corner_check(ch.algebra, basis.elements, args.deg, c_values=c_values)
    report.add_bool("corner_correspondence", "center/corner correspondence at t=0", sat["spans_corner"], sat)
    return emit(report, args, t0)


def cmd_sra_poisson(args):
    t0 = time.time()
    ch = _build_cherednik(args)
    z1, z2 = parse_element(ch, args.lhs), parse_element(ch, args.rhs)
    report = Report("sra poisson --group %s" % args.group)
    bracket = S.poisson_bracket(ch.algebra, z1, z2)
    report.add("bracket", "Poisson bracket on the t=0 center", "info",
               {"lhs": z1.to_str(), "rhs": z2.to_str(), "result": bracket.to_str()})
    return emit(report, args, t0)


def cmd_centralizer_selftest(args):
    t0 = time.time()
    big = G.group_from_spec(load_group_spec(args.g))
    small_spec = load_group_spec(args.h)
    small = G.group_from_spec(small_spec)
    sub_ids = big.subgroup_ids_of_matrices(small.mats)
    sub_ids = sorted(big.subgroup_closure(sub_ids))
    report = Report("centralizer selftest --g %s --h %s" % (args.g, args.h))
    centralizer_pair_suite(report, big, sub_ids, "cli")
    return emit(report, args, t0)


def cmd_cherednik_gram(args):
    t0 = time.time()
    ch = _build_cherednik(args)
    c_values = parse_c_values(args.c, ch.nparams)
    report = Report("cherednik gram --group %s --c %s --deg %d" % (args.group, args.c, args.deg))
    monos, rows = CH.contravariant_gram(ch, args.deg, c_values=c_values)
    data = {"monomials": [list(m) for m in monos], "matrix": [[p.to_str() for p in row] for row in rows]}
    if c_values is not None:
        data["rank"] = CH.gram_rank(rows)
    report.add("gram", "contravariant pairing matrix", "info", data)
    return emit(report, args, t0)


def cmd_cherednik_scan(args):
    t0 = time.time()
    if args.builtin:
        spec_text = args.builtin if args.builtin.startswith("symmetric:") else "symmetric:" + args.builtin
        spec = load_group_spec(spec_text)
    else:
        if not args.group:
            raise CliParseError("scan needs --group or --builtin")
        spec = load_group_spec(args.group)
    c_list = parse_c_list(args.c_list)
    if not c_list:
        raise CliParseError("--c-list names no parameter value")
    ch = CH.build_cherednik(spec)
    results = CH.finite_dim_scan(ch, c_list, args.cutoff)
    report = Report("cherednik scan --c-list %s --cutoff %d" % (args.c_list, args.cutoff))
    for res in results:
        report.add("c=%s" % res["c"], "pairing rank collapse detects finite quotients", "info", res)
    return emit(report, args, t0)


def cmd_cherednik_typea(args):
    t0 = time.time()
    rep = CH.type_a_report(args.n, parse_rational(args.c), slice_cutoff=args.slice_cutoff)
    report = Report("cherednik typea --n %d --c %s" % (args.n, args.c))
    report.add("prediction", "type-A ideal lattice prediction", "info", rep)
    if not rep["simple"] and "slice_scan" in rep:
        report.add_bool("slice_evidence", "slice pairing rank collapse", rep["slice_has_finite_dim_module"], rep["slice_scan"])
    return emit(report, args, t0)


def cmd_be_iso_verify(args):
    t0 = time.time()
    if args.c != "generic":
        # the relations are checked with symbolic parameters; --c stays so
        # that the report's command line names what was checked
        raise CliParseError("be-iso verify checks generic parameters only, got --c %s" % args.c)
    ch = _build_cherednik(args)
    b = [parse_rational(x) for x in args.b.split(",")]
    iso = CP.completion_iso(ch, b, args.order)
    rep = CP.verify_homomorphism(iso)
    report = Report("be-iso verify --group %s --b %s --c %s --order %d" % (args.group, args.b, args.c, args.order))
    for name, data in rep["relations"].items():
        report.add_bool(name, "completion isomorphism defining relations", data["pass"],
                        {"first_failure": data["first_failure"]})
    base = CP.mod_param_baseline(iso)
    report.add_bool("parameter_free_baseline", "parameter-free completion baseline", base["pass"], base)
    eq = CP.equivariance_check(iso)
    report.add_bool("second_scaling", "second-scaling homogeneity of the images", eq["pass"], eq)
    report.add("order_checked", "truncation bookkeeping", "info", {"order": rep["order_checked"], "mu": rat_str(iso.mu)})
    return emit(report, args, t0)


def cmd_simplicity_lattice(args):
    t0 = time.time()
    spec = load_group_spec(args.group)
    if "builtin" not in spec or spec["builtin"].get("type") != "symmetric":
        raise CliParseError("lattice needs a symmetric-group spec (irreducible trace data source)")
    n = int(spec["builtin"]["n"])
    grp = G.group_from_spec(spec)
    rdata = G.symplectic_reflections(grp)
    m = [G.reflection_weight(grp, rdata, i) for i in range(rdata.num_orbits)]
    chars = S.sn_reflection_characters(n)
    irr = [(dim, (tr,)) for (_lam, dim, tr) in chars]
    lattice = S.simplicity_lattice(m, irr)
    report = Report("simplicity lattice --group %s" % args.group)
    report.add("lattice", "trace obstruction lattice", "info",
               {"m": [rat_str(x) for x in m], "generators": [[rat_str(x) for x in v] for v in lattice]})
    if args.c_cher is not None:
        ch = CH.build_cherednik(spec)
        mu = CH.convention_solve(ch)
        c_cher = parse_rational(args.c_cher)
        c_form = [mu * c_cher]
        gate = S.lattice_gate(lattice, c_form, t_value=R1)
        report.add("gate", "trace obstruction lattice", "info",
                   {"c_pairing": rat_str(c_cher), "conversion": rat_str(mu), "c_form": [rat_str(x) for x in c_form],
                    "candidate_nonsimple": gate["candidate_nonsimple"]})
    return emit(report, args, t0)


def cmd_selftest(args):
    t0 = time.time()
    report = run_selftest(quick=args.quick)
    return emit(report, args, t0)


def build_parser():
    p = argparse.ArgumentParser(prog="srak", description="exact symplectic reflection algebra toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def add_out(sp):
        sp.add_argument("--out", help="write the JSON report to this path")

    g = sub.add_parser("group", help="group-level analysis")
    gsub = g.add_subparsers(dest="subcommand", required=True)
    ga = gsub.add_parser("analyze")
    ga.add_argument("--group", required=True)
    add_out(ga)
    ga.set_defaults(fn=cmd_group_analyze)

    sr = sub.add_parser("sra", help="algebra-level operations")
    ssub = sr.add_subparsers(dest="subcommand", required=True)
    sn = ssub.add_parser("normalize")
    sn.add_argument("--group", required=True)
    sn.add_argument("--expr", required=True)
    add_out(sn)
    sn.set_defaults(fn=cmd_sra_normalize)
    sm = ssub.add_parser("mul")
    sm.add_argument("--group", required=True)
    sm.add_argument("--lhs", required=True)
    sm.add_argument("--rhs", required=True)
    add_out(sm)
    sm.set_defaults(fn=cmd_sra_mul)
    sc = ssub.add_parser("center")
    sc.add_argument("--group", required=True)
    sc.add_argument("--deg", type=int_at_least(0), required=True)
    sc.add_argument("--c", default="generic")
    sc.add_argument("--sample", action="store_true",
                    help="specialize at deterministic sampled rationals instead of symbolic parameters")
    add_out(sc)
    sc.set_defaults(fn=cmd_sra_center)
    sp_ = ssub.add_parser("poisson")
    sp_.add_argument("--group", required=True)
    sp_.add_argument("--lhs", required=True)
    sp_.add_argument("--rhs", required=True)
    add_out(sp_)
    sp_.set_defaults(fn=cmd_sra_poisson)

    ce = sub.add_parser("centralizer", help="coset-matrix construction checks")
    csub = ce.add_subparsers(dest="subcommand", required=True)
    cs = csub.add_parser("selftest")
    cs.add_argument("--g", required=True)
    cs.add_argument("--h", required=True)
    add_out(cs)
    cs.set_defaults(fn=cmd_centralizer_selftest)

    chp = sub.add_parser("cherednik", help="pairing presentation and modules")
    chsub = chp.add_subparsers(dest="subcommand", required=True)
    cg = chsub.add_parser("gram")
    cg.add_argument("--group", required=True)
    cg.add_argument("--c", default="generic")
    cg.add_argument("--deg", type=int_at_least(0), required=True)
    add_out(cg)
    cg.set_defaults(fn=cmd_cherednik_gram)
    csn = chsub.add_parser("scan")
    csn.add_argument("--group")
    csn.add_argument("--builtin")
    csn.add_argument("--c-list", dest="c_list", required=True)
    csn.add_argument("--cutoff", type=int_at_least(0), required=True)
    add_out(csn)
    csn.set_defaults(fn=cmd_cherednik_scan)
    ct = chsub.add_parser("typea")
    ct.add_argument("--n", type=int_at_least(2), required=True)
    ct.add_argument("--c", required=True)
    ct.add_argument("--slice-cutoff", dest="slice_cutoff", type=int_at_least(1))
    add_out(ct)
    ct.set_defaults(fn=cmd_cherednik_typea)

    be = sub.add_parser("be-iso", help="point-completion isomorphism checks")
    besub = be.add_subparsers(dest="subcommand", required=True)
    bv = besub.add_parser("verify")
    bv.add_argument("--group", required=True)
    bv.add_argument("--b", required=True)
    bv.add_argument("--c", default="generic")
    bv.add_argument("--order", type=int_at_least(2), required=True)
    add_out(bv)
    bv.set_defaults(fn=cmd_be_iso_verify)

    si = sub.add_parser("simplicity", help="trace obstruction lattice")
    sisub = si.add_subparsers(dest="subcommand", required=True)
    sl = sisub.add_parser("lattice")
    sl.add_argument("--group", required=True)
    sl.add_argument("--c-cher", dest="c_cher")
    add_out(sl)
    sl.set_defaults(fn=cmd_simplicity_lattice)

    st = sub.add_parser("selftest", help="run the full invariant suites")
    st.add_argument("--quick", action="store_true")
    add_out(st)
    st.set_defaults(fn=cmd_selftest)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliParseError,) as exc:
        sys.stderr.write("parse error: %s\n" % exc)
        return 2
    except COMPUTE_ERRORS as exc:
        sys.stderr.write("computation error: %s\n" % exc)
        return 3
    except PARSE_ERRORS as exc:
        sys.stderr.write("parse error: %s\n" % exc)
        return 2
    except Exception:
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
