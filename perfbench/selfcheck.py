"""Vacuous-pass guards for the benchmark's own answer checks.

    python3 perfbench/selfcheck.py

Feeds the criterion-12 tampered build (one reflection form sign-flipped,
``srak.selftest.tampered_reflection_data``) through the same job and
check code the benchmark times, and exits 1 unless the checks catch it:

- the ``pbw`` associativity oracle must fail on some triples of the first
  session of seed 1, pass 0, over the tampered algebra;
- the ``be_iso`` relation checks must fail on the tampered S4 build at
  seed 1's first base point.  As in ``srak.selftest.mutation_suite``, the
  completion is built with the conversion factor mu = -2 of the honest
  build, because the tampered build has none of its own.
"""

import sys

import run


def flipped(group, rdata, b):
    """Reflection data with the form of a reflection fixing b sign-flipped."""
    from srak import groups as G
    from srak.coeffs import R0, rat
    from srak.selftest import tampered_reflection_data

    fixing = set(G.stabilizer(group, tuple(rat(x) for x in b) + (R0,) * len(b)))
    return tampered_reflection_data(rdata, next(s for s in rdata.reflections if s in fixing))


def pbw_guard(seed=1):
    from srak import sra as S

    import workloads as W

    wl = W.Pbw()
    group, rdata, _ = wl.build()
    bad = S.SRAlgebra.omega_form(group, flipped(group, rdata, (2, 1)))
    golden = W.load_golden()["pbw"]
    triples = wl.pass_inputs(seed, 0)[:W.PBW_SESSION]
    caught = 0
    for i in triples:
        job = wl._job(bad, i, golden)
        if any(p.startswith("(ab)c != a(bc)") for p in job.check(job.run())):
            caught += 1
    print("pbw: associativity oracle failed %d of %d tampered triples" % (caught, len(triples)))
    return caught > 0


def be_iso_guard(seed=1):
    from srak import cherednik as CH
    from srak import completion as CP
    from srak.coeffs import rat

    import workloads as W

    b = W.BeIso().pass_inputs(seed, 0)[0]
    honest_build, honest_iso = CH.build_cherednik, CP.completion_iso
    def tampered_build(spec, *args, **kwargs):
        ch = honest_build(spec, *args, **kwargs)
        return CH.CherednikAlgebra(ch.group, flipped(ch.group, ch.rdata, b), ch.reflections, ch.algebra)

    CH.build_cherednik = tampered_build
    CP.completion_iso = lambda ch, point, order: CP.completion_iso_with_mu(ch, point, order, rat(-2))
    try:
        code, text = W.run_cli(W.be_iso_argv(b))
    finally:
        CH.build_cherednik, CP.completion_iso = honest_build, honest_iso
    problems = W.be_iso_problems(code, text)
    print("be_iso: tampered build at b=%s: %s" % (",".join(map(str, b)), "; ".join(problems) or "no problem found"))
    return bool(problems)


def main():
    run.import_srak()
    ok = all([pbw_guard(), be_iso_guard()])
    print("selfcheck:", "ok" if ok else "FAILED (a check passes on a tampered build)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
