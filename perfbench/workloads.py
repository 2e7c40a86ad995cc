"""The four seeded workloads: their inputs, jobs and answer checks.

A run is a sequence of passes; ``pass_jobs`` yields the jobs of one pass
in order.  ``nominal_pass_s`` is a pass's time on the seed code (2-CPU
host, pure-Python kernel, ``fractions`` rationals); run.py divides
``--seconds`` by it to fix the number of passes.  Pass ``i`` of seed ``s`` draws its inputs
from ``random.Random("<workload>:<s>:<i>")``, so the same seed gives the
same inputs.  Inputs come from fixed pools whose report bytes are recorded
in ``golden.json`` (see ``record_golden.py``); srak receives only the
generated expression strings, rationals and base points.
"""

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

from srak import cherednik as CH
from srak import cli
from srak import groups as G
from srak import sra as S

import oracles

S3 = "symmetric:3:reflection"
S4 = "symmetric:4:reflection"
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def run_cli(argv):
    """``srak.cli.main(argv)`` in this process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue()


class Job:
    """One request of the closed loop: ``run()`` is timed, ``check`` is not.

    ``check(result)`` returns the list of problems found (empty when the
    answer is right and its report bytes match the recorded ones).
    """

    __slots__ = ("key", "run", "check")

    def __init__(self, key, run, check):
        self.key = key
        self.run = run
        self.check = check


def _rng(name, seed, index):
    return random.Random("%s:%d:%d" % (name, seed, index))


def _golden_problems(golden, key, text):
    want = golden.get(key)
    if want is None:
        return ["no recorded report for %s" % key]
    if digest(text) != want:
        return ["report bytes differ from the recorded ones for %s" % key]
    return []


def _report_problems(code, text):
    """(problems, parsed report or None) for a CLI answer that should exit 0."""
    problems = [] if code == 0 else ["exit code %r" % (code,)]
    try:
        return problems, json.loads(text)
    except ValueError:
        return problems + ["report is not JSON"], None


def _failed_checks(report):
    return ["check %s: %s" % (c["name"], c["verdict"]) for c in report["checks"] if c["verdict"] == "fail"]


# -- pbw ----------------------------------------------------------------------

PBW_POOL_SIZE = 1536
PBW_SESSION = 128  # triples that share one fresh algebra (and its caches)
PBW_VECTORS = ("x1", "x2", "y1", "y2")
PBW_GROUP_WORDS = ("", "s1", "s2", "s1*s2", "s2*s1", "s1*s2*s1")  # the six elements of S3


def _pbw_term(rng):
    factors = [str(rng.choice((1, 2, 3)))]
    factors += [rng.choice(PBW_VECTORS) for _ in range(rng.randint(0, 3))]
    word = rng.choice(PBW_GROUP_WORDS)
    return "*".join(factors + ([word] if word else []))


def _pbw_element(rng):
    return rng.choice(("", "-")) + _pbw_term(rng) + rng.choice((" + ", " - ")) + _pbw_term(rng)


def pbw_pool():
    """The fixed pool of (a, b, c) expression triples, in pool order."""
    rng = random.Random("pbw-pool")
    return [tuple(_pbw_element(rng) for _ in range(3)) for _ in range(PBW_POOL_SIZE)]


class Pbw:
    name = "pbw"
    nominal_pass_s = 25

    def __init__(self):
        self.pool = pbw_pool()

    def build(self):
        group = G.group_from_spec(cli.load_group_spec(S3))
        rdata = G.symplectic_reflections(group)
        return group, rdata, S.SRAlgebra.omega_form(group, rdata)

    def pass_inputs(self, seed, index):
        """The whole pool in a seeded order.  One triple costs from under 1 ms
        to over 0.5 s, so a seeded sample of it would let the seed set the
        pass time; the seed sets the order and which triples share an algebra."""
        order = list(range(PBW_POOL_SIZE))
        _rng(self.name, seed, index).shuffle(order)
        return order

    def pass_jobs(self, seed, index, built, golden):
        """Jobs one session at a time, each on a fresh algebra (cold caches),
        so that one session's algebra is garbage once its jobs have run."""
        group, rdata, _ = built
        order = self.pass_inputs(seed, index)
        for start in range(0, len(order), PBW_SESSION):
            alg = S.SRAlgebra.omega_form(group, rdata)
            for i in order[start:start + PBW_SESSION]:
                yield self._job(alg, i, golden)

    def _job(self, alg, i, golden):
        a, b, c = self.pool[i]

        def run():
            x, y, z = alg.parse(a), alg.parse(b), alg.parse(c)
            left = (x * y) * z
            return left, left == x * (y * z)

        def check(result):
            left, associative = result
            problems = [] if associative else ["(ab)c != a(bc) for triple %d" % i]
            return problems + _golden_problems(golden, str(i), left.to_str())

        return Job("triple %d" % i, run, check)


# -- center -------------------------------------------------------------------

CENTER_DEGREE = 3
CENTER_DENOMINATORS = (7, 11, 13)
CENTER_NUMERATORS = (1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6)
CENTER_POOL = tuple(Fraction(p, q) for q in CENTER_DENOMINATORS for p in CENTER_NUMERATORS)


def center_argv(c):
    argv = ["sra", "center", "--group", S3, "--deg", str(CENTER_DEGREE)]
    return argv if c is None else argv + ["--c=%s" % c]


class Center:
    name = "center"
    nominal_pass_s = 28

    def __init__(self):
        self.molien = oracles.molien_dims_s3(CENTER_DEGREE)

    def build(self):
        return CH.build_cherednik(cli.load_group_spec(S3))

    def pass_inputs(self, seed, index):
        """The generic job, then one seeded c for each denominator."""
        rng = _rng(self.name, seed, index)
        return [None] + [Fraction(rng.choice(CENTER_NUMERATORS), q) for q in CENTER_DENOMINATORS]

    def pass_jobs(self, seed, index, built, golden):
        return [self._job(c, golden) for c in self.pass_inputs(seed, index)]

    def _job(self, c, golden):
        key = "generic" if c is None else str(c)
        argv = center_argv(c)

        def check(result):
            code, text = result
            problems, report = _report_problems(code, text)
            if report is None:
                return problems
            checks = {rec["name"]: rec for rec in report["checks"]}
            for name in ("recheck", "corner_correspondence"):
                if checks.get(name, {}).get("verdict") != "pass":
                    problems.append("%s did not pass at c=%s" % (name, key))
            dims = checks.get("basis", {}).get("data", {}).get("graded_dims")
            if dims != self.molien:
                problems.append("graded_dims %s != Molien %s at c=%s" % (dims, self.molien, key))
            return problems + _golden_problems(golden, key, text)

        return Job("center c=%s" % key, lambda: run_cli(argv), check)


# -- scan ---------------------------------------------------------------------

SCAN_CUTOFF = 8
SCAN_VALUES_PER_JOB = 12
SCAN_POOL = tuple(sorted({Fraction(s * p, q) for s in (1, -1) for p in range(1, 9) for q in range(1, 7)}))
SCAN_THIRDS = (Fraction(1, 3), Fraction(2, 3), Fraction(4, 3))


def scan_argv(values):
    return ["cherednik", "scan", "--builtin", S3, "--c-list=" + ",".join(str(c) for c in values),
            "--cutoff", str(SCAN_CUTOFF)]


class Scan:
    name = "scan"
    nominal_pass_s = 6

    def build(self):
        return CH.build_cherednik(cli.load_group_spec(S3))

    def pass_inputs(self, seed, index):
        rng = _rng(self.name, seed, index)
        third = rng.choice(SCAN_THIRDS)
        values = [third] + rng.sample([c for c in SCAN_POOL if c != third], SCAN_VALUES_PER_JOB - 1)
        rng.shuffle(values)
        return [values]

    def pass_jobs(self, seed, index, built, golden):
        return [self._job(values, golden) for values in self.pass_inputs(seed, index)]

    def _job(self, values, golden):
        argv = scan_argv(values)

        def check(result):
            code, text = result
            problems, report = _report_problems(code, text)
            if report is None:
                return problems
            got = [rec["data"] for rec in report["checks"]]
            if [d.get("c") for d in got] != [str(c) for c in values]:
                return problems + ["scan reported c values %s" % [d.get("c") for d in got]]
            for c, data in zip(values, got):
                verdict, dim = oracles.scan_verdict(c, SCAN_CUTOFF)
                if data.get("verdict") != verdict or (dim is not None and data.get("dim") != dim):
                    problems.append("c=%s: got %s/%s, expected %s/%s" % (c, data.get("verdict"), data.get("dim"),
                                                                       verdict, dim))
            records = golden.get("records", {})
            missing = [str(c) for c in values if str(c) not in records]
            if missing:
                return problems + ["no recorded scan record for c=%s" % ",".join(missing)]
            expected = {"command": "cherednik scan --c-list %s --cutoff %d" % (argv[4][len("--c-list="):],
                                                                             SCAN_CUTOFF),
                        "version": golden.get("version"), "checks": [json.loads(records[str(c)]) for c in values]}
            if text != json.dumps(expected, indent=2) + "\n":
                problems.append("report bytes differ from the recorded records")
            return problems

        return Job("scan " + argv[4], lambda: run_cli(argv), check)


# -- be_iso -------------------------------------------------------------------

BE_ORDER = 3
BE_POOL = tuple(oracles.s4_points_with_stabilizer_order(2))
BE_CHECKS = ("group_multiplicativity", "parameter_free_baseline", "second_scaling", "w_x_conjugation",
             "w_y_conjugation", "x_commute", "y_commute", "y_x_commutator")


def be_iso_argv(b):
    return ["be-iso", "verify", "--group", S4, "--b=" + ",".join(str(x) for x in b), "--order", str(BE_ORDER)]


def be_iso_problems(code, text):
    """Problems with a ``be-iso verify`` answer: every relation check, the
    baseline and the second scaling must be present and pass, exit code 0."""
    problems, report = _report_problems(code, text)
    if report is None:
        return problems
    verdicts = {rec["name"]: rec["verdict"] for rec in report["checks"]}
    problems += ["check %s: %s" % (name, verdicts.get(name, "missing"))
                 for name in BE_CHECKS if verdicts.get(name) != "pass"]
    return problems + [p for p in _failed_checks(report) if p not in problems]


class BeIso:
    name = "be_iso"
    nominal_pass_s = 17

    def build(self):
        return CH.build_cherednik(cli.load_group_spec(S4))

    def pass_inputs(self, seed, index):
        return [_rng(self.name, seed, index).choice(BE_POOL)]

    def pass_jobs(self, seed, index, built, golden):
        return [self._job(b, golden) for b in self.pass_inputs(seed, index)]

    def _job(self, b, golden):
        key = ",".join(str(x) for x in b)
        argv = be_iso_argv(b)

        def check(result):
            code, text = result
            return be_iso_problems(code, text) + _golden_problems(golden, key, text)

        return Job("be_iso b=" + key, lambda: run_cli(argv), check)


WORKLOADS = {w.name: w for w in (Pbw, Center, Scan, BeIso)}


def load_golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)
