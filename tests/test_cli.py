import concurrent.futures
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srak import cli
from srak.coeffs import ParamPoly

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(args, clean_env=False):
    """``python -m srak.cli`` run from the source tree, which puts it first
    on the module path; ``clean_env`` runs it with an empty environment."""
    return subprocess.run(
        [sys.executable, "-m", "srak.cli"] + args,
        capture_output=True,
        text=True,
        env={} if clean_env else None,
        cwd=SRC,
        timeout=600,
    )


def test_typea_report_and_determinism(tmp_path):
    args = ["cherednik", "typea", "--n", "5", "--c", "1/2"]
    r1 = run_cli(args)
    assert r1.returncode == 0, r1.stderr
    r2 = run_cli(args)
    assert r1.stdout == r2.stdout  # byte-identical reports
    data = json.loads(r1.stdout)
    pred = data["checks"][0]["data"]
    assert pred["ideal_count"] == 2
    assert [e["subgroup"] for e in pred["ideal_chain"]] == ["S2", "S2 x S2"]
    assert "wall" not in r1.stdout


def test_typea_simple_case():
    r = run_cli(["cherednik", "typea", "--n", "3", "--c", "2/7"])
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["checks"][0]["data"]["simple"] is True


def test_malformed_rational_exits_2():
    r = run_cli(["cherednik", "typea", "--n", "5", "--c", "1/0"])
    assert r.returncode == 2
    r = run_cli(["cherednik", "scan", "--builtin", "symmetric:2:reflection", "--c-list", "1/0", "--cutoff", "2"])
    assert r.returncode == 2


def test_compute_error_exits_3(tmp_path):
    spec = tmp_path / "group.json"
    spec.write_text(json.dumps({"builtin": {"type": "symmetric", "n": 2, "rep": "reflection"}, "gen_names": ["s"]}))
    # base point of the wrong dimension: a computational precondition failure
    r = run_cli(["be-iso", "verify", "--group", str(spec), "--b", "1,2", "--c", "generic", "--order", "4"])
    assert r.returncode == 3


def test_scan_builtin_and_preset():
    r = run_cli(["cherednik", "scan", "--builtin", "symmetric:2:reflection", "--c-list", "half_integers", "--cutoff", "6"])
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    verdicts = {c["name"]: c["data"]["verdict"] for c in data["checks"]}
    assert verdicts == {
        "c=1/2": "finite",
        "c=-1/2": "finite",
        "c=3/2": "finite",
        "c=-3/2": "finite",
        "c=5/2": "finite",
        "c=-5/2": "finite",
    }


@pytest.mark.parametrize("argv", [
    ["cherednik", "scan", "--builtin", "symmetric:2:reflection", "--c-list", "1/2", "--cutoff", "-1"],
    ["cherednik", "typea", "--n", "3", "--c", "1/2", "--slice-cutoff", "-1"],
    ["cherednik", "typea", "--n", "5", "--c", "1/2", "--slice-cutoff", "0"],
    ["cherednik", "typea", "--n", "1", "--c", "1/2"],
    ["cherednik", "typea", "--n", "0", "--c", "1/2"],
    ["cherednik", "typea", "--n", "-3", "--c", "1/2"],
    ["cherednik", "scan", "--builtin", "symmetric:2:reflection", "--c-list", ",", "--cutoff", "2"],
    ["cherednik", "gram", "--group", "symmetric:2:reflection", "--deg", "-1"],
    ["sra", "center", "--group", "symmetric:2:reflection", "--deg", "-1"],
    ["sra", "normalize", "--group", "symmetric:2:reflection", "--expr", "x^"],
    ["sra", "normalize", "--group", "symmetric:2:reflection", "--expr", "x*"],
    ["sra", "normalize", "--group", "symmetric:2:reflection", "--expr", ""],
    ["sra", "normalize", "--group", "symmetric:2:reflection", "--expr", "(x"],
    ["sra", "mul", "--group", "symmetric:2:reflection", "--lhs", "x", "--rhs", "x + q"],
    ["sra", "poisson", "--group", "symmetric:2:reflection", "--lhs", "x^2", "--rhs", "y^"],
    ["sra", "normalize", "--group", "symmetric:2:reflection", "--expr", "x^99999999"],
    ["be-iso", "verify", "--group", "symmetric:2:reflection", "--b", "1", "--order", "0"],
    ["be-iso", "verify", "--group", "symmetric:2:reflection", "--b", "1", "--order", "-2"],
    ["be-iso", "verify", "--group", "symmetric:2:reflection", "--b", "1", "--order", "1"],
    ["be-iso", "verify", "--group", "symmetric:2:reflection", "--b", "1", "--c", "1/2", "--order", "3"],
], ids=["scan-cutoff", "typea-slice-cutoff", "typea-slice-cutoff-0", "typea-n-1", "typea-n-0", "typea-n-negative",
        "scan-empty-c-list", "gram-deg", "center-deg",
        "expr-open-power", "expr-open-product", "expr-empty", "expr-open-paren", "mul-unknown-symbol",
        "poisson-open-power", "expr-huge-exponent", "be-iso-order-0", "be-iso-order-negative", "be-iso-order-1",
        "be-iso-numeric-c"])
def test_bad_input_exits_2(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected an argument
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""


# element literals on S3 from a fixed token alphabet: at most 10 tokens and
# every exponent at most 3, so each case is a bounded computation
NAMES = ["x1", "x2", "y1", "y2", "s1", "s2", "t", "c1"]
NUMBERS = st.one_of(st.integers(0, 9).map(str), st.tuples(st.integers(0, 9), st.integers(0, 9)).map("%d/%d".__mod__))
LITERAL_TOKENS = st.one_of(st.sampled_from(NAMES), NUMBERS, st.sampled_from(list("/+-*^()")))


def cap_exponents(tokens):
    """The tokens, each one after "^" replaced by a digit of at most 3 when
    it is a number."""
    out = list(tokens)
    for i in range(1, len(out)):
        if out[i - 1] == "^" and out[i][0].isdigit():
            out[i] = str(min(int(out[i][0]), 3))
    return out


# half the cases chain operands (a name, a number or a name to a power) with
# + - *, so that many literals parse and are normalized
OPERANDS = st.one_of(
    st.sampled_from(NAMES).map(lambda n: [n]),
    NUMBERS.map(lambda n: [n]),
    st.tuples(st.sampled_from(NAMES), st.integers(0, 3)).map(lambda p: [p[0], "^", str(p[1])]),
)
CHAINS = st.lists(st.tuples(st.sampled_from("+-*"), OPERANDS), min_size=1, max_size=5).map(
    lambda parts: [tok for op, operand in parts for tok in [op] + operand][1:11]
)


@settings(deadline=None, max_examples=60)
@given(tokens=st.one_of(st.lists(LITERAL_TOKENS, max_size=10), CHAINS).map(cap_exponents))
def test_fuzzed_literal_never_tracebacks(tokens):
    expr = " ".join(tokens)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["sra", "normalize", "--group", "symmetric:3:reflection", "--expr", expr])
        except SystemExit as exc:  # argparse rejected an argument
            code = exc.code
    assert code in (0, 2), expr
    assert "Traceback" not in err.getvalue(), expr


def test_failing_verdict_exits_1(capsys):
    # the finite-dimensional S2 module at c = 3/2 has ranks 1, 1, 1, so a
    # slice cutoff of 1 still sees positive rank and the slice-evidence
    # check fails: a verdict, not a crash
    code = cli.main(["cherednik", "typea", "--n", "5", "--c", "3/2", "--slice-cutoff", "1"])
    captured = capsys.readouterr()
    assert code == 1
    verdicts = {c["name"]: c["verdict"] for c in json.loads(captured.out)["checks"]}
    assert verdicts["slice_evidence"] == "fail"
    assert "Traceback" not in captured.err


def test_cutoff_0_scan_is_inconclusive(capsys):
    # the degree-0 rank is always 1, so it cannot tell finite from infinite
    code = cli.main(["cherednik", "scan", "--builtin", "symmetric:2:reflection", "--c-list", "1/2", "--cutoff", "0"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [c["data"]["verdict"] for c in data["checks"]] == ["inconclusive"]


def test_arity_error_exits_2(monkeypatch, capsys):
    def wrong_arity(args):
        return ParamPoly.var(2, 0, power=-1)

    monkeypatch.setattr(cli, "cmd_group_analyze", wrong_arity)
    code = cli.main(["group", "analyze", "--group", "symmetric:2:reflection"])
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err


def test_internal_error_exits_4(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("deliberate fault")

    monkeypatch.setattr(cli, "cmd_group_analyze", broken)
    code = cli.main(["group", "analyze", "--group", "symmetric:2:reflection"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "Traceback" in captured.err and "RuntimeError: deliberate fault" in captured.err


def test_scan_reads_no_environment(monkeypatch, capsys):
    # the variable that once sized a scan process pool changes nothing
    argv = ["cherednik", "scan", "--builtin", "symmetric:2:reflection", "--c-list", "1/2,1/3", "--cutoff", "4"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("the scan started a process pool")

    monkeypatch.setenv("SRAK_THREADS", "2")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == plain


def test_group_analyze(tmp_path):
    spec = tmp_path / "s3.json"
    spec.write_text(json.dumps({"builtin": {"type": "symmetric", "n": 3, "rep": "reflection"}}))
    r = run_cli(["group", "analyze", "--group", str(spec)])
    assert r.returncode == 0
    data = json.loads(r.stdout)
    by_name = {c["name"]: c for c in data["checks"]}
    assert by_name["order"]["data"]["order"] == 6
    assert by_name["reflections"]["data"]["count"] == 3
    assert by_name["orbit_form_weights"]["data"]["m"] == ["3/2"]


def test_sra_normalize_and_mul():
    # canonical print order: graded-lex monomials, then group elements by
    # their matrix key (the reflection sorts before the identity)
    r = run_cli(["sra", "normalize", "--group", "symmetric:2:reflection", "--expr", "y*x"])
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["checks"][0]["data"]["result"] == "-2*c1*s + t + x*y"
    r = run_cli(["sra", "mul", "--group", "symmetric:2:reflection", "--lhs", "y", "--rhs", "x"])
    assert json.loads(r.stdout)["checks"][0]["data"]["result"] == "-2*c1*s + t + x*y"


def test_sra_center_cli():
    r = run_cli(["sra", "center", "--group", "symmetric:2:reflection", "--deg", "2"])
    assert r.returncode == 0
    data = json.loads(r.stdout)
    basis = data["checks"][0]["data"]
    assert basis["graded_dims"] == [1, 0, 3]
    assert "-c1*s + x*y" in basis["elements"]


def test_sra_poisson_cli():
    r = run_cli(["sra", "poisson", "--group", "symmetric:2:reflection", "--lhs", "x^2", "--rhs", "y^2"])
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["checks"][0]["data"]["result"] == "4*c1*s - 4*x*y"


def test_be_iso_cli():
    r = run_cli(["be-iso", "verify", "--group", "symmetric:2:reflection", "--b", "1", "--c", "generic", "--order", "4"])
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    verdicts = {c["name"]: c["verdict"] for c in data["checks"]}
    assert verdicts["y_x_commutator"] == "pass"
    assert verdicts["parameter_free_baseline"] == "pass"
    assert verdicts["second_scaling"] == "pass"


def test_simplicity_lattice_cli():
    r = run_cli(["simplicity", "lattice", "--group", "symmetric:2:reflection", "--c-cher", "3/2"])
    assert r.returncode == 0
    data = json.loads(r.stdout)
    by_name = {c["name"]: c["data"] for c in data["checks"]}
    assert by_name["lattice"]["generators"] == [["-1"], ["1"]]
    assert by_name["gate"]["candidate_nonsimple"] is True
    assert by_name["gate"]["conversion"] == "-2"
    r2 = run_cli(["simplicity", "lattice", "--group", "symmetric:2:reflection", "--c-cher", "1/3"])
    assert json.loads(r2.stdout)["checks"][1]["data"]["candidate_nonsimple"] is False


def test_centralizer_selftest_cli(tmp_path):
    g = tmp_path / "s3.json"
    g.write_text(json.dumps({"builtin": {"type": "symmetric", "n": 3, "rep": "reflection"}}))
    h = tmp_path / "s2.json"
    # the rank-one doubled group embeds in the rank-two one via... it does
    # not; use the trivial subgroup instead through the same spec mechanism
    h.write_text(json.dumps({"dim_h": 2, "generators_on_h": [[["1", "0"], ["1", "-1"]]]}))
    r = run_cli(["centralizer", "selftest", "--g", str(g), "--h", str(h)])
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    assert all(c["verdict"] == "pass" for c in data["checks"])


def test_out_file_and_env_insensitivity(tmp_path):
    out = tmp_path / "report.json"
    r = run_cli(["cherednik", "typea", "--n", "4", "--c", "1/4", "--out", str(out)])
    assert r.returncode == 0
    text1 = out.read_text()
    r2 = run_cli(["cherednik", "typea", "--n", "4", "--c", "1/4"], clean_env=True)
    assert r2.returncode == 0
    assert r2.stdout.rstrip("\n") == text1.rstrip("\n")


def test_selftest_cli_quick():
    r = run_cli(["selftest", "--quick"])
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    assert all(c["verdict"] != "fail" for c in data["checks"])
    assert "overall: PASS" in r.stderr


def test_sra_center_sample_flag():
    r = run_cli(["sra", "center", "--group", "symmetric:2:reflection", "--deg", "2", "--sample"])
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["checks"][0]["data"]["graded_dims"] == [1, 0, 3]
    assert "sample(" in data["command"]


def test_unknown_spec_field_exit(tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"builtin": {"type": "symmetric", "n": 2}, "bogus": True}))
    r = run_cli(["group", "analyze", "--group", str(spec)])
    assert r.returncode == 3  # structural group error


@pytest.mark.parametrize(
    "spec",
    [{"dim_h": -1, "generators_on_h": []}, {"dim_h": 0, "generators_on_h": []},
     {"dim_h": 1, "generators_on_h": [[["0"]]]}],
    ids=["negative-dim", "zero-dim", "singular-generator"],
)
def test_degenerate_spec_exits_3(tmp_path, capsys, spec):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["group", "analyze", "--group", str(path)]) == 3  # structural group error
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("computation error:")


def test_python_m_srak_is_the_cli():
    args = ["sra", "center", "--group", "symmetric:2:reflection", "--deg", "2"]
    runs = [subprocess.run([sys.executable, "-m", module] + args, capture_output=True, cwd=SRC, timeout=600)
            for module in ("srak", "srak.cli")]
    assert runs[0].returncode == runs[1].returncode == 0, runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["checks"][0]["data"]["graded_dims"] == [1, 0, 3]


def _main_in_process(argv, capsys):
    """(exit code, stdout) of ``cli.main(argv)`` under the default recursion limit."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        code = cli.main(argv)
    finally:
        sys.setrecursionlimit(limit)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv, top", [
    (["sra", "normalize", "--group", "symmetric:2:reflection", "--expr", "y^32*x^32"], "x^32*y^32"),
    (["sra", "normalize", "--group", "symmetric:2:reflection", "--expr", "y^40*x^40"], "x^40*y^40"),
    (["sra", "normalize", "--group", "symmetric:2:reflection", "--expr", "y^100*x^100"], "x^100*y^100"),
    (["sra", "mul", "--group", "symmetric:2:reflection", "--lhs", "y^40", "--rhs", "x^40"], "x^40*y^40"),
], ids=["y32x32", "y40x40", "y100x100", "mul-y40-x40"])
def test_long_literals_normalize(argv, top, capsys):
    # up to the literal cap: the rewriting recurses once per letter of the
    # word, not once per inversion; the printed order ends on the top term
    code, out = _main_in_process(argv, capsys)
    assert code == 0
    assert json.loads(out)["checks"][0]["data"]["result"].endswith(" + " + top)


def test_rank_two_long_literal_is_quick(capsys):
    start = time.perf_counter()
    code, _ = _main_in_process(["sra", "normalize", "--group", "symmetric:3:reflection", "--expr", "y1^12*x1^12"], capsys)
    assert code == 0
    assert time.perf_counter() - start <= 10


@pytest.mark.parametrize("group, expr, digest", [
    ("symmetric:2:reflection", "y^31*x^31", "946c4e526e50926af05def7d28e41b86da2d79de9ab813ed0b46066683de9887"),
    ("symmetric:3:reflection", "y1^6*x1^6", "73793a071c3724ac6c7479e1befd7bafcd32c5da7ffd4cc0ef5129e59633e8dc"),
    ("symmetric:3:reflection", "y2^5*x1^3*y1^2*x2^4*s1",
     "bca3fa46eb044bc221fc32d3b767cb7ba84db21933e8fd6f8e0ba7a801d1f46c"),
])
def test_long_literal_reports_keep_their_bytes(group, expr, digest, capsys):
    # sha256 of the reports as the swap-by-swap rewriting printed them
    code, out = _main_in_process(["sra", "normalize", "--group", group, "--expr", expr], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_group_times_long_x_power_is_quick(capsys):
    # g . x1^100 is folded one letter at a time, one term per monomial,
    # not expanded into 2^100 words
    start = time.perf_counter()
    code, out = _main_in_process(["sra", "mul", "--group", "symmetric:3:reflection", "--lhs", "s1*s2", "--rhs", "x1^100"],
                                 capsys)
    assert code == 0
    assert time.perf_counter() - start <= 2
    assert json.loads(out)["checks"][0]["data"]["result"].startswith("x1^100*")


@pytest.mark.parametrize("lhs, rhs, digest", [
    ("s1*s2", "x1^8", "11c9ef30064c3bd5653485397c2766197625f428fa79fe03e3c75ffec6817023"),
    ("s1*s2", "x1^12", "91032156791a9eadfccceca68a3aef66d20dae7bef5e78a359cfa3a8a6666fa0"),
    ("s1*s2", "x1^14", "2dc2e0b27c3ac4fc8e3c4f238d1e6476d14f3ba43ddf5acbdce5d0590e332819"),
    ("s1*y2^3*x1", "y1^4*x2^3*s2", "1d0f0eda4461968e8c915e1c8c39df6fc97ecd0c4843a00313984805edccd270"),
])
def test_group_times_word_reports_keep_their_bytes(lhs, rhs, digest, capsys):
    # sha256 of the reports as the word-by-word expansion of g . m printed them
    code, out = _main_in_process(["sra", "mul", "--group", "symmetric:3:reflection", "--lhs", lhs, "--rhs", rhs], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("last, code", [(23, 0), (24, 3)])
def test_words_of_2_to_the_word_bits_letters_exit_3(last, code, capsys):
    # 1023 letters fit the packed word's fields; 1024 are a computation
    # error, not a malformed literal
    expr = "*".join(["x^100"] * 10) + "*x^%d" % last
    assert _main_in_process(["sra", "normalize", "--group", "symmetric:2:reflection", "--expr", expr], capsys)[0] == code
