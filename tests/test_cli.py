import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cycenum
from cycenum import (
    build_ext_field,
    cosets_full,
    gauss_sum,
    icq_membership,
    irreducible_cyclic_code,
    run_pipeline_trials,
    weight_spectrum_mceliece,
)
from cycenum import cli
from cycenum.cli import MAX_COSETS_N, MAX_TRIALS, main
from cycenum.cosets import multiplicative_order
from cycenum.poly import is_irreducible
from gf_utils import valid_codes

PAPER_PARTITION = """{0}
{1,3,9,11}
{2,6}
{4,12}
{5,15,13,7}
{8}
{10,14}
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cosets_text_matches_paper(capsys):
    code, out, err = run_cli(capsys, "cosets", "16", "3")
    assert code == 0
    assert out == PAPER_PARTITION
    assert err == ""


def test_cosets_not_coprime_exit_code(capsys):
    code, out, err = run_cli(capsys, "cosets", "16", "4")
    assert code == 1
    assert out == ""
    assert err.startswith("NotCoprime")


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["weights", "2", "4", "3", "--method", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["weights", "2", "4", "3", "--table-cap", "1"])  # no such flag
    assert exc.value.code == 2


def test_cosets_json_roundtrip(capsys):
    code, out, err = run_cli(capsys, "cosets", "16", "3", "--json", "--members")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc == {"schema": 1, **cosets_full(16, 3).to_dict()}


def test_cosets_json_sizes_only(capsys):
    code, out, _ = run_cli(capsys, "cosets", "16", "3", "--json")
    doc = json.loads(out)
    assert all("members" not in c for c in doc["cosets"])
    assert [c["size"] for c in doc["cosets"]] == [1, 4, 2, 2, 4, 1, 2]


def test_factor_text_and_json(capsys):
    code, out, err = run_cli(capsys, "factor", "5", "2")
    assert code == 0 and err == ""
    assert out == "[1, 1]\n[1, 1, 1, 1, 1]\n"
    code, out, _ = run_cli(capsys, "factor", "5", "2", "--json")
    doc = json.loads(out)
    assert doc["factors"] == [[1, 1], [1, 1, 1, 1, 1]]


def test_code_matrix_output(capsys):
    code, out, err = run_cli(capsys, "code", "2", "4", "3", "--matrix", "--json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["generator"] == [1, 1]
    assert doc["matrix"] == [
        [1, 1, 0, 0, 0],
        [0, 1, 1, 0, 0],
        [0, 0, 1, 1, 0],
        [0, 0, 0, 1, 1],
    ]


def test_weights_both_methods_agree(capsys):
    code, out, err = run_cli(capsys, "weights", "2", "4", "1", "--method", "both")
    assert code == 0 and err == ""
    assert "A_8 = 15" in out
    code, out, _ = run_cli(capsys, "weights", "2", "4", "3", "--method", "both",
                           "--json")
    doc = json.loads(out)
    assert doc["spectrum"] == {"0": 1, "2": 10, "4": 5}
    assert doc["enumerator_check"] == {"A11": 16}
    assert doc["spectrum"] == weight_spectrum_mceliece(irreducible_cyclic_code(2, 4, 3)).to_dict()


def test_dual_subcommand(capsys):
    code, out, err = run_cli(capsys, "dual", "2", "4", "1", "--json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["dual_check"] == {"A11": 2**11}
    assert doc["dual_spectrum"]["3"] == 35


def test_gauss_json_roundtrip(capsys):
    code, out, err = run_cli(capsys, "gauss", "2", "4", "5", "--json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    F = build_ext_field(2, 4)
    assert doc == {"schema": 1, "q": 2, "k": 4, "j": 5, "beta_exp": 0,
                   **gauss_sum(5, F.alpha_pow(0), F).to_dict()}
    assert abs(complex(doc["re"], doc["im"]) - (-4.0)) < 1e-9
    assert abs(doc["magnitude"] - 4.0) < 1e-9


def test_theta_subcommand(capsys):
    code, out, err = run_cli(capsys, "theta", "2", "4", "3", "--json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["theta"] == 2
    assert doc["weight_divisor"] == 2
    assert doc["epsilon_bound"] == 0.125


def test_theta_subcommand_computes_theta_once(capsys, monkeypatch):
    from cycenum import cli, pipeline

    expected = run_cli(capsys, "theta", "2", "12", "5", "--json")
    original, calls = pipeline._theta, []

    def counting_theta(q, n, N):
        calls.append((q, n, N))
        return original(q, n, N)

    monkeypatch.setattr(pipeline, "_theta", counting_theta)
    monkeypatch.setattr(cli, "_theta", counting_theta)
    assert run_cli(capsys, "theta", "2", "12", "5", "--json") == expected
    assert calls == [(2, 819, 5)]


def test_theta_subcommand_builds_no_field(capsys, monkeypatch):
    # theta is integer arithmetic on q, k and N, even at the table cap
    def no_build(*args):
        raise AssertionError("theta built a field")

    monkeypatch.setattr(cycenum.codes, "build_ext_field", no_build)
    code, out, err = run_cli(capsys, "theta", "2", "22", "3", "--json")
    assert code == 0 and err == ""
    assert json.loads(out) == {"schema": 1, "q": 2, "k": 22, "N": 3, "n": (2**22 - 1) // 3,
                               "theta": 11, "weight_divisor": 2**10, "epsilon_bound": 0.125}


def test_icq_check_roundtrip(capsys):
    code, out, err = run_cli(capsys, "icq-check", "2", "4", "1",
                             "--epsilon", "0.6", "--json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc == {"schema": 1, **icq_membership(2, 4, 1, 0.6).to_dict()}
    assert not doc["member"]
    assert doc["failures"] == ["EpsilonExceedsBound"]


def test_pipeline_roundtrip_and_exit(capsys):
    code, out, err = run_cli(capsys, "pipeline", "2", "4", "3",
                             "--epsilon", "0.125", "--seed", "7", "--json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    report = run_pipeline_trials(2, 4, 3, 0.125, [7])[0]
    assert doc == {"schema": 1, "report": report.to_dict()}
    assert doc["report"]["exact"] and doc["report"]["seed"] == 7


def test_pipeline_trials_summary(capsys):
    code, out, err = run_cli(capsys, "pipeline", "2", "4", "3",
                             "--epsilon", "0.125", "--seed", "0",
                             "--trials", "5", "--json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["exact_count"] == 5
    assert len(doc["trial_results"]) == 5
    for trials in ("0", "-3"):
        code, out, err = run_cli(capsys, "pipeline", "2", "4", "3",
                                 "--epsilon", "0.125", "--seed", "0",
                                 "--trials", trials, "--json")
        assert (code, out) == (1, "")
        assert err.startswith("InvalidParameters")


def _run_module(*argv, timeout=None):
    env = {**os.environ, "PYTHONPATH": str(Path(cycenum.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "cycenum", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("argv", [["cosets", "0", "3"], ["cosets", "-5", "3"],
                                  ["cosets", "16", "1"], ["factor", "0", "2"],
                                  ["gauss", "2", "0", "1"],
                                  # residues near 2^32: int64 products would overflow
                                  ["factor", "5", "4294967311"],
                                  # 2 * epsilon must be a finite float
                                  *[[cmd, "2", "4", "3", "--epsilon", eps, *extra]
                                    for cmd, extra in (("pipeline", ["--seed", "1", "--force"]),
                                                       ("icq-check", ["--json"]))
                                    for eps in ("nan", "inf", "1e308")],
                                  # k < 1: 0**-1 would raise ZeroDivisionError
                                  ["icq-check", "0", "-1", "3", "--epsilon", "0.1"],
                                  ["pipeline", "0", "-1", "1", "--epsilon", "0.1", "--seed", "1"],
                                  ["icq-check", "2", "0", "3", "--epsilon", "0.1"]])
def test_invalid_sizes_exit_1_without_traceback(argv):
    run = _run_module(*argv)
    assert run.returncode == 1
    assert run.stderr.startswith("InvalidParameters:")
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("argv", [
    ["cosets", str(10**12), "2"],
    ["cosets", str(MAX_COSETS_N + 1), "2", "--json", "--members"],
    ["pipeline", "2", "4", "3", "--epsilon", "0.125", "--seed", "0", "--trials", str(10**12)],
    ["pipeline", "2", "4", "3", "--epsilon", "0.125", "--seed", "0",
     "--trials", str(MAX_TRIALS + 1)],
    ["factor", str(MAX_COSETS_N + 1), "3"],
    ["factor", "100001", "2"],
    ["dual", "2", "16", "3"],
    ["dual", "3", "10", "4", "--json"],
    ["factor", "262143", "2"],
    ["factor", "93331", "2"],
    ["pipeline", "2", "22", "6141", "--epsilon", "0.001", "--seed", "1",
     "--trials", "100000", "--force"],
])
def test_input_budget_refused_before_work(argv):
    # a sieve of 10^12 marks, 10^12 trial reports, a splitting field of
    # degree 9090, a dual count of 6572 digits, a product chain of 14601
    # factors (68 s), 486 minimal polynomials of degree 198 (50 s) or 614
    # million phase draws would not finish or not print; the caps refuse
    # them first (about 0.4 s per run, mostly interpreter start)
    run = _run_module(*argv, timeout=10)
    assert run.returncode == 1
    assert run.stderr.startswith("InvalidParameters:")
    assert "Traceback" not in run.stderr


def test_limits_are_inclusive(capsys, monkeypatch):
    # ord_15(2) = 4, x^15 - 1 has 5 factors over GF(2), so the factor work
    # estimate is 15^2 + 10 * 5 * 4^3, the dual of the [15,4] code has
    # 2^11 = 2048 words, 2 trials of the [5,4] code (d = 3) draw 4 phases,
    # and its formula sums 2 Gauss sums of 15 terms
    pipeline = ["pipeline", "2", "4", "3", "--epsilon", "0.125", "--seed", "7",
                "--trials", "2"]
    for name, limit, argv in (("MAX_FACTOR_DEGREE", 4, ["factor", "15", "2"]),
                              ("MAX_FACTOR_WORK", 15**2 + 10 * 5 * 4**3, ["factor", "15", "2"]),
                              ("MAX_DUAL_DIGITS", 4, ["dual", "2", "4", "1"]),
                              ("MAX_DRAWS", 4, pipeline),
                              ("MAX_FORMULA_CELLS", 2 * 15, ["weights", "2", "4", "3"]),
                              ("MAX_FORMULA_CELLS", 2 * 15, ["dual", "2", "4", "3"]),
                              ("MAX_FORMULA_CELLS", 2 * 15, pipeline)):
        with monkeypatch.context() as patch:
            patch.setattr(cli, name, limit)
            assert run_cli(capsys, *argv)[0] == 0
            patch.setattr(cli, name, limit - 1)
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (1, "")
            assert err.startswith("InvalidParameters"), name


@pytest.mark.parametrize("argv", [["weights"], ["dual", "--method", "both"],
                                  ["pipeline", "--epsilon", "0.001", "--seed", "1"]],
                         ids=["weights", "dual", "pipeline"])
def test_formula_budget_refused_before_any_field(capsys, monkeypatch, argv):
    # (2, 22, 6141): n = 683 and d = 6141, so the formula would sum 6140
    # Gauss sums of 2^22 - 1 terms, about 390 s of work
    def build(q, k):
        raise AssertionError(f"GF({q}^{k}) was built")

    monkeypatch.setattr(cycenum.field, "_build", build)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv[0], "2", "22", "6141", *argv[1:], "--json")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err.startswith("InvalidParameters") and "--method brute" in err


def test_formula_budget_leaves_brute_force_and_smaller_codes():
    run = _run_module("weights", "2", "22", "6141", "--method", "brute", "--json", timeout=60)
    assert run.returncode == 0 and run.stderr == ""
    assert sum(json.loads(run.stdout)["spectrum"].values()) == 2**22
    run = _run_module("weights", "2", "20", "75", "--json", timeout=60)
    assert run.returncode == 0 and run.stderr == ""


def test_closed_stdout_ends_without_traceback():
    env = {**os.environ, "PYTHONPATH": str(Path(cycenum.__file__).parents[1])}
    # 5000 trial results are more than a pipe buffer holds
    proc = subprocess.Popen([sys.executable, "-m", "cycenum", "pipeline", "2", "12", "5",
                             "--epsilon", "0.001", "--seed", "7", "--trials", "5000",
                             "--json", "--force"],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        head = proc.stdout.read(150)
        proc.stdout.close()
        proc.wait(timeout=60)
        err = proc.stderr.read().decode()
    finally:
        proc.kill()
        proc.stderr.close()
    assert head.startswith(b'{"N": 5')
    assert proc.returncode == 1
    assert "Traceback" not in err


def test_factor_skips_reducible_binomials():
    # every x^6 + c over GF(65537) is reducible (3 does not divide 2^16), so
    # the modulus scan must skip them, not run Rabin on 65,537 binomials
    run = _run_module("factor", "13", "65537", "--json", timeout=10)
    assert run.returncode == 0 and run.stderr == ""
    assert json.loads(run.stdout)["num_factors"] == 3


def test_factor_at_the_degree_limit():
    # ord_401(2) = 200 = MAX_FACTOR_DEGREE: two minimal polynomials of
    # degree 200, each found by one solve in GF(2^200)
    assert multiplicative_order(2, 401) == cli.MAX_FACTOR_DEGREE
    run = _run_module("factor", "401", "2", "--json", timeout=20)
    assert run.returncode == 0 and run.stderr == ""
    factors = json.loads(run.stdout)["factors"]
    assert [len(f) - 1 for f in factors] == [1, 200, 200]
    assert all(is_irreducible(f, 2) for f in factors)


def test_table_cap_checked_before_primality_and_q_pow_k():
    # trial division of 2^61 - 1, the order of 2 mod (2^1000000 - 1)/3,
    # 2^1000000 - 1 modulo 3 in the membership check (about 23 s), or
    # 2^(2^61 - 1) would not finish; the cap must reject them all first,
    # and an over-cap code whose n clause fails as `code 2 30 2` is
    for argv in (["gauss", "2305843009213693951", "1", "1"],
                 ["code", "2", "1000000", "3"],
                 ["icq-check", "2", "1000000", "3", "--epsilon", "0.1"],
                 ["pipeline", "2", "2305843009213693951", "3", "--epsilon", "0.1",
                  "--seed", "1"],
                 ["icq-check", "2", "30", "2", "--epsilon", "0.1", "--json"]):
        run = _run_module(*argv, timeout=5)
        assert (run.returncode, run.stdout) == (1, ""), argv
        assert run.stderr.startswith("TableCapExceeded"), argv


@pytest.mark.parametrize("argv", [["icq-check", "4", "2", "3", "--epsilon", "0.1"],
                                  ["icq-check", "9", "2", "8", "--epsilon", "0.1"],
                                  ["pipeline", "4", "2", "3", "--epsilon", "0.1", "--seed", "1"]])
def test_membership_refuses_a_prime_power_q(capsys, argv):
    # n and the order pass (GF(4) and GF(81) exist), but codes are built
    # over prime fields only: the check must say so, not report on theta
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"NotPrime: {argv[1]} is not prime\n"


@pytest.mark.parametrize("argv", [["icq-check", "-2", "30000000", "3", "--epsilon", "0.1"],
                                  ["pipeline", "-2", "30000000", "3", "--epsilon", "0.1",
                                   "--seed", "1"],
                                  ["icq-check", "1", "5", "3", "--epsilon", "0.1"],
                                  ["icq-check", "0", "5", "2", "--epsilon", "0.1", "--json"],
                                  ["icq-check", "-3", "2", "4", "--epsilon", "0.1"]])
def test_membership_refuses_q_below_2(argv):
    # refused as theta and code refuse it: the table cap skips q <= 1, so
    # nothing else bounds q**k and the order clause (k = 10**10 would form
    # a 1.25 GB power), and q = 0 or -3 must not get a clause report
    run = _run_module(*argv, timeout=10)
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr == f"NotPrime: {argv[1]} is not prime\n"


def test_weights_with_four_million_cosets_mod_N():
    # the [1,1] code over GF(4194301), N = q - 1: d = 1, so the formula
    # reads one coset mod d instead of sieving 4194300 cosets mod N
    run = _run_module("weights", "4194301", "1", "4194300", "--json", timeout=10)
    assert run.returncode == 0 and run.stderr == ""
    assert json.loads(run.stdout)["spectrum"] == {"0": 1, "1": 4194300}


def test_membership_keeps_N_an_exact_int(capsys):
    # N past the float range, or past 2^53, must reach the n clause as the
    # int it is: no OverflowError, no rounding to 9007199254740992
    huge = str(10**400)
    code, out, err = run_cli(capsys, "icq-check", "2", "4", huge, "--epsilon", "0.1")
    assert (code, err) == (0, "")
    assert "n integral:   False" in out
    code, out, err = run_cli(capsys, "icq-check", "2", "4", "9007199254740993",
                             "--epsilon", "0.1", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["N"] == 2**53 + 1
    assert run_cli(capsys, "pipeline", "2", "4", huge, "--epsilon", "0.1", "--seed", "1") \
        == (1, "", "MembershipFailed: IntegralityFailed\n")


# one small valid argv per subcommand, and the --trials form of pipeline
HANDLER_ARGV = [
    ["cosets", "16", "3"],
    ["factor", "15", "2"],
    ["code", "2", "4", "3", "--matrix"],
    ["gauss", "2", "4", "5"],
    ["weights", "2", "4", "3", "--method", "both"],
    ["dual", "2", "4", "1"],
    ["theta", "2", "4", "3"],
    ["icq-check", "2", "4", "1", "--epsilon", "0.6"],
    ["pipeline", "2", "4", "3", "--epsilon", "0.125", "--seed", "7"],
    ["pipeline", "2", "4", "3", "--epsilon", "0.125", "--seed", "0", "--trials", "3"],
]


@pytest.mark.parametrize("argv", HANDLER_ARGV, ids=" ".join)
def test_handlers_return_their_output(capsys, argv):
    # a handler prints nothing: it returns (payload, lines), and main alone
    # writes them
    for extra in ([], ["--json"]):
        args = cli.build_parser().parse_args(argv + extra)
        payload, lines = args.func(args)
        assert capsys.readouterr() == ("", "")
        code, out, err = run_cli(capsys, *argv, *extra)
        assert (code, err) == (0, "")
        if extra:
            assert out == json.dumps({"schema": 1, **payload}, sort_keys=True) + "\n"
        else:
            assert out == "".join(line + "\n" for line in lines)


class _Unformattable(int):
    """A count that fails the run if a text line formats it."""

    def __format__(self, spec):
        raise AssertionError("a text line was formatted")


@pytest.mark.parametrize("argv,name,spectrum_of", [
    (["dual", "2", "12", "13"], "macwilliams_dual", lambda dual: dual.spectrum),
    (["weights", "2", "12", "13"], "weight_spectrum_mceliece", lambda spectrum: spectrum),
], ids=["dual", "weights"])
def test_json_runs_format_no_text_lines(capsys, monkeypatch, argv, name, spectrum_of):
    want = run_cli(capsys, *argv, "--json")
    real = getattr(cli, name)

    def unformattable(*args):
        result = real(*args)
        counts = spectrum_of(result).counts
        for w in counts:
            counts[w] = _Unformattable(counts[w])
        return result

    monkeypatch.setattr(cli, name, unformattable)
    assert run_cli(capsys, *argv, "--json") == want
    with pytest.raises(AssertionError, match="formatted"):
        run_cli(capsys, *argv)


def test_pipeline_membership_failure_exit_code(capsys):
    code, out, err = run_cli(capsys, "pipeline", "2", "4", "3",
                             "--epsilon", "0.3", "--seed", "0")
    assert code == 1
    assert err.startswith("MembershipFailed")


def test_byte_identical_repeat_runs(capsys):
    for argv in (
        ["cosets", "16", "3", "--json", "--members"],
        ["weights", "2", "4", "3", "--method", "both", "--json"],
        ["gauss", "2", "4", "1", "--json"],
        ["pipeline", "2", "4", "3", "--epsilon", "0.125", "--seed", "9",
         "--trials", "3", "--json"],
    ):
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2


def test_no_stderr_on_success(capsys):
    for argv in (
        ["cosets", "15", "2"],
        ["factor", "15", "2"],
        ["factor", "7", "1000003"],
        ["code", "2", "4", "1"],
        ["gauss", "3", "2", "1", "--json"],
        ["weights", "3", "2", "2", "--method", "both"],
        ["dual", "2", "4", "3"],
        ["theta", "2", "4", "1", "--json"],
        ["icq-check", "2", "4", "1", "--epsilon", "0.4"],
        ["pipeline", "2", "4", "1", "--epsilon", "0.5", "--seed", "1"],
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, argv
        assert err == "", argv


def test_weights_at_2_pow_20_formula_equals_oracle():
    # a fresh process, so the GF(2^20) tables do not stay cached in this one;
    # --method both exits 1 if the formula and the reshape oracle disagree
    env = {**os.environ, "PYTHONPATH": str(Path(cycenum.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-m", "cycenum", "weights", "2", "20", "3",
                          "--method", "both", "--json"],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    payload = json.loads(run.stdout)
    assert payload["method"] == "both"
    assert payload["n"] == (2**20 - 1) // 3
    assert sum(payload["spectrum"].values()) == 2**20


def test_parser_reused_after_usage_error(capsys):
    # one parser serves every call in a process; a usage error must not
    # leave state behind that changes the output of the calls after it
    from cycenum.cli import build_parser

    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["weights", "2", "4", "3", "--method", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    env = {**os.environ, "PYTHONPATH": str(Path(cycenum.__file__).parents[1])}
    for argv in (["weights", "2", "4", "3", "--json"], ["factor", "15", "2"],
                 ["weights", "3", "2", "2", "--method", "both"]):
        code, out, err = run_cli(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "cycenum", *argv],
                               env=env, capture_output=True, text=True)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


# --- fuzz of argv --------------------------------------------------------
# Sizes are drawn so that every accepted input is small: q^k <= 2^12 (2^8
# for dual, whose back transform grows as n^2). The argv limits
# MAX_COSETS_N and MAX_TRIALS are drawn at their value and one past it; at
# the value, the other arguments are drawn so that a later domain check
# refuses the input, which crosses the budget check without doing the
# bounded work behind it.

_Q = st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 6, 7, 9, 11, 13]).map(str)
_SMALL = st.integers(-3, 40).map(str)
_VALID = {cap: [[str(v) for v in code] for code in valid_codes(cap, (2, 3, 5, 7, 11, 13))]
          for cap in (1 << 8, 1 << 12)}


def _code(cap=1 << 12):
    """q k N: a valid code with q^k <= cap, or any small triple, which the
    table cap refuses above 2^22."""
    anything = st.tuples(_Q, st.integers(-1, 13).map(str), _SMALL).filter(
        lambda a: int(a[0]) < 2 or int(a[1]) < 1 or int(a[0]) ** int(a[1]) <= cap
        or int(a[0]) ** int(a[1]) > 1 << 22).map(list)
    return st.one_of(st.sampled_from(_VALID[cap]), anything)


def _argv(*parts):
    """One argv list from strategies of single words and of word lists."""
    return st.tuples(*parts).map(
        lambda drawn: [w for part in drawn for w in (part if isinstance(part, list) else [part])])


def _flags(*names):
    return st.lists(st.sampled_from(names), unique=True)


_EPSILON = st.sampled_from(["nan", "inf", "-0.1", "0", "1e-3", "0.125", "0.5", "2.5", "1e308"])
_LIMIT_N = st.sampled_from([MAX_COSETS_N, MAX_COSETS_N + 1]).map(str)
_METHOD = st.sampled_from(["mceliece", "brute", "both"])

ARGV = {
    "cosets": st.one_of(
        _argv(_SMALL, _SMALL, _flags("--members", "--json")),
        # p even or below 2: refused after the N check at N = 2^22
        _argv(_LIMIT_N, st.sampled_from(["-2", "0", "1", "2", "4"]), _flags("--json"))),
    "factor": st.one_of(
        _argv(_SMALL, _Q, _flags("--json")),
        # ord_(2^22)(q) is 2^20 for odd q, past MAX_FACTOR_DEGREE
        _argv(_LIMIT_N, _Q, _flags("--json"))),
    "code": _argv(_code(), _flags("--matrix", "--json")),
    "gauss": _argv(_code(), st.just("--beta"), _SMALL, _flags("--json")),
    "weights": _argv(_code(), st.just("--method"), _METHOD, _flags("--json")),
    "dual": _argv(_code(1 << 8), st.just("--method"), _METHOD, _flags("--json")),
    "theta": _argv(_code(), _flags("--json")),
    "icq-check": _argv(_code(), st.just("--epsilon"), _EPSILON, _flags("--json")),
    "pipeline": st.one_of(
        _argv(_code(), st.just("--epsilon"),
              st.one_of(st.sampled_from(["1e-3", "0.125", "2.5"]), _EPSILON),
              st.just("--seed"), st.integers(-2**40, 2**40).map(str), st.just("--trials"),
              st.one_of(st.sampled_from(["1", "3"]), st.sampled_from(["-1", "0"])),
              _flags("--force", "--json")),
        # an epsilon icq_membership refuses, after the --trials check
        _argv(_code(), st.just("--epsilon"), st.sampled_from(["nan", "inf", "0", "-1"]),
              st.just("--seed"), st.just("1"), st.just("--trials"),
              st.sampled_from([MAX_TRIALS, MAX_TRIALS + 1]).map(str),
              _flags("--force", "--json"))),
}


@pytest.mark.parametrize("command", sorted(ARGV))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_argv_exits_cleanly(command, data):
    argv = [command, *data.draw(ARGV[command])]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 1:
        assert err.getvalue().split(":")[0].isidentifier(), argv
