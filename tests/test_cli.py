import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cycenum
from cycenum import CosetPartition, GaussSumValue, MembershipReport, PipelineReport
from cycenum.cli import MAX_COSETS_N, MAX_TRIALS, main
from cycenum.weights import WeightSpectrum

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
    assert doc["schema"] == 1
    from cycenum import cosets_full

    assert CosetPartition.from_dict(doc) == cosets_full(16, 3)


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
    spectrum = WeightSpectrum.from_dict(doc["spectrum"], doc["n"])
    assert spectrum.total() == 16


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
    g = GaussSumValue.from_dict(doc)
    assert abs(g.value - (-4.0)) < 1e-9
    assert abs(g.magnitude - 4.0) < 1e-9


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
    original, calls = pipeline.theta, []

    def counting_theta(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(pipeline, "theta", counting_theta)
    monkeypatch.setattr(cli, "theta", counting_theta)
    assert run_cli(capsys, "theta", "2", "12", "5", "--json") == expected
    assert len(calls) == 1


def test_icq_check_roundtrip(capsys):
    code, out, err = run_cli(capsys, "icq-check", "2", "4", "1",
                             "--epsilon", "0.6", "--json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    doc.pop("schema")
    report = MembershipReport.from_dict(doc)
    assert not report.member
    assert report.failures == ["EpsilonExceedsBound"]


def test_pipeline_roundtrip_and_exit(capsys):
    code, out, err = run_cli(capsys, "pipeline", "2", "4", "3",
                             "--epsilon", "0.125", "--seed", "7", "--json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    report = PipelineReport.from_dict(doc["report"])
    assert report.exact and report.seed == 7


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
                                    for eps in ("nan", "inf", "1e308")]])
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
])
def test_input_budget_refused_before_work(argv):
    # a sieve of 10^12 marks or 10^12 trial reports would not finish; the
    # caps refuse them first (about 0.4 s per run, mostly interpreter start)
    run = _run_module(*argv, timeout=10)
    assert run.returncode == 1
    assert run.stderr.startswith("InvalidParameters:")
    assert "Traceback" not in run.stderr


def test_factor_skips_reducible_binomials():
    # every x^6 + c over GF(65537) is reducible (3 does not divide 2^16), so
    # the modulus scan must skip them, not run Rabin on 65,537 binomials
    run = _run_module("factor", "13", "65537", "--json", timeout=10)
    assert run.returncode == 0 and run.stderr == ""
    assert json.loads(run.stdout)["num_factors"] == 3


def test_table_cap_checked_before_primality_and_q_pow_k():
    # trial division of 2^61 - 1, or the order of 2 mod (2^1000000 - 1)/3,
    # would not finish; the cap must reject both first
    for argv in (["gauss", "2305843009213693951", "1", "1"],
                 ["code", "2", "1000000", "3"]):
        run = _run_module(*argv, timeout=20)
        assert run.returncode == 1, argv
        assert run.stderr.startswith("TableCapExceeded"), argv


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
