import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cycenum import (
    PipelineReport,
    digit_sum,
    epsilon_bound,
    icq_membership,
    irreducible_cyclic_code,
    noisy_gauss_oracle,
    order_d_character_sums,
    run_pipeline_trials,
    theta,
    weight_spectrum_mceliece,
)
from cycenum.errors import (
    InvalidParameters,
    MembershipFailed,
    NonIntegralTheta,
    NotPrime,
    TableCapExceeded,
)
from cycenum import pipeline


def test_digit_sum_examples():
    assert digit_sum(0, 2) == 0
    assert digit_sum(15, 2) == 4
    for q in (2, 3, 5):
        assert digit_sum(q - 1, q) == q - 1
    assert digit_sum(5, 2) == 2
    assert digit_sum(10, 2) == 2


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.sampled_from([2, 3, 5, 7]))
def test_digit_sum_congruence(x, q):
    # base-q digit sum is congruent to x mod q-1
    assert digit_sum(x, q) % (q - 1) == x % (q - 1)


def test_theta_simplex_and_5_4():
    simplex = irreducible_cyclic_code(2, 4, 1)
    assert theta(simplex) == 4
    code54 = irreducible_cyclic_code(2, 4, 3)
    # hand digit sums: 5 -> 101, 10 -> 1010, 15 -> 1111
    assert theta(code54) == 2


def test_theta_non_integral_raises():
    spec = irreducible_cyclic_code(3, 1, 2)  # min digit sum 1, q-1 = 2
    with pytest.raises(NonIntegralTheta):
        theta(spec)


def test_epsilon_bounds():
    assert epsilon_bound(irreducible_cyclic_code(2, 4, 1)) == 8 / 16
    assert epsilon_bound(irreducible_cyclic_code(2, 4, 3)) == 2 / 16


def test_bound_shrinks_with_k_at_fixed_theta():
    spec1 = irreducible_cyclic_code(2, 4, 3)
    spec2 = irreducible_cyclic_code(2, 8, 15)  # [17, 8] code
    assert theta(spec1) == theta(spec2) == 2
    assert epsilon_bound(spec2) < epsilon_bound(spec1)


def test_membership_decisions():
    member = icq_membership(2, 4, 1, 0.4)
    assert member.member and member.epsilon_ok
    assert member.failures == []

    over = icq_membership(2, 4, 1, 0.6)
    assert not over.member
    assert over.failures == ["EpsilonExceedsBound"]
    assert over.epsilon_bound == 0.5

    frac = icq_membership(2, 4, 7, 0.1)
    assert not frac.member and not frac.n_integral
    assert "IntegralityFailed" in frac.failures

    order = icq_membership(2, 4, 5, 0.1)
    assert not order.member and order.n_integral and not order.order_ok
    assert "OrderCheckFailed" in order.failures

    big_eps = icq_membership(2, 4, 1, 1.5)
    assert not big_eps.member
    assert "EpsilonNotBelowOne" in big_eps.failures

    degenerate = icq_membership(3, 1, 2, 0.1)
    assert not degenerate.member
    assert "NonIntegralTheta" in degenerate.failures


def test_icq_params_validation():
    # N first, then epsilon, then the table cap
    for N in (0, -3):
        with pytest.raises(InvalidParameters, match="is not a positive integer"):
            icq_membership(q=2, k=3, N=N, epsilon=0.1)
        with pytest.raises(InvalidParameters, match="is not a positive integer"):
            icq_membership(q=2, k=30, N=N, epsilon=0.0)
    with pytest.raises(InvalidParameters, match="must be positive"):
        icq_membership(q=2, k=3, N=7, epsilon=0.0)
    with pytest.raises(InvalidParameters, match="must be positive"):
        icq_membership(q=2, k=30, N=7, epsilon=float("nan"))
    with pytest.raises(TableCapExceeded):
        icq_membership(q=2, k=30, N=7, epsilon=0.1)
    p = icq_membership(q=2, k=2, N=3 * 2**2, epsilon=0.1)  # N = alpha * k^s, alpha 3, s 2
    assert (p.q, p.k, p.N, p.epsilon) == (2, 2, 12, 0.1)


@pytest.mark.parametrize("q", [1, 0, -2, -3])
def test_membership_refuses_q_below_2(q):
    # the cap check skips q <= 1, so (-2)**(3 * 10**7) and its order
    # (past 15 s) would come next; q < 2 is refused right after the cap
    for k, N in ((3 * 10**7, 3), (5, 3), (2, 4)):
        with pytest.raises(NotPrime, match=f"^{q} is not prime$"):
            icq_membership(q, k, N, 0.1)
        with pytest.raises(NotPrime, match=f"^{q} is not prime$"):
            run_pipeline_trials(q, k, N, 0.1, [1])
    # a composite q >= 2 is still reported when the n or order clause fails
    assert icq_membership(4, 3, 5, 0.1).failures == ["IntegralityFailed"]


def test_membership_builds_no_field(monkeypatch):
    # every clause is integer arithmetic on q, k and N
    def no_build(*args):
        raise AssertionError("icq_membership built the code")

    monkeypatch.setattr(pipeline, "irreducible_cyclic_code", no_build)
    report = icq_membership(2, 22, 3, 0.001)
    assert report.member and report.n == (2**22 - 1) // 3
    assert (report.theta, report.epsilon_bound) == (11, 2**10 / (4 * 2**11))


def test_membership_report_roundtrip():
    report = icq_membership(2, 4, 3, 0.1)
    doc = report.to_dict()
    assert json.loads(json.dumps(doc)) == doc
    assert list(doc.values()) == [getattr(report, key) for key in doc]


def test_noisy_oracle_determinism_and_bound():
    a = noisy_gauss_oracle(1.0, 0.25, seed=42)
    b = noisy_gauss_oracle(1.0, 0.25, seed=42)
    assert a == b
    assert noisy_gauss_oracle(1.0, 0.25, seed=43) != a
    for seed in range(10_000):
        u = noisy_gauss_oracle(0.0, 0.3, seed)
        assert abs(u) < 0.3
    # epsilon -> 0 limit
    assert abs(noisy_gauss_oracle(2.5, 1e-15, seed=1) - 2.5) < 1e-14
    for epsilon in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(InvalidParameters):
            noisy_gauss_oracle(0.0, epsilon, seed=1)


@pytest.mark.parametrize("seed", [0, -12345, 2**32 + 7])
def test_noisy_oracle_is_one_fresh_generator_draw(seed):
    for gamma, eps in ((1.0, 0.25), (-2.75, 1e-3)):
        drawn = random.Random(seed).uniform(-eps, eps)
        assert noisy_gauss_oracle(gamma, eps, seed) == gamma + drawn


@pytest.mark.parametrize("q,k,N", [(2, 4, 3), (2, 6, 7), (3, 4, 5)])
@pytest.mark.parametrize("seed", [0, -3, 2**32 + 5])
def test_injected_errors_follow_the_seed_scheme(q, k, N, seed):
    # phase a of trial seed is perturbed by a fresh generator seeded with
    # seed*100003 + a, whatever generator the pipeline reuses internally
    spec = irreducible_cyclic_code(q, k, N)
    eps = epsilon_bound(spec)
    gammas = [g.gamma for g in order_d_character_sums(spec)]
    report = run_pipeline_trials(q, k, N, eps, [seed], force=eps >= 1)[0]
    assert len(gammas) >= 2
    expected = [(g + random.Random(seed * 100003 + a).uniform(-eps, eps)) - g
                for a, g in enumerate(gammas, start=1)]
    assert report.injected_errors == expected


def test_pipeline_simplex_trivially_exact():
    report = run_pipeline_trials(2, 4, 1, 0.5, [123])[0]
    assert report.exact
    assert report.oracle_calls == 0
    assert report.injected_errors == []
    assert report.recovered_spectrum.counts == {0: 1, 8: 15}
    assert report.d == 1


def test_pipeline_5_4_at_bound_many_seeds():
    reports = run_pipeline_trials(2, 4, 3, 0.125, range(40))
    assert all(r.exact for r in reports)
    assert all(r.oracle_calls == 2 for r in reports)
    assert all(len(r.injected_errors) == 2 for r in reports)
    assert all(abs(u) <= 0.125 for r in reports for u in r.injected_errors)


def test_pipeline_overlarge_epsilon_fails_sometimes():
    reports = run_pipeline_trials(2, 4, 3, 1.25, range(100), force=True)
    deviations = [r for r in reports if not r.exact]
    assert deviations, "10x-bound noise never broke recovery in 100 trials"


def test_pipeline_membership_gate():
    with pytest.raises(MembershipFailed):
        run_pipeline_trials(2, 4, 3, 0.2, [0])  # 0.2 > 0.125
    report = run_pipeline_trials(2, 4, 3, 0.2, [0], force=True)[0]
    assert report.epsilon_bound == 0.125


def test_pipeline_determinism():
    r1 = run_pipeline_trials(2, 4, 3, 0.125, [7])[0]
    r2 = run_pipeline_trials(2, 4, 3, 0.125, [7])[0]
    assert r1 == r2
    r3 = run_pipeline_trials(2, 4, 3, 0.125, [8])[0]
    assert r3 != r1


def test_oracle_call_count_is_d_minus_one():
    from math import gcd

    from cycenum import iter_coset_leaders

    for q, k, N in ((2, 4, 3), (2, 6, 7), (3, 2, 2), (5, 2, 3)):
        spec = irreducible_cyclic_code(q, k, N)
        d = gcd(N, (q**k - 1) // (q - 1))
        eps = epsilon_bound(spec)
        report = run_pipeline_trials(q, k, N, eps, [0])[0]
        assert report.oracle_calls == d - 1
        assert report.num_cosets == sum(1 for _ in iter_coset_leaders(N, q))


def test_pipeline_report_roundtrip():
    report = run_pipeline_trials(2, 4, 3, 0.125, [7])[0]
    doc = report.to_dict()
    assert json.loads(json.dumps(doc)) == doc
    assert doc["recovered_spectrum"] == report.recovered_spectrum.to_dict()
    assert {key: value for key, value in doc.items() if key != "recovered_spectrum"} == {
        key: getattr(report, key) for key in doc if key != "recovered_spectrum"}


def test_one_build_and_one_theta_per_run(monkeypatch):
    calls = {"build": 0, "theta": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pipeline, "irreducible_cyclic_code",
                        counted("build", pipeline.irreducible_cyclic_code))
    monkeypatch.setattr(pipeline, "_theta", counted("theta", pipeline._theta))
    reports = run_pipeline_trials(2, 12, 5, 0.001, range(3), force=True)
    assert len(reports) == 3 and all(r.exact for r in reports)
    assert calls == {"build": 1, "theta": 1}


@pytest.mark.parametrize("q,k,N,error", [
    (2, 4, 7, InvalidParameters),  # N does not divide q^k - 1
    (2, 4, 5, InvalidParameters),  # ord_n(q) != k
    (5, 2, 4, NonIntegralTheta),
])
def test_forced_run_raises_the_failed_clause(q, k, N, error):
    with pytest.raises(MembershipFailed):
        run_pipeline_trials(q, k, N, 0.001, range(2))
    with pytest.raises(error):
        run_pipeline_trials(q, k, N, 0.001, range(2), force=True)


def test_report_keys():
    membership = icq_membership(2, 4, 3, 0.1)
    assert set(membership.to_dict()) == {
        "q", "k", "N", "epsilon", "n_integral", "order_ok", "n", "theta",
        "epsilon_bound", "epsilon_ok", "member", "failures"}
    report = run_pipeline_trials(2, 4, 3, 0.125, [7])[0]
    assert set(report.to_dict()) == {
        "q", "k", "N", "n", "epsilon", "seed", "theta", "epsilon_bound", "d",
        "num_cosets", "oracle_calls", "injected_errors", "recovered_spectrum",
        "exact"}
    assert report.to_dict()["recovered_spectrum"] == report.recovered_spectrum.to_dict()


def test_exact_trials_share_one_spectrum():
    # every trial whose weights all round to the exact ones holds the one
    # noiseless spectrum; a deviated trial's spectrum is its own
    spec = irreducible_cyclic_code(2, 6, 7)
    reports = run_pipeline_trials(2, 6, 7, epsilon_bound(spec), range(20), force=True)
    assert all(r.exact for r in reports)
    shared = reports[0].recovered_spectrum
    assert all(r.recovered_spectrum is shared for r in reports)
    assert shared.counts == weight_spectrum_mceliece(spec).counts
    forced = run_pipeline_trials(2, 6, 7, 2.5, range(-5, 25), force=True)
    deviated = [r.recovered_spectrum for r in forced if not r.exact]
    assert deviated and len({id(s) for s in deviated}) == len(deviated)
    assert not {id(r.recovered_spectrum) for r in forced if r.exact} & {id(s) for s in deviated}


def test_report_json_is_pinned():
    # the float errors are left to the seed-scheme test: their last bits
    # follow the exact phases, which come from numpy's exp
    docs = [r.to_dict() for r in run_pipeline_trials(2, 4, 3, 0.125, [7, 8])]
    assert [len(doc.pop("injected_errors")) for doc in docs] == [2, 2]
    assert [json.dumps(doc, sort_keys=True) for doc in docs] == [
        '{"N": 3, "d": 3, "epsilon": 0.125, "epsilon_bound": 0.125, "exact": true, '
        '"k": 4, "n": 5, "num_cosets": 2, "oracle_calls": 2, "q": 2, '
        f'"recovered_spectrum": {{"0": 1, "2": 10, "4": 5}}, "seed": {seed}, "theta": 2}}'
        for seed in (7, 8)]


SEEDS = [0, -3, 1, 41, 2**33 + 5]


@pytest.mark.parametrize("q,k,N,eps", [(2, 4, 3, 0.125), (2, 6, 7, 0.3), (3, 4, 5, 2.5)])
@pytest.mark.parametrize("block_cells", [pipeline._BLOCK_CELLS, 1])
def test_trials_equal_single_runs(q, k, N, eps, block_cells, monkeypatch):
    # one pass over all seeds, in one block or one trial per block, gives
    # each seed the report of its own run
    singles = [run_pipeline_trials(q, k, N, eps, [seed], force=True)[0].to_dict()
               for seed in SEEDS]
    monkeypatch.setattr(pipeline, "_BLOCK_CELLS", block_cells)
    batch = run_pipeline_trials(q, k, N, eps, SEEDS, force=True)
    assert [r.to_dict() for r in batch] == singles


def _independent_trial(spec, eps, seed):
    from cycenum.weights import _formula_inputs, _s_values, _tally

    q, k, N = spec.q, spec.k, spec.N
    cosets, gammas = _formula_inputs(spec)
    noisy = np.array([noisy_gauss_oracle(g, eps, seed * 100003 + a)
                      for a, g in enumerate(gammas.tolist(), start=1)])
    divisor = q ** (theta(spec) - 1)
    leaders = [c.leader for c in cosets.cosets]
    rounded = np.rint(_s_values(q, k, N, noisy, leaders).real / divisor)
    return noisy - gammas, _tally(q, k, N, [int(w) * divisor for w in rounded], cosets)


@pytest.mark.parametrize("q,k,N", [(2, 6, 7), (3, 4, 5), (2, 8, 15)])
def test_forced_trials_match_an_independent_tally(q, k, N):
    # at 2.5, far above the bound, trials deviate; each one must be the
    # per-trial tally of phases drawn by noisy_gauss_oracle
    spec = irreducible_cyclic_code(q, k, N)
    reports = run_pipeline_trials(q, k, N, 2.5, range(-5, 25), force=True)
    assert any(not r.exact for r in reports)
    for r in reports:
        errors, expected = _independent_trial(spec, 2.5, r.seed)
        assert r.injected_errors == errors.tolist()
        assert r.recovered_spectrum.counts == expected.counts
        assert list(r.recovered_spectrum.counts) == list(expected.counts)


@pytest.mark.parametrize("q,k,N", [(2, 4, 3), (2, 8, 15), (3, 4, 5), (7, 3, 9)])
def test_stacked_s_values_equal_per_row(q, k, N):
    from cycenum.weights import _formula_inputs, _s_values

    spec = irreducible_cyclic_code(q, k, N)
    part, gammas = _formula_inputs(spec)
    leaders = [c.leader for c in part.cosets]
    noisy = gammas + np.random.default_rng(5).uniform(-0.5, 0.5, (7, len(gammas)))
    stacked = _s_values(q, k, N, noisy, leaders)
    assert np.array_equal(stacked, np.array([_s_values(q, k, N, row, leaders) for row in noisy]))
    # a batch of batches is the same rows again
    assert np.array_equal(_s_values(q, k, N, noisy.reshape(7, 1, -1), leaders)[:, 0], stacked)


def test_seeds_must_be_integers():
    # Random's C seed would hash a float or a str instead of using its value
    for bad in (1.0, "1", None):
        with pytest.raises(InvalidParameters):
            run_pipeline_trials(2, 4, 3, 0.125, [0, bad])
    assert (run_pipeline_trials(2, 4, 3, 0.125, [np.int64(-1)])[0].to_dict()
            == run_pipeline_trials(2, 4, 3, 0.125, [-1])[0].to_dict())
