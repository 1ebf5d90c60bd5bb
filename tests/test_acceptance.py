"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines as they happen; without -s they appear in pytest's captured output.
The shared sweep fixture enumerates every valid (q, k, N) with
q in {2, 3, 5}, q^k <= 2^12 and ord_n(q) = k, and computes both weight
spectra for each code once.
"""

import functools
import hashlib
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

import cycenum as ce
from cycenum import poly
from cycenum.cli import main as cli_main
from cycenum.errors import MembershipFailed, NonIntegralTheta
from cycenum.intmath import divisors, is_prime
from cycenum.weights import WeightEnumerator, _formula_inputs, _s_values, macwilliams_dual
from gf_utils import enumerate_span, gf_nullspace, spectrum_from_words

SWEEP_CAP = 2**12
FACTORS_SHA256 = "9992055e4532b466e7abd4d748ffd3ddb9e08013fae9a72e48880ba7a6d6aad1"
PAPER_PARTITION = ("{0}", "{1,3,9,11}", "{2,6}", "{4,12}", "{5,15,13,7}",
                   "{8}", "{10,14}")


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num}: FAIL - {desc}")
                raise
            print(f"criterion {num}: PASS - {desc}")
        return wrapper
    return deco


@dataclass
class SweptCode:
    q: int
    k: int
    N: int
    n: int
    spec: object
    mceliece: object
    brute: object
    theta: int | None  # None when the digit-sum minimum is not integral
    min_digit_sum: int = field(default=0)


def sweep_params():
    out = []
    for q in (2, 3, 5):
        k = 1
        while q**k <= SWEEP_CAP:
            total = q**k - 1
            for n in divisors(total):
                if ce.multiplicative_order(q, n) == k:
                    out.append((q, k, total // n, n))
            k += 1
    return out


@pytest.fixture(scope="module")
def sweep():
    records = []
    t0 = time.perf_counter()
    for q, k, N, n in sweep_params():
        spec = ce.irreducible_cyclic_code(q, k, N)
        mceliece = ce.weight_spectrum_mceliece(spec)
        brute = ce.weight_spectrum_bruteforce(spec)
        min_ds = min(ce.digit_sum(j * n, q) for j in range(1, N + 1))
        theta_val = min_ds // (q - 1) if min_ds % (q - 1) == 0 else None
        records.append(SweptCode(q, k, N, n, spec, mceliece, brute,
                                 theta_val, min_ds))
    elapsed = time.perf_counter() - t0
    return records, elapsed


@criterion(1, "coset partition of the N=16, p=3 worked example, < 1 ms")
def test_criterion_1_paper_cosets(capsys):
    part = ce.cosets_full(16, 3)  # warm the import path
    t0 = time.perf_counter()
    part = ce.cosets_full(16, 3)
    elapsed = time.perf_counter() - t0
    got = tuple("{" + ",".join(map(str, c.members)) + "}" for c in part.cosets)
    assert got == PAPER_PARTITION
    assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"
    code = cli_main(["cosets", "16", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "\n".join(PAPER_PARTITION) + "\n"


@criterion(2, "546 two-cyclotomic cosets of N=358701, formula and sieve, < 5 s")
def test_criterion_2_paper_count():
    assert ce.coset_count_formula(358701, 2) == 546
    t0 = time.perf_counter()
    sieved = sum(1 for _ in ce.iter_coset_leaders(358701, 2))
    elapsed = time.perf_counter() - t0
    assert sieved == 546
    assert elapsed < 5.0, f"sieve took {elapsed:.2f} s"


@criterion(3, "formula spectrum == brute-force spectrum on the full sweep, < 2 min")
def test_criterion_3_oracle_equivalence(sweep):
    records, elapsed = sweep
    assert len(records) >= 90
    for rec in records:
        assert rec.mceliece.counts == rec.brute.counts, (rec.q, rec.k, rec.N)
        assert rec.mceliece.total() == rec.q**rec.k
    assert elapsed < 120.0, f"sweep took {elapsed:.1f} s"


@criterion(4, "Gauss-sum magnitudes sqrt(q^k) (1e-9) and trivial case -1 (1e-12)")
def test_criterion_4_gauss_magnitudes():
    # production summation, exhaustive over j, for every swept field
    for q in (2, 3, 5):
        k = 1
        while q**k <= SWEEP_CAP:
            F = ce.build_ext_field(q, k)
            M = F.group_order
            root = math.sqrt(q**k)
            if M > 1:
                g0 = ce.gauss_sum(0, 1, F)
                assert abs(g0.value - (-1)) < 1e-12
                for beta in {1, F.alpha}:
                    for j in range(1, M):
                        g = ce.gauss_sum(j, beta, F)
                        assert abs(g.magnitude - root) / root < 1e-9, (q, k, j)
            k += 1
    # independent full-spectrum check over every prime power <= 2^12
    for q in range(2, SWEEP_CAP + 1):
        if not is_prime(q):
            continue
        k = 1
        while q**k <= SWEEP_CAP:
            F = ce.build_ext_field(q, k)
            M = F.group_order
            if M > 1:
                values = np.exp(2j * np.pi * F.trace_table() / q)
                X = np.fft.fft(values)  # X[j] = G(chi_(M-j), e_1)
                root = math.sqrt(q**k)
                assert abs(X[0] - (-1)) < 1e-12, (q, k)
                rel = np.abs(np.abs(X[1:]) - root) / root
                assert float(rel.max()) < 1e-9, (q, k)
                for j in (1, M // 2, M - 1):
                    if j:
                        g = ce.gauss_sum(j, 1, F)
                        assert abs(g.value - X[(M - j) % M]) < 1e-8, (q, k, j)
            k += 1


@criterion(5, "x^n - 1 factors exactly for n <= 200, q in {2,3,5}: product, "
              "irreducibility, coset count")
def test_criterion_5_factorization():
    # golden digest of the factor lists, one JSON line [n, q, factors] each
    golden = hashlib.sha256()
    for q in (2, 3, 5):
        for n in range(1, 201):
            if n % q == 0:
                continue
            factors = ce.factor_xn_minus_1(n, q)
            golden.update(json.dumps([n, q, factors]).encode() + b"\n")
            acc = np.array([1], dtype=np.int64)
            for f in factors:
                assert poly.is_irreducible(f, q), (n, q, f)
                acc = np.convolve(acc, np.array(f, dtype=np.int64)) % q
            expect = np.zeros(n + 1, dtype=np.int64)
            expect[0] = q - 1
            expect[n] = 1
            assert np.array_equal(acc, expect), (n, q)
            assert len(factors) == ce.coset_count_formula(n, q), (n, q)
    assert golden.hexdigest() == FACTORS_SHA256


@criterion(6, "weights divisible by q^(theta-1); distinct nonzero weights <= N")
def test_criterion_6_divisibility(sweep):
    records, _ = sweep
    undefined = []
    for rec in records:
        assert sum(1 for w in rec.mceliece.counts if w) <= rec.N, (rec.q, rec.k, rec.N)
        if rec.theta is None:
            # the digit-sum minimum is not divisible by q-1: the exponent
            # formula has no integral value and theta() must refuse
            with pytest.raises(NonIntegralTheta):
                ce.theta(rec.spec)
            undefined.append((rec.q, rec.k, rec.N))
            continue
        assert ce.theta(rec.spec) == rec.theta
        divisor = rec.q ** (rec.theta - 1)
        for w in rec.mceliece.counts:
            if w:
                assert w % divisor == 0, (rec.q, rec.k, rec.N, w)
    assert all(q > 2 for q, _, _ in undefined)
    print(f"  (theta undefined, NonIntegralTheta verified, on {len(undefined)} "
          f"codes with q > 2)")


@criterion(7, "MacWilliams: simplex dual == brute [15,11] spectrum; "
              "double application is the identity on all swept codes")
def test_criterion_7_macwilliams(sweep):
    simplex = ce.irreducible_cyclic_code(2, 4, 1)
    primal = WeightEnumerator(ce.weight_spectrum_mceliece(simplex))
    dual = macwilliams_dual(primal, 2, 4, 15)
    basis = gf_nullspace(ce.generator_matrix(simplex), 2)
    brute = spectrum_from_words(enumerate_span(basis, 2))
    assert dual.spectrum.counts == brute
    assert sum(brute.values()) == 2**11

    records, _ = sweep
    for rec in records:
        w = WeightEnumerator(rec.mceliece)
        d = macwilliams_dual(w, rec.q, rec.k, rec.n)
        back = macwilliams_dual(d, rec.q, rec.n - rec.k, rec.n)
        assert back.spectrum.counts == w.spectrum.counts, (rec.q, rec.k, rec.N)


@criterion(8, "recovery soundness: 100/100 exact at epsilon = bound per code; "
              "10x bound deviates on the [5,4] code")
def test_criterion_8_recovery(sweep):
    records, _ = sweep
    ran, margin = 0, 0.0
    for rec in records:
        if rec.theta is None:
            # no divisibility exponent, hence no bound: the pipeline must
            # refuse these (NonIntegralTheta surfaces as a membership failure)
            with pytest.raises(MembershipFailed):
                ce.run_pipeline_trials(rec.q, rec.k, rec.N, 0.01, range(1))
            continue
        bound = ce.epsilon_bound(rec.spec)
        # bound >= 1 conflicts only with the class's fixed epsilon < 1
        # constant, not with recovery; force past membership in that case
        reports = ce.run_pipeline_trials(rec.q, rec.k, rec.N, bound,
                                         range(100), force=bound >= 1)
        assert all(r.exact for r in reports), (rec.q, rec.k, rec.N)
        assert all(r.oracle_calls == len(r.injected_errors) for r in reports)
        # the paper's guarantee, stronger than exact: every noisy S stays
        # within half the weight divisor q^(theta-1) of the exact S
        part, gamma = _formula_inputs(rec.spec)
        leaders = [c.leader for c in part.cosets]
        errors = np.array([r.injected_errors for r in reports])
        noisy = _s_values(rec.q, rec.k, rec.N, gamma + errors, leaders).real
        exact = _s_values(rec.q, rec.k, rec.N, gamma, leaders).real
        ratio = np.abs(noisy - exact).max() / (rec.q ** (rec.theta - 1) / 2)
        assert ratio < 1, (rec.q, rec.k, rec.N, ratio)
        margin = max(margin, ratio)
        ran += 1
    over = ce.run_pipeline_trials(2, 4, 3, 10 * 0.125, range(100), force=True)
    deviated = sum(1 for r in over if not r.exact)
    assert deviated >= 1
    print(f"  (100/100 exact on {ran} codes, rounding margin at most "
          f"{margin:.3f}; 10x bound on the [5,4] code deviated in "
          f"{deviated}/100 trials)")


@criterion(9, "byte-identical JSON across repeated CLI invocations")
def test_criterion_9_determinism():
    invocations = [
        ["cosets", "16", "3", "--json", "--members"],
        ["cosets", "358701", "2", "--json"],
        ["factor", "15", "2", "--json"],
        ["code", "2", "4", "3", "--matrix", "--json"],
        ["gauss", "2", "4", "5", "--json"],
        ["weights", "2", "4", "3", "--method", "both", "--json"],
        ["dual", "2", "4", "1", "--json"],
        ["theta", "2", "4", "3", "--json"],
        ["icq-check", "2", "4", "1", "--epsilon", "0.4", "--json"],
        ["pipeline", "2", "4", "3", "--epsilon", "0.125", "--seed", "11",
         "--trials", "7", "--json"],
    ]
    for argv in invocations:
        runs = [
            subprocess.run([sys.executable, "-m", "cycenum", *argv],
                           capture_output=True, check=True)
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout, argv
        assert runs[0].stderr == runs[1].stderr == b"", argv
        json.loads(runs[0].stdout)  # well-formed
