"""Golden digests: whole-corpus outputs pinned by sha256.

The corpus is every valid irreducible cyclic code (q, k, N) with
q**k <= 2**12, over every prime q: 8102 codes. One digest covers their
to_dict() JSON, one their formula spectra, each checked against the
trace-word oracle on the way. A digest hashes one sorted-keys JSON line
per item, in corpus order. Only ints and strings enter it, so it does
not depend on float formatting or on the last bits of numpy's
arithmetic. Any change to a code, a spectrum or the order of the corpus
shows as a changed digest.

The same loop runs Rabin's test on every check polynomial: the library
proves h irreducible rather than testing it (codes.irreducible_cyclic_code),
and this is where that proof is checked. The digest of factor_xn_minus_1
is taken in criterion 5 of test_acceptance.py, whose loop already walks
its corpus.

The field layer has a digest of its own: the modulus, alpha and the
trace table, byte for byte in little-endian order, of every field
GF(q**k) with prime q < 300 and q**k <= 2**16, 155 of them, built cold.

Three smaller corpora cover the other integer outputs. The duals: the
MacWilliams transform of the formula spectrum of every valid code with
q**k <= 2**8, 501 of them, forward and back, on both of its paths. The
factor lists of x**n - 1 for q in {7, 13} and n <= 100, beside the
q in {2, 3, 5} lists of criterion 5. And one recovery round: the 101
codes with q in {2, 3, 5, 7}, q**k <= 2**12 and an integral theta, seeds
0-19 at epsilon = bound and at 8 * bound, forced, 4040 trials. Its lines
hold the exact flag and the recovered spectrum of each trial, never the
phases, the bound or the injected errors, which are floats.
"""

import hashlib
import json

from cycenum import (WeightEnumerator, build_ext_field, epsilon_bound, factor_xn_minus_1,
                     irreducible_cyclic_code, macwilliams_dual, poly, run_pipeline_trials,
                     weight_spectrum_bruteforce, weight_spectrum_mceliece)
from cycenum.errors import NonIntegralTheta
from cycenum.intmath import is_prime
from gf_utils import valid_codes

CAP = 1 << 12
CODES_SHA256 = "af3b9b0ff017ac2fb6d1cfb6d3a31424f5eec5fb291afce2682737407bdbc75f"
SPECTRA_SHA256 = "2d208c2c46ed8a7a3602330e6c1f38e928aac0f3b081a9f991ff1a3f9b097950"
FIELDS_SHA256 = "7cec037898e8bd11a668caaa7dfadf03f60f767f64714e445c55e4a027712f67"
DUALS_SHA256 = "1264a5e06166d7066d6bc7e9ae420ebb9e0ecd8256791fc584a7b53e65dfc152"
FACTORS_SHA256 = "d45afc263d567a67caceb9da4c4867f25c5ee127af614bc0ad5c942f8a8c6663"
RECOVERY_SHA256 = "8eb55c770eaa19ce3e2c4f106e084e055e0896d2a2feefb7b640a783faa66b9a"


def test_codes_and_spectra_match_their_digests():
    codes, spectra = hashlib.sha256(), hashlib.sha256()
    count = 0
    for q, k, N in valid_codes(CAP):
        spec = irreducible_cyclic_code(q, k, N)
        assert poly.is_irreducible(spec.check, q), (q, k, N)
        formula = weight_spectrum_mceliece(spec)
        assert formula == weight_spectrum_bruteforce(spec), (q, k, N)
        codes.update(json.dumps(spec.to_dict(), sort_keys=True).encode() + b"\n")
        spectra.update(json.dumps([q, k, N, formula.to_dict()]).encode() + b"\n")
        count += 1
    assert count == 8102
    assert (codes.hexdigest(), spectra.hexdigest()) == (CODES_SHA256, SPECTRA_SHA256)


def test_fields_match_their_digest():
    digest = hashlib.sha256()
    count = 0
    build_ext_field.cache_clear()
    for q in filter(is_prime, range(2, 300)):
        k = 1
        while q**k <= 1 << 16:
            F = build_ext_field(q, k)
            trace = F.trace_table()
            digest.update(json.dumps([q, k, list(F.modulus), F.alpha]).encode() + b"\n")
            digest.update(trace.astype(trace.dtype.newbyteorder("<")).tobytes())
            count += 1
            k += 1
    build_ext_field.cache_clear()
    assert count == 155
    assert digest.hexdigest() == FIELDS_SHA256


def test_duals_match_their_digest():
    digest = hashlib.sha256()
    count, dense = 0, set()
    for q, k, N in valid_codes(1 << 8):
        spec = irreducible_cyclic_code(q, k, N)
        primal = WeightEnumerator(weight_spectrum_mceliece(spec))
        dual = macwilliams_dual(primal, q, k, spec.n)
        back = macwilliams_dual(dual, q, spec.n - k, spec.n)
        assert back.spectrum.counts == primal.spectrum.counts, (q, k, N)
        # macwilliams_dual takes its dense path when 8m > n, m weights
        dense.update(8 * len(w.spectrum.counts) > spec.n for w in (primal, dual))
        digest.update(json.dumps([q, k, N, dual.spectrum.to_dict()]).encode() + b"\n")
        count += 1
    assert count == 501 and dense == {False, True}
    assert digest.hexdigest() == DUALS_SHA256


def test_factors_for_q_7_and_13_match_their_digest():
    digest = hashlib.sha256()
    count = 0
    for q in (7, 13):
        for n in range(1, 101):
            if n % q:
                digest.update(json.dumps([n, q, factor_xn_minus_1(n, q)]).encode() + b"\n")
                count += 1
    assert count == 179
    assert digest.hexdigest() == FACTORS_SHA256


def test_recovery_round_matches_its_digest():
    digest = hashlib.sha256()
    codes = deviated = 0
    for q, k, N in valid_codes(CAP, (2, 3, 5, 7)):
        try:
            bound = epsilon_bound(irreducible_cyclic_code(q, k, N))
        except NonIntegralTheta:
            continue
        codes += 1
        for mult in (1, 8):
            for r in run_pipeline_trials(q, k, N, mult * bound, range(20), force=True):
                line = [q, k, N, mult, r.seed, r.exact, r.recovered_spectrum.to_dict()]
                digest.update(json.dumps(line).encode() + b"\n")
                deviated += not r.exact
    assert (codes, deviated) == (101, 35)
    assert digest.hexdigest() == RECOVERY_SHA256
