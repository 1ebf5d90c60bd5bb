import json
import math

import pytest

from cycenum import (
    WeightEnumerator,
    WeightSpectrum,
    generator_matrix,
    irreducible_cyclic_code,
    macwilliams_dual,
    order_d_character_sums,
    s_function,
    weight_spectrum_bruteforce,
    weight_spectrum_mceliece,
)
from cycenum.errors import NonIntegerDualCoefficient, NonIntegerWeight, NonRealResult
from cycenum.weights import _dual_dense, _dual_krawtchouk
from gf_utils import (dual_by_expansion, enumerate_span, gf_nullspace, spectrum_from_words,
                      trace_words)


def spectrum_by_scalar_enumeration(spec):
    """Independent oracle: the weight of every trace word, one at a time."""
    return spectrum_from_words(trace_words(spec))


# ---------------------------------------------------------------------------
# S function


def test_s_function_simplex_constant():
    spec = irreducible_cyclic_code(2, 4, 1)
    gauss = order_d_character_sums(spec)
    for iota in range(15):
        assert s_function(iota, gauss, spec) == 8.0


def test_s_function_5_4_values_and_coset_invariance():
    spec = irreducible_cyclic_code(2, 4, 3)
    gauss = order_d_character_sums(spec)
    vals = [s_function(i, gauss, spec) for i in range(3)]
    assert abs(vals[0] - 4.0) < 1e-9
    assert abs(vals[1] - 2.0) < 1e-9
    # 1 and 2 lie in the same 2-cyclotomic coset mod 3
    assert abs(vals[1] - vals[2]) < 1e-9


def test_s_function_matches_brute_word_weights():
    spec = irreducible_cyclic_code(2, 4, 3)
    gauss = order_d_character_sums(spec)
    for iota, word in enumerate(trace_words(spec)[1:]):
        assert round(s_function(iota, gauss, spec)) == sum(1 for v in word if v)


@pytest.mark.parametrize("q,k,N", [(2, 4, 3), (2, 6, 3), (2, 8, 5), (3, 4, 16)])
def test_s_function_invariant_on_every_coset(q, k, N):
    from cycenum import cosets_full

    spec = irreducible_cyclic_code(q, k, N)
    gauss = order_d_character_sums(spec)
    for coset in cosets_full(N, q).cosets:
        vals = [s_function(eta, gauss, spec) for eta in coset.members]
        assert max(vals) - min(vals) < 1e-9, (q, k, N, coset.leader)


def _shift_formula(monkeypatch, delta):
    from cycenum import weights

    s_values = weights._s_values
    monkeypatch.setattr(weights, "_s_values",
                        lambda spec, chi, gamma: s_values(spec, chi, gamma) + delta)


def test_imaginary_residue_raises(monkeypatch):
    spec = irreducible_cyclic_code(2, 4, 3)
    gauss = order_d_character_sums(spec)
    _shift_formula(monkeypatch, 1e-3j)
    with pytest.raises(NonRealResult):
        weight_spectrum_mceliece(spec)
    with pytest.raises(NonRealResult):
        s_function(1, gauss, spec)


def test_non_integer_weight_raises(monkeypatch):
    _shift_formula(monkeypatch, 0.25)
    with pytest.raises(NonIntegerWeight):
        weight_spectrum_mceliece(irreducible_cyclic_code(2, 4, 3))


# ---------------------------------------------------------------------------
# spectra


def test_simplex_spectrum():
    spec = irreducible_cyclic_code(2, 4, 1)
    assert weight_spectrum_mceliece(spec).counts == {0: 1, 8: 15}
    assert weight_spectrum_bruteforce(spec).counts == {0: 1, 8: 15}


def test_5_4_spectrum_against_scalar_enumeration():
    spec = irreducible_cyclic_code(2, 4, 3)
    expected = {0: 1, 2: 10, 4: 5}
    assert spectrum_by_scalar_enumeration(spec) == expected
    assert weight_spectrum_mceliece(spec).counts == expected
    assert weight_spectrum_bruteforce(spec).counts == expected


@pytest.mark.parametrize("q,k,N", [(3, 2, 2), (5, 2, 3), (2, 6, 7), (3, 3, 2), (5, 1, 4),
                                     (7, 2, 4), (11, 2, 3), (13, 2, 7)])
def test_formula_equals_oracle(q, k, N):
    spec = irreducible_cyclic_code(q, k, N)
    a = weight_spectrum_mceliece(spec)
    b = weight_spectrum_bruteforce(spec)
    assert a.counts == b.counts
    assert a.n == b.n == spec.n
    assert a.total() == q**k
    assert a.counts == spectrum_by_scalar_enumeration(spec)


def test_distinct_weights_bounded_by_N():
    for q, k, N in ((2, 4, 3), (2, 6, 7), (3, 3, 2)):
        spec = irreducible_cyclic_code(q, k, N)
        assert sum(1 for w in weight_spectrum_mceliece(spec).counts if w) <= N


def test_spectrum_dict_roundtrip():
    spec = irreducible_cyclic_code(2, 4, 3)
    s = weight_spectrum_mceliece(spec)
    doc = s.to_dict()
    assert json.loads(json.dumps(doc)) == doc == {"0": 1, "2": 10, "4": 5}


# ---------------------------------------------------------------------------
# enumerator evaluation


def test_enumerator_values():
    spec = irreducible_cyclic_code(2, 4, 1)
    w = WeightEnumerator(weight_spectrum_mceliece(spec))
    assert w.evaluate(1, 1) == 16
    assert w.evaluate(1, 0) == 1
    assert w.evaluate(1, 2) == 1 + 15 * 2**8 == 3841


# ---------------------------------------------------------------------------
# MacWilliams


def brute_dual_spectrum(spec):
    rows = generator_matrix(spec)
    basis = gf_nullspace(rows, spec.q)
    assert len(basis) == spec.n - spec.k
    return spectrum_from_words(enumerate_span(basis, spec.q))


def test_dual_of_full_space_is_zero_code():
    n, q = 7, 2
    full = {i: math.comb(n, i) * (q - 1) ** i for i in range(n + 1)}
    dual = macwilliams_dual(WeightEnumerator(WeightSpectrum(full, n)), q, n, n)
    assert dual.spectrum.counts == {0: 1}


def test_simplex_dual_is_hamming_spectrum():
    spec = irreducible_cyclic_code(2, 4, 1)
    w = WeightEnumerator(weight_spectrum_mceliece(spec))
    dual = macwilliams_dual(w, 2, 4, 15)
    assert dual.spectrum.counts == brute_dual_spectrum(spec)
    assert dual.evaluate(1, 1) == 2**11


@pytest.mark.parametrize("q,k,N",
                         [(2, 4, 1), (2, 4, 3), (3, 2, 2), (5, 2, 3),
                          (2, 8, 15), (2, 6, 7)])
def test_dual_matches_bruteforce_and_involutes(q, k, N):
    spec = irreducible_cyclic_code(q, k, N)
    w = WeightEnumerator(weight_spectrum_mceliece(spec))
    dual = macwilliams_dual(w, q, k, spec.n)
    assert dual.spectrum.counts == brute_dual_spectrum(spec)
    back = macwilliams_dual(dual, q, spec.n - k, spec.n)
    assert back.spectrum.counts == w.spectrum.counts


def test_krawtchouk_and_horner_paths_agree():
    # q = 2 alone would not tell a wrong (q-1) factor, or the two Taylor
    # shifts (by 1-q and -1), apart
    for q, k, N in ((2, 4, 1), (3, 4, 16), (3, 4, 5), (5, 2, 3), (5, 3, 4), (7, 2, 4)):
        spec = irreducible_cyclic_code(q, k, N)
        n = spec.n
        primal = weight_spectrum_mceliece(spec).counts
        dual = macwilliams_dual(
            WeightEnumerator(WeightSpectrum(primal, n)), q, k, n
        ).spectrum.counts
        for counts in (primal, dual):
            expected = dual_by_expansion(counts, n, q)
            assert _dual_krawtchouk(counts, n, q) == expected, (q, k, N)
            assert _dual_dense(counts, n, q) == expected, (q, k, N)


def test_dual_rejects_garbage():
    junk = WeightEnumerator(WeightSpectrum({0: 1, 3: 7}, 15))
    with pytest.raises(NonIntegerDualCoefficient):
        macwilliams_dual(junk, 2, 4, 15)
    with pytest.raises(NonIntegerDualCoefficient):
        macwilliams_dual(junk, 2, 4, 10)  # wrong length
    # a weight outside [0, n], a negative count, or a weight or count that
    # is not an int, before either path runs
    full = {w: math.comb(15, w) for w in range(16)}
    for counts, k in (({0: 1, 20: 1}, 1), ({0: 1, -1: 1}, 1),
                      ({0: 1, 1: -1, 2: 2}, 1), ({**full, 16: 5}, 15),
                      ({0: 1.0, 7: 8.0, 8: 7.0}, 4), ({0: 1, 7.0: 8, 8: 7}, 4)):
        with pytest.raises(NonIntegerDualCoefficient):
            macwilliams_dual(WeightEnumerator(WeightSpectrum(counts, 15)), 2, k, 15)
