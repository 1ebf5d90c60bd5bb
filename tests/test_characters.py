import cmath
import json
import math

import numpy as np
import pytest

from cycenum import build_ext_field, gauss_sum, irreducible_cyclic_code, order_d_character_sums
from cycenum.errors import PhaseOfZero
from gf_utils import character, exp_list, valid_codes


def test_additive_character_sum_cancels():
    # with the trivial chi_0, a Gauss sum is the sum of e_beta over the
    # nonzero elements: -1 for beta != 0, as e_beta sums to 0 over the
    # field, and q**k - 1 for beta = 0
    F = build_ext_field(2, 4)
    for beta in (1, F.alpha, F.alpha_pow(7)):
        assert abs(gauss_sum(0, beta, F).value - (-1)) < 1e-9
    assert abs(gauss_sum(0, 0, F).value - F.group_order) < 1e-9


def test_trivial_character_gauss_sum_is_minus_one():
    for q, k in ((2, 4), (3, 2), (5, 1), (2, 8)):
        F = build_ext_field(q, k)
        g = gauss_sum(0, 1, F)
        assert abs(g.value - (-1)) < 1e-12
        assert abs(g.gamma - math.pi) < 1e-12


def test_gf5_quadratic_character_sum():
    # brute-force derivation: sum of 4 unit-modulus terms
    F = build_ext_field(5, 1)
    expected = sum(
        cmath.exp(2j * cmath.pi * 2 * m / 4) * cmath.exp(2j * cmath.pi * exp_list(F)[m] / 5)
        for m in range(4)
    )
    g = gauss_sum(2, 1, F)
    assert abs(g.value - expected) < 1e-12
    assert abs(g.magnitude - math.sqrt(5)) < 1e-9
    assert abs(g.gamma) < 1e-9


@pytest.mark.parametrize("q,k", [(2, 4), (3, 2), (2, 6), (5, 2), (3, 4)])
def test_gauss_magnitudes_sqrt_field_size(q, k):
    F = build_ext_field(q, k)
    root = math.sqrt(q**k)
    for j in range(1, F.group_order):
        g = gauss_sum(j, 1, F)
        assert abs(g.magnitude - root) / root < 1e-9


def test_gauss_sum_beta_shift():
    # G(chi_j, e_beta) = conj(chi_j)(beta) * G(chi_j, e_1) for beta != 0
    F = build_ext_field(2, 4)
    for j in (1, 7):
        g1 = gauss_sum(j, 1, F)
        for b in (1, 3, 11):
            beta = F.alpha_pow(b)
            gb = gauss_sum(j, beta, F)
            pred = g1.value * character(j, beta, F).conjugate()
            assert abs(gb.value - pred) < 1e-9


def test_gauss_round_trip_polar():
    F = build_ext_field(3, 3)
    for j in (1, 5, 13):
        g = gauss_sum(j, 1, F)
        rebuilt = g.magnitude * cmath.exp(1j * g.gamma)
        assert abs(rebuilt - g.value) / abs(g.value) < 1e-12


def test_summation_order_independence():
    F = build_ext_field(2, 6)
    M = F.group_order
    tr = F.trace_table()
    j = 5
    perm = np.random.default_rng(3).permutation(M)
    shuffled = sum(
        cmath.exp(2j * cmath.pi * ((j * int(m)) % M) / M)
        * cmath.exp(2j * cmath.pi * int(tr[m]) / 2)
        for m in perm
    )
    g = gauss_sum(j, 1, F)
    assert abs(shuffled - g.value) < 1e-10


def test_phase_of_zero_value():
    F = build_ext_field(2, 4)
    with pytest.raises(PhaseOfZero):
        gauss_sum(3, 0, F)  # trivial additive character, nontrivial chi: sum is 0


@pytest.mark.parametrize("q,k,j", [(2, 16, 3), (2, 20, 1), (3, 12, 2), (5, 8, 7)])
def test_phase_of_zero_on_large_fields(q, k, j):
    # a nontrivial chi_j sums to exactly 0 over the group; a float sum of
    # q**k - 1 terms leaves noise above the 1e-12 zero guard on these fields
    F = build_ext_field(q, k)
    with pytest.raises(PhaseOfZero):
        gauss_sum(j, 0, F)
    assert gauss_sum(F.group_order, 0, F).value == F.group_order


def test_order_d_sums_simplex_empty():
    spec = irreducible_cyclic_code(2, 4, 1)
    assert order_d_character_sums(spec) == []


def test_order_d_sums_5_4_code():
    spec = irreducible_cyclic_code(2, 4, 3)
    sums = order_d_character_sums(spec)
    assert len(sums) == 2
    for g in sums:
        assert abs(g.magnitude - 4.0) < 1e-9
    # conjugate partners share magnitude
    assert abs(sums[0].magnitude - sums[1].magnitude) < 1e-9
    # chibar has exact order d: chi_j0(alpha) = exp(2 pi i / 3)
    F = spec.field
    val = character(F.group_order // 3, F.alpha, F)
    assert abs(val - cmath.exp(2j * cmath.pi / 3)) < 1e-12


def test_gauss_value_dict_roundtrip():
    from cycenum import GaussSumValue

    F = build_ext_field(2, 4)
    g = gauss_sum(3, 1, F)
    d = g.to_dict()
    assert json.loads(json.dumps(d)) == d
    assert GaussSumValue(complex(d["re"], d["im"]), d["gamma"], d["magnitude"]) == g


def _gauss_sums_one_by_one(spec):
    F = spec.field
    d = math.gcd(spec.N, F.group_order // (spec.q - 1))
    return [gauss_sum(F.group_order // d * a, 1, F) for a in range(1, d)]


def test_order_d_sums_gather_equals_gauss_sum():
    # the d x q gather against gauss_sum's M-long sums, bit for bit, at every
    # valid code with q**k <= 2**12 and at (2, 16, 17), where d = 17
    for q, k, N in [*valid_codes(1 << 12), (2, 16, 17)]:
        spec = irreducible_cyclic_code(q, k, N)
        assert order_d_character_sums(spec) == _gauss_sums_one_by_one(spec), (q, k, N)
