import cmath
import math
import random

import numpy as np
import pytest

from cycenum import (
    additive_character,
    build_ext_field,
    gauss_sum,
    irreducible_cyclic_code,
    multiplicative_character,
    order_d_character_sums,
)
from cycenum.errors import CharacterOfZero, PhaseOfZero
from gf_utils import valid_codes


def test_additive_character_at_zero_is_one():
    F = build_ext_field(2, 4)
    for beta in F.elements():
        assert additive_character(beta, 0, F) == 1


def test_additive_character_binary_values():
    F = build_ext_field(2, 4)
    for a in F.elements():
        val = additive_character(1, a, F)
        expected = -1.0 if F.trace(a) else 1.0
        assert abs(val - expected) < 1e-12


def test_additive_character_sum_cancels():
    F = build_ext_field(2, 4)
    for beta in (1, F.alpha, F.alpha_pow(7)):
        total = sum(additive_character(beta, a, F) for a in F.elements())
        assert abs(total) < 1e-9
    # beta = 0 gives the trivial character: sum is the field size
    total = sum(additive_character(0, a, F) for a in F.elements())
    assert abs(total - F.order) < 1e-9


def test_multiplicative_character_trivial_and_generator():
    F = build_ext_field(2, 4)
    for x in range(1, F.order):
        assert abs(multiplicative_character(0, x, F) - 1) < 1e-12
    val = multiplicative_character(1, F.alpha, F)
    assert abs(val - cmath.exp(2j * cmath.pi / 15)) < 1e-12


def test_multiplicative_character_is_multiplicative():
    F = build_ext_field(2, 4)
    rng = random.Random(11)
    for _ in range(200):
        j = rng.randrange(15)
        x = rng.randrange(1, 16)
        y = rng.randrange(1, 16)
        lhs = multiplicative_character(j, F.mul(x, y), F)
        rhs = multiplicative_character(j, x, F) * multiplicative_character(j, y, F)
        assert abs(lhs - rhs) < 1e-12


def test_character_of_zero():
    F = build_ext_field(2, 4)
    with pytest.raises(CharacterOfZero):
        multiplicative_character(1, 0, F)


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
        cmath.exp(2j * cmath.pi * 2 * m / 4) * cmath.exp(2j * cmath.pi * F.exp_table[m] / 5)
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
            pred = g1.value * multiplicative_character(j, beta, F).conjugate()
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
    val = multiplicative_character(F.group_order // 3, F.alpha, F)
    assert abs(val - cmath.exp(2j * cmath.pi / 3)) < 1e-12


def test_gauss_value_dict_roundtrip():
    from cycenum import GaussSumValue

    F = build_ext_field(2, 4)
    g = gauss_sum(3, 1, F)
    d = g.to_dict()
    assert GaussSumValue.from_dict(d) == g


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
