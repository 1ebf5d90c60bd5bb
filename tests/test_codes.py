import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cycenum
from cycenum import (
    build_ext_field,
    coset_count_formula,
    cosets_full,
    factor_xn_minus_1,
    generator_matrix,
    irreducible_cyclic_code,
)
from cycenum import codes, digit_sum, field, poly
from cycenum.cosets import multiplicative_order
from cycenum.errors import InvalidParameters, NoDegreeKFactor, NotCoprime, OrderMismatch
from cycenum.intmath import divisors, factorize, is_prime
from gf_utils import (all_monic, enumerate_span, gf_rank, orbit_product_reference,
                      trace_words, valid_codes)


# ---------------------------------------------------------------------------
# minimal polynomials: factor_xn_minus_1 lists M_s for every coset leader s


def test_minimal_polynomial_of_coset_zero():
    assert factor_xn_minus_1(15, 2)[0] == [1, 1]  # X - 1 over GF(2)


def test_minimal_polynomial_c5_is_the_quadratic():
    part = cosets_full(15, 2)
    F = build_ext_field(2, 4)
    m5 = factor_xn_minus_1(15, 2)[[c.leader for c in part.cosets].index(5)]
    assert m5 == [1, 1, 1]
    # roots alpha^5 and alpha^10 (the two elements of order 3)
    assert orbit_product_reference(F, [5, 10]) == m5


def test_minimal_polynomial_degrees_match_coset_sizes():
    part = cosets_full(15, 2)
    F = build_ext_field(2, 4)
    factors = factor_xn_minus_1(15, 2)
    assert factors == [orbit_product_reference(F, c.members) for c in part.cosets]
    degs = [poly.degree(f) for f in factors]
    assert degs == [c.size for c in part.cosets]
    assert sorted(degs) == [1, 2, 4, 4, 4]


@pytest.mark.parametrize("call", [
    lambda: factorize(0),
    lambda: digit_sum(-1, 2),
    lambda: digit_sum(5, 1),
    lambda: poly.ModMulContext([1, 1, 2], 3),  # leading coefficient 2
], ids=["factorize", "digit_sum-negative", "digit_sum-base", "non-monic-modulus"])
def test_library_input_errors_are_invalid_parameters(call):
    with pytest.raises(InvalidParameters):
        call()


# ---------------------------------------------------------------------------
# factorization of x^n - 1


def test_factor_n1():
    assert factor_xn_minus_1(1, 2) == [[1, 1]]
    assert factor_xn_minus_1(1, 3) == [[2, 1]]


def test_factor_x5_minus_1_gf2():
    # oracle: exhaustive irreducibility of the quartic by trial division
    quartic = [1, 1, 1, 1, 1]
    assert all(poly.poly_mod(quartic, g, 2)
               for d in (1, 2) for g in all_monic(2, d))
    assert factor_xn_minus_1(5, 2) == [[1, 1], quartic]


def test_factor_x15_minus_1_gf2():
    factors = factor_xn_minus_1(15, 2)
    assert len(factors) == 5 == coset_count_formula(15, 2)
    prod = [1]
    for f in factors:
        prod = poly.poly_mul(prod, f, 2)
    assert prod == poly.x_pow_n_minus_1(15, 2)
    assert all(poly.is_irreducible(f, 2) for f in factors)
    part = cosets_full(15, 2)
    assert [poly.degree(f) for f in factors] == [c.size for c in part.cosets]


@pytest.mark.parametrize("n,q", [(8, 3), (12, 5), (11, 3), (20, 3), (13, 5)])
def test_factor_product_and_count(n, q):
    factors = factor_xn_minus_1(n, q)
    prod = [1]
    for f in factors:
        prod = poly.poly_mul(prod, f, q)
    assert prod == poly.x_pow_n_minus_1(n, q)
    assert len(factors) == coset_count_formula(n, q)
    assert all(poly.is_irreducible(f, q) for f in factors)


def test_factor_large_order_splitting_case():
    # ord_2(113) = 28: splitting happens in GF(2^28), far beyond table scale
    factors = factor_xn_minus_1(113, 2)
    assert sorted(poly.degree(f) for f in factors) == [1] + [28] * 4
    assert all(poly.is_irreducible(f, 2) for f in factors)


def test_factor_above_degree_99():
    # ord_239(2) = 119 is odd, so -1 is not a power of 2 mod 239: the
    # cosets of 1 and -1 differ, and their factors are each other's
    # reciprocal whatever the orbit product does
    factors = factor_xn_minus_1(239, 2)
    assert [poly.degree(f) for f in factors] == [1, 119, 119]
    assert all(poly.is_irreducible(f, 2) for f in factors)
    # the reciprocal x^d f(1/x) is f reversed, monic as f(0) = 1 over GF(2)
    assert factors[2] == factors[1][::-1]


def test_factor_large_q_skips_constants(monkeypatch):
    # ord_11(65537) = 2: no constant of GF(65537) has order 11, so the
    # order-11 scan starts at x; walking the constants took about 65000 pows
    ctx = field._context(65537, 2)
    calls = []
    pow_ = poly.ModMulContext.pow

    def counting_pow(self, a, e):
        calls.append(e)
        return pow_(self, a, e)

    monkeypatch.setattr(poly.ModMulContext, "pow", counting_pow)
    beta = codes._element_of_order(ctx, 11)
    assert len(calls) < 10
    monkeypatch.undo()
    one = np.eye(1, 2, dtype=np.int64)[0]
    assert not np.array_equal(beta, one) and np.array_equal(ctx.pow(beta, 11), one)
    assert factor_xn_minus_1(11, 65537) == [
        [65536, 1], [1, 47973, 1], [1, 54102, 1], [1, 44129, 1],
        [1, 52629, 1], [1, 63316, 1]]
    assert [poly.degree(f) for f in factor_xn_minus_1(7, 1000003)] == [1, 3, 3]


def test_factor_rejects_common_divisor():
    with pytest.raises(NotCoprime):
        factor_xn_minus_1(6, 3)


def test_min_poly_reference_root_sources_and_wrong_degree():
    # every Frobenius orbit of alpha in every table field with q**k <= 2**10,
    # given as its first member and its size, against the packed-int
    # product through the log tables
    for q in range(2, 1 << 10):
        if not is_prime(q):
            continue
        k = 1
        while q**k <= 1 << 10:
            F = build_ext_field(q, k)
            ctx = poly.ModMulContext(list(F.modulus), q)
            for orbit in cosets_full(F.group_order, q).cosets:
                root = F.coeffs(F.alpha_pow(orbit.members[0]))
                assert (codes._min_poly(ctx, root, orbit.size)
                        == orbit_product_reference(F, orbit.members))
            k += 1
    # roots as powers of an element of order f (factor_xn_minus_1) and as
    # digits of alpha**e, e = (q**k - 1)/n * s, give the same factors
    for q in (2, 3, 5, 7):
        k = 1
        while q**k <= 1 << 10:
            for n in divisors(q**k - 1):
                if multiplicative_order(q, n) != k:
                    continue
                F = build_ext_field(q, k)
                ctx = field._context(q, k)
                minimal = sorted(
                    codes._min_poly(ctx, F.coeffs(F.alpha_pow(F.group_order // n * c.leader)),
                                    c.size)
                    for c in cosets_full(n, q).cosets)
                assert sorted(factor_xn_minus_1(n, q)) == minimal, (n, q)
            k += 1
    # alpha of GF(16) has degree 4: at m = 1 the last column is left
    # inconsistent, at m = 5 a pivot is missing; the checks are raises, so
    # they hold under python -O too
    F = build_ext_field(2, 4)
    ctx = poly.ModMulContext(list(F.modulus), 2)
    for m in (1, 5):
        with pytest.raises(OrderMismatch):
            codes._min_poly(ctx, F.coeffs(F.alpha), m)
    script = "\n".join([
        "from cycenum import build_ext_field, codes, poly",
        "from cycenum.errors import OrderMismatch",
        "F = build_ext_field(2, 4)",
        "ctx = poly.ModMulContext(list(F.modulus), 2)",
        "for m in (1, 5):",
        "    try:",
        "        codes._min_poly(ctx, F.coeffs(F.alpha), m)",
        "    except OrderMismatch:",
        "        continue",
        "    raise SystemExit(f'alpha of GF(16) was given degree {m}')",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(cycenum.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


# ---------------------------------------------------------------------------
# code construction


def test_simplex_code_15_4():
    spec = irreducible_cyclic_code(2, 4, 1)
    assert (spec.n, spec.k) == (15, 4)
    assert poly.degree(spec.generator) == 11
    assert poly.degree(spec.check) == 4
    assert poly.is_irreducible(spec.check, 2)


def test_code_5_4():
    spec = irreducible_cyclic_code(2, 4, 3)
    assert (spec.n, spec.k) == (5, 4)
    assert spec.generator == [1, 1]


def test_code_rejects_bad_order():
    # N = 5 gives n = 3 but ord_3(2) = 2 != 4
    with pytest.raises(InvalidParameters):
        irreducible_cyclic_code(2, 4, 5)
    with pytest.raises(InvalidParameters):
        irreducible_cyclic_code(2, 4, 7)  # 7 does not divide 15


def test_check_polynomial_verified_under_python_O():
    # python -O strips assert statements; the irreducibility check must not go
    script = "\n".join([
        "from cycenum import poly",
        "from cycenum.codes import irreducible_cyclic_code",
        "from cycenum.errors import NoDegreeKFactor",
        "irreducible_cyclic_code(2, 4, 3)  # builds GF(16) before the patch",
        "poly.is_irreducible = lambda p, q: False",
        "try:",
        "    irreducible_cyclic_code(2, 4, 3)",
        "except NoDegreeKFactor:",
        "    raise SystemExit(0)",
        "raise SystemExit('a reducible check polynomial was accepted')",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(cycenum.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_check_divides_xn_minus_1():
    for q, k, N in ((2, 4, 1), (2, 4, 3), (3, 2, 2), (5, 2, 3)):
        spec = irreducible_cyclic_code(q, k, N)
        assert spec.n * N == q**k - 1
        _, rem = poly.poly_divmod(poly.x_pow_n_minus_1(spec.n, q), spec.generator, q)
        assert rem == []
        prod = poly.poly_mul(spec.generator, spec.check, q)
        assert prod == poly.x_pow_n_minus_1(spec.n, q)


def test_generator_is_the_long_division_quotient():
    # the trace-word generator against schoolbook division, every valid
    # code with q <= 13 and q**k <= 2**10
    for q, k, N in valid_codes(1 << 10, (2, 3, 5, 7, 11, 13)):
        spec = irreducible_cyclic_code(q, k, N)
        quot, rem = poly.poly_divmod(poly.x_pow_n_minus_1(spec.n, q), spec.check, q)
        assert rem == []
        assert spec.generator == quot
        assert all(type(c) is int for c in spec.generator)


def test_wrong_generator_rejected(monkeypatch):
    right = codes._generator_trace_word
    monkeypatch.setattr(codes, "_generator_trace_word",
                        lambda F, h, N, n: [1 - c for c in right(F, h, N, n)])
    with pytest.raises(NoDegreeKFactor):
        irreducible_cyclic_code(2, 4, 1)


def test_generator_matrix_band_structure():
    spec = irreducible_cyclic_code(2, 4, 3)
    assert generator_matrix(spec) == [
        [1, 1, 0, 0, 0],
        [0, 1, 1, 0, 0],
        [0, 0, 1, 1, 0],
        [0, 0, 0, 1, 1],
    ]


@pytest.mark.parametrize("q,k,N", [(2, 4, 1), (2, 4, 3), (3, 2, 2), (5, 2, 3), (2, 6, 7)])
def test_generator_matrix_rank(q, k, N):
    spec = irreducible_cyclic_code(q, k, N)
    assert gf_rank(generator_matrix(spec), q) == k


@pytest.mark.parametrize("q,k,N", [(2, 4, 3), (2, 4, 1), (3, 2, 2), (5, 2, 3)])
def test_trace_words_equal_row_space(q, k, N):
    spec = irreducible_cyclic_code(q, k, N)
    rows = generator_matrix(spec)
    span = set(enumerate_span(rows, q))
    words = {tuple(w) for w in trace_words(spec)}
    assert len(words) == q**k  # injectivity
    assert words == span


def test_codeword_zero_and_simplex_weights():
    words = trace_words(irreducible_cyclic_code(2, 4, 1))
    assert words[0] == [0] * 15
    assert len(words) == 16 and all(sum(w) == 8 for w in words[1:])


def test_cyclic_closure():
    for q, k, N in ((2, 4, 3), (3, 2, 2)):
        spec = irreducible_cyclic_code(q, k, N)
        for w in trace_words(spec):
            rotated = [w[-1]] + w[:-1]
            _, rem = poly.poly_divmod(poly.trim(rotated), spec.generator, q)
            assert rem == []


def test_codespec_to_dict():
    spec = irreducible_cyclic_code(2, 4, 3)
    d = spec.to_dict()
    assert d["generator"] == [1, 1]
    assert d["field"]["modulus"] == [1, 1, 0, 0, 1]
    rebuilt = irreducible_cyclic_code(d["q"], d["k"], d["N"])
    assert rebuilt.to_dict() == d
