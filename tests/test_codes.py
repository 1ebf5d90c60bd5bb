import functools
import itertools
import json
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
from gf_utils import (all_monic, enumerate_span, exp_list, gf_rank, orbit_product_reference,
                      trace_words, valid_codes, x_pow_n_minus_1)


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
    assert all(poly.poly_divmod(quartic, g, 2)[1]
               for d in (1, 2) for g in all_monic(2, d))
    assert factor_xn_minus_1(5, 2) == [[1, 1], quartic]


def test_factor_x15_minus_1_gf2():
    factors = factor_xn_minus_1(15, 2)
    assert len(factors) == 5 == coset_count_formula(15, 2)
    prod = [1]
    for f in factors:
        prod = poly.poly_mul(prod, f, 2)
    assert prod == x_pow_n_minus_1(15, 2)
    assert all(poly.is_irreducible(f, 2) for f in factors)
    part = cosets_full(15, 2)
    assert [poly.degree(f) for f in factors] == [c.size for c in part.cosets]


@pytest.mark.parametrize("n,q", [(8, 3), (12, 5), (11, 3), (20, 3), (13, 5)])
def test_factor_product_and_count(n, q):
    factors = factor_xn_minus_1(n, q)
    prod = [1]
    for f in factors:
        prod = poly.poly_mul(prod, f, q)
    assert prod == x_pow_n_minus_1(n, q)
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


def min_poly_of(ctx, root, m):
    """_min_poly of a coefficient vector, solved over the rows of its
    powers 0..m from one poly.powers walk, as _factor_cyclotomic does."""
    one = np.eye(1, ctx.k, dtype=np.int64)[0]
    return codes._min_poly(poly.powers(one, ctx.matrices(root), m + 1, ctx.q), ctx.q)


def test_min_poly_reference_root_sources_and_wrong_degree():
    # every Frobenius orbit of alpha in every table field with q**k <= 2**10,
    # given as its first member and its size, against the packed-int
    # product of table-free arithmetic; the rows of the walk are the
    # root's powers 0..size, and the trace windows of those powers, the
    # rows irreducible_cyclic_code solves over, give the same polynomial
    for q in range(2, 1 << 10):
        if not is_prime(q):
            continue
        k = 1
        while q**k <= 1 << 10:
            F = build_ext_field(q, k)
            G, exp = F.group_order, exp_list(F)
            ctx = poly.ModMulContext(list(F.modulus), q)
            for orbit in cosets_full(G, q).cosets:
                e, i = orbit.members[0], np.arange(orbit.size + 1)
                powers = poly.powers(np.eye(1, k, dtype=np.int64)[0],
                                     ctx.matrices(poly.unpack(exp[e], q, k)), orbit.size + 1, q)
                assert powers.tolist() == [poly.unpack(exp[e * j % G], q, k) for j in i]
                h = codes._min_poly(powers, q)
                assert h == orbit_product_reference(F, orbit.members)
                windows = F.trace_table()[(e * i[:, None] + np.arange(k)) % G]
                assert codes._min_poly(windows.astype(np.int64), q) == h
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
                exp = exp_list(F)
                minimal = sorted(
                    min_poly_of(ctx, poly.unpack(exp[F.group_order // n * c.leader], q, k),
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
            min_poly_of(ctx, poly.unpack(F.alpha, 2, 4), m)
    script = "\n".join([
        "import numpy as np",
        "from cycenum import build_ext_field, codes, poly",
        "from cycenum.errors import OrderMismatch",
        "F = build_ext_field(2, 4)",
        "ctx = poly.ModMulContext(list(F.modulus), 2)",
        "M = ctx.matrices(poly.unpack(F.alpha, 2, 4))",
        "for m in (1, 5):",
        "    try:",
        "        codes._min_poly(poly.powers(np.eye(1, 4, dtype=np.int64)[0], M, m + 1, 2), 2)",
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


def degree_k_divisors(n, q, k):
    """Every monic degree-k divisor of x**n - 1 over GF(q), each a product
    of a set of its irreducible factors."""
    factors = factor_xn_minus_1(n, q)
    return {tuple(functools.reduce(lambda a, b: poly.poly_mul(a, b, q), sub))
            for r in range(1, k + 1) for sub in itertools.combinations(factors, r)
            if sum(len(f) - 1 for f in sub) == k}


def test_wrong_check_polynomial_rejected_under_python_O():
    # h is irreducible by construction, so no test runs on it. Every other
    # monic degree-k divisor of x**n - 1, put in place of _min_poly's h,
    # must fail the h * g = x**n - 1 check, a raise that python -O keeps.
    cases = []
    for q, k, N in ((2, 4, 1), (2, 6, 1), (2, 6, 3), (3, 3, 2), (5, 2, 3)):
        h = irreducible_cyclic_code(q, k, N).check
        wrong = sorted(degree_k_divisors((q**k - 1) // N, q, k) - {tuple(h)})
        assert wrong, (q, k, N)
        cases += [[q, k, N, list(d)] for d in wrong]
    script = "\n".join([
        "import json, sys",
        "from cycenum import codes",
        "from cycenum.errors import NoDegreeKFactor",
        "cases = json.loads(sys.argv[1])",
        "for q, k, N, h in cases:",
        "    codes._min_poly = lambda rows, q, h=h: h",
        "    try:",
        "        codes.irreducible_cyclic_code(q, k, N)",
        "    except NoDegreeKFactor:",
        "        continue",
        "    raise SystemExit(f'{h} was taken as the check polynomial of {q, k, N}')",
        "print(len(cases))",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(cycenum.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-O", "-c", script, json.dumps(cases)], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [str(len(cases))]


def test_check_divides_xn_minus_1():
    for q, k, N in ((2, 4, 1), (2, 4, 3), (3, 2, 2), (5, 2, 3)):
        spec = irreducible_cyclic_code(q, k, N)
        assert spec.n * N == q**k - 1
        _, rem = poly.poly_divmod(x_pow_n_minus_1(spec.n, q), spec.generator, q)
        assert rem == []
        prod = poly.poly_mul(spec.generator, spec.check, q)
        assert prod == x_pow_n_minus_1(spec.n, q)


def test_generator_is_the_long_division_quotient():
    # the trace-word generator against schoolbook division, every valid
    # code with q <= 13 and q**k <= 2**10
    for q, k, N in valid_codes(1 << 10, (2, 3, 5, 7, 11, 13)):
        spec = irreducible_cyclic_code(q, k, N)
        quot, rem = poly.poly_divmod(x_pow_n_minus_1(spec.n, q), spec.check, q)
        assert rem == []
        assert spec.generator == quot
        assert all(type(c) is int for c in spec.generator)


def test_wrong_generator_rejected(monkeypatch):
    right = codes._generator_trace_word
    monkeypatch.setattr(codes, "_generator_trace_word",
                        lambda F, h, powers, N, n: 1 - right(F, h, powers, N, n))
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
