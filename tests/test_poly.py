import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cycenum import poly
from cycenum.errors import DivideByZeroPoly, InvalidParameters
from cycenum.intmath import divisors, factorize
from gf_utils import all_monic, poly_add


def naive_is_irreducible(p, q):
    """Trial division by every lower-degree monic polynomial."""
    deg = poly.degree(p)
    if deg <= 0:
        return False
    for d in range(1, deg // 2 + 1):
        for g in all_monic(q, d):
            if not poly.poly_divmod(p, g, q)[1]:
                return False
    return True


def test_mul_by_unit():
    p = [1, 0, 2]
    assert poly.poly_mul([1], p, 3) == p


def test_mul_gf2_factor_of_x5_plus_1():
    got = poly.poly_mul([1, 1], [1, 1, 1, 1, 1], 2)
    assert got == [1, 0, 0, 0, 0, 1]  # x^5 + 1


def test_divmod_self():
    p = [1, 1, 0, 1]
    assert poly.poly_divmod(p, p, 2) == ([1], [])


def test_divmod_by_zero():
    with pytest.raises(DivideByZeroPoly):
        poly.poly_divmod([1, 1], [], 2)


@st.composite
def poly_pair(draw):
    q = draw(st.sampled_from([2, 3, 5]))
    a = draw(st.lists(st.integers(0, q - 1), max_size=12))
    b = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=6))
    return q, poly.trim(a), poly.trim(b)


@settings(max_examples=200, deadline=None)
@given(poly_pair())
def test_divmod_identity(args):
    q, a, b = args
    if not b:
        return
    quot, rem = poly.poly_divmod(a, b, q)
    assert poly.degree(rem) < poly.degree(b)
    assert poly_add(poly.poly_mul(quot, b, q), rem, q) == a


def _monic_up_to(q, max_d):
    return [p for d in range(1, max_d + 1) for p in all_monic(q, d)]


def _linear(a, q):
    return [-a % q, 1]  # x - a


@pytest.mark.parametrize("q,polys", [
    pytest.param(2, _monic_up_to(2, 4), id="2"),
    pytest.param(3, _monic_up_to(3, 4), id="3"),
    # q = 5 and 7 reach the root check at a >= 2
    pytest.param(5, _monic_up_to(5, 4), id="5"),
    pytest.param(7, _monic_up_to(7, 3), id="7"),
    # the root check stops at a = 31: roots at 32 and above (x^2 + 2 has
    # none) are left to Rabin
    pytest.param(37, [poly.poly_mul(_linear(32, 37), _linear(36, 37), 37),
                      poly.poly_mul(_linear(33, 37), _linear(33, 37), 37),
                      poly.poly_mul(_linear(35, 37), [2, 0, 1], 37)], id="37"),
    pytest.param(1000003, [_linear(a, 1000003)
                           for a in (0, 1, 5, 31, 32, 999999, 1000002)], id="1000003"),
])
def test_irreducibility_vs_trial_division(q, polys):
    for p in polys:
        assert poly.is_irreducible(p, q) == naive_is_irreducible(p, q), p


def test_root_check_cost_does_not_grow_with_q():
    # x^2 + 1 has no root mod 2^31 - 1 (a prime = 3 mod 4); a root check
    # that ran over all of GF(q) would not finish in the timeout
    env = {**os.environ, "PYTHONPATH": str(Path(poly.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-c",
         "from cycenum import poly; print(poly.is_irreducible([1, 0, 1], 2**31 - 1))"],
        env=env, capture_output=True, text=True, timeout=20)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "True\n"


def test_is_irreducible_edge_cases():
    assert not poly.is_irreducible([], 2)
    assert not poly.is_irreducible([1], 2)
    assert poly.is_irreducible([0, 1], 2)  # x
    assert poly.is_irreducible([1, 1], 2)  # x + 1
    assert not poly.is_irreducible([1, 0, 1], 2)  # (x+1)^2
    assert poly.is_irreducible([1, 1, 1], 2)


def test_find_irreducible_deterministic_classics():
    assert poly.find_irreducible(2, 2) == [1, 1, 1]
    assert poly.find_irreducible(2, 3) == [1, 1, 0, 1]  # x^3 + x + 1
    assert poly.find_irreducible(2, 4) == [1, 1, 0, 0, 1]  # x^4 + x + 1
    got = poly.find_irreducible(3, 2)
    assert poly.is_irreducible(got, 3) and poly.degree(got) == 2


def _sparse(terms):
    """Coefficient list of sum(c * x**e for e, c in terms.items())."""
    p = [0] * (max(terms) + 1)
    for e, c in terms.items():
        p[e] = c
    return p


def test_find_irreducible_scan_order_pinned():
    # the first hits of the packed-value scan; a change of scan order or of
    # the irreducibility verdict moves them
    assert poly.find_irreducible(2, 99) == _sparse({0: 1, 1: 1, 3: 1, 6: 1, 99: 1})
    assert poly.find_irreducible(3, 48) == _sparse({0: 1, 1: 2, 2: 2, 3: 1, 4: 1, 48: 1})
    assert poly.find_irreducible(5, 36) == _sparse({0: 2, 1: 3, 3: 1, 36: 1})


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_find_irreducible_is_first_in_packed_order(q):
    # the scan order checked against trial division, independently of Rabin;
    # the low coefficient varies fastest in packed-value order
    for k in range(1, 6):
        packed = ([*tail[::-1], 1] for tail in itertools.product(range(q), repeat=k))
        first = next(p for p in packed if naive_is_irreducible(p, q))
        assert poly.find_irreducible(q, k) == first, k


@pytest.mark.parametrize("q,k", [(3, 4), (7, 4), (11, 4), (5, 2)])
def test_find_irreducible_binomial_block(q, k):
    # the binomials x^k + c are packed values 0..q-1. (3,4), (7,4), (11,4):
    # 4 | k and q = 3 mod 4, so none is irreducible and the scan skips them;
    # (5,2): 2 | q - 1, the block is scanned and x^2 + 2 is the first hit
    binomials = [[c] + [0] * (k - 1) + [1] for c in range(q)]
    assert any(naive_is_irreducible(b, q) for b in binomials) == ((q, k) == (5, 2))
    packed = ([*tail[::-1], 1] for tail in itertools.product(range(q), repeat=k))
    first = next(p for p in packed if naive_is_irreducible(p, q))
    assert poly.find_irreducible(q, k) == first
    if (q, k) == (5, 2):
        assert first == [2, 0, 1]


def _mobius(n):
    exps = factorize(n).values()
    return 0 if any(e > 1 for e in exps) else (-1) ** len(exps)


@pytest.mark.parametrize("q,max_d", [(2, 10), (3, 6), (5, 4)])
def test_irreducible_count_matches_gauss_formula(q, max_d):
    for d in range(1, max_d + 1):
        gauss = sum(_mobius(e) * q ** (d // e) for e in divisors(d)) // d
        assert sum(poly.is_irreducible(p, q) for p in all_monic(q, d)) == gauss, d


@pytest.mark.parametrize("q,k", [(2, 2), (2, 12), (3, 7), (5, 4), (2, 48), (13, 3)])
def test_frobenius_matrix_is_qth_power(q, k):
    # Berlekamp's Q as is_irreducible builds it: row j is x**(q*j)
    ctx = poly.ModMulContext(poly.find_irreducible(q, k), q)
    one, x = np.eye(2, k, dtype=np.int64)
    Q = poly.powers(one, ctx.matrices(ctx.pow(x, q)), k, q)
    assert Q.shape == (k, k) and Q.dtype == np.int64
    rng = np.random.default_rng(q * 100 + k)
    for v in rng.integers(0, q, size=(20, k)):
        assert np.array_equal(v @ Q % q, ctx.pow(v, q))
        orbit = poly.powers(v, Q, 3, q)
        assert np.array_equal(orbit[0], v)
        assert np.array_equal(orbit[2], ctx.pow(v, q * q))


@pytest.mark.parametrize("q,k", [(2, 1), (13, 1), (5, 4)])
def test_powers_edge_counts(q, k):
    ctx = poly.ModMulContext(poly.find_irreducible(q, k), q)
    M = ctx.matrices((np.arange(k) + 2) % q)
    v = np.arange(k) % q + 1
    assert poly.powers(v, M, 0, q).shape == (0, k)
    assert np.array_equal(poly.powers(v, M, 1, q), v[None, :])
    # at k = 1, M is a constant c and row i is v * c**i
    walk = poly.powers(v, M, 5, q)
    assert walk.shape == (5, k)
    for i, row in enumerate(walk):
        assert np.array_equal(row, v @ np.linalg.matrix_power(M, i) % q)


@pytest.mark.parametrize("q,k", [(2, 1), (13, 1), (2, 12), (3, 7), (2, 48)])
def test_mul_and_matrices_share_one_fold(q, k):
    # k = 1 has an empty table: the fold's high part is empty
    modulus = poly.find_irreducible(q, k)
    ctx = poly.ModMulContext(modulus, q)
    rng = np.random.default_rng(q * 100 + k)
    for a, b in rng.integers(0, q, size=(20, 2, k)):
        c = ctx.mul(a, b)
        assert c.shape == (k,)
        assert np.array_equal(c, b @ ctx.matrices(a) % q)
        # against schoolbook multiply and long division
        rem = poly.poly_divmod(poly.poly_mul(a.tolist(), b.tolist(), q), modulus, q)[1]
        assert c.tolist() == rem + [0] * (k - len(rem))


@pytest.mark.parametrize("q,k", [(2, 1), (2, 5), (3, 4), (5, 3), (13, 2)])
def test_unpack_is_the_inverse_of_packing(q, k):
    for v in range(q**k):
        digits = poly.unpack(v, q, k)
        assert len(digits) == k and all(0 <= c < q for c in digits)
        assert sum(c * q**i for i, c in enumerate(digits)) == v


def test_mod_mul_context_refuses_int64_overflow():
    with pytest.raises(InvalidParameters):
        poly.ModMulContext([1, 0, 1], 2**61 - 1)


def test_gcd_of_coprime_factors():
    a = [1, 1]  # x + 1
    b = [1, 1, 1]  # x^2 + x + 1
    assert poly.poly_gcd(poly.poly_mul(a, b, 2), a, 2) == a
    assert poly.poly_gcd(a, b, 2) == [1]


def test_to_string():
    assert poly.to_string([1, 1, 0, 0, 1]) == "x^4 + x + 1"
    assert poly.to_string([]) == "0"
    assert poly.to_string([2, 0, 1]) == "x^2 + 2"
