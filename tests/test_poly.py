import pytest
from hypothesis import given, settings, strategies as st

from cycenum import poly
from cycenum.errors import DivideByZeroPoly
from gf_utils import all_monic, poly_add


def naive_is_irreducible(p, q):
    """Trial division by every lower-degree monic polynomial."""
    deg = poly.degree(p)
    if deg <= 0:
        return False
    for d in range(1, deg // 2 + 1):
        for g in all_monic(q, d):
            if not poly.poly_mod(p, g, q):
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


@pytest.mark.parametrize("q", [2, 3])
def test_irreducibility_vs_trial_division(q):
    for d in range(1, 5):
        for p in all_monic(q, d):
            assert poly.is_irreducible(p, q) == naive_is_irreducible(p, q), p


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


def test_gcd_of_coprime_factors():
    a = [1, 1]  # x + 1
    b = [1, 1, 1]  # x^2 + x + 1
    assert poly.poly_gcd(poly.poly_mul(a, b, 2), a, 2) == a
    assert poly.poly_gcd(a, b, 2) == [1]


def test_to_string():
    assert poly.to_string([1, 1, 0, 0, 1]) == "x^4 + x + 1"
    assert poly.to_string([]) == "0"
    assert poly.to_string([2, 0, 1]) == "x^2 + 2"
