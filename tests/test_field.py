import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cycenum
from cycenum import build_ext_field, field
from cycenum.errors import (FieldMismatch, InvalidParameters, LogOfZero, NotPrime,
                            OrderMismatch, TableCapExceeded)
from cycenum.intmath import divisors, is_prime

from gf_utils import _add_raw, _mul_raw, reference_field


def _trace(F, a):
    """Tr(a) of a packed element, read from the trace table."""
    return 0 if a == 0 else int(F.trace_table()[F.dlog(a)])


def test_gf2_trivial_group():
    F = build_ext_field(2, 1)
    assert F.order == 2
    assert F.alpha == 1
    assert F.exp_table.tolist() == [1]
    assert F.dlog(1) == 0


def test_gf4_modulus_is_the_unique_irreducible_quadratic():
    # oracle: a quadratic over GF(2) is irreducible iff it has no root
    candidates = []
    for c0 in (0, 1):
        for c1 in (0, 1):
            p = [c0, c1, 1]
            if all((c0 + c1 * x + x * x) % 2 for x in (0, 1)):
                candidates.append(p)
    assert candidates == [[1, 1, 1]]
    F = build_ext_field(2, 2)
    assert list(F.modulus) == [1, 1, 1]
    assert F.group_order == 3


def test_gf4_alpha_plus_alpha_squared_is_one():
    F = build_ext_field(2, 2)
    a1 = F.alpha_pow(1)
    a2 = F.alpha_pow(2)
    assert a1 ^ a2 == F.alpha_pow(0) == 1  # addition over GF(2) is XOR


def test_gf16_dlog_roundtrip_all_exponents():
    F = build_ext_field(2, 4)
    for i in range(15):
        assert F.dlog(F.alpha_pow(i)) == i
    for m in range(-40, 40):
        assert F.dlog(F.alpha_pow(m)) == m % 15


def test_mul_zero_absorbing_and_cyclic_law():
    # the exp table against table-free multiplication mod the modulus
    F = build_ext_field(2, 4)
    for x in range(F.order):
        assert _mul_raw(0, x, F.modulus, 2, 4) == 0
    for i in range(15):
        for j in range(15):
            assert (_mul_raw(F.alpha_pow(i), F.alpha_pow(j), F.modulus, 2, 4)
                    == F.alpha_pow((i + j) % 15))


def test_trace_values_in_gf4():
    F = build_ext_field(2, 2)
    assert _trace(F, 0) == 0
    assert F.trace_table()[0] == 0  # Tr(1) = 1 + 1^2 over GF(2)
    assert F.trace_table()[1] == 1  # alpha + alpha^2 = 1


@pytest.mark.parametrize("q,k", [(2, 4), (2, 8), (3, 3), (5, 2)])
def test_trace_linear_and_surjective(q, k):
    F = build_ext_field(q, k)
    elements = range(F.order)
    for a in elements:
        for b in elements[:64]:
            assert _trace(F, _add_raw(a, b, q, k)) == (_trace(F, a) + _trace(F, b)) % q
    assert set(F.trace_table().tolist()) == set(range(q))


def test_trace_linear_random_pairs_large_field():
    import random

    F = build_ext_field(2, 12)
    rng = random.Random(5)
    for _ in range(500):
        a = rng.randrange(F.order)
        b = rng.randrange(F.order)
        assert _trace(F, a ^ b) == (_trace(F, a) + _trace(F, b)) % 2


@pytest.mark.parametrize("q,k", [(2, 4), (3, 3), (5, 2)])
def test_frobenius_fixes_trace(q, k):
    # Tr(a**q) = Tr(a), and a**q = alpha**(m*q) for a = alpha**m
    F = build_ext_field(q, k)
    m = np.arange(F.group_order)
    tr = F.trace_table()
    assert np.array_equal(tr[m * q % F.group_order], tr)


@pytest.mark.parametrize("q,k", [(2, 4), (3, 3), (2, 6), (5, 2)])
def test_alpha_is_primitive(q, k):
    F = build_ext_field(q, k)
    for d in divisors(F.group_order)[:-1]:  # proper divisors
        assert F.alpha_pow(d) != 1


def test_table_inverses_everywhere():
    F = build_ext_field(3, 3)
    assert F.log_table[F.exp_table].tolist() == list(range(F.group_order))
    with pytest.raises(LogOfZero):
        F.dlog(0)


def test_coeffs_roundtrip():
    F = build_ext_field(5, 2)
    for a in range(F.order):
        assert sum(c * 5**i for i, c in enumerate(F.coeffs(a))) == a
    assert F.coeffs(0) == (0, 0)


@pytest.mark.parametrize("q,k", [(2, 4), (3, 3)])
def test_element_api_returns_python_ints(q, k):
    F = build_ext_field(q, k)
    a = F.alpha_pow(5)
    for value in (a, F.alpha_pow(3), F.alpha_pow(10**30), F.dlog(a), *F.coeffs(a)):
        assert type(value) is int


@pytest.mark.parametrize("e", [10**30, -10**30])
def test_pow_exponent_beyond_int64(e):
    F = build_ext_field(2, 4)
    assert F.alpha_pow(e) == F.alpha_pow(e % 15)
    assert F.dlog(F.alpha_pow(e)) == e % 15


def test_errors():
    with pytest.raises(NotPrime):
        build_ext_field(6, 2)
    with pytest.raises(TableCapExceeded):
        build_ext_field(2, 23)
    F = build_ext_field(2, 4)
    with pytest.raises(LogOfZero):
        F.dlog(0)
    with pytest.raises(FieldMismatch):
        F.dlog(16)
    with pytest.raises(FieldMismatch):
        F.coeffs(-1)
    with pytest.raises(FieldMismatch):
        F.dlog(99)


def test_field_serialization_shape():
    F = build_ext_field(2, 4)
    assert F.to_dict() == {"q": 2, "k": 4, "modulus": [1, 1, 0, 0, 1]}


# -- vectorised tables against the per-element reference builder ----------

# Every field with q**k <= 2**16 except the prime fields GF(q) with
# 2**8 < q < 65521: those 6487 would take the per-element reference
# builder many minutes, and GF(65521) stands for them.
REFERENCE_FIELDS = [(q, k) for q in range(2, 1 << 8) if is_prime(q)
                    for k in range(1, 17) if q**k <= 1 << 16] + [(65521, 1)]


@pytest.fixture
def cold_fields():
    build_ext_field.cache_clear()
    yield
    build_ext_field.cache_clear()


def _tables_of(F):
    """The tables as lists, with the reference's None for the log of 0."""
    return (F.modulus, F.alpha, F.exp_table.tolist(), [None] + F.log_table[1:].tolist(),
            F.trace_table().tolist())


@pytest.mark.parametrize("q,k", REFERENCE_FIELDS, ids=[f"{q}^{k}" for q, k in REFERENCE_FIELDS])
def test_tables_match_per_element_reference(cold_fields, q, k):
    assert _tables_of(build_ext_field(q, k)) == reference_field(q, k)


def test_cache_key_ignores_call_spelling(cold_fields):
    a = build_ext_field(2, 4)
    b = build_ext_field(q=2, k=4)
    assert a is b
    info = build_ext_field.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_cache_clear_repeats_the_modulus_search(monkeypatch, cold_fields):
    calls = []
    search = field.poly.find_irreducible
    monkeypatch.setattr(field.poly, "find_irreducible",
                        lambda q, k: calls.append((q, k)) or search(q, k))
    build_ext_field(3, 4)
    build_ext_field(3, 4)
    assert calls == [(3, 4)]
    build_ext_field.cache_clear()
    build_ext_field(3, 4)
    assert calls == [(3, 4), (3, 4)]


def test_unbalanced_trace_raises(monkeypatch, cold_fields):
    # the zero functional: every basis trace reads 0
    tables = field._tables
    monkeypatch.setattr(field, "_tables", lambda mul, t, q, k: tables(mul, 0 * t, q, k))
    with pytest.raises(OrderMismatch, match="not balanced"):
        build_ext_field(3, 4)


def test_non_primitive_alpha_raises(monkeypatch, cold_fields):
    # x**3 has order 5 in GF(16)
    monkeypatch.setattr(field, "_primitive_element", lambda modulus, x_powers, q: 8)
    with pytest.raises(InvalidParameters, match="order below"):
        build_ext_field(2, 4)


def test_table_checks_hold_under_python_O():
    script = "\n".join([
        "from cycenum import build_ext_field, field",
        "from cycenum.errors import InvalidParameters, OrderMismatch",
        "tables, primitive = field._tables, field._primitive_element",
        "field._primitive_element = lambda modulus, x_powers, q: 8",
        "build_ext_field.cache_clear()",
        "try:",
        "    build_ext_field(2, 4)",
        "    raise SystemExit('a non-primitive alpha was accepted')",
        "except InvalidParameters:",
        "    pass",
        "field._primitive_element = primitive",
        "field._tables = lambda mul, t, q, k: tables(mul, 0 * t, q, k)",
        "build_ext_field.cache_clear()",
        "try:",
        "    build_ext_field(3, 4)",
        "    raise SystemExit('an unbalanced trace table was accepted')",
        "except OrderMismatch:",
        "    pass",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(cycenum.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
