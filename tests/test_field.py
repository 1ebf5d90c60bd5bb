import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cycenum
from cycenum import build_ext_field, field, gauss_sum, poly
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
    assert F.alpha_pow(0) == F.alpha_pow(1) == 1
    assert F.trace_table().tolist() == [1]
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
    # GF(257) has a uint16 table and k = 1
    for q, k in [(2, 8), (3, 3), (5, 3), (251, 1), (257, 1)]:
        F = build_ext_field(q, k)
        assert [F.dlog(F.alpha_pow(m)) for m in range(F.group_order)] == list(range(F.group_order))
        with pytest.raises(LogOfZero):
            F.dlog(0)


def test_window_search_steps_past_misaligned_hits():
    # In GF(4093)'s uint16 table the first byte match of 80 windows
    # straddles two entries; GF(257) has none, as its high bytes are 0
    # but for the one entry 256.
    F = build_ext_field(4093, 1)
    table = F.trace_table()
    assert table.dtype == np.uint16
    raw = table.tobytes()
    misaligned = [m for m in range(F.group_order)
                  if raw.find(table[m:m + 1].tobytes()) % 2]
    assert len(misaligned) == 80
    assert [F._window_log(table[m:m + 1]) for m in misaligned] == misaligned
    assert [F.dlog(F.alpha_pow(m)) for m in misaligned] == misaligned


@pytest.mark.parametrize("q,k", [(2, 12), (257, 1), (3, 7)])
def test_window_search_refuses_zero_and_absent_windows(q, k):
    # q is an entry value no window holds, on a uint8 and a uint16 table;
    # the search ends at the table's end instead of looping
    F = build_ext_field(q, k)
    with pytest.raises(LogOfZero):
        F._window_log(np.zeros(k, dtype=np.int64))
    for window in ([q] * k, [1] * (k - 1) + [q]):
        with pytest.raises(FieldMismatch):
            F._window_log(np.array(window))


def test_numpy_integers_are_elements():
    F = build_ext_field(2, 4)
    assert F.dlog(np.int64(F.alpha_pow(5))) == F.dlog(np.uint8(F.alpha_pow(5))) == 5
    assert gauss_sum(1, np.int64(F.alpha_pow(2)), F) == gauss_sum(1, F.alpha_pow(2), F)
    assert F.dlog(True) == 0
    for value in (F.check(np.int64(7)), F.check(np.uint8(7)), F.check(True)):
        assert type(value) is int
    for bad in (3.0, np.float64(3), "3", None, int, np.int64(16)):
        with pytest.raises(FieldMismatch):
            F.check(bad)


def test_coeffs_roundtrip():
    F = build_ext_field(5, 2)
    for a in range(F.order):
        assert sum(c * 5**i for i, c in enumerate(poly.unpack(a, 5, 2))) == a
    assert poly.unpack(0, 5, 2) == [0, 0]


@pytest.mark.parametrize("q,k", [(2, 4), (3, 3)])
def test_element_api_returns_python_ints(q, k):
    F = build_ext_field(q, k)
    a = F.alpha_pow(5)
    for value in (a, F.alpha_pow(3), F.alpha_pow(10**30), F.dlog(a)):
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
        F.dlog(-1)
    with pytest.raises(FieldMismatch):
        F.dlog(99)


def test_field_serialization_shape():
    F = build_ext_field(2, 4)
    assert F.to_dict() == {"q": 2, "k": 4, "modulus": [1, 1, 0, 0, 1]}


# -- vectorised tables against the per-element reference builder ----------

# Every field with q**k <= 2**16 except the prime fields GF(q) with
# 2**8 < q < 65521: those 6487 would take the per-element reference
# builder many minutes, and GF(65521) stands for them. GF(12289) has
# q**k - 1 = 3 * _CHUNK, so its last chunk of powers is full.
REFERENCE_FIELDS = [(q, k) for q in range(2, 1 << 8) if is_prime(q)
                    for k in range(1, 17) if q**k <= 1 << 16] + [(12289, 1), (65521, 1)]


@pytest.fixture
def cold_fields():
    build_ext_field.cache_clear()
    yield
    build_ext_field.cache_clear()


@pytest.mark.parametrize("q,k", REFERENCE_FIELDS, ids=[f"{q}^{k}" for q, k in REFERENCE_FIELDS])
def test_tables_match_per_element_reference(cold_fields, q, k):
    # alpha_pow is checked on every exponent up to 2**8 and on a fixed
    # sample of 64 above that, dlog on every element up to 2**8
    F = build_ext_field(q, k)
    modulus, alpha, exp_table, log_table, trace_table = reference_field(q, k)
    assert (F.modulus, F.alpha, F.trace_table().tolist()) == (modulus, alpha, trace_table)
    assert F.trace_table().dtype == np.min_scalar_type(q - 1)
    G = F.group_order
    sample = range(G) if F.order <= 1 << 8 else range(5, G, G // 64)
    assert [F.alpha_pow(m) for m in sample] == [exp_table[m] for m in sample]
    if F.order <= 1 << 8:
        assert [F.dlog(a) for a in range(1, F.order)] == log_table[1:]


@pytest.mark.parametrize("q,k", [(2, 1), (2, 12), (3, 7), (65521, 1)])
def test_field_holds_trace_only(q, k):
    # the table's bytes, the itemsize of the narrowest unsigned dtype
    # holding q - 1 per nonzero element plus k - 1 entries of wrap-round,
    # are held once; beside them only O(k**2), the k x k window map
    F = build_ext_field(q, k)
    itemsize = np.min_scalar_type(q - 1).itemsize
    buffers = [v for v in vars(F).values() if isinstance(v, (bytes, bytearray))]
    assert [len(b) for b in buffers] == [itemsize * (q**k - 1 + k - 1)]
    table = F.trace_table()
    assert table.nbytes == itemsize * (q**k - 1) and table.base.obj is buffers[0]
    assert not table.flags.writeable
    arrays = [v for v in vars(F).values() if isinstance(v, np.ndarray) and v is not table]
    assert sum(a.nbytes for a in arrays) <= 8 * (k * k + k)


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


def test_non_primitive_alpha_raises_past_the_first_chunk(monkeypatch, cold_fields):
    # x**3 has order (2**14 - 1)/3 = 43 * 127 in GF(2^14), so its first
    # repeat of 1 lies in a later chunk of powers, not in the first
    assert 43 * 127 > field._CHUNK
    monkeypatch.setattr(field, "_primitive_element", lambda modulus, x_powers, q: 8)
    with pytest.raises(InvalidParameters, match="order below"):
        build_ext_field(2, 14)


@pytest.mark.parametrize("power", [3, 2])
def test_non_primitive_alpha_raises_at_a_chunk_boundary(monkeypatch, cold_fields, power):
    # G = 12288 = 3 * _CHUNK in GF(12289): alpha**3 has order G/3, so its
    # power equal to 1 is row 0 of chunk 1, and alpha**2 has order G/2
    assert 12288 == 3 * field._CHUNK
    alpha = build_ext_field(12289, 1).alpha
    build_ext_field.cache_clear()
    monkeypatch.setattr(field, "_primitive_element", lambda modulus, ctx, q: pow(alpha, power, q))
    with pytest.raises(InvalidParameters, match="order below"):
        build_ext_field(12289, 1)


@pytest.mark.parametrize("modulus", [[1, 0, 0, 0, 1], [1, 1, 0, 1, 1]],
                         ids=["(x+1)^4", "(x+1)^2(x^2+x+1)"])
def test_reducible_modulus_raises(monkeypatch, cold_fields, modulus):
    monkeypatch.setattr(field.poly, "find_irreducible", lambda q, k: modulus)
    with pytest.raises(InvalidParameters, match="order below"):
        build_ext_field(2, 4)


def test_table_checks_hold_under_python_O():
    script = "\n".join([
        "from cycenum import build_ext_field, field",
        "from cycenum.errors import InvalidParameters, OrderMismatch",
        "tables, primitive = field._tables, field._primitive_element",
        "alpha = build_ext_field(12289, 1).alpha",
        "field._primitive_element = lambda modulus, ctx, q: 8 if q == 2 else pow(alpha, 3, q)",
        "for q, k in [(2, 4), (2, 14), (12289, 1)]:",
        "    build_ext_field.cache_clear()",
        "    try:",
        "        build_ext_field(q, k)",
        "        raise SystemExit(f'a non-primitive alpha was accepted in GF({q}^{k})')",
        "    except InvalidParameters:",
        "        pass",
        "field._primitive_element = primitive",
        "irreducible = field.poly.find_irreducible",
        "field.poly.find_irreducible = lambda q, k: [1, 0, 0, 0, 1]",
        "build_ext_field.cache_clear()",
        "try:",
        "    build_ext_field(2, 4)",
        "    raise SystemExit('a reducible modulus was accepted')",
        "except InvalidParameters:",
        "    pass",
        "field.poly.find_irreducible = irreducible",
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
