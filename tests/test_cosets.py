import json
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cycenum import (
    Coset,
    coset_count_formula,
    coset_leaders,
    cosets_full,
    iter_coset_leaders,
    multiplicative_order,
)
from cycenum.errors import NotCoprime


def naive_partition(N, p):
    """Independent orbit enumeration, no sieve."""
    out = {}
    seen = set()
    for i in range(N):
        if i in seen:
            continue
        orbit = []
        a = i
        while a not in seen:
            seen.add(a)
            orbit.append(a)
            a = a * p % N
        out[i] = orbit
    return out


def test_paper_partition_16_3():
    part = cosets_full(16, 3)
    expected = {
        0: (0,),
        1: (1, 3, 9, 11),
        2: (2, 6),
        4: (4, 12),
        5: (5, 15, 13, 7),
        8: (8,),
        10: (10, 14),
    }
    assert {c.leader: c.members for c in part.cosets} == expected
    assert [c.leader for c in part.cosets] == sorted(expected)


def test_singleton_domain():
    part = coset_leaders(1, 2)
    assert part.num_cosets == 1
    assert part.cosets[0] == Coset(0, 1)


def test_15_2_leaders_and_sizes():
    part = coset_leaders(15, 2)
    got = {c.leader: c.size for c in part.cosets}
    assert got == {0: 1, 1: 4, 3: 4, 5: 2, 7: 4}
    naive = naive_partition(15, 2)
    assert got == {lead: len(orbit) for lead, orbit in naive.items()}


def test_15_2_c7_members_orbit_order():
    part = cosets_full(15, 2)
    c7 = next(c for c in part.cosets if c.leader == 7)
    assert c7.members == (7, 14, 13, 11)


def test_identity_multiplier_gives_singletons():
    part = cosets_full(7, 8)  # 8 = 1 mod 7
    assert part.num_cosets == 7
    assert all(c.size == 1 for c in part.cosets)


def test_streaming_matches_materialized():
    for N, p in ((16, 3), (15, 2), (100, 7), (1, 5)):
        stream = list(iter_coset_leaders(N, p))
        full = cosets_full(N, p)
        assert stream == [(c.leader, c.size) for c in full.cosets]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_partition_property_sweep(p):
    for N in range(1, 301):
        if gcd(N, p) != 1:
            continue
        part = cosets_full(N, p)
        union = []
        for c in part.cosets:
            assert c.leader == min(c.members)
            assert len(set(c.members)) == c.size
            assert c.leader * pow(p, c.size, N if N > 1 else 1) % N == c.leader
            union.extend(c.members)
        assert sorted(union) == list(range(N))
        assert sum(c.size for c in part.cosets) == N
        assert part.num_cosets == coset_count_formula(N, p)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=5000),
       st.sampled_from([2, 3, 5, 7, 11, 13]))
def test_partition_and_count_random(N, p):
    if gcd(N, p) != 1:
        with pytest.raises(NotCoprime):
            coset_leaders(N, p)
        return
    part = coset_leaders(N, p)
    assert sum(c.size for c in part.cosets) == N
    assert part.num_cosets == coset_count_formula(N, p)


def test_multiplicative_order_examples():
    assert multiplicative_order(2, 1) == 1
    assert multiplicative_order(2, 15) == 4
    assert multiplicative_order(3, 16) == 4
    with pytest.raises(NotCoprime):
        multiplicative_order(2, 4)


def test_count_formula_examples():
    assert coset_count_formula(1, 3) == 1
    assert coset_count_formula(15, 2) == 5
    assert coset_count_formula(15, 2) == coset_leaders(15, 2).num_cosets
    with pytest.raises(NotCoprime):
        coset_count_formula(16, 4)


def test_not_coprime_rejected():
    with pytest.raises(NotCoprime):
        coset_leaders(16, 4)
    with pytest.raises(NotCoprime):
        cosets_full(9, 3)


def test_partition_roundtrip_dict():
    # members are written exactly when the partition holds them
    part = cosets_full(16, 3)
    doc = part.to_dict()
    assert json.loads(json.dumps(doc)) == doc
    assert [c["members"] for c in doc["cosets"]] == [list(c.members) for c in part.cosets]
    sizes_only = coset_leaders(16, 3).to_dict()
    assert json.loads(json.dumps(sizes_only)) == sizes_only
    assert sizes_only == {"N": 16, "p": 3, "cosets": [
        {"leader": c["leader"], "size": c["size"]} for c in doc["cosets"]]}
