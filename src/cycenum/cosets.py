"""Cyclotomic cosets of {0, ..., N-1} under multiplication by p.

The enumeration is a sieve: one mark byte per element, each orbit walked
exactly once, so the whole partition costs O(N) time and N bytes of
storage. iter_coset_leaders streams (leader, size) pairs and never
materializes member lists, which keeps very large N feasible;
cosets_full walks each leader's orbit once more to list its members.
"""

from dataclasses import dataclass
from math import gcd

from .errors import InvalidParameters, NotCoprime, SpectrumMismatch
from .intmath import divisors, euler_phi

__all__ = [
    "Coset",
    "CosetPartition",
    "iter_coset_leaders",
    "coset_leaders",
    "cosets_full",
    "multiplicative_order",
    "coset_count_formula",
]


@dataclass(frozen=True, slots=True)
class Coset:
    """One coset: smallest member, member count, optional orbit-order members."""

    leader: int
    size: int
    members: tuple[int, ...] | None = None

    def to_dict(self) -> dict:
        d = {"leader": self.leader, "size": self.size}
        if self.members is not None:
            d["members"] = list(self.members)
        return d


@dataclass(frozen=True, slots=True)
class CosetPartition:
    """All p-cyclotomic cosets of {0, ..., N-1}, ordered by leader."""

    N: int
    p: int
    cosets: tuple[Coset, ...]

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "p": self.p,
            "cosets": [c.to_dict() for c in self.cosets],
        }


def _validate(N: int, p: int) -> None:
    if N < 1:
        raise InvalidParameters("N must be >= 1")
    if p < 2:
        raise InvalidParameters("p must be >= 2")
    if gcd(N, p) != 1:
        raise NotCoprime(f"gcd({N}, {p}) = {gcd(N, p)} != 1")


def iter_coset_leaders(N: int, p: int):
    """Yield (leader, size) pairs in increasing leader order via the sieve."""
    _validate(N, p)
    marks = bytearray(N)
    for i in range(N):
        if marks[i]:
            continue
        a = i
        size = 0
        while not marks[a]:
            marks[a] = 1
            size += 1
            a = a * p % N
        yield i, size


def coset_leaders(N: int, p: int) -> CosetPartition:
    """Partition with sizes only; member lists stay unmaterialized."""
    cosets = tuple(Coset(leader, size) for leader, size in iter_coset_leaders(N, p))
    return CosetPartition(N, p, cosets)


def _orbit(e: int, q: int, m: int) -> list[int]:
    """The Frobenius orbit e, eq, eq^2, ... mod m, for q coprime to m."""
    orbit = [e % m]
    a = orbit[0] * q % m
    while a != orbit[0]:
        orbit.append(a)
        a = a * q % m
    return orbit


def cosets_full(N: int, p: int) -> CosetPartition:
    """Partition with members materialized in orbit order (a, ap, ap^2, ...)."""
    cosets = tuple(Coset(leader, size, tuple(_orbit(leader, p, N)))
                   for leader, size in iter_coset_leaders(N, p))
    return CosetPartition(N, p, cosets)


def multiplicative_order(q: int, f: int) -> int:
    """Smallest s >= 1 with q**s == 1 (mod f); s = 1 when f = 1."""
    if f < 1:
        raise InvalidParameters("modulus must be >= 1")
    if gcd(q, f) != 1:
        raise NotCoprime(f"gcd({q}, {f}) = {gcd(q, f)} != 1")
    if f == 1:
        return 1
    s = 1
    t = q % f
    while t != 1:
        t = t * q % f
        s += 1
    return s


def coset_count_formula(N: int, q: int) -> int:
    """Number of q-cyclotomic cosets mod N: sum over f | N of phi(f)/ord_q(f)."""
    if gcd(N, q) != 1:
        raise NotCoprime(f"gcd({N}, {q}) != 1")
    total = 0
    for f in divisors(N):
        phi = euler_phi(f)
        ord_q = multiplicative_order(q, f)
        if phi % ord_q:
            raise SpectrumMismatch(f"ord_{f}({q}) = {ord_q} does not divide phi({f})")
        total += phi // ord_q
    return total
