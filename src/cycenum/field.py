"""Extension fields GF(q**k) with log/antilog tables.

Elements of GF(q**k) are plain ints in [0, q**k): the packed value
sum(c_i * q**i) of the coefficient vector (c_0, ..., c_(k-1)) over GF(q).
Zero is 0 and the multiplicative identity is 1. Multiplication goes
through the discrete-log tables of a verified primitive element alpha;
addition is digit-wise mod q (XOR when q == 2).

Fields are immutable after construction and safe to share between any
number of readers.
"""

from functools import lru_cache

import numpy as np

from . import poly
from .errors import (FieldMismatch, InvalidParameters, LogOfZero, OrderMismatch,
                     TableCapExceeded)
from .intmath import check_prime, factorize

DEFAULT_TABLE_CAP = 1 << 22


def _pack(coeffs, q: int) -> int:
    v = 0
    for c in reversed(coeffs):
        v = v * q + c
    return v


def _unpack(v: int, q: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(v % q)
        v //= q
    return out


class ExtField:
    """GF(q**k) built from a monic irreducible modulus, with full tables.

    exp_table[i] is the packed value of alpha**i for i in [0, q**k - 2];
    log_table is its inverse on the nonzero elements. Constructed through
    build_ext_field, which verifies the modulus and the order of alpha.
    """

    def __init__(self, q: int, k: int, modulus: tuple[int, ...], alpha: int,
                 exp_table: list[int], log_table: list):
        self.q = q
        self.k = k
        self.modulus = modulus
        self.order = q**k
        self.group_order = q**k - 1
        self.alpha = alpha
        self.exp_table = exp_table
        self.log_table = log_table
        self._trace_np = None

    # -- element plumbing ----------------------------------------------

    def check(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.order:
            raise FieldMismatch(f"{a!r} is not an element of GF({self.q}^{self.k})")
        return a

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector (c_0, ..., c_(k-1)) of an element."""
        return tuple(_unpack(self.check(a), self.q, self.k))

    def from_coeffs(self, coeffs) -> int:
        if len(coeffs) > self.k or any(not 0 <= c < self.q for c in coeffs):
            raise FieldMismatch(f"bad coefficient vector {coeffs!r}")
        return _pack(coeffs, self.q)

    def elements(self):
        return range(self.order)

    # -- arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        self.check(a)
        self.check(b)
        q = self.q
        if q == 2:
            return a ^ b
        v, m = 0, 1
        for _ in range(self.k):
            v += ((a + b) % q) * m
            a //= q
            b //= q
            m *= q
        return v

    def neg(self, a: int) -> int:
        self.check(a)
        q = self.q
        if q == 2:
            return a
        v, m = 0, 1
        for _ in range(self.k):
            v += ((-a) % q) * m
            a //= q
            m *= q
        return v

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        self.check(a)
        self.check(b)
        if a == 0 or b == 0:
            return 0
        return self.exp_table[(self.log_table[a] + self.log_table[b]) % self.group_order]

    def inv(self, a: int) -> int:
        if self.check(a) == 0:
            raise LogOfZero("inverse of zero")
        return self.exp_table[(-self.log_table[a]) % self.group_order]

    def pow(self, a: int, e: int) -> int:
        """a**e with exponents of any sign reduced mod the group order."""
        self.check(a)
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise LogOfZero("negative power of zero")
        return self.exp_table[(self.log_table[a] * e) % self.group_order]

    def alpha_pow(self, i: int) -> int:
        """alpha**i, i.e. the element Exp(i mod (q**k - 1))."""
        return self.exp_table[i % self.group_order]

    def dlog(self, a: int) -> int:
        """Exponent i with alpha**i == a; a must be nonzero."""
        if self.check(a) == 0:
            raise LogOfZero("discrete log of zero")
        return self.log_table[a]

    def trace(self, a: int) -> int:
        """Tr(a) = sum of a**(q**j) for j < k, returned as an int in [0, q)."""
        if self.check(a) == 0:
            return 0
        m = self.log_table[a]
        acc = 0
        qj = 1
        for _ in range(self.k):
            acc = self.add(acc, self.exp_table[(m * qj) % self.group_order])
            qj *= self.q
        if acc >= self.q:
            raise OrderMismatch("trace left the base field")
        return acc

    def trace_table(self) -> np.ndarray:
        """Tr(alpha**m) for m in [0, q**k - 2] as an int64 array (cached)."""
        if self._trace_np is None:
            self._trace_np = np.array(
                [self.trace(self.exp_table[m]) for m in range(self.group_order)],
                dtype=np.int64,
            )
        return self._trace_np

    def to_dict(self) -> dict:
        return {"q": self.q, "k": self.k, "modulus": list(self.modulus)}

    def __repr__(self):
        return f"GF({self.q}^{self.k}, modulus={poly.to_string(list(self.modulus))})"


def _mul_raw(a: int, b: int, modulus: list[int], q: int, k: int) -> int:
    """Table-free product of packed elements, used only during construction."""
    av = _unpack(a, q, k)
    bv = _unpack(b, q, k)
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(av):
        if ai:
            for j, bj in enumerate(bv):
                prod[i + j] += ai * bj
    for i in range(2 * k - 2, k - 1, -1):
        c = prod[i] % q
        if c:
            for j in range(k + 1):
                prod[i - k + j] = (prod[i - k + j] - c * modulus[j]) % q
    return _pack([c % q for c in prod[:k]], q)


def _pow_raw(a: int, e: int, modulus: list[int], q: int, k: int) -> int:
    result = 1
    while e:
        if e & 1:
            result = _mul_raw(result, a, modulus, q, k)
        a = _mul_raw(a, a, modulus, q, k)
        e >>= 1
    return result


@lru_cache(maxsize=64)
def build_ext_field(q: int, k: int, table_cap: int = DEFAULT_TABLE_CAP) -> ExtField:
    """Construct GF(q**k) with a verified modulus and primitive element.

    Deterministic: the modulus is the first irreducible in the packed-value
    scan and alpha is the residue class of x when primitive, otherwise the
    first element (in packed-value order) of full multiplicative order.
    """
    check_prime(q)
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    order = q**k
    if order > table_cap:
        raise TableCapExceeded(f"q^k = {order} exceeds table cap {table_cap}")

    modulus = poly.find_irreducible(q, k)
    group_order = order - 1

    def has_full_order(a: int) -> bool:
        if a == 0:
            return False
        if group_order == 1:
            return True
        for p in factorize(group_order):
            if _pow_raw(a, group_order // p, modulus, q, k) == 1:
                return False
        return True

    x_residue = q if k > 1 else (-modulus[0]) % q
    alpha = None
    if has_full_order(x_residue):
        alpha = x_residue
    else:
        for v in range(1, order):
            if has_full_order(v):
                alpha = v
                break
    if alpha is None:
        raise InvalidParameters("no primitive element found")  # unreachable

    exp_table = [0] * group_order
    log_table: list = [None] * order
    acc = 1
    for i in range(group_order):
        exp_table[i] = acc
        if log_table[acc] is not None:
            raise InvalidParameters("alpha has order below q^k - 1")
        log_table[acc] = i
        acc = _mul_raw(acc, alpha, modulus, q, k)
    if acc != 1:
        raise InvalidParameters("alpha**(q^k - 1) != 1")

    return ExtField(q, k, tuple(modulus), alpha, exp_table, log_table)
