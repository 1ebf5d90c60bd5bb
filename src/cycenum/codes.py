"""Minimal polynomials, factorization of x**n - 1, and irreducible cyclic codes.

factor_xn_minus_1 works per divisor f of n: the primitive f-th roots of
unity contribute phi(f)/ord_q(f) irreducible factors of degree ord_q(f).
When that ratio is 1 the factor is the cyclotomic polynomial of order f
reduced mod q and costs nothing; otherwise the factors are found in a
small splitting field GF(q**ord_q(f)) held in polynomial form, so
no log tables (and no table cap) are involved.

Every such factor, and every minimal polynomial and check polynomial
over a table-backed field, comes from one routine, _min_poly: the unique
monic relation of degree m, the coset size, among the powers of one root
(Lidl & Niederreiter, Finite Fields, ch. 3), found by one Gauss-Jordan
solve mod q. A splitting field powers an element of order f to each
coset leader; the table fields give the digits of alpha**e. Both take the
root's matrix from field._context(q, k), so same-size fields share it.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from . import field, poly
from .cosets import coset_count_formula, coset_leaders, multiplicative_order
from .errors import InvalidParameters, NoDegreeKFactor, OrderMismatch, SpectrumMismatch
from .field import ExtField, _check_field_params, _unpack, build_ext_field
from .intmath import check_prime, euler_phi, factorize

__all__ = [
    "CodeSpec",
    "factor_xn_minus_1",
    "irreducible_cyclic_code",
    "generator_matrix",
]


# ---------------------------------------------------------------------------
# minimal polynomials and the factors of x**n - 1


def _min_poly(ctx: poly.ModMulContext, root: np.ndarray, m: int) -> list[int]:
    """Monic degree-m minimal polynomial of root (a vector mod ctx.modulus).

    The columns of A hold 1, r, ..., r**m, one matvec with r's matrix
    each; Gauss-Jordan elimination mod q solves sum c_i r**i = -r**m over
    i < m. A missing pivot means a degree below m (the zero rows past k
    hold none when m > k); a nonzero entry under the pivots in the last
    column, one above m. Both raise OrderMismatch.
    """
    q, k = ctx.q, ctx.k
    R = ctx.matrices(root)
    A = np.zeros((max(k, m), m + 1), dtype=np.int64)
    A[0, 0] = 1
    for i in range(m):
        A[:k, i + 1] = A[:k, i] @ R % q
    for j in range(m):
        p = j + A[j:, j].argmax()  # entries lie in [0, q): a nonzero one if any
        if p != j:
            A[[j, p]] = A[[p, j]]
        pivot = int(A[j, j])
        if not pivot:
            raise OrderMismatch(f"a root of degree below {m}")
        row = A[j] * pow(pivot, -1, q) % q
        A -= np.outer(A[:, j], row)  # clears column j, row j included
        A[j] = row
        A %= q
    if A[m:, m].any():
        raise OrderMismatch(f"a root of degree above {m}")
    return ((-A[:m, m]) % q).tolist() + [1]


def _element_of_order(ctx: poly.ModMulContext, f: int) -> np.ndarray:
    """Deterministic element of exact multiplicative order f.

    Each packed value v >= 2 in turn is raised to the cofactor
    (q**k - 1)/f, and the first power of order exactly f is returned.
    When k >= 2 the scan starts at q, the element x: a constant's power
    is a constant, whose order divides q - 1, and f does not divide
    q - 1 when k = ord_f(q) >= 2 (the only k _factor_cyclotomic passes),
    so no constant can succeed. Skipping them returns the same element
    and keeps the scan from walking all of GF(q) when q is large.
    """
    q, k = ctx.q, ctx.k
    one = np.eye(1, k, dtype=np.int64)[0]
    cofactor = (q**k - 1) // f
    primes = list(factorize(f)) if f > 1 else []
    for v in range(q if k >= 2 else 2, q**k):
        eta = ctx.pow(np.array(_unpack(v, q, k), dtype=np.int64), cofactor)
        if np.array_equal(eta, one):
            continue
        if all(not np.array_equal(ctx.pow(eta, f // p), one) for p in primes):
            return eta
    raise OrderMismatch(f"no element of order {f} in GF({q}^{k})")


@lru_cache(maxsize=None)
def _cyclotomic_mod(f: int, q: int) -> tuple[int, ...]:
    """Cyclotomic polynomial of order f reduced mod q (f coprime to q)."""
    num = poly.x_pow_n_minus_1(f, q)
    for d in range(1, f):
        if f % d == 0:
            quot, rem = poly.poly_divmod(num, list(_cyclotomic_mod(d, q)), q)
            if rem:
                raise SpectrumMismatch(f"Phi_{d} does not divide x^{f} - 1")
            num = quot
    return tuple(num)


@lru_cache(maxsize=None)
def _factor_cyclotomic(f: int, q: int) -> dict[int, tuple[int, ...]]:
    """Irreducible factors of the order-f cyclotomic polynomial over GF(q),
    keyed by the q-cyclotomic coset leader (mod f) of the root exponents."""
    if f == 1:
        return {0: ((q - 1) % q, 1)}
    k = multiplicative_order(q, f)
    phi = euler_phi(f)
    if phi % k:
        raise SpectrumMismatch(f"ord_{f}({q}) = {k} does not divide phi({f}) = {phi}")
    if phi == k:
        return {1: _cyclotomic_mod(f, q)}

    ctx = field._context(q, k)  # GF(q**k) as GF(q)[z]/(h), no tables
    beta = _element_of_order(ctx, f)
    factors = {c.leader: tuple(_min_poly(ctx, ctx.pow(beta, c.leader), c.size))
               for c in coset_leaders(f, q).cosets if gcd(c.leader, f) == 1}
    if len(factors) != phi // k:
        raise SpectrumMismatch(f"{len(factors)} factors of Phi_{f}, expected {phi // k}")
    return factors


def factor_xn_minus_1(n: int, q: int) -> list[list[int]]:
    """Minimal polynomials M_s over all q-cyclotomic coset leaders mod n.

    The returned list is ordered by coset leader; the product of the
    factors is verified to reconstruct x**n - 1 exactly and the factor
    count is checked against the totient/order formula.
    """
    if (n + 1) * (q - 1) ** 2 >= 2**63:  # the product check sums n+1 terms in int64
        raise InvalidParameters(f"x^{n} - 1 over GF({q}) overflows int64 products")
    check_prime(q)
    factors = []
    for coset in coset_leaders(n, q).cosets:  # NotCoprime unless gcd(n, q) == 1
        # dividing by n // f maps the coset mod n onto a coset mod f in
        # order, so it takes the leader to the leader
        f = n // gcd(n, coset.leader) if coset.leader else 1
        factors.append(list(_factor_cyclotomic(f, q)[coset.leader // (n // f)]))
        if len(factors[-1]) - 1 != coset.size:
            raise SpectrumMismatch(f"factor of degree {len(factors[-1]) - 1} "
                                   f"for a coset of size {coset.size}")

    # product check, mod-q convolution chain
    acc = np.array([1], dtype=np.int64)
    for fac in factors:
        acc = np.convolve(acc, np.array(fac, dtype=np.int64)) % q
    expect = np.array(poly.x_pow_n_minus_1(n, q), dtype=np.int64)
    if not np.array_equal(acc, expect):
        raise SpectrumMismatch(f"factor product != x^{n} - 1")
    count = coset_count_formula(n, q)
    if len(factors) != count:
        raise SpectrumMismatch(f"{len(factors)} factors, expected {count}")
    return factors


# ---------------------------------------------------------------------------
# irreducible cyclic codes


@dataclass
class CodeSpec:
    """An irreducible cyclic [n, k] code over GF(q) with n*N = q**k - 1."""

    q: int
    k: int
    n: int
    N: int
    field: ExtField
    generator: list[int]
    check: list[int]

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "k": self.k,
            "n": self.n,
            "N": self.N,
            "field": self.field.to_dict(),
            "generator": list(self.generator),
            "check": list(self.check),
        }

    def __repr__(self):
        return f"CodeSpec([{self.n},{self.k}] over GF({self.q}), N={self.N})"


def _generator_trace_word(F: ExtField, h: list[int], N: int, n: int) -> list[int]:
    """(x**n - 1)/h for h the minimal polynomial of beta = alpha**(-N).

    Dividing x**m by a monic h of degree k puts at x**j the x**(k-1)
    coefficient of x**(m-1-j) mod h, and Euler's dual-basis formula reads
    that coefficient of x**i mod h as Tr(beta**i / h'(beta)). As beta**n
    is 1, the quotient is the trace word g_j = Tr(tau * alpha**(N*j)) with
    tau = 1/(beta * h'(beta)), read from the trace table in one gather.
    beta * h'(beta) is the sum of (i * h_i mod q) * beta**i over i = 1..k,
    formed from the digits of those powers of alpha; the log of tau is
    minus its dlog.
    """
    q, k, i = F.q, F.k, np.arange(1, len(h))
    powers = F.exp_table[-N * i % F.group_order]
    acc = int(np.array(h[1:]) * i % q @ field._digits(powers, q, k) % q @ q ** np.arange(k))
    steps = -F.dlog(acc) + N * np.arange(n - len(h) + 2)
    return F.trace_table()[steps % F.group_order].tolist()


def _code_length(q: int, k: int, N: int) -> int:
    """n = (q**k - 1)/N, once (q, k, N) is checked to define an
    irreducible cyclic code: k, N >= 1, GF(q**k) a field within the table
    cap, N | q**k - 1 and ord_n(q) = k. Builds no field."""
    if k < 1 or N < 1:
        raise InvalidParameters("k and N must be >= 1")
    _check_field_params(q, k)
    total = q**k - 1
    if total % N != 0:
        raise InvalidParameters(f"N = {N} does not divide q^k - 1 = {total}")
    n = total // N
    order = multiplicative_order(q, n)
    if order != k:
        raise InvalidParameters(f"ord_{n}({q}) = {order} != k = {k}")
    return n


def irreducible_cyclic_code(q: int, k: int, N: int) -> CodeSpec:
    """Build the [n, k] irreducible cyclic code with n = (q**k - 1)/N.

    The check polynomial is the minimal polynomial of alpha**(-N), which
    is exactly the degree-k irreducible factor of x**n - 1 whose code
    contains every trace word (Tr(tau), Tr(tau*alpha**N), ...).
    """
    n = _code_length(q, k, N)
    F = build_ext_field(q, k)
    # alpha**(-N) has order n, so its degree is ord_n(q) = k; _min_poly checks it
    h = _min_poly(field._context(q, k), F.coeffs(F.alpha_pow(-N)), k)
    if not poly.is_irreducible(h, q):
        raise NoDegreeKFactor("check polynomial is reducible")

    g = _generator_trace_word(F, h, N, n)
    if not np.array_equal(np.convolve(h, g) % q, poly.x_pow_n_minus_1(n, q)):
        raise NoDegreeKFactor(f"check polynomial does not divide x^{n} - 1")
    return CodeSpec(q=q, k=k, n=n, N=N, field=F, generator=g, check=h)


def generator_matrix(spec: CodeSpec) -> list[list[int]]:
    """k x n matrix whose row i is the coefficient vector of x**i * g(x)."""
    g, n, k = spec.generator, spec.n, spec.k
    rows = []
    for i in range(k):
        row = [0] * n
        for j, c in enumerate(g):
            row[i + j] = c
        rows.append(row)
    return rows

