"""Exact polynomial arithmetic over prime fields GF(q).

A polynomial is a list of ints in [0, q), low degree first, with no
trailing zeros; the zero polynomial is the empty list. All arithmetic is
exact. ModMulContext is the one numpy-backed multiply modulo a fixed
polynomial. It serves the table-free splitting fields that factor
x**n - 1 and the matrices that build field tables. powers is the one
walk v, v @ M, v @ M**2, ... mod q, a matvec a step: Rabin's test takes
Berlekamp's Q-matrix and the chain x**(q**i) from it, and
codes._min_poly its Krylov columns. Before building a context,
is_irreducible rejects any candidate with a root among the first
min(q, 32) elements of GF(q), so most reducible moduli in
find_irreducible's scan cost a few Horner steps. The scan also skips the
binomials x**k + c outright when k and q rule out every one of them,
which large q would otherwise pay for with about q Rabin tests.
"""

import numpy as np

from .errors import DivideByZeroPoly, InvalidParameters, NoIrreducibleFound
from .intmath import factorize


def trim(p: list[int]) -> list[int]:
    """Drop trailing zero coefficients in place-free fashion."""
    end = len(p)
    while end > 0 and p[end - 1] == 0:
        end -= 1
    return p[:end]


def degree(p: list[int]) -> int:
    """Degree of p; -1 for the zero polynomial."""
    return len(p) - 1


def poly_mul(a: list[int], b: list[int], q: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return trim([c % q for c in out])


def poly_divmod(a: list[int], b: list[int], q: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder with deg(remainder) < deg(b)."""
    if not b:
        raise DivideByZeroPoly("polynomial division by zero")
    rem = list(a)
    db = degree(b)
    lead_inv = pow(b[-1], -1, q)
    quot = [0] * max(len(a) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] % q
        if c == 0:
            continue
        f = (c * lead_inv) % q
        quot[i - db] = f
        for j in range(db + 1):
            rem[i - db + j] = (rem[i - db + j] - f * b[j]) % q
    return trim(quot), trim([c % q for c in rem])


def poly_gcd(a: list[int], b: list[int], q: int) -> list[int]:
    """Monic greatest common divisor."""
    while b:
        a, b = b, poly_divmod(a, b, q)[1]
    if a:
        inv = pow(a[-1], -1, q)
        a = [(c * inv) % q for c in a]
    return a


def unpack(v: int, q: int, k: int) -> list[int]:
    """The k base-q digits of v >= 0, low first: the coefficients of the
    polynomial with packed value v = sum(c_i * q**i)."""
    out = []
    for _ in range(k):
        out.append(v % q)
        v //= q
    return out


def to_string(p: list[int]) -> str:
    """Human-readable form, highest degree first, e.g. 'x^4 + x + 1'."""
    if not p:
        return "0"
    terms = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            var = "x" if i == 1 else f"x^{i}"
            terms.append(var if c == 1 else f"{c}*{var}")
    return " + ".join(terms)


class ModMulContext:
    """Multiplication modulo a fixed monic polynomial, numpy-backed.

    Every element is a coefficient vector of length k. One fold, _fold,
    reduces a product (degree <= 2k-2) by one matrix product with a
    precomputed (k-1) x k table of x^(k+j) mod m, so a modular multiply
    costs two small C-level ops; matrices() reduces a whole stack of
    products with the same fold.
    """

    def __init__(self, modulus: list[int], q: int):
        if not modulus or modulus[-1] != 1:
            raise InvalidParameters("modulus must be monic")
        # mul, matrices and the matvecs of powers sum k int64 products below q**2
        if (len(modulus) - 1) * (q - 1) ** 2 + (q - 1) >= 2**63:
            raise InvalidParameters(f"q = {q} overflows int64 products at degree "
                                    f"{len(modulus) - 1}")
        self.q = q
        self.k = degree(modulus)
        self.modulus = list(modulus)
        k = self.k
        rows = np.zeros((max(k - 1, 0), k), dtype=np.int64)
        # row j holds x^(k+j) mod modulus
        cur = [(-c) % q for c in modulus[:k]]  # x^k mod m
        for j in range(k - 1):
            rows[j, : len(cur)] = cur
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                for i in range(k):
                    cur[i] = (cur[i] - top * modulus[i]) % q
        self._rows = rows

    def _fold(self, c: np.ndarray) -> np.ndarray:
        """Reduce unreduced products (..., 2k - 1) to (..., k): the x**(k+j)
        part is folded back by the table of x**(k+j) mod m."""
        return (c[..., :self.k] + c[..., self.k:] @ self._rows) % self.q

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a * b mod m for coefficient vectors a and b of length k."""
        return self._fold(np.convolve(a, b) % self.q)

    def matrices(self, a: np.ndarray) -> np.ndarray:
        """The k x k matrices of multiplication by each vector in a (..., k).

        Row i of the matrix of a is a * x**i mod m, so b @ matrices(a) is
        the coefficient vector of b * a for any row vector b. The unreduced
        rows a * x**i, of length 2k - 1, come from one zero buffer of k rows
        of 2k: a is written at the start of each row, and reading the buffer
        back in rows of 2k - 1 shifts row i right by i. They are then
        reduced by the fold that mul uses.
        """
        k = self.k
        a = np.asarray(a, dtype=np.int64)
        batch = a.shape[:-1]
        buf = np.zeros(batch + (k, 2 * k), dtype=np.int64)
        buf[..., :k] = a[..., None, :]
        shifts = buf.reshape(batch + (2 * k * k,))[..., :k * (2 * k - 1)]
        return self._fold(shifts.reshape(batch + (k, 2 * k - 1)))

    def pow(self, a: np.ndarray, e: int) -> np.ndarray:
        """a**e mod modulus by square-and-multiply, for e >= 0."""
        result = np.zeros(self.k, dtype=np.int64)
        result[0] = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result


def powers(v: np.ndarray, M: np.ndarray, count: int, q: int) -> np.ndarray:
    """The count x k int64 array whose row i is v @ M**i mod q, for a
    length-k vector v and a k x k matrix M with entries in [0, q): one
    matvec per row, each from the row before it."""
    out = np.zeros((count, len(M)), dtype=np.int64)
    if count:
        out[0] = v
    for i in range(1, count):
        out[i] = out[i - 1] @ M % q
    return out


def is_irreducible(p: list[int], q: int) -> bool:
    """Rabin's irreducibility test over GF(q).

    Above degree 1 a root is a linear factor, so p is first evaluated at
    a = 0, 1, ..., min(q, 32) - 1 and any zero rejects it before a
    ModMulContext is built. The bound keeps that check O(k) for any q;
    it only rejects, and Rabin decides every polynomial that passes it.
    """
    p = trim([c % q for c in p])
    k = degree(p)
    if k <= 0:
        return False
    if k == 1:
        return True
    for a in range(min(q, 32)):
        value = 0
        for c in reversed(p):
            value = (value * a + c) % q
        if value == 0:
            return False  # divisible by x - a
    inv = pow(p[-1], -1, q)
    monic = [(c * inv) % q for c in p]
    ctx = ModMulContext(monic, q)
    one, x = np.eye(2, k, dtype=np.int64)
    # Berlekamp's Q: row j is x^(q*j), so v @ Q is v^q (the q-th power is
    # GF(q)-linear) and the chain's row i is x^(q^i), i = 0..k
    Q = powers(one, ctx.matrices(ctx.pow(x, q)), k, q)
    chain = powers(x, Q, k + 1, q)
    # x^(q^k) == x mod p, and gcd(x^(q^(k/r)) - x, p) == 1 for each prime r | k
    return np.array_equal(chain[k], x) and all(
        degree(poly_gcd(trim(((chain[k // r] - x) % q).tolist()), monic, q)) == 0
        for r in factorize(k))


def find_irreducible(q: int, k: int) -> list[int]:
    """First irreducible monic degree-k polynomial in the deterministic scan.

    Candidates x^k + c_(k-1) x^(k-1) + ... + c_0 are tried in ascending
    order of the packed value sum(c_i * q^i), so builds are reproducible.
    """
    if k < 1:
        raise InvalidParameters("degree must be >= 1")
    # Packed values below q are the binomials x^k + c. None is irreducible
    # when a prime r | k does not divide q - 1, or when 4 | k and q = 3
    # mod 4 (Lidl & Niederreiter, Thm 3.75), so the scan starts past them.
    binomials_reducible = (any((q - 1) % r for r in factorize(k))
                           or (k % 4 == 0 and q % 4 == 3))
    for v in range(q if binomials_reducible else 0, q**k):
        cand = unpack(v, q, k) + [1]
        if is_irreducible(cand, q):
            return cand
    raise NoIrreducibleFound(f"no irreducible of degree {k} over GF({q})")

