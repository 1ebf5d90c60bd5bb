"""Extension fields GF(q**k), each held as its trace table.

Elements of GF(q**k) are plain ints in [0, q**k): the packed value
sum(c_i * q**i) of the coefficient vector (c_0, ..., c_(k-1)) over GF(q).
Zero is 0 and the multiplicative identity is 1. A field is its trace
table Tr(alpha**m), alpha a verified primitive element, read through
windows: (Tr(y * alpha**j)) for j < k is GF(q)-linear and one-to-one in
y, the trace form being nondegenerate (Lidl & Niederreiter, Finite
Fields, ch. 2), and for y = alpha**m it is the table's run of k entries
from m (Golomb, Shift Register Sequences). So a log is one byte search.
The table is built in one pass with no per-element loop: multiplication
by a fixed element is a GF(q)-linear map, a k x k matrix acting on
coefficient vectors, that poly.ModMulContext.matrices gives, reduced by
the same table of x**(k+j) mod the modulus that its multiply uses. So:

- alpha is found by raising the matrices of a batch of candidates to
  (q**k - 1)/p for every prime p at once;
- the first chunk of _CHUNK powers is filled by doubling in digit space
  (rows [B, 2B) of the digit table are rows [0, B) times the matrix of
  alpha**B, mod q), and only that chunk's digits are ever held;
- the trace, a linear functional, is the first chunk's digit rows times
  J @ t, mod q, for the chunk from start: J is the matrix of alpha**start
  and t the vector of traces of the basis x**j, Tr(x**j) being the matrix
  trace of multiplication by x**j. All of it is int64 arithmetic.

Every check raises rather than asserts, so it holds under python -O:
alpha**(q**k - 1) must be 1 and alpha**((q**k - 1)/p) not, for every
prime p | q**k - 1, so that alpha reaches every nonzero element exactly
once, and the trace table must take each value of GF(q) exactly
q**(k-1) times over the field, as a nonzero linear functional does.
Fields, their tables read-only, are immutable after construction and
safe to share between any readers.
"""

import operator
from functools import lru_cache

import numpy as np

from . import poly
from .errors import (FieldMismatch, InvalidParameters, LogOfZero, OrderMismatch,
                     TableCapExceeded)
from .intmath import check_prime, factorize

DEFAULT_TABLE_CAP = 1 << 22
_CHUNK = 1 << 12  # rows of digit work held at once; a power of two
_SCAN = 8  # primitive-element candidates tested per batch


class ExtField:
    """GF(q**k) built from a monic irreducible modulus, held as its trace table.

    trace_table() views _windows, the table's bytes with its first k - 1
    entries appended so that every window is a run; beside it the field
    keeps O(k**2), the modulus context and the window map of coefficient
    vectors. Built by build_ext_field; check, alpha_pow and dlog return ints.
    """

    def __init__(self, ctx: poly.ModMulContext, alpha: int, window_map: np.ndarray,
                 windows: bytearray):
        self.q = q = ctx.q
        self.k = k = ctx.k
        self.modulus = tuple(ctx.modulus)
        self.order = q**k
        self.group_order = q**k - 1
        self.alpha = alpha
        self._ctx = ctx
        self._window_map = window_map
        self._windows = windows
        self._trace = np.frombuffer(windows, np.min_scalar_type(q - 1), self.group_order)
        self._trace.flags.writeable = False

    def check(self, a: int) -> int:
        """a, any integer type, as a Python int if it is in [0, q**k)."""
        if not hasattr(type(a), "__index__") or not 0 <= operator.index(a) < self.order:
            raise FieldMismatch(f"{a!r} is not an element of GF({self.q}^{self.k})")
        return operator.index(a)

    def alpha_pow(self, i: int) -> int:
        """alpha**i, by square-and-multiply on alpha's coefficient vector."""
        alpha = np.array(poly.unpack(self.alpha, self.q, self.k))
        return int(self._ctx.pow(alpha, i % self.group_order) @ self.q ** np.arange(self.k))

    def dlog(self, a: int) -> int:
        """Exponent i with alpha**i == a != 0, found by a's window."""
        digits = poly.unpack(self.check(a), self.q, self.k)
        return self._window_log(digits @ self._window_map % self.q)

    def _window_log(self, w: np.ndarray) -> int:
        """The m in [0, q**k - 1) with window (Tr(alpha**(m+j)))_(j<k) equal to w, by
        bytes search past misaligned hits; LogOfZero for 0's, FieldMismatch if absent."""
        if not np.any(w):
            raise LogOfZero("discrete log of zero")
        size, needle = self._trace.itemsize, np.asarray(w, self._trace.dtype).tobytes()
        hit = self._windows.find(needle)
        while hit % size and hit != -1:
            hit = self._windows.find(needle, hit + 1)
        if hit == -1:
            raise FieldMismatch(f"{list(w)} is not a trace window of GF({self.q}^{self.k})")
        return hit // size

    def trace_table(self) -> np.ndarray:
        """Tr(alpha**m) for m in [0, q**k - 2], read-only, in the narrowest
        unsigned dtype that holds q - 1: mix it only with arrays, or with
        Python ints after a cast, as unsigned arithmetic wraps."""
        return self._trace

    def to_dict(self) -> dict:
        return {"q": self.q, "k": self.k, "modulus": list(self.modulus)}

    def __repr__(self):
        return f"GF({self.q}^{self.k}, modulus={poly.to_string(list(self.modulus))})"


def _digits(vals, q: int, k: int) -> np.ndarray:
    """len(vals) x k matrix of the coefficient vectors of packed elements."""
    vals = np.asarray(vals, dtype=np.int64)
    return vals[:, None] // q ** np.arange(k, dtype=np.int64) % q


def _full_order(mats: np.ndarray, q: int, group_order: int) -> np.ndarray:
    """Which of the stacked multiply-by-a matrices have a of order q**k - 1.

    a has full order iff a != 0 and a**(G/p) != 1 for every prime p | G.
    The powers are taken by square-and-multiply on the matrices, for every
    a and every p at once; row 0 of a matrix power is the coefficient
    vector of the power itself.
    """
    nonzero = mats.any(axis=(1, 2))
    exps = [group_order // p for p in factorize(group_order)]
    power = np.zeros((len(exps), len(mats), 1, mats.shape[-1]), dtype=np.int64)
    power[..., 0] = 1
    bit = 0
    while any(e >> bit for e in exps):
        sel = [i for i, e in enumerate(exps) if e >> bit & 1]
        power[sel] = power[sel] @ mats % q
        mats = mats @ mats % q
        bit += 1
    is_one = (power[..., 0, 0] == 1) & ~power[..., 0, 1:].any(axis=-1)
    return nonzero & ~is_one.any(axis=0)


def _primitive_element(modulus: list[int], ctx: poly.ModMulContext, q: int) -> int:
    """The first element (in packed-value order) of full multiplicative
    order. The scan starts at x, packed value q, since the constants have
    order dividing q - 1 (at 0 when k = 1); batches of candidates get
    their multiply matrices from ctx."""
    k = len(modulus) - 1
    order = q**k
    for start in range(q % order, order, _SCAN):
        cands = np.arange(start, min(start + _SCAN, order))
        hits = np.flatnonzero(_full_order(ctx.matrices(_digits(cands, q, k)), q, order - 1))
        if hits.size:
            return int(cands[hits[0]])
    raise InvalidParameters("no primitive element found")  # unreachable


def _tables(mul: np.ndarray, t: np.ndarray, q: int, k: int) -> bytearray:
    """Trace table of the alpha that mul multiplies by, given t_j = Tr(x**j),
    as the bytes of np.min_scalar_type(q - 1) entries Tr(alpha**m) for m in
    [0, q**k - 2] and then [0, k - 2] again.

    Doubling in digit space fills the first chunk of powers in place:
    rows [B, 2B) of the digit table are rows [0, B) times the matrix of
    alpha**B, mod q. As the trace is GF(q)-linear, the chunk from start
    has traces first @ (J @ t), J the matrix of alpha**start, so no other
    digits are held. Every product is int64: each entry is a sum of k
    products below q**2, and poly.ModMulContext refuses any q and k with
    k * (q-1)**2 + q - 1 >= 2**63.

    Raises InvalidParameters unless alpha**G == 1 and alpha**(G/p) != 1
    for every prime p | G = q**k - 1 (a non-unit alpha fails the first),
    reading each of those digit rows as a first-chunk row times J; and
    OrderMismatch unless the trace takes each value of GF(q) exactly
    q**(k-1) times over the field, as a nonzero linear functional does.
    """
    group_order = q**k - 1
    qpow = q ** np.arange(k, dtype=np.int64)
    size = min(_CHUNK, group_order)
    first = np.zeros((size, k), dtype=np.int64)
    first[0, 0] = 1
    step = mul
    have = 1
    while have < size:
        m = min(have, size - have)
        first[have:have + m] = first[:m] @ step % q
        step = step @ step % q
        have += m
    # size is _CHUNK, a power of two, whenever a later chunk exists, so
    # step is now the matrix of alpha**size.
    dtype = np.min_scalar_type(q - 1)
    windows = bytearray(dtype.itemsize * (group_order + k - 1))
    trace = np.frombuffer(windows, dtype)  # filled in place, nothing copied
    checks = [group_order // p for p in factorize(group_order)]
    jump, ones = None, 0  # None: the matrix of alpha**0
    for start in range(0, group_order, size):
        n = min(size, group_order - start)
        # digits of alpha**(G/p) for the primes p | G, and of alpha**(G-1)
        rows = first[[e - start for e in checks if start <= e < start + n] + [n - 1]]
        if start:
            jump = step if jump is None else jump @ step % q
            rows = rows @ jump % q
        trace[start:start + n] = first[:n] @ (t if jump is None else jump @ t % q) % q
        ones += np.count_nonzero(rows[:-1] @ qpow == 1)
        last = rows[-1]
    trace[group_order:] = trace[:k - 1]
    # These checks make alpha primitive and the modulus irreducible:
    # alpha**G == 1 makes alpha a unit, and alpha**(G/p) != 1 for every
    # prime p | G makes its order exactly G, so alpha**0, ..., alpha**(G-1)
    # are G distinct units. A ring of q**k elements has at most G units,
    # so these are all its nonzero elements, and the ring is a field.
    if ones or last @ mul % q @ qpow != 1:
        raise InvalidParameters("alpha has order below q^k - 1")
    counts = np.bincount(trace[:group_order], minlength=q)
    counts[0] += 1  # the zero element
    if (counts != q ** (k - 1)).any():
        raise OrderMismatch("trace is not balanced over the base field")
    return windows


def build_ext_field(q: int, k: int) -> ExtField:
    """Construct GF(q**k) with a verified modulus and primitive element.

    Deterministic: the modulus is the first irreducible in the packed-value
    scan and alpha is the first element (in packed-value order) of full
    multiplicative order. Fields are cached by (q, k) however the call is
    spelled; build_ext_field.cache_clear() empties the cache, and the
    cache of moduli with it.
    """
    _check_field_params(q, k)
    return _build(q, k)


def _check_field_params(q: int, k: int) -> None:
    """Raise unless GF(q**k) is a field within the table cap. The cap
    comes before primality, as trial division of a huge q would not
    finish."""
    _check_table_cap(q, k)
    check_prime(q)


def _check_table_cap(q: int, k: int) -> None:
    """Raise InvalidParameters if k < 1, and TableCapExceeded if q > 1 and
    q**k is over the table cap; k >= 23 is over it for any such q, so q**k
    is never formed for a huge k."""
    if k < 1:
        raise InvalidParameters("extension degree must be >= 1")
    if q > 1 and (q > DEFAULT_TABLE_CAP or k >= DEFAULT_TABLE_CAP.bit_length()
                  or q**k > DEFAULT_TABLE_CAP):
        raise TableCapExceeded(f"{q}^{k} exceeds table cap {DEFAULT_TABLE_CAP}")


@lru_cache(maxsize=64)
def _context(q: int, k: int) -> poly.ModMulContext:
    """Multiply modulo the first irreducible of degree k over GF(q): the
    modulus of GF(q**k), shared with the table-free splitting fields."""
    return poly.ModMulContext(poly.find_irreducible(q, k), q)


@lru_cache(maxsize=64)
def _build(q: int, k: int) -> ExtField:
    ctx = _context(q, k)
    alpha = _primitive_element(ctx.modulus, ctx, q)
    # Tr(x**j) is the matrix trace of multiplication by x**j
    t = np.einsum("jii->j", ctx.matrices(np.eye(k, dtype=np.int64))) % q
    mul = ctx.matrices(_digits([alpha], q, k))[0]
    window_map = poly.powers(t, mul.T, k, q).T  # column j, mul**j @ t, gives Tr(y * alpha**j)
    return ExtField(ctx, alpha, window_map, _tables(mul, t, q, k))


def _cache_clear() -> None:
    _build.cache_clear()
    _context.cache_clear()


build_ext_field.cache_clear = _cache_clear
build_ext_field.cache_info = _build.cache_info
