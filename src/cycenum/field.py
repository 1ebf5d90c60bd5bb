"""Extension fields GF(q**k) with log/antilog tables.

Elements of GF(q**k) are plain ints in [0, q**k): the packed value
sum(c_i * q**i) of the coefficient vector (c_0, ..., c_(k-1)) over GF(q).
Zero is 0 and the multiplicative identity is 1. A field is its tables,
read through a verified primitive element alpha: the packed value of
each power of alpha, its discrete log, and its trace.

The exp, log and trace tables are int64 numpy arrays, built in one pass
with no per-element Python loop. Multiplication by a fixed element is a
GF(q)-linear map, a k x k matrix acting on coefficient vectors;
poly.ModMulContext.matrices gives these matrices, reduced by the same
table of x**(k+j) mod the modulus that its multiply uses. So:

- alpha is found by raising the matrices of a batch of candidates to
  (q**k - 1)/p for every prime p at once;
- the exp table is built by block doubling (rows [B, 2B) of the digit
  table are rows [0, B) times the matrix of alpha**B) up to one chunk of
  _CHUNK rows, and every later chunk is that first chunk times the matrix
  of alpha**start, so a full q**k x k digit matrix is never held;
- the trace, a linear functional, is each chunk's digit rows times the
  vector of traces of the basis x**j, mod q, in the same pass; Tr(x**j)
  is the matrix trace of multiplication by x**j.

Every check raises rather than asserts, so it holds under python -O:
alpha must reach every nonzero element exactly once and return to 1, and
the trace table must take each value of GF(q) exactly q**(k-1) times over
the field, as a nonzero linear functional does.

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
_CHUNK = 1 << 12  # rows of digit work held at once; a power of two
_SCAN = 32  # primitive-element candidates tested per batch


def _unpack(v: int, q: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(v % q)
        v //= q
    return out


class ExtField:
    """GF(q**k) built from a monic irreducible modulus, with full tables.

    exp_table[i] is the packed value of alpha**i and trace_table()[i] is
    Tr(alpha**i), for i in [0, q**k - 2]; log_table is the inverse of
    exp_table on the nonzero elements, and log_table[0] is -1, never read
    because dlog rejects 0. All three are int64 arrays, built in one pass
    by _tables, which checks the order of alpha and the balance of the
    trace. Constructed through build_ext_field. alpha_pow and dlog read
    the tables with item(), so they return Python ints.
    """

    def __init__(self, q: int, k: int, modulus: tuple[int, ...], alpha: int,
                 exp_table: np.ndarray, log_table: np.ndarray, trace: np.ndarray):
        self.q = q
        self.k = k
        self.modulus = modulus
        self.order = q**k
        self.group_order = q**k - 1
        self.alpha = alpha
        self.exp_table = exp_table
        self.log_table = log_table
        self._trace = trace

    def check(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.order:
            raise FieldMismatch(f"{a!r} is not an element of GF({self.q}^{self.k})")
        return a

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector (c_0, ..., c_(k-1)) of an element."""
        return tuple(_unpack(self.check(a), self.q, self.k))

    def alpha_pow(self, i: int) -> int:
        """alpha**i, i.e. the element Exp(i mod (q**k - 1))."""
        return self.exp_table.item(i % self.group_order)

    def dlog(self, a: int) -> int:
        """Exponent i with alpha**i == a; a must be nonzero."""
        if self.check(a) == 0:
            raise LogOfZero("discrete log of zero")
        return self.log_table.item(a)

    def trace_table(self) -> np.ndarray:
        """Tr(alpha**m) for m in [0, q**k - 2] as an int64 array."""
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


def _tables(mul: np.ndarray, t: np.ndarray, q: int,
            k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp, log and trace tables of the alpha that mul multiplies by, as
    int64 arrays, given t_j = Tr(x**j).

    Block doubling fills the first chunk of powers: rows [B, 2B) of the
    digit table are rows [0, B) times the matrix of alpha**B. Every later
    chunk's digits are the first chunk's times the matrix of alpha**start,
    so one chunk of digits is held at a time. Each chunk's digit rows give
    its exp values (times the powers of q) and its traces (times t, mod q,
    as the trace is GF(q)-linear), and log is filled as chunks arrive.
    All products are int64 sums of at most k * (q-1)**2, so exact for any
    field whose tables fit in memory.

    Raises InvalidParameters unless alpha**m hits every nonzero element
    exactly once for m < q**k - 1 and alpha**(q**k - 1) == 1, and
    OrderMismatch unless the trace takes each value of GF(q) exactly
    q**(k-1) times over the field, as a nonzero linear functional does.
    """
    group_order = q**k - 1
    qpow = q ** np.arange(k, dtype=np.int64)
    size = min(_CHUNK, group_order)
    block = np.ones(1, dtype=np.int64)
    step = mul
    while len(block) < size:
        head = block[:size - len(block)]
        block = np.concatenate([block, _digits(head, q, k) @ step % q @ qpow])
        step = step @ step % q
    # size is _CHUNK, a power of two, whenever a later chunk exists, so
    # step is now the matrix of alpha**size.
    first = digits = _digits(block, q, k)
    exp = np.empty(group_order, dtype=np.int64)
    trace = np.empty(group_order, dtype=np.int64)
    log = np.full(q**k, -1, dtype=np.int64)
    jump = step
    for start in range(0, group_order, size):
        if start:
            digits = first[:group_order - start] @ jump % q
            jump = jump @ step % q
        block = digits @ qpow
        exp[start:start + size] = block
        trace[start:start + size] = digits @ t % q
        log[block] = np.arange(start, start + len(block))
    if (log[1:] < 0).any():
        raise InvalidParameters("alpha has order below q^k - 1")
    if digits[-1] @ mul % q @ qpow != 1:
        raise InvalidParameters("alpha**(q^k - 1) != 1")
    counts = np.bincount(trace, minlength=q)
    counts[0] += 1  # the zero element
    if (counts != q ** (k - 1)).any():
        raise OrderMismatch("trace is not balanced over the base field")
    return exp, log, trace


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
    tables = _tables(ctx.matrices(_digits([alpha], q, k))[0], t, q, k)
    return ExtField(q, k, tuple(ctx.modulus), alpha, *tables)


def _cache_clear() -> None:
    _build.cache_clear()
    _context.cache_clear()


build_ext_field.cache_clear = _cache_clear
build_ext_field.cache_info = _build.cache_info
