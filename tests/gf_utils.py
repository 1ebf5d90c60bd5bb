"""Small GF(q) helpers used as independent test oracles."""

import cmath
import functools
import itertools
import math

from cycenum import poly
from cycenum.cosets import multiplicative_order
from cycenum.errors import OrderMismatch
from cycenum.intmath import divisors, factorize, is_prime


def gf_rank(matrix, q):
    m = [row[:] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rank = 0
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if m[r][c] % q), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, q)
        m[rank] = [(v * inv) % q for v in m[rank]]
        for r in range(rows):
            if r != rank and m[r][c] % q:
                f = m[r][c]
                m[r] = [(a - f * b) % q for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def gf_nullspace(matrix, q):
    """Basis of {x : matrix @ x = 0} over GF(q)."""
    rows = len(matrix)
    cols = len(matrix[0])
    m = [row[:] for row in matrix]
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] % q), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, q)
        m[r] = [(v * inv) % q for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c] % q:
                f = m[i][c]
                m[i] = [(a - f * b) % q for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    basis = []
    free = [c for c in range(cols) if c not in pivots]
    for f in free:
        v = [0] * cols
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-m[i][f]) % q
        basis.append(v)
    return basis


def enumerate_span(basis, q):
    """Every GF(q)-linear combination of the basis rows."""
    n = len(basis[0]) if basis else 0
    for sel in itertools.product(range(q), repeat=len(basis)):
        w = [0] * n
        for s, b in zip(sel, basis):
            if s:
                w = [(a + s * x) % q for a, x in zip(w, b)]
        yield tuple(w)


def x_pow_n_minus_1(n, q):
    return [q - 1] + [0] * (n - 1) + [1]


def all_monic(q, k):
    """Every monic degree-k polynomial over GF(q), low degree first."""
    for tail in itertools.product(range(q), repeat=k):
        yield list(tail) + [1]


def poly_add(a, b, q):
    """Coefficient-wise sum mod q, trailing zeros trimmed."""
    out = [0] * max(len(a), len(b))
    for p in (a, b):
        for i, c in enumerate(p):
            out[i] = (out[i] + c) % q
    while out and out[-1] == 0:
        out.pop()
    return out


def spectrum_from_words(words):
    counts = {}
    for w in words:
        hw = sum(1 for v in w if v)
        counts[hw] = counts.get(hw, 0) + 1
    return counts


def dual_by_expansion(counts, n, q):
    """Coefficients by y-degree of sum A_i (x+(q-1)y)^(n-i) (x-y)^i,
    by multiplying out both binomials for every weight."""
    acc = [0] * (n + 1)
    for i, a_i in counts.items():
        u = [math.comb(n - i, t) * (q - 1) ** t for t in range(n - i + 1)]
        v = [math.comb(i, t) * (-1) ** t for t in range(i + 1)]
        for t1, cu in enumerate(u):
            for t2, cv in enumerate(v):
                acc[t1 + t2] += a_i * cu * cv
    return acc


def taylor_shift(a, c):
    """a(x + c) by Horner's rule, coefficients low degree first: pass i
    divides by x - c synthetically and leaves coefficient i, n**2/2
    multiply-adds in all."""
    a = list(a)
    n = len(a) - 1
    for i in range(n):
        acc = a[n]
        for j in range(n - 1, i - 1, -1):
            acc = a[j] + c * acc
            a[j] = acc
    return a


@functools.cache
def exp_list(F):
    """alpha**m for m in [0, q**k - 1), packed, by repeated table-free
    multiplication by F.alpha mod F.modulus; cached per field object."""
    out, acc = [], 1
    for _ in range(F.group_order):
        out.append(acc)
        acc = _mul_raw(acc, F.alpha, F.modulus, F.q, F.k)
    return out


def orbit_product_reference(F, exponents):
    """Coefficients of the product of (X - alpha**e) over the exponents,
    on packed elements by table-free arithmetic mod F.modulus;
    OrderMismatch when a coefficient is not in the base field."""
    q, k, modulus = F.q, F.k, F.modulus
    exp = exp_list(F)
    prod = [1]
    for e in exponents:
        nroot = _mul_raw(q - 1, exp[e % F.group_order], modulus, q, k)
        nxt = [0] * (len(prod) + 1)
        for i, c in enumerate(prod):
            nxt[i + 1] = _add_raw(nxt[i + 1], c, q, k)
            nxt[i] = _add_raw(nxt[i], _mul_raw(nroot, c, modulus, q, k), q, k)
        prod = nxt
    if any(c >= q for c in prod):
        raise OrderMismatch("orbit product left the base field")
    return prod


def trace_words(spec):
    """Every word (Tr(tau), Tr(tau*alpha**N), ...) of the code: tau = 0,
    then tau = alpha**t for t = 0, 1, ... Tr(alpha**m), an element of
    GF(q), is the constant digit of the sum of the conjugates
    alpha**(m*q**i), so the sum of their packed values mod q."""
    F, q = spec.field, spec.q
    exp, M = exp_list(F), F.group_order
    words = [[0] * spec.n]
    for t in range(M):
        words.append([sum(exp[(t + j * spec.N) * q**i % M] for i in range(F.k)) % q
                      for j in range(spec.n)])
    return words


def character(j, x, F):
    """chi_j(x) = exp(2*pi*i * j * log(x) / (q**k - 1)) for x != 0, the
    log read from F.dlog."""
    M = F.group_order
    return cmath.exp(2j * cmath.pi * (j * F.dlog(x) % M) / M)


# -- per-element field builder, the reference for cycenum.field ----------

def _unpack(v, q, k):
    out = []
    for _ in range(k):
        out.append(v % q)
        v //= q
    return out


def _pack(coeffs, q):
    v = 0
    for c in reversed(coeffs):
        v = v * q + c
    return v


def _add_raw(a, b, q, k):
    """Digit-wise sum mod q of packed elements (XOR when q == 2)."""
    if q == 2:
        return a ^ b
    return _pack([(x + y) % q for x, y in zip(_unpack(a, q, k), _unpack(b, q, k))], q)


def _mul_raw(a, b, modulus, q, k):
    """Table-free product of packed elements: schoolbook, then reduction."""
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


def _pow_raw(a, e, modulus, q, k):
    result = 1
    while e:
        if e & 1:
            result = _mul_raw(result, a, modulus, q, k)
        a = _mul_raw(a, a, modulus, q, k)
        e >>= 1
    return result


def reference_field(q, k):
    """GF(q**k) built one element at a time, by the same rules as
    cycenum.build_ext_field: alpha is x when primitive, otherwise the first
    element of full order in packed-value order; exp/log come from repeated
    multiplication by alpha and the trace table from per-element traces,
    each the Frobenius sum of a**(q**j) for j < k read off those tables.

    Returns (modulus, alpha, exp_table, log_table, trace_table as a list).
    """
    modulus = poly.find_irreducible(q, k)
    order = q**k
    group_order = order - 1

    def has_full_order(a):
        if a == 0:
            return False
        return all(_pow_raw(a, group_order // p, modulus, q, k) != 1
                   for p in factorize(group_order))

    x_residue = q if k > 1 else (-modulus[0]) % q
    if has_full_order(x_residue):
        alpha = x_residue
    else:
        alpha = next(v for v in range(1, order) if has_full_order(v))

    exp_table = [0] * group_order
    log_table = [None] * order
    acc = 1
    for i in range(group_order):
        exp_table[i] = acc
        if log_table[acc] is not None:
            raise OrderMismatch("alpha has order below q^k - 1")
        log_table[acc] = i
        acc = _mul_raw(acc, alpha, modulus, q, k)
    if acc != 1:
        raise OrderMismatch("alpha^(q^k - 1) != 1")

    def trace(m):  # Tr(alpha**m)
        acc = 0
        for j in range(k):
            acc = _add_raw(acc, exp_table[m * q**j % group_order], q, k)
        if acc >= q:
            raise OrderMismatch("trace left the base field")
        return acc

    return tuple(modulus), alpha, exp_table, log_table, [trace(m) for m in range(group_order)]


def valid_codes(cap, qs=None):
    """Every (q, k, N) with q**k <= cap, N | q**k - 1 and ord_n(q) = k, for q
    in qs (default: every prime up to cap)."""
    for q in qs or [p for p in range(2, cap + 1) if is_prime(p)]:
        k = 1
        while q**k <= cap:
            for N in divisors(q**k - 1):
                if multiplicative_order(q, (q**k - 1) // N) == k:
                    yield q, k, N
            k += 1
