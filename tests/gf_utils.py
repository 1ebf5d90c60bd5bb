"""Small GF(q) helpers used as independent test oracles."""

import itertools


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
