"""Weight spectra of irreducible cyclic codes.

One routine, _s_values, evaluates the Gauss-sum weight formula S(b) at
every q-cyclotomic coset leader b of {0, ..., d-1} in one matrix product,
d being the order of the phases' character (S(b) depends on b mod d
alone); _tally turns one weight per leader into a spectrum. They take
q, k, N and phases or weights, never a field; weight_spectrum_mceliece and
the noisy recovery pipeline go through them, Gauss sums computed once per code.
weight_spectrum_bruteforce is the independent oracle the formula is
tested against: it reads every trace letter from the field tables, as
the weight of column r of Tr(alpha**m) reshaped to n x N is the weight of
the word of alpha**r and of its n cyclic shifts, so the whole spectrum
costs O(q**k).

The MacWilliams transform is exact integer arithmetic on one of two
paths, chosen from the input. With m distinct weights and 8m <= n it runs
the Krawtchouk three-term recurrence, O(n) big-by-small steps per weight;
denser input takes two Taylor shifts made of shifts by one, O(n**2)
big-integer additions whatever the input. The rule is the measured
crossover: with counts of n*log2(q) bits, q in {2, 3, 5, 13} and
366 <= n <= 1023, the recurrence took 1.7-2.6x the time of the shifts at
m = n/4, 0.86-1.3x at m = n/8 and 0.58-0.88x at m = n/12.
"""

import math
from dataclasses import dataclass

import numpy as np

from .characters import GaussSumValue, order_d_character_sums
from .codes import CodeSpec
from .cosets import coset_leaders
from .errors import (
    NonIntegerDualCoefficient,
    NonIntegerWeight,
    NonRealResult,
    SpectrumMismatch,
)

__all__ = [
    "WeightSpectrum",
    "WeightEnumerator",
    "s_function",
    "weight_spectrum_mceliece",
    "weight_spectrum_bruteforce",
    "macwilliams_dual",
]

WEIGHT_INT_TOL = 1e-6
IMAG_TOL = 1e-6


@dataclass(slots=True)
class WeightSpectrum:
    """Counts A_i of words of Hamming weight i in a length-n code."""

    counts: dict[int, int]
    n: int

    def total(self) -> int:
        return sum(self.counts.values())

    def to_dict(self) -> dict:
        return {str(w): self.counts[w] for w in sorted(self.counts)}


@dataclass(slots=True)
class WeightEnumerator:
    """The bivariate polynomial A(x, y) = sum A_i x^(n-i) y^i of a spectrum."""

    spectrum: WeightSpectrum

    @property
    def n(self) -> int:
        return self.spectrum.n

    def evaluate(self, x, y):
        """Polynomial evaluation; exact integers for integer arguments."""
        n = self.n
        return sum(a * x ** (n - i) * y**i for i, a in self.spectrum.counts.items())


def _s_values(q: int, k: int, N: int, gamma: np.ndarray, exponents) -> np.ndarray:
    """S(b) for every exponent b at the phases gamma, as complex values.

    S(b) = q^k(q-1)/(qN) - (q-1)/(qN) * sum over a of
    chibar(alpha^b)^(-a) * sqrt(q^k) * exp(i*gamma_a); the magnitude is
    kept at the exact sqrt(q^k) and only the phases enter. For d = 1 the
    sum is empty. gamma's last axis holds the d - 1 phases and any leading
    axes are a batch, each row with its own matrix-vector product.
    """
    d = gamma.shape[-1] + 1
    b = np.asarray(exponents).reshape(-1, 1)
    chi = np.exp(-2j * np.pi * ((b * np.arange(1, d)) % d) / d)
    order = q**k
    base = order * (q - 1) / (q * N)
    coef = (q - 1) / (q * N)
    return base - coef * (chi @ (math.sqrt(order) * np.exp(1j * gamma))[..., None])[..., 0]


def _real(values: np.ndarray) -> np.ndarray:
    worst = float(np.abs(values.imag).max(initial=0.0))
    if worst > IMAG_TOL:
        raise NonRealResult(f"imaginary residue {worst:.3e} exceeds {IMAG_TOL}")
    return values.real


def _tally(q: int, k: int, N: int, weights, part) -> WeightSpectrum:
    """Spectrum from one weight per leader of the cosets mod d: a coset of
    size s covers s*N/d exponents b mod N, each word has n cyclic shifts,
    and A_0 = 1."""
    tallies: dict[int, int] = {}
    for w, coset in zip(weights, part.cosets):
        tallies[w] = tallies.get(w, 0) + coset.size
    n = (q**k - 1) // N
    scale = n * (N // part.N)
    counts = {w: scale * a for w, a in tallies.items()}
    counts[0] = counts.get(0, 0) + 1
    return WeightSpectrum(counts, n)


def s_function(iota: int, gauss: list[GaussSumValue], spec: CodeSpec) -> float:
    """Weight of the word indexed by alpha**iota, from the Gauss-sum phases."""
    gamma = np.array([g.gamma for g in gauss])
    return float(_real(_s_values(spec.q, spec.k, spec.N, gamma, [iota % (len(gamma) + 1)]))[0])


def _formula_inputs(spec: CodeSpec):
    """The q-cyclotomic cosets mod d and the exact phases: the only part
    of the formula that reads the code's field."""
    gamma = np.array([g.gamma for g in order_d_character_sums(spec)])
    return coset_leaders(len(gamma) + 1, spec.q), gamma


def _exact_spectrum(q: int, k: int, N: int, part, gamma) -> tuple[WeightSpectrum, np.ndarray]:
    """The spectrum at the exact phases, and the rounded weight per leader."""
    values = _real(_s_values(q, k, N, gamma, [c.leader for c in part.cosets]))
    weights = np.rint(values)
    residue = np.abs(values - weights)
    if residue.max(initial=0.0) > WEIGHT_INT_TOL:
        i = int(residue.argmax())
        raise NonIntegerWeight(
            f"S({part.cosets[i].leader}) = {float(values[i])!r} is not near an integer")
    return _validated(_tally(q, k, N, weights.astype(int).tolist(), part), q, k), weights


def weight_spectrum_mceliece(spec: CodeSpec) -> WeightSpectrum:
    """Weight spectrum via the Gauss-sum formula with coset deduplication.

    Evaluates S at all coset leaders b_i at once, rounds to the nearest
    integer (the residue must stay below 1e-6), tallies with coset sizes
    times N/d as multiplicities, scales by n for cyclic shifts, and
    inserts A_0 = 1.
    """
    return _exact_spectrum(spec.q, spec.k, spec.N, *_formula_inputs(spec))[0]


def _validated(spectrum: WeightSpectrum, q: int, k: int) -> WeightSpectrum:
    if spectrum.total() != q**k:
        raise SpectrumMismatch(f"sum A_i = {spectrum.total()} != q^k = {q**k}")
    if any(w < 0 or w > spectrum.n for w in spectrum.counts):
        raise SpectrumMismatch(f"weight outside [0, {spectrum.n}]")
    return spectrum


def weight_spectrum_bruteforce(spec: CodeSpec) -> WeightSpectrum:
    """Direct count of the Hamming weights of all q**k trace words.

    Column r of Tr(alpha**m) reshaped to n x N is the word of alpha**r,
    and the word of alpha**(r + jN) is its cyclic shift by j, so the
    column weights times n, plus the zero word, are the spectrum.
    Completely independent of the Gauss-sum route.
    """
    nz = (spec.field.trace_table() != 0).reshape(spec.n, spec.N)
    hist = np.bincount(nz.sum(axis=0))
    counts: dict[int, int] = {0: 1}  # the tau = 0 word
    for w in np.nonzero(hist)[0]:
        counts[int(w)] = counts.get(int(w), 0) + spec.n * int(hist[w])
    return _validated(WeightSpectrum(counts, spec.n), spec.q, spec.k)


# ---------------------------------------------------------------------------
# MacWilliams transform, exact integer arithmetic


def _dual_krawtchouk(counts: dict[int, int], n: int, q: int) -> list[int]:
    """Coefficients by y-degree j of sum A_i (x+(q-1)y)^(n-i) (x-y)^i.

    The coefficient of y^j in one term is A_i K_j(i), a Krawtchouk
    polynomial, carried for each distinct weight i by the three-term
    recurrence (j+1) K_(j+1)(i) = ((q-1)(n-j) + j - q i) K_j(i)
    - (q-1)(n-j+1) K_(j-1)(i), whose division is exact. Cost is O(n)
    big-by-small steps per distinct weight, so spectra with few weights
    (the irreducible-cyclic case, at most N+1) stay cheap for long codes.
    """
    # the weight-free parts of the recurrence's coefficients, per step j
    steps = [((q - 1) * (n - j) + j, (q - 1) * (n - j + 1), j + 1) for j in range(n)]
    out = [0] * (n + 1)
    for i, a_i in counts.items():
        qi = q * i
        prev, cur = 0, a_i
        out[0] += cur
        for j, (a, b, div) in enumerate(steps, 1):
            prev, cur = cur, ((a - qi) * cur - b * prev) // div
            out[j] += cur
    return out


def _shift_by(a: np.ndarray, c: int) -> np.ndarray:
    """a(x + c) for an object array a of coefficients, low degree first.

    Scales x^d by c^d, shifts by one, then divides x^j by c^j, exactly.
    Pass i of the shift by one adds to each of the top i coefficients its
    upper neighbour (Pascal's triangle). NumPy evaluates an in-place ufunc
    on overlapping slices as if its input were copied, so each pass reads
    the previous pass's values, and the n**2/2 big-integer additions run
    in C loops.
    """
    n = len(a) - 1
    cpow = np.array([c**d for d in range(n + 1)], dtype=object)
    v = a * cpow
    for i in range(1, n + 1):
        v[n - i:n] += v[n - i + 1:n + 1]
    return v // cpow


def _dual_dense(counts: dict[int, int], n: int, q: int) -> list[int]:
    """Same polynomial via a shear factorization of the substitution.

    (x, y) -> (x+(q-1)y, x-y) factors as x -> x+(1-q)y, then
    (x, y) -> (qx, -y), then y -> y-x. The first is a Taylor shift by
    1-q of A(x, 1), the last a Taylor shift by -1 of A(1, y), so the
    transform is O(n^2) additions no matter how dense the input is.
    """
    a = np.array([counts.get(n - d, 0) for d in range(n + 1)], dtype=object)  # by x-degree
    a = _shift_by(a, 1 - q)
    c = a[::-1] * np.array([q ** (n - t) * (-1) ** t for t in range(n + 1)], dtype=object)
    return _shift_by(c, -1).tolist()


def macwilliams_dual(w: WeightEnumerator, q: int, k: int, n: int) -> WeightEnumerator:
    """Dual enumerator A_perp(x, y) = q^(-k) * A(x+(q-1)y, x-y), exact.

    This is the standard identity over GF(q); applying it twice returns
    the original enumerator. All dual coefficients must come out as
    non-negative integers summing to q^(n-k); anything else raises
    NonIntegerDualCoefficient, as does a q, k or n that is not an int, a
    q below 2 or k outside [0, n], an input weight or count that is not an
    int (float arithmetic is inexact past 2**53), a weight outside [0, n],
    a negative count, or counts that do not sum to q^k.
    """
    if not (all(isinstance(v, int) for v in (q, k, n)) and q >= 2 and 0 <= k <= n):
        raise NonIntegerDualCoefficient(f"q = {q!r}, k = {k!r}, n = {n!r}: no q-ary [n, k] code")
    if w.n != n:
        raise NonIntegerDualCoefficient(f"enumerator length {w.n} != n = {n}")
    counts = w.spectrum.counts
    for i, a_i in counts.items():
        if not (isinstance(i, int) and isinstance(a_i, int) and 0 <= i <= n and a_i >= 0):
            raise NonIntegerDualCoefficient(
                f"A_{i} = {a_i} is not a count of a weight in [0, {n}]")
    scale = q**k
    if w.spectrum.total() != scale:
        raise NonIntegerDualCoefficient(f"counts sum to {w.spectrum.total()}, not q^k = {scale}")
    if 8 * len(counts) <= n:
        acc = _dual_krawtchouk(counts, n, q)
    else:
        acc = _dual_dense(counts, n, q)
    dual_counts: dict[int, int] = {}
    total = 0
    for weight in range(n + 1):
        coeff = acc[weight]
        val, rem = divmod(coeff, scale)
        if rem:
            raise NonIntegerDualCoefficient(
                f"dual coefficient A_{weight} = {coeff}/{scale} is not integral")
        if val < 0:
            raise NonIntegerDualCoefficient(f"dual coefficient A_{weight} = {val} < 0")
        if val:
            dual_counts[weight] = val
            total += val
    if total != q ** (n - k):
        raise NonIntegerDualCoefficient(
            f"dual spectrum sums to {total}, expected q^(n-k) = {q ** (n - k)}")
    return WeightEnumerator(WeightSpectrum(dual_counts, n))
