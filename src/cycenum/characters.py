"""Exact classical Gauss sums over GF(q**k).

The additive character is e_beta(a) = exp(2*pi*i*Tr(beta*a)/q) and the
multiplicative character is chi_j(alpha**m) = exp(2*pi*i*j*m/(q**k - 1)),
both read from the field tables. A Gauss sum is the full sum of
chi_j * e_beta over the nonzero elements, evaluated in double precision
with a vectorized, deterministic pairwise summation; for nontrivial chi_j
and beta != 0 its magnitude is the exact square root of the field size,
and only the phase is hard.

gauss_sum evaluates one sum from its M = q**k - 1 angles. The d - 1 sums
of order_d_character_sums, the ones the weight formula needs, take every
term from one d x q table instead: chibar**a(alpha**m) depends only on
(a*m) mod d and e_1(alpha**m) only on Tr(alpha**m), so each sum is a
gather from the table followed by the same np.sum, term for term and in
the same order, and its value is bit-identical to gauss_sum's.
"""

import math
from dataclasses import dataclass
from math import gcd

import numpy as np

from .codes import CodeSpec
from .errors import PhaseOfZero
from .field import ExtField

__all__ = [
    "GaussSumValue",
    "gauss_sum",
    "order_d_character_sums",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, slots=True)
class GaussSumValue:
    """A Gauss sum as complex value plus polar pieces (gamma in (-pi, pi])."""

    value: complex
    gamma: float
    magnitude: float

    def to_dict(self) -> dict:
        return {
            "re": self.value.real,
            "im": self.value.imag,
            "gamma": self.gamma,
            "magnitude": self.magnitude,
        }


def _phase(value: complex) -> float:
    if abs(value) < 1e-12:
        raise PhaseOfZero("phase of a zero Gauss sum is undefined")
    gamma = math.atan2(value.imag, value.real)
    if gamma <= -math.pi:
        gamma = math.pi
    return gamma


def _polar(value: complex) -> GaussSumValue:
    return GaussSumValue(value=value, gamma=_phase(value), magnitude=abs(value))


def gauss_sum(j: int, beta: int, F: ExtField) -> GaussSumValue:
    """Exact O(q**k) summation of G(chi_j, e_beta) over the nonzero elements.

    At beta = 0 the value is exact without a sum: q**k - 1 for j = 0 mod
    q**k - 1, and otherwise 0, which raises PhaseOfZero."""
    beta = F.check(beta)
    M = F.group_order
    j = j % M
    if beta == 0:
        # e_0 is trivial: the sum is M for the trivial chi_j and exactly 0
        # for any other, whose phase is undefined
        return _polar(complex(M if j == 0 else 0))
    # summed in place: the same float operations per term, in the same order
    angles = _TWO_PI / M * ((j * np.arange(M)) % M)
    angles += _TWO_PI / F.q * np.roll(F.trace_table(), -F.dlog(beta))
    terms = 1j * angles
    del angles
    return _polar(complex(np.exp(terms, out=terms).sum()))


def _order_d(q: int, k: int, N: int) -> int:
    """d = gcd(N, (q**k - 1)/(q - 1)), the order of the phases' character."""
    return gcd(N, (q**k - 1) // (q - 1))


def order_d_character_sums(spec: CodeSpec) -> list[GaussSumValue]:
    """G(chibar**a, e_1) for a = 1..d-1, d = gcd(N, (q**k - 1)/(q - 1)).

    chibar is realized as chi_j0 with j0 = (q**k - 1)/d, so that
    chibar(alpha) is a primitive d-th root of unity.
    """
    F = spec.field
    M, q = F.group_order, F.q
    d = _order_d(q, spec.k, spec.N)
    if d <= 1:
        return []
    j0 = M // d
    # (j0*a*m) % M == j0*((a*m) % d), so every term of every sum is one of
    # d*q values, formed by gauss_sum's own float expressions; entry r*q + t
    # is exp(i*(2*pi*j0*r/M + 2*pi*t/q)).
    r = np.arange(d).reshape(-1, 1)
    terms = np.exp(1j * (_TWO_PI / M * (j0 * r) + _TWO_PI / q * np.arange(q))).ravel()
    # m = i*d + c has (a*m) % d == (a*c) % d: one d-long row offset per a
    tr = F.trace_table().reshape(M // d, d)
    c = np.arange(d)
    return [_polar(complex(terms[tr + (a * c) % d * q].ravel().sum()))
            for a in range(1, d)]
