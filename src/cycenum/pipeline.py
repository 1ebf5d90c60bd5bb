"""Classical simulation of the noisy-oracle weight-recovery pipeline.

The exact Gauss-sum phases, computed once per code, are perturbed by a
seeded uniform error of magnitude below epsilon (standing in for the
bounded-error quantum estimator). The weight formula is the one routine
of cycenum.weights, evaluated at every coset leader at once, and each
noisy value is rounded to the nearest multiple of q**(theta-1), the
divisibility step of every weight. The reference spectrum comes from the
same routine at the exact phases. Whenever epsilon stays below
q**(theta-1) / (4*sqrt(q**k)) the rounded spectrum provably matches the
noiseless one; the pipeline reports whether it did.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

from .codes import CodeSpec, irreducible_cyclic_code
from .cosets import multiplicative_order
from .errors import InvalidParameters, MembershipFailed, NonIntegralTheta, RecoveryFailed
from .weights import WeightSpectrum, _exact_spectrum, _formula_inputs, _s_values, _tally

__all__ = [
    "IcqParams",
    "MembershipReport",
    "PipelineReport",
    "digit_sum",
    "theta",
    "epsilon_bound",
    "icq_membership",
    "noisy_gauss_oracle",
    "run_pipeline",
    "run_pipeline_trials",
]


def digit_sum(x: int, q: int) -> int:
    """Sum of the base-q digits of x >= 0."""
    if x < 0:
        raise ValueError("digit_sum expects x >= 0")
    if q < 2:
        raise ValueError("base must be >= 2")
    total = 0
    while x:
        total += x % q
        x //= q
    return total


def theta(spec: CodeSpec) -> int:
    """Divisibility exponent: min over 0 < j <= N of digit_sum(j*n)/(q-1).

    Every nonzero weight of the code is divisible by q**(theta-1). The
    minimum digit sum must itself be divisible by q-1; a violation raises
    NonIntegralTheta rather than truncating.
    """
    best = min(digit_sum(j * spec.n, spec.q) for j in range(1, spec.N + 1))
    if best % (spec.q - 1) != 0:
        raise NonIntegralTheta(
            f"min digit sum {best} is not divisible by q - 1 = {spec.q - 1}")
    return best // (spec.q - 1)


def epsilon_bound(spec: CodeSpec) -> float:
    """Largest phase error that still guarantees exact recovery."""
    return spec.q ** (theta(spec) - 1) / (4.0 * math.sqrt(spec.field.order))


@dataclass(frozen=True)
class IcqParams:
    """Parameters of a candidate code: n = (q**k - 1)/(alpha * k**s)."""

    q: int
    k: int
    alpha: float
    s: float
    epsilon: float

    def __post_init__(self):
        N = self.alpha * self.k**self.s
        if N <= 0 or abs(N - round(N)) > 1e-9:
            raise InvalidParameters(f"N = alpha * k^s = {N} is not a positive integer")
        if self.epsilon <= 0:
            raise InvalidParameters(f"epsilon = {self.epsilon} must be positive")

    @property
    def N(self) -> int:
        return round(self.alpha * self.k**self.s)

    @classmethod
    def from_code_params(cls, q: int, k: int, N: int, epsilon: float) -> "IcqParams":
        return cls(q=q, k=k, alpha=float(N), s=0.0, epsilon=epsilon)


@dataclass
class MembershipReport:
    """Clause-by-clause result of the class-membership check."""

    q: int
    k: int
    N: int
    epsilon: float
    n_integral: bool
    order_ok: bool
    n: int | None
    theta: int | None
    epsilon_bound: float | None
    epsilon_ok: bool | None
    member: bool
    failures: list[str]

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "k": self.k,
            "N": self.N,
            "epsilon": self.epsilon,
            "n_integral": self.n_integral,
            "order_ok": self.order_ok,
            "n": self.n,
            "theta": self.theta,
            "epsilon_bound": self.epsilon_bound,
            "epsilon_ok": self.epsilon_ok,
            "member": self.member,
            "failures": list(self.failures),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MembershipReport":
        return cls(**{k: d[k] for k in (
            "q", "k", "N", "epsilon", "n_integral", "order_ok", "n",
            "theta", "epsilon_bound", "epsilon_ok", "member", "failures")})


def icq_membership(params: IcqParams) -> MembershipReport:
    """Check the three membership clauses, returning all diagnostics.

    Failures are decisions, not errors: n integral, ord_n(q) = k, and
    epsilon within the recovery bound are each reported separately.
    """
    q, k, N, eps = params.q, params.k, params.N, params.epsilon
    failures: list[str] = []
    if not eps < 1:
        failures.append("EpsilonNotBelowOne")
    total = q**k - 1
    n_integral = total % N == 0
    n = total // N if n_integral else None
    if not n_integral:
        failures.append("IntegralityFailed")
    order_ok = bool(n_integral and multiplicative_order(q, n) == k)
    if n_integral and not order_ok:
        failures.append("OrderCheckFailed")
    theta_val = None
    bound = None
    epsilon_ok = None
    if n_integral and order_ok:
        spec = irreducible_cyclic_code(q, k, N)
        try:
            theta_val = theta(spec)
        except NonIntegralTheta:
            failures.append("NonIntegralTheta")
        else:
            bound = epsilon_bound(spec)
            epsilon_ok = eps <= bound
            if not epsilon_ok:
                failures.append("EpsilonExceedsBound")
    return MembershipReport(
        q=q, k=k, N=N, epsilon=eps,
        n_integral=n_integral, order_ok=order_ok, n=n,
        theta=theta_val, epsilon_bound=bound, epsilon_ok=epsilon_ok,
        member=not failures, failures=failures,
    )


def noisy_gauss_oracle(true_gamma: float, epsilon: float, seed: int) -> float:
    """true_gamma plus a uniform draw from (-epsilon, epsilon).

    The generator is the named stdlib Mersenne Twister seeded with the
    given integer, so identical seeds reproduce identical perturbations.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return true_gamma + random.Random(seed).uniform(-epsilon, epsilon)


@dataclass
class PipelineReport:
    """Everything one noisy recovery run produced."""

    q: int
    k: int
    N: int
    n: int
    epsilon: float
    seed: int
    theta: int
    epsilon_bound: float
    d: int
    num_cosets: int
    oracle_calls: int
    injected_errors: list[float]
    recovered_spectrum: WeightSpectrum
    exact: bool

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "k": self.k,
            "N": self.N,
            "n": self.n,
            "epsilon": self.epsilon,
            "seed": self.seed,
            "theta": self.theta,
            "epsilon_bound": self.epsilon_bound,
            "d": self.d,
            "num_cosets": self.num_cosets,
            "oracle_calls": self.oracle_calls,
            "injected_errors": list(self.injected_errors),
            "recovered_spectrum": self.recovered_spectrum.to_dict(),
            "exact": self.exact,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineReport":
        spectrum = WeightSpectrum.from_dict(d["recovered_spectrum"], d["n"])
        kwargs = {k: d[k] for k in (
            "q", "k", "N", "n", "epsilon", "seed", "theta", "epsilon_bound",
            "d", "num_cosets", "oracle_calls", "injected_errors", "exact")}
        return cls(recovered_spectrum=spectrum, **kwargs)


class _PipelineContext:
    """Per-code state shared across trials: code, cosets, character
    matrix, exact phases and the reference spectrum they give."""

    def __init__(self, q: int, k: int, N: int):
        self.spec = irreducible_cyclic_code(q, k, N)
        self.cosets, self.chi, self.gammas = _formula_inputs(self.spec)
        self.d = len(self.gammas) + 1
        self.theta = theta(self.spec)
        self.divisor = q ** (self.theta - 1)
        self.bound = epsilon_bound(self.spec)
        self.reference = _exact_spectrum(self.spec, self.cosets, self.chi, self.gammas)

    def run_seed(self, epsilon: float, seed: int) -> PipelineReport:
        spec = self.spec
        noisy = np.array([noisy_gauss_oracle(g, epsilon, seed * 100003 + a)
                          for a, g in enumerate(self.gammas.tolist(), start=1)])
        svals = _s_values(spec, self.chi, noisy).real
        weights = [int(w) * self.divisor for w in np.rint(svals / self.divisor)]
        recovered = _tally(spec, weights, self.cosets)
        return PipelineReport(
            q=spec.q, k=spec.k, N=spec.N, n=spec.n,
            epsilon=epsilon, seed=seed,
            theta=self.theta, epsilon_bound=self.bound,
            d=self.d, num_cosets=len(self.cosets),
            oracle_calls=self.d - 1,
            injected_errors=(noisy - self.gammas).tolist(),
            recovered_spectrum=recovered,
            exact=recovered.counts == self.reference.counts,
        )


def run_pipeline(q: int, k: int, N: int, epsilon: float, seed: int,
                 force: bool = False, strict: bool = False) -> PipelineReport:
    """One noisy recovery run: build the code, sieve the cosets, perturb
    the exact phases, evaluate the weight formula per leader, round to
    multiples of q**(theta-1), tally, and compare to the noiseless
    spectrum.

    Raises MembershipFailed when the epsilon/parameter check fails and
    force is not set; with strict=True a non-exact recovery raises
    RecoveryFailed instead of just being reported.
    """
    report = run_pipeline_trials(q, k, N, epsilon, [seed], force)[0]
    if strict and not report.exact:
        raise RecoveryFailed(
            f"recovered spectrum differs from reference (seed {seed})")
    return report


def run_pipeline_trials(q: int, k: int, N: int, epsilon: float, seeds,
                        force: bool = False) -> list[PipelineReport]:
    """run_pipeline over many seeds with the code built only once."""
    membership = icq_membership(IcqParams.from_code_params(q, k, N, epsilon))
    if not membership.member and not force:
        raise MembershipFailed(", ".join(membership.failures))
    ctx = _PipelineContext(q, k, N)
    return [ctx.run_seed(epsilon, seed) for seed in seeds]
