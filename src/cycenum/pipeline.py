"""Classical simulation of the noisy-oracle weight-recovery pipeline.

Each run builds the code, its divisibility exponent theta and its exact
Gauss-sum phases once. The phases are perturbed by a seeded uniform error
of magnitude below epsilon (standing in for the bounded-error quantum
estimator): phase a of the trial with seed s gets the draw of a Mersenne
Twister seeded with s*100003 + a. The trials of a run are drawn in
blocks, one array row per trial, by one generator reseeded through the C
seed that Random.seed forwards an int to, which gives the same draws as
a fresh generator per phase. The weight formula is the one routine of
cycenum.weights, evaluated at every coset leader of every trial in a
block at once (one stacked matrix-vector product per trial), and each
noisy value is rounded to the nearest multiple of q**(theta-1), the
divisibility step of every weight. The reference spectrum comes from
the same routine at the exact phases; a trial whose rounded weights all
equal the exact ones gets a copy of its counts, and any other trial is
tallied on its own. Whenever epsilon stays below
q**(theta-1) / (4*sqrt(q**k)) the rounded spectrum provably matches the
noiseless one; the pipeline reports whether it did.
"""

import math
import operator
import random
from dataclasses import asdict, dataclass, fields

import numpy as np

from .codes import CodeSpec, irreducible_cyclic_code
from .cosets import multiplicative_order
from .errors import InvalidParameters, MembershipFailed, NonIntegralTheta
from .field import _check_table_cap
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
        raise InvalidParameters("digit_sum expects x >= 0")
    if q < 2:
        raise InvalidParameters("base must be >= 2")
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


def _bound(spec: CodeSpec, theta_val: int) -> float:
    return spec.q ** (theta_val - 1) / (4.0 * math.sqrt(spec.field.order))


def epsilon_bound(spec: CodeSpec) -> float:
    """Largest phase error that still guarantees exact recovery."""
    return _bound(spec, theta(spec))


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
        # noise is drawn by random.uniform(-epsilon, epsilon), which scales
        # by 2 * epsilon: that must be finite, so NaN and inf are refused too
        if not (self.epsilon > 0 and math.isfinite(2 * self.epsilon)):
            raise InvalidParameters(f"epsilon = {self.epsilon} must be positive and "
                                    "at most half the largest float")

    @property
    def N(self) -> int:
        return round(self.alpha * self.k**self.s)

    @classmethod
    def from_code_params(cls, q: int, k: int, N: int, epsilon: float) -> "IcqParams":
        return cls(q=q, k=k, alpha=N, s=0, epsilon=epsilon)


class _Report:
    """JSON form of a report dataclass: its fields, in declaration order."""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict):
        return cls(**{f.name: d[f.name] for f in fields(cls)})


@dataclass
class MembershipReport(_Report):
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


def icq_membership(params: IcqParams) -> MembershipReport:
    """Check the three membership clauses, returning all diagnostics.

    Failures are decisions, not errors: n integral, ord_n(q) = k, and
    epsilon within the recovery bound are each reported separately.
    """
    return _membership(params)[0]


def _membership(params: IcqParams) -> tuple[MembershipReport, CodeSpec | None]:
    """icq_membership's report, and the code if the n and order clauses
    let it be built."""
    q, k, N, eps = params.q, params.k, params.N, params.epsilon
    _check_table_cap(q, k)
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
    spec = theta_val = bound = epsilon_ok = None
    if n_integral and order_ok:
        spec = irreducible_cyclic_code(q, k, N)
        try:
            theta_val = theta(spec)
        except NonIntegralTheta:
            failures.append("NonIntegralTheta")
        else:
            bound = _bound(spec, theta_val)
            epsilon_ok = eps <= bound
            if not epsilon_ok:
                failures.append("EpsilonExceedsBound")
    report = MembershipReport(
        q=q, k=k, N=N, epsilon=eps,
        n_integral=n_integral, order_ok=order_ok, n=n,
        theta=theta_val, epsilon_bound=bound, epsilon_ok=epsilon_ok,
        member=not failures, failures=failures,
    )
    return report, spec


def noisy_gauss_oracle(true_gamma: float, epsilon: float, seed: int) -> float:
    """true_gamma plus a uniform draw from (-epsilon, epsilon).

    The generator is the named stdlib Mersenne Twister seeded with the
    given integer, so identical seeds reproduce identical perturbations.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return true_gamma + random.Random(seed).uniform(-epsilon, epsilon)


@dataclass
class PipelineReport(_Report):
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
        return {**asdict(self), "recovered_spectrum": self.recovered_spectrum.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineReport":
        spectrum = WeightSpectrum.from_dict(d["recovered_spectrum"], d["n"])
        return super().from_dict({**d, "recovered_spectrum": spectrum})


def run_pipeline(q: int, k: int, N: int, epsilon: float, seed: int,
                 force: bool = False) -> PipelineReport:
    """One noisy recovery run: build the code, sieve the cosets, perturb
    the exact phases, evaluate the weight formula per leader, round to
    multiples of q**(theta-1), tally, and compare to the noiseless
    spectrum; report.exact says whether they matched.

    Raises MembershipFailed when the epsilon/parameter check fails and
    force is not set.
    """
    return run_pipeline_trials(q, k, N, epsilon, [seed], force)[0]


_BLOCK_CELLS = 1 << 16


def run_pipeline_trials(q: int, k: int, N: int, epsilon: float, seeds,
                        force: bool = False) -> list[PipelineReport]:
    """run_pipeline over many seeds, with the code and its theta built
    only once, by the membership check. Forced past a failed n, order or
    theta clause, it raises InvalidParameters or NonIntegralTheta, as it
    does for a seed that is not an integer.

    Phase a of trial seed is noisy_gauss_oracle(gamma_a, epsilon,
    seed*100003 + a): the C seed under Random.seed gets that int
    unchanged, and lo + span*u are uniform's own float operations, so
    every draw is bit-identical."""
    try:
        seeds = [operator.index(seed) for seed in seeds]
    except TypeError as exc:
        raise InvalidParameters(f"seeds must be integers: {exc}") from None
    membership, spec = _membership(IcqParams.from_code_params(q, k, N, epsilon))
    if not membership.member and not force:
        raise MembershipFailed(", ".join(membership.failures))
    if membership.theta is None:
        # forced past a failed clause: building the code, or its theta,
        # raises that clause's error
        theta(spec or irreducible_cyclic_code(q, k, N))
    cosets, chi, gammas = _formula_inputs(spec)
    reference, exact_weights = _exact_spectrum(spec, cosets, chi, gammas)
    d, divisor = len(gammas) + 1, q ** (membership.theta - 1)
    rng = random.Random()
    reseed, rand = super(random.Random, rng).seed, rng.random
    lo = -epsilon
    # blocks of trials keep the draw and S-value arrays near _BLOCK_CELLS
    # values each, however many trials there are
    step = max(1, _BLOCK_CELLS // (d + len(cosets)))
    reports = []
    for start in range(0, len(seeds), step):
        block = seeds[start:start + step]
        u = np.empty((len(block), d - 1))
        for i, seed in enumerate(block):
            base = seed * 100003
            u[i] = [reseed(base + a) or rand() for a in range(1, d)]
        noisy = gammas + (lo + (epsilon - lo) * u)
        # stacked matvecs: the same product per trial as a 1-D phase vector
        rounded = np.rint(_s_values(spec, chi, noisy[:, :, None])[..., 0].real / divisor)
        as_reference = (rounded * divisor == exact_weights).all(axis=1)
        for seed, errors, row, same in zip(block, (noisy - gammas).tolist(),
                                           rounded, as_reference.tolist()):
            if same:
                recovered = WeightSpectrum(dict(reference.counts), spec.n)
            else:
                recovered = _tally(spec, [int(w) * divisor for w in row], cosets)
            reports.append(PipelineReport(
                q=spec.q, k=spec.k, N=spec.N, n=spec.n,
                epsilon=epsilon, seed=seed,
                theta=membership.theta, epsilon_bound=membership.epsilon_bound,
                d=d, num_cosets=len(cosets),
                oracle_calls=d - 1,
                injected_errors=errors,
                recovered_spectrum=recovered,
                exact=recovered.counts == reference.counts,
            ))
    return reports
