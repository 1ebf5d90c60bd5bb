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
from dataclasses import asdict, dataclass

import numpy as np

from .codes import CodeSpec, irreducible_cyclic_code
from .cosets import coset_count_formula, multiplicative_order
from .errors import InvalidParameters, MembershipFailed, NonIntegralTheta
from .field import _check_table_cap
from .intmath import check_prime
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


def _theta(q: int, n: int, N: int) -> int:
    best = min(digit_sum(j * n, q) for j in range(1, N + 1))
    if best % (q - 1) != 0:
        raise NonIntegralTheta(f"min digit sum {best} is not divisible by q - 1 = {q - 1}")
    return best // (q - 1)


def theta(spec: CodeSpec) -> int:
    """Divisibility exponent: min over 0 < j <= N of digit_sum(j*n)/(q-1).

    Every nonzero weight of the code is divisible by q**(theta-1). The
    minimum digit sum must itself be divisible by q-1; a violation raises
    NonIntegralTheta rather than truncating.
    """
    return _theta(spec.q, spec.n, spec.N)


def _bound(q: int, k: int, theta_val: int) -> float:
    return q ** (theta_val - 1) / (4.0 * math.sqrt(q**k))


def epsilon_bound(spec: CodeSpec) -> float:
    """Largest phase error that still guarantees exact recovery."""
    return _bound(spec.q, spec.k, theta(spec))


def _check_epsilon(epsilon: float) -> None:
    # noise is drawn by random.uniform(-epsilon, epsilon), which scales
    # by 2 * epsilon: that must be finite, so NaN and inf are refused too
    if not (epsilon > 0 and math.isfinite(2 * epsilon)):
        raise InvalidParameters(f"epsilon = {epsilon} must be positive and "
                                "at most half the largest float")


@dataclass(frozen=True)
class IcqParams:
    """Parameters of a candidate code: n = (q**k - 1)/N, where the paper's
    class has N = alpha * k**s."""

    q: int
    k: int
    N: int
    epsilon: float

    def __post_init__(self):
        if self.N <= 0:
            raise InvalidParameters(f"N = alpha * k^s = {self.N} is not a positive integer")
        _check_epsilon(self.epsilon)


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

    to_dict = asdict


def icq_membership(params: IcqParams) -> MembershipReport:
    """Check the three membership clauses, returning all diagnostics.

    Failures are decisions, not errors: n integral, ord_n(q) = k, and
    epsilon within the recovery bound are each reported separately. Each
    clause is integer arithmetic on q, k and N, theta included, so no
    field is built; q must be prime once the n and order clauses pass.
    """
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
    theta_val = bound = epsilon_ok = None
    if order_ok:
        check_prime(q)
        try:
            theta_val = _theta(q, n, N)
        except NonIntegralTheta:
            failures.append("NonIntegralTheta")
        else:
            bound = _bound(q, k, theta_val)
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
    _check_epsilon(epsilon)
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
        return {**asdict(self), "recovered_spectrum": self.recovered_spectrum.to_dict()}


_BLOCK_CELLS = 1 << 16


def run_pipeline_trials(q: int, k: int, N: int, epsilon: float, seeds,
                        force: bool = False) -> list[PipelineReport]:
    """One noisy recovery run per seed, with the code built and its theta
    computed only once. Each run perturbs the exact phases, evaluates the
    weight formula per leader, rounds to multiples of q**(theta-1),
    tallies, and compares to the noiseless spectrum; report.exact says
    whether they matched.

    Raises MembershipFailed when the epsilon/parameter check fails and
    force is not set. Forced past a failed n, order or theta clause, it
    raises InvalidParameters or NonIntegralTheta, as it does for a seed
    that is not an integer.

    Phase a of trial seed is noisy_gauss_oracle(gamma_a, epsilon,
    seed*100003 + a): the C seed under Random.seed gets that int
    unchanged, and lo + span*u are uniform's own float operations, so
    every draw is bit-identical."""
    try:
        seeds = [operator.index(seed) for seed in seeds]
    except TypeError as exc:
        raise InvalidParameters(f"seeds must be integers: {exc}") from None
    membership = icq_membership(IcqParams(q, k, N, epsilon))
    if not membership.member and not force:
        raise MembershipFailed(", ".join(membership.failures))
    # forced past a failed clause, building the code, or its theta,
    # raises that clause's error
    spec = irreducible_cyclic_code(q, k, N)
    if membership.theta is None:
        theta(spec)
    part, chi, gammas = _formula_inputs(spec)
    reference, exact_weights = _exact_spectrum(spec, part, chi, gammas)
    num_cosets = coset_count_formula(N, q)
    d, divisor = len(gammas) + 1, q ** (membership.theta - 1)
    rng = random.Random()
    reseed, rand = super(random.Random, rng).seed, rng.random
    lo = -epsilon
    # blocks of trials keep the draw and S-value arrays near _BLOCK_CELLS
    # values each, however many trials there are
    step = max(1, _BLOCK_CELLS // (d + len(part.cosets)))
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
                recovered = _tally(spec, [int(w) * divisor for w in row], part)
            reports.append(PipelineReport(
                q=spec.q, k=spec.k, N=spec.N, n=spec.n,
                epsilon=epsilon, seed=seed,
                theta=membership.theta, epsilon_bound=membership.epsilon_bound,
                d=d, num_cosets=num_cosets,
                oracle_calls=d - 1,
                injected_errors=errors,
                recovered_spectrum=recovered,
                exact=recovered.counts == reference.counts,
            ))
    return reports
