"""Exact integer helpers: primality, factorization, divisors, totient.

Everything here is deterministic trial division; inputs are desk scale
(at most a few million), so no probabilistic shortcuts are needed.
"""

from .errors import InvalidParameters, NotPrime


def is_prime(n: int) -> bool:
    """Deterministic primality check by trial division."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_prime(n: int) -> int:
    if not is_prime(n):
        raise NotPrime(f"{n} is not prime")
    return n


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}, n >= 1."""
    if n < 1:
        raise InvalidParameters("factorize expects n >= 1")
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def divisors(n: int) -> list[int]:
    """All positive divisors of n in increasing order."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi
