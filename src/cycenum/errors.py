"""Exception hierarchy for cycenum.

Every domain failure raises a subclass of CycenumError; the CLI maps any
of these to exit code 1 and prints the class name on stderr.
"""


class CycenumError(Exception):
    """Base class for all cycenum domain errors."""


class NotPrime(CycenumError):
    """The base field characteristic is not a prime number."""


class TableCapExceeded(CycenumError):
    """q**k exceeds the configured trace-table cap."""


class NoIrreducibleFound(CycenumError):
    """No irreducible modulus was found; indicates an internal bug."""


class FieldMismatch(CycenumError):
    """Operand is not an element of the expected field."""


class LogOfZero(CycenumError):
    """Discrete logarithm of the zero element requested."""


class NotCoprime(CycenumError):
    """Arguments required to be coprime are not."""


class DivideByZeroPoly(CycenumError):
    """Polynomial division by the zero polynomial."""


class OrderMismatch(CycenumError):
    """The field contains no element of the required multiplicative order."""


class InvalidParameters(CycenumError):
    """Code parameters violate a divisibility or order precondition."""


class NoDegreeKFactor(CycenumError):
    """No irreducible degree-k check polynomial divides x**n - 1."""


class PhaseOfZero(CycenumError):
    """Phase angle of a (near-)zero complex value requested."""


class NonRealResult(CycenumError):
    """A quantity that must be real carries a large imaginary residue."""


class NonIntegerWeight(CycenumError):
    """A computed word weight is not within tolerance of an integer."""


class SpectrumMismatch(CycenumError):
    """A spectrum or factorization fails a consistency check (counts or
    products do not add up)."""


class NonIntegerDualCoefficient(CycenumError):
    """MacWilliams transform produced an invalid dual coefficient."""


class NonIntegralTheta(CycenumError):
    """Minimum digit sum is not divisible by q - 1."""


class MembershipFailed(CycenumError):
    """Code/epsilon pair is not a member of the recoverable class."""
