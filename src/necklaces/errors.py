"""Exception types shared across the package."""


class NecklaceError(Exception):
    """Base class for all package-specific errors."""


class InvalidBlock(NecklaceError):
    """A fixed-width bit block decodes to a value outside the alphabet."""


class LayerMismatch(NecklaceError):
    """Two branching programs cannot be combined layer by layer."""


class NotADivisor(NecklaceError):
    """A period argument does not divide the word length."""


class TooBig(NecklaceError):
    """Input exceeds a guardrail meant to keep exhaustive work honest."""


class NotBinary(NecklaceError):
    """Operation requires alphabet size 2."""


class NotPrime(NecklaceError):
    """Operation requires a prime word length."""


class ConstantString(NecklaceError):
    """Operation is undefined on constant words."""


class NotAperiodic(NecklaceError):
    """Word was expected to have full fundamental period."""


class ConjugatesCollide(NecklaceError):
    """Field element lies in a proper subfield, so its conjugates repeat."""


class CoefficientNotInBase(NecklaceError):
    """A polynomial coefficient failed to project into the base field."""


class NotInBaseField(NecklaceError):
    """A matrix entry that must lie in the base field does not."""


class BadFactorization(NecklaceError):
    """Supplied prime factorization fails the product or primality check."""


class ZeroColumn(NecklaceError):
    """Parity-check columns are indexed by nonzero field elements only."""


class InvariantViolated(NecklaceError):
    """A result failed an internal consistency check: a bug, not bad input."""


class InvalidAdvice(NecklaceError):
    """Advice file is malformed or fails verification."""
