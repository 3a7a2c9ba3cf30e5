"""Exception types shared across the package."""

__all__ = [
    "CacheError",
    "CertificationError",
    "ConstraintInapplicableError",
    "DomainError",
    "IllDefinedHomomorphismError",
    "InvalidModulusError",
    "LemmaNotApplicableError",
    "NotUniqueFactorizationError",
    "OracleDisagreementError",
    "PreconditionError",
    "ResourceLimitError",
    "ZerosumsError",
]


class ZerosumsError(Exception):
    """Base class for errors raised by this package."""


class InvalidModulusError(ZerosumsError, ValueError):
    """A cyclic modulus below 2 was supplied."""


class DomainError(ZerosumsError, ValueError):
    """An argument lies outside an operation's domain."""


class IllDefinedHomomorphismError(ZerosumsError, ValueError):
    """Generator images are incompatible with the source relations."""


class PreconditionError(ZerosumsError, ValueError):
    """Input violates an operation's precondition."""


class NotUniqueFactorizationError(ZerosumsError):
    """A unique factorization was requested but several exist.

    Carries two distinct factorizations as witnesses when available.
    """

    def __init__(self, message: str, first=None, second=None):
        super().__init__(message)
        self.first = first
        self.second = second


class ResourceLimitError(ZerosumsError, RuntimeError):
    """A configured size, entry, or enumeration cap was exceeded."""


class CacheError(ZerosumsError, OSError):
    """A record could not be written to the cache directory."""


class LemmaNotApplicableError(ZerosumsError, ValueError):
    """The requested bound is undefined for this group shape."""


class ConstraintInapplicableError(ZerosumsError, ValueError):
    """Constraint preconditions on primes or parameters fail."""


class CertificationError(ZerosumsError, RuntimeError):
    """An interval comparison could not be certified at maximum precision."""


class OracleDisagreementError(ZerosumsError, AssertionError):
    """Two independent algorithms disagreed; indicates a bug."""
