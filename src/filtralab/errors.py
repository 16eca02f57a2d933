"""Exception taxonomy shared by all modules.

Exit-code mapping used by the CLI: any FiltralabError -> 2, statistical failure -> 1.
"""


class FiltralabError(Exception):
    """Base class for all library errors."""


class ConfigurationError(FiltralabError, ValueError):
    """Invalid grid, config value, or CLI usage."""


class DomainError(FiltralabError, ValueError):
    """Input outside the mathematical domain of an operation."""


class DataError(FiltralabError, ValueError):
    """Inconsistent input data (e.g. conflicting overlap drifts)."""


class CoverageError(FiltralabError, ValueError):
    """A union-of-intervals precondition failed; carries a witness point."""

    def __init__(self, message: str, witness: float | None = None):
        super().__init__(message)
        self.witness = witness


class SingularityError(FiltralabError, ArithmeticError):
    """A drift denominator vanished inside its declared window."""


class InsufficientSampleError(FiltralabError, ValueError):
    """Too few paths for a statistically meaningful estimate."""


class InternalConsistencyError(FiltralabError, RuntimeError):
    """A structural invariant failed; signals violated input assumptions."""
