"""Domain errors raised across the package.

Everything derives from QkdError so the CLI can map any domain failure to a
single exit code. Names state the violated condition, not the call site.
"""


class QkdError(Exception):
    """Base class for all domain errors in quditkd."""


class NonPrimeDimension(QkdError):
    """An operation that needs a complete set of mutually unbiased bases was
    asked for a composite dimension."""


class InvalidDistribution(QkdError):
    """A probability vector has negative entries or does not sum to one."""


class OutOfRange(QkdError):
    """A scalar parameter lies outside its documented domain."""


class IncompleteStatistics(QkdError):
    """Spectrum reconstruction was given error statistics without exactly
    one row per required basis."""


class NegativeSpectrum(QkdError):
    """Reconstructed Bell-diagonal weights are negative beyond tolerance,
    i.e. the supplied statistics are mutually inconsistent."""


class DegenerateSample(QkdError):
    """A statistical bound was requested for an empty sample."""


class InfeasibleParams(QkdError):
    """Free security parameters exceed the total failure-probability budget."""


class DimensionTooLarge(QkdError):
    """A dimension exceeds a fixed cap: the exact joint-outcome tables
    (d <= 11, `EXACT_DIM_CAP`) or the simulator's chi-square table."""
