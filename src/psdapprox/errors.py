"""Exception hierarchy shared across the package."""


class PsdApproxError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidFamilyError(PsdApproxError):
    """Family parameters produce a negative mass inside the claimed support."""


class NonNormalizableError(PsdApproxError):
    """Series of unnormalized masses diverges; no probability family exists."""


class UndefinedMomentsError(PsdApproxError):
    """The Panjer moments ``a/(1-b)`` and ``a/(1-b)^2`` do not hold: ``b >= 1``,
    or a ``max_support`` cuts the recursion."""


class LemmaConditionError(PsdApproxError):
    """Monotonicity condition of the forward-difference lemma fails.

    Carries the offending support point in ``k``.
    """

    def __init__(self, k, message=None):
        self.k = k
        super().__init__(message or f"monotonicity condition violated at k={k}")


class PreconditionError(PsdApproxError):
    """A stated validity condition of a bound is not met (e.g. minimum n)."""


class MomentMatchError(PsdApproxError):
    """Target family mean does not match the mean of the dependent sum."""

    def __init__(self, target_mean, sum_mean, message=None):
        self.target_mean = target_mean
        self.sum_mean = sum_mean
        super().__init__(
            message
            or f"first moments differ: target {target_mean!r} vs sum {sum_mean!r}"
        )


class NBFitError(PsdApproxError):
    """Two-moment negative binomial fit impossible (variance <= mean)."""


class EnumerationLimitError(PsdApproxError):
    """Exact enumeration refused: outcome space exceeds the certified cutoff."""


class UnavailableError(PsdApproxError):
    """No provider or enumerator can produce the requested quantity."""
