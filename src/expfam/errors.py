"""Exception hierarchy shared by all expfam modules."""


class ExpfamError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ExpfamError, ValueError):
    """A parameter lies outside its admissible domain."""


class SupportError(ExpfamError, ValueError):
    """An observation lies outside the support of the distribution."""


class NonConvergenceError(ExpfamError, RuntimeError):
    """An iterative numerical procedure failed to reach its tolerance."""


class NonNormalizableError(ExpfamError, RuntimeError):
    """A predictive density cannot be normalized (diverging denominator)."""


class DegenerateDataError(ExpfamError, ValueError):
    """The data are degenerate for the requested procedure.

    The canonical case is a Poisson-exponential sample consisting entirely
    of zeros: the mean sufficient statistic then sits on the boundary of
    the mean domain and neither the MLE nor the posterior exists.
    """
