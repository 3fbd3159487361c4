"""Exponential-family inference toolkit.

Cumulant/Bregman geometry for four concrete natural exponential families,
renormalized saddle-point profiles, CNML and Jeffreys-posterior prediction,
one-sided credible/confidence intervals and Monte Carlo coverage checks.
"""

from .core import Family, ObservationBatch, TAU
from .errors import (
    DegenerateDataError,
    DomainError,
    ExpfamError,
    NonConvergenceError,
    NonNormalizableError,
    SupportError,
)
from .families import (
    ConjugatePair,
    GammaFamily,
    GaussianLocationFamily,
    InverseGaussianFamily,
    PoissonExponentialFamily,
    conjugate_family,
    poisson_exponential_posterior,
)
from .distributions import (
    GammaPosterior,
    InverseGaussianDist,
    PoissonExponentialDist,
)
from .saddlepoint import (
    SaddlepointProfile,
    exactness_report,
    renormalize,
    saddlepoint_unnormalized,
)
from .prediction import (
    CnmlPredictor,
    JeffreysPredictor,
    PlugInPredictor,
    PredictiveValue,
    equivalence_check,
    lemma1_constancy,
    make_predictor,
    regret,
)
from .intervals import (
    CoverageReport,
    DivergenceBallRegion,
    GammaRateInterval,
    GaussianDivergenceBall,
    IntervalResult,
    PoissonExponentialRateInterval,
    coverage_simulation,
    gamma_confidence,
    gamma_credible,
    gaussian_divergence_ball,
    interval_construction,
    poisson_exp_confidence,
    poisson_exp_credible,
)
from .verify import VerificationReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "TAU",
    "Family",
    "ObservationBatch",
    "GammaFamily",
    "GaussianLocationFamily",
    "InverseGaussianFamily",
    "PoissonExponentialFamily",
    "ConjugatePair",
    "conjugate_family",
    "poisson_exponential_posterior",
    "GammaPosterior",
    "InverseGaussianDist",
    "PoissonExponentialDist",
    "SaddlepointProfile",
    "saddlepoint_unnormalized",
    "renormalize",
    "exactness_report",
    "JeffreysPredictor",
    "CnmlPredictor",
    "PlugInPredictor",
    "PredictiveValue",
    "make_predictor",
    "regret",
    "lemma1_constancy",
    "equivalence_check",
    "IntervalResult",
    "DivergenceBallRegion",
    "CoverageReport",
    "GammaRateInterval",
    "PoissonExponentialRateInterval",
    "GaussianDivergenceBall",
    "gamma_credible",
    "gamma_confidence",
    "gaussian_divergence_ball",
    "poisson_exp_credible",
    "poisson_exp_confidence",
    "coverage_simulation",
    "interval_construction",
    "VerificationReport",
    "run_suite",
    "ExpfamError",
    "DomainError",
    "SupportError",
    "NonConvergenceError",
    "NonNormalizableError",
    "DegenerateDataError",
    "__version__",
]
