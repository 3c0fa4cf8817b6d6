"""Small-time limit laboratory for driftless Levy subordinators.

Builds subordinator models from a catalog, estimates the Pareto index of
the power-transformed marginal through four equivalent asymptotic
criteria plus a generalized slowly-varying variant, applies the model
algebra (tilting, subordination, sums, drift), and verifies every limit
statement by seeded Monte Carlo against closed-form targets.
"""

from .core import (
    ExponentialLaw,
    LaplaceExponent,
    LevyTail,
    ParetoLaw,
    SubordinatorModel,
    lst_from_cdf,
    pareto_cdf,
    pareto_quantile,
)
from .errors import (
    InvalidParameterError,
    NumericalFailure,
    SubordlabError,
)

__version__ = "0.1.0"

__all__ = [
    "LaplaceExponent",
    "LevyTail",
    "SubordinatorModel",
    "ParetoLaw",
    "ExponentialLaw",
    "pareto_cdf",
    "pareto_quantile",
    "lst_from_cdf",
    "SubordlabError",
    "InvalidParameterError",
    "NumericalFailure",
    "__version__",
]
