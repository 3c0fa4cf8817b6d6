"""Small-time limit laboratory for driftless Levy subordinators.

Builds subordinator models from a catalog, estimates the Pareto index of
the power-transformed marginal through four equivalent asymptotic
criteria plus a generalized slowly-varying variant, applies the model
algebra (tilting, subordination, sums, drift), and verifies every limit
statement by seeded Monte Carlo against closed-form targets.
"""

from .errors import InvalidParameterError, NumericalFailure, SubordlabError

__version__ = "0.1.0"

__all__ = [
    "SubordlabError",
    "InvalidParameterError",
    "NumericalFailure",
    "__version__",
]
