"""Numerical estimators of the small-time Pareto index.

Four asymptotic ratios characterize the limit index: the exponent over
log s at infinity (S5), log CDF over log x at zero (S6), the jump tail
over log x at zero (S7), and log density over log x at zero (S8, valid
for monotone densities).  Each estimator evaluates its ratio on a log
grid and extrapolates with an affine model in the reciprocal log
abscissa, which matches the error structure of every closed-form member
of the catalog; the theory supplies only the limit, not a rate.

The generalized variant replaces -log with a user-supplied slowly
varying L and extrapolates in 1/L.  Divergence (the index-infinity
case) and degeneracy (limit at 1, or the null subordinator) are
reported as verdicts, not estimates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    GRID_TIMES, NONNEGATIVE, NOT_NULL, TIMES, LaplaceExponent, LevyTail, checks, has, lst_from_cdf,
)
from .errors import InvalidParameterError, NumericalFailure

__all__ = [
    "CRITERIA",
    "VERDICTS",
    "log_grid",
    "LimitEstimate",
    "estimate_gamma_s5",
    "estimate_gamma_s6",
    "estimate_gamma_s7",
    "estimate_gamma_s8",
    "estimate_gamma_general",
    "grid_deviations",
    "check_s2",
    "check_sandwich_ol",
    "check_sandwich_ol2",
    "estimate_gamma",
    "estimate_all",
    "detect_limit",
    "SandwichViolation",
]

# every verdict an estimate can carry
VERDICTS = ("converged", "degenerate", "diverged")

# criterion -> (the model surface its estimator reads, the estimator's name here)
CRITERIA = {
    "S5": ("phi", "estimate_gamma_s5"), "S6": ("cdf1", "estimate_gamma_s6"),
    "S7": ("tail", "estimate_gamma_s7"), "S8": ("density1", "estimate_gamma_s8"),
    "GL": ("phi", "estimate_gamma_general"),
}

_DEFAULT_LOG_S = np.linspace(np.log(1e2), np.log(1e12), 12)
_DEFAULT_LOG_X = np.linspace(np.log(1e-2), np.log(1e-12), 12)
_DEFAULT_GL_LOG_S = np.linspace(np.log(1e-13), np.log(1e-26), 12)


def log_grid(criterion, grid=None, L=None):
    """The criterion's log grid as a float array (its default when ``grid`` is None), checked.

    Raises ``InvalidParameterError`` unless the grid meets the criterion's
    rule: S5 takes at least 6 increasing log-s points reaching log s >= 20;
    S6, S7 and S8 at least 2 (for an affine fit) decreasing log-x points
    reaching log x <= -20; GL at least 2 decreasing log-s points on which
    ``L`` (a function of log s), when given, is positive and decreasing.
    """
    if criterion == "S5":
        grid = np.asarray(_DEFAULT_LOG_S if grid is None else grid, dtype=float)
        if grid.size < 6 or np.any(np.diff(grid) <= 0) or grid.max() < 20.0:
            raise InvalidParameterError("need >= 6 increasing log-s points reaching log s >= 20")
    elif criterion == "GL":
        grid = np.asarray(_DEFAULT_GL_LOG_S if grid is None else grid, dtype=float)
        if grid.size < 2 or np.any(np.diff(grid) >= 0):
            raise InvalidParameterError("need >= 2 decreasing log-s points (s -> 0)")
        if L is not None:
            l_vals = L(grid)
            if np.any(np.diff(l_vals) <= 0) or np.any(l_vals <= 0):
                raise InvalidParameterError(
                    "L must be positive and decreasing toward s = 0 on the grid")
    else:
        grid = np.asarray(_DEFAULT_LOG_X if grid is None else grid, dtype=float)
        if grid.size < 2 or np.any(np.diff(grid) >= 0) or grid.min() > -20.0:
            raise InvalidParameterError("need >= 2 decreasing log-x points reaching log x <= -20")
    return grid


@dataclass(frozen=True)
class LimitEstimate:
    """One criterion's evaluation: raw ratios, extrapolated index, verdict.

    ``gamma_hat`` is finite exactly when ``verdict == "converged"``;
    ``residual`` is the RMS deviation of the affine fit.
    """

    criterion: str
    grid: np.ndarray
    ratios: np.ndarray
    gamma_hat: float
    residual: float
    verdict: str

    def to_dict(self):
        return {
            "criterion": self.criterion,
            "grid": [float(g) for g in self.grid],
            "ratios": [float(r) for r in self.ratios],
            "gamma_hat": None if not np.isfinite(self.gamma_hat) else float(self.gamma_hat),
            "residual": float(self.residual),
            "verdict": self.verdict,
        }


def _affine_fit(w, r):
    design = np.column_stack([np.ones_like(w), w])
    coef, *_ = np.linalg.lstsq(design, r, rcond=None)
    resid = r - design @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    return float(coef[0]), rms


def detect_limit(values_fn):
    """Extrapolated limit of a ratio sequence as s -> infinity, or None when it degenerates.

    ``values_fn`` maps the S5 log-s grid to the ratios' float array, and the
    fit is affine in 1/log s.  Only the deepest grid points enter the fit: the
    ratios here can carry power-law corrections that would bias an affine
    fit over the shallow region, while near the limit they are already flat.
    """
    grid = _DEFAULT_LOG_S
    ratios = values_fn(grid)
    if not np.all(np.isfinite(ratios)):
        return None
    if np.all(np.diff(ratios) > 0) and ratios[-1] > 10.0 * max(abs(ratios[0]), 1e-300):
        return None
    deep = slice(-4, None)
    intercept, _ = _affine_fit(1.0 / grid[deep], ratios[deep])
    if intercept <= 0.01 or (ratios[0] > 0 and ratios[-1] < 0.6 * ratios[0]):
        return None
    return float(intercept)


def _classify(ratios, intercept, shift):
    if not np.all(np.isfinite(ratios)) or not np.isfinite(intercept):
        return "diverged"
    if np.max(np.abs(ratios)) < 1e-12:
        return "degenerate"
    r_first, r_last = ratios[0], ratios[-1]
    diffs = np.diff(ratios)
    if r_last > 10.0 * max(abs(r_first), 1e-300) and np.all(diffs > 0):
        return "diverged"
    if shift != 0.0:
        # shifted criteria admit any finite ratio limit; only the shifted
        # index itself has to land positive
        return "converged" if intercept + shift > 0 else "degenerate"
    if r_first > 0 and r_last < 0.6 * r_first and np.all(diffs < 0):
        # ratios melt away toward zero: the limit at 1, not a Pareto index
        return "degenerate"
    if intercept <= 0:
        return "degenerate" if r_last <= r_first else "diverged"
    return "converged"


def _finish(criterion, grid, ratios, w, shift=0.0):
    intercept, rms = _affine_fit(w, ratios)
    verdict = _classify(ratios, intercept, shift)
    gamma_hat = intercept + shift if verdict == "converged" else np.nan
    return LimitEstimate(
        criterion=criterion,
        grid=grid,
        ratios=ratios,
        gamma_hat=gamma_hat,
        residual=rms,
        verdict=verdict,
    )


def _exponent_ratios(criterion, grid, values, scale):
    """The estimate from an exponent's ``values`` over ``scale`` on ``grid``, fit affine in
    1/scale; degenerate when the exponent is null there (every value below 1e-15)."""
    if np.all(np.abs(values) < 1e-15):
        return LimitEstimate(criterion, grid, np.zeros_like(grid), np.nan, 0.0, "degenerate")
    return _finish(criterion, grid, values / scale, 1.0 / scale)


def estimate_gamma_s5(phi: LaplaceExponent, log_s_grid=None):
    """Index from the exponent: Phi(s)/log(s) -> gamma as s -> infinity."""
    grid = log_grid("S5", log_s_grid)
    return _exponent_ratios("S5", grid, phi.eval_log(grid), grid)


def estimate_gamma_s6(cdf1, log_x_grid=None):
    """Index from the marginal: log F(x)/log(x) -> gamma as x -> 0."""
    grid = log_grid("S6", log_x_grid)
    f_vals = cdf1(np.exp(grid))
    positive = f_vals > 0.0
    if (kept := np.count_nonzero(positive)) < 2:
        raise NumericalFailure(f"CDF underflowed to zero on all but {kept} of the grid's "
                               f"{grid.size} points; an affine fit needs 2", op="estimate_gamma_s6")
    if kept < grid.size:
        warnings.warn("CDF underflowed on part of the grid; shrinking", stacklevel=2)
        grid, f_vals = grid[positive], f_vals[positive]
    if np.all(f_vals >= 1.0):
        return LimitEstimate("S6", grid, np.zeros_like(grid), np.nan, 0.0, "degenerate")
    ratios = np.log(f_vals) / grid
    return _finish("S6", grid, ratios, -1.0 / grid)


def estimate_gamma_s7(tail: LevyTail, log_x_grid=None):
    """Index from the jump tail: nu_bar(x)/(-log x) -> gamma as x -> 0."""
    grid = log_grid("S7", log_x_grid)
    t_vals = tail.tail(np.exp(grid))
    ratios = t_vals / (-grid)
    return _finish("S7", grid, ratios, -1.0 / grid)


def estimate_gamma_s8(density1, log_x_grid=None):
    """Index from the marginal density: 1 + limit of log f(x)/log(x) at 0."""
    grid = log_grid("S8", log_x_grid)
    f_vals = density1(np.exp(grid))
    if np.any(f_vals <= 0.0):
        raise NumericalFailure("density not positive on the grid", op="estimate_gamma_s8")
    ratios = np.log(f_vals) / grid
    return _finish("S8", grid, ratios, -1.0 / grid, shift=1.0)


def estimate_gamma_general(phi: LaplaceExponent, L, log_s_grid=None):
    """Generalized index: Phi(1/s)/L(s) -> gamma as s -> 0.

    ``L`` takes log s.  L must be decreasing in s with L(s) -> infinity at
    0 and slowly varying there (the caller asserts slow variation; only
    monotonicity on the grid is checked).  Extrapolation is affine in 1/L(s).
    """
    grid = log_grid("GL", log_s_grid, L)
    return _exponent_ratios("GL", grid, phi.eval_log(-grid), L(grid))


@checks(t_grid=GRID_TIMES, u_grid=TIMES)
def grid_deviations(at, target, t_grid, u_grid):
    """max over u of |at(t, log(u)/t) - target(u)| for each t of ``t_grid``, largest t first.

    ``at(t, ell)`` evaluates the t-indexed function at log-argument ell,
    so the probe u**(1/t) never has to be formed and t may go down to
    ``TIME_FLOOR``, below which log(u)/t overflows for some finite u;
    ``target(u)`` is its limit on the array of ``u_grid``.  The grids must
    pass ``GRID_TIMES`` and ``TIMES``, and are checked before anything is
    evaluated.  Returns the list as ``deviations`` and the smallest t's as
    ``statistic``.
    """
    t_arr = np.sort(np.asarray(t_grid, dtype=float))[::-1]
    u_arr = np.asarray(u_grid, dtype=float)
    limit = target(u_arr)
    log_u = np.log(u_arr)
    deviations = np.empty_like(t_arr)
    for k, t in enumerate(t_arr):
        deviations[k] = np.max(np.abs(at(t, log_u / t) - limit))
    return {"statistic": float(deviations[-1]), "deviations": deviations.tolist()}


@checks(model=(NOT_NULL,), t_grid=GRID_TIMES, u_grid=TIMES)
def check_s2(model, limit_cdf, t_grid=None, u_grid=None):
    """Transform-level limit check: t*Phi(u**(1/t)) vs -log(1 - F*(u)).

    Returns the ``grid_deviations`` of t*Phi at log-argument log(u)/t; the
    sequence should decrease toward zero.
    """

    def target(u):
        f_star = limit_cdf(u)
        if np.any(f_star >= 1.0):
            raise InvalidParameterError("u grid hits F* = 1; deviation undefined there")
        return -np.log1p(-f_star)

    return grid_deviations(
        lambda t, ell: t * model.phi.eval_log(ell), target,
        [0.1, 0.03, 0.01, 0.003, 0.001] if t_grid is None else t_grid,
        [1.25, 1.5, 2.0, 3.0, 5.0, 8.0] if u_grid is None else u_grid)


@dataclass(frozen=True)
class SandwichViolation:
    z: float
    s: float
    side: str
    excess: float


def _psi_values(cdf1, phi, s_values):
    if phi is not None:
        return np.exp(-phi.eval(s_values))
    return np.array([lst_from_cdf(cdf1, float(s)) for s in s_values])


def _violations(z_arr, points, bounds, tol):
    """The grid points where a value leaves its bounds by more than tol, z-major.

    ``bounds(z)`` gives (lower, value, upper) over ``points`` at each z of
    ``z_arr``; at each point the lower side is checked before the upper.
    """
    violations = []
    for z in z_arr:
        for p, lo, v, up in zip(points, *bounds(z)):
            if v < lo - tol:
                violations.append(SandwichViolation(float(z), float(p), "lower", float(lo - v)))
            if v > up + tol:
                violations.append(SandwichViolation(float(z), float(p), "upper", float(v - up)))
    return violations


@checks(tol=NONNEGATIVE)
def check_sandwich_ol(cdf1, phi=None, z_grid=None, s_grid=None, tol=1e-9):
    """Verify F(z/s) e^{-z} <= psi(s) <= F(z/s)(1 - e^{-z}) + e^{-z} on a grid.

    psi comes from the exponent when available, else from quadrature of
    the CDF.  Returns the list of violating grid points (expected empty:
    the inequality is exact, tol only absorbs roundoff).
    """
    z_arr = np.asarray(np.geomspace(0.1, 10.0, 12) if z_grid is None else z_grid, dtype=float)
    s_arr = np.asarray(np.geomspace(1.0, 1e4, 12) if s_grid is None else s_grid, dtype=float)
    psi = _psi_values(cdf1, phi, s_arr)

    def bounds(z):
        ez = np.exp(-z)
        f_vals = cdf1(z / s_arr)
        return f_vals * ez, psi, f_vals * (1.0 - ez) + ez

    return _violations(z_arr, s_arr, bounds, tol)


@checks(tol=NONNEGATIVE)
def check_sandwich_ol2(cdf1, phi=None, z_grid=None, x_grid=None, tol=1e-9):
    """Verify (e^z psi(z/x) - 1)/(e^z - 1) <= F(x) <= psi(z/x) e^z on a grid."""
    z_arr = np.asarray(np.geomspace(0.5, 5.0, 10) if z_grid is None else z_grid, dtype=float)
    x_arr = np.asarray(np.geomspace(1e-3, 1.0, 12) if x_grid is None else x_grid, dtype=float)
    if np.any(z_arr < 1e-3):
        raise InvalidParameterError("z below 1e-3 makes the bounds degenerate")

    def bounds(z):
        ez = np.exp(z)
        psi = _psi_values(cdf1, phi, z / x_arr)
        return (ez * psi - 1.0) / (ez - 1.0), cdf1(x_arr), psi * ez

    return _violations(z_arr, x_arr, bounds, tol)


def estimate_gamma(model, criterion, grid=None, L=None):
    """The ``criterion`` estimate of the model's index, on the surface ``CRITERIA`` names.

    The estimator is looked up in this module by name at call time, and
    gets the log ``grid`` (its default when None); GL also gets ``L``, a
    function of log s, which it needs.  The other criteria ignore ``L``.
    """
    surface, name = CRITERIA[criterion]
    has(surface).require(model=model)
    if criterion == "GL" and L is None:
        raise InvalidParameterError("criterion GL needs an L, a function of log s")
    args = (L, grid) if criterion == "GL" else (grid,)
    return globals()[name](getattr(model, surface), *args)


def estimate_all(model):
    """``estimate_gamma`` of every S-criterion the model's surfaces support; keyed by criterion id.

    GL is left out: it needs an L.
    """
    return {c: estimate_gamma(model, c) for c, (surface, _) in CRITERIA.items()
            if c != "GL" and getattr(model, surface) is not None}
