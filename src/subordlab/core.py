"""Domain types for driftless subordinators and their small-time limit laws.

A subordinator is described here by up to four interchangeable surfaces:
the Laplace exponent ``Phi``, the jump-intensity tail ``nu_bar``, the
time-1 marginal CDF ``F`` and its density ``f``.  This module holds the
container types plus the numerical bridges between those surfaces
(exponent from a jump density, exponent from a tail, Laplace transform
from a CDF).

Everything is evaluated in log-argument space where it matters: the
small-time statistic probes the exponent at ``s = u**(1/t)``, which
overflows any float for ``t`` below about 0.01, so every exponent carries
an ``eval_log`` map taking ``log s`` directly.

All types are immutable after construction and all operations are pure
functions; instances can be shared freely across threads.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy import integrate

from .errors import InvalidParameterError, NumericalFailure

__all__ = [
    "Check",
    "POSITIVE",
    "NONNEGATIVE",
    "ABOVE_ONE",
    "OPEN_UNIT",
    "TIMES",
    "DISTINCT_TIMES",
    "REQUIRED",
    "declares",
    "LaplaceExponent",
    "LevyTail",
    "SubordinatorModel",
    "ParetoLaw",
    "ExponentialLaw",
    "pareto_cdf",
    "pareto_quantile",
    "phi_from_levy",
    "phi_from_tail",
    "lst_from_cdf",
    "integral",
]

# Largest x with exp(-x) above the float64 subnormal floor; integrands
# weighted by exp(-x) are identically zero past this point.
_EXP_CUTOFF = 745.0

# floats (or paths) per block of every blocked kernel, so that the extra memory
# of a pass over an n-float batch is a few blocks whatever n is:
# - the cutoff compound-Poisson draws, and the exact samplers' arithmetic after
#   their first n-float draw;
# - montecarlo's passes over a batch (the KS statistic, the CSV rows, the
#   masks), and the largest leaf of the summation tree that
#   montecarlo._sparse_sum rebuilds;
# - the Dickman recursion's path blocks: a chunk's two block buffers stay in a
#   2 MB L2, and each draw or ufunc runs long enough between GIL hand-offs for
#   the chunks to overlap.
BLOCK = 1 << 16


class Check(NamedTuple):
    """A rule a value passes when valid(value) holds without raising; cast casts a CLI field."""

    valid: Callable
    requirement: str
    cast: Callable = None

    def passes(self, value):
        try:
            return bool(self.valid(value))
        except (TypeError, ValueError, OverflowError):
            return False

    def require(self, **values):
        """InvalidParameterError naming the first of values that does not pass."""
        for name, value in values.items():
            if not self.passes(value):
                raise InvalidParameterError(f"{name} must be {self.requirement}, got {value!r}")


# the paper's quantities are finite: NaN and infinity fail every number rule
POSITIVE = Check(lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
NONNEGATIVE = Check(lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0")
ABOVE_ONE = Check(lambda v: math.isfinite(v) and v > 1, "a finite number > 1")
OPEN_UNIT = Check(lambda v: 0 < v < 1, "a number in (0, 1)")
# a list of times, or of the u values of a grid; the CLI passes it on as a tuple
TIMES = Check(lambda v: len(v) > 0 and all(POSITIVE.valid(t) for t in v),
              "a non-empty list of finite numbers > 0", tuple)
# times reported one statistic each, keyed by the time: no time twice
DISTINCT_TIMES = Check(lambda v: TIMES.valid(v) and len(set(v)) == len(v),
                       "a non-empty list of distinct finite numbers > 0", tuple)

# the default of an argument or field that must be given
REQUIRED = object()


def declares(name, **rules):
    """Decorator of a model factory: the model's name and a Check per argument.

    The wrapper checks each argument (``Check.require``, in signature order)
    before the factory runs, then sets the model's ``name`` and its ``params``,
    the bound call with defaults.  ``model_name`` and ``fields``, each
    argument's (default or REQUIRED, Check), stay on the factory.
    """

    def decorate(factory):
        sig = inspect.signature(factory)

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            for arg, value in bound.arguments.items():
                rules[arg].require(**{arg: value})
            return replace(factory(*args, **kwargs), name=name, params=dict(bound.arguments))

        wrapper.model_name = name
        wrapper.fields = {arg: (REQUIRED if p.default is p.empty else p.default, rules[arg])
                          for arg, p in sig.parameters.items()}
        return wrapper

    return decorate


@dataclass(frozen=True)
class LaplaceExponent:
    """Bernstein function Phi with Phi(0) = 0, evaluated via log s.

    ``eval_log`` maps ell = log(s) to Phi(exp(ell)) and must stay accurate
    for ell far beyond log(float_max); it is the representation every
    criterion works through.  ``eval`` is the plain-argument view.
    """

    eval_log: Callable[[np.ndarray], np.ndarray]

    def eval(self, s):
        s_arr = np.asarray(s, dtype=float)
        # NaN fails this, as it fails every comparison
        if not np.all(s_arr >= 0):
            raise InvalidParameterError("Laplace exponent argument must be >= 0")
        out = np.zeros_like(s_arr)
        pos = s_arr > 0
        if np.any(pos):
            with np.errstate(divide="ignore"):
                out[pos] = self.eval_log(np.log(s_arr[pos]))
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class LevyTail:
    """Upper tail x -> nu((x, inf)) of a Levy measure on (0, inf).

    ``inverse_tail`` is the generalized inverse used by the cutoff
    compound-Poisson sampler; ``support_upper`` is the least x with
    nu_bar(x) = 0 (``inf`` when the measure has unbounded support).
    """

    tail: Callable[[np.ndarray], np.ndarray]
    inverse_tail: Optional[Callable[[np.ndarray], np.ndarray]] = None
    support_upper: float = np.inf


@dataclass(frozen=True)
class SubordinatorModel:
    """A named driftless subordinator plus whatever surfaces it exposes.

    Only the surfaces a model genuinely has are populated; estimators
    dispatch on availability.  ``log_sampler`` draws the marginal at
    time t as log(Y_t), so that neither the draw nor the downstream power
    transforms underflow.  ``known_gamma`` is the Pareto index of the
    small-time limit when it is known in closed form.  A catalog model
    gets ``name`` and ``params`` from its factory's ``declares``.
    """

    name: str = ""
    phi: Optional[LaplaceExponent] = None
    tail: Optional[LevyTail] = None
    cdf1: Optional[Callable] = None
    density1: Optional[Callable] = None
    log_sampler: Optional[Callable] = None
    levy_density: Optional[Callable] = None
    known_gamma: Optional[float] = None
    params: dict = field(default_factory=dict)

    def describe(self):
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.name}({inner})"


def pareto_cdf(gamma, x):
    """CDF of the Pareto law on [1, inf): 1 - x**(-gamma) for x >= 1."""
    POSITIVE.require(gamma=gamma)
    # fmax sends NaN and -inf to 1 (CDF 0) and keeps +inf (CDF 1)
    x_arr = np.asarray(x, dtype=float)
    out = np.fmax(x_arr, 1.0, out=np.empty_like(x_arr))
    np.log(out, out=out)
    out *= -gamma
    np.expm1(out, out=out)
    np.negative(out, out=out)
    return out if out.ndim else float(out)


def pareto_quantile(gamma, p):
    """Inverse of ``pareto_cdf``: (1-p)**(-1/gamma) on p in [0, 1)."""
    POSITIVE.require(gamma=gamma)
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr < 0) or np.any(p_arr > 1):
        raise InvalidParameterError("probability must lie in [0, 1]")
    if np.any(p_arr == 1.0):
        raise InvalidParameterError("quantile unbounded at p = 1")
    out = np.exp(-np.log1p(-p_arr) / gamma)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ParetoLaw:
    """Pareto limit law on [1, inf) with index gamma."""

    gamma: float

    def __post_init__(self):
        POSITIVE.require(gamma=self.gamma)

    def cdf(self, x):
        return pareto_cdf(self.gamma, x)

    def quantile(self, p):
        return pareto_quantile(self.gamma, p)

    def sample(self, n, rng):
        # inverse transform; 1 - U stays in (0, 1] so no log(0)
        return np.exp(-np.log1p(-rng.random(n)) / self.gamma)

    def describe(self):
        return f"Pareto(gamma={self.gamma:g})"


@dataclass(frozen=True)
class ExponentialLaw:
    """Exponential law with rate gamma, the generalized small-time limit."""

    gamma: float

    def __post_init__(self):
        POSITIVE.require(gamma=self.gamma)

    def cdf(self, x):
        # fmax sends NaN and -inf to 0 (CDF 0) and keeps +inf (CDF 1)
        x_arr = np.asarray(x, dtype=float)
        out = np.fmax(x_arr, 0.0, out=np.empty_like(x_arr))
        out *= -self.gamma
        np.expm1(out, out=out)
        np.negative(out, out=out)
        return out if out.ndim else float(out)

    def quantile(self, p):
        p_arr = np.asarray(p, dtype=float)
        if np.any(p_arr < 0) or np.any(p_arr >= 1):
            raise InvalidParameterError("probability must lie in [0, 1)")
        out = -np.log1p(-p_arr) / self.gamma
        return out if out.ndim else float(out)

    def sample(self, n, rng):
        return rng.exponential(scale=1.0 / self.gamma, size=n)

    def describe(self):
        return f"Exp(gamma={self.gamma:g})"


# fixed tolerances of every integral: QUADPACK's own targets, and the factor
# by which its summed error estimate may exceed them before the result is refused
_EPSABS = 1e-12
_EPSREL = 1e-10
_ERR_SLACK = 100.0


def integral(fn, points, *, op):
    """Integral of scalar ``fn`` over [points[0], points[-1]], checked.

    Each consecutive pair of points is one adaptive Gauss-Kronrod pass
    (QUADPACK's QAGS, or QAGI for an infinite end) at the fixed absolute
    and relative tolerances 1e-12 and 1e-10; the pieces' values and error
    estimates are summed in order.  Raises NumericalFailure naming ``op``
    (exit 3 from the CLI) when the sum is not finite or the summed error
    estimate exceeds 100 * max(1e-12, 1e-10 * |sum|).
    """
    total = 0.0
    err = 0.0
    for a, b in zip(points[:-1], points[1:]):
        # full_output makes quad return its diagnostics instead of warning
        val, e = integrate.quad(
            fn, a, b, epsabs=_EPSABS, epsrel=_EPSREL, limit=200, full_output=1)[:2]
        total += val
        err += e
    if not (np.isfinite(total) and err <= _ERR_SLACK * max(_EPSABS, _EPSREL * abs(total))):
        raise NumericalFailure(
            f"quadrature gave {total!r} with error {err:.3e}, past tolerance",
            op=op, achieved=err,
        )
    return total


def phi_from_levy(levy_density, s, *, upper=np.inf):
    """Laplace exponent from a Levy density: integral of (1-exp(-s x)) nu'(x) dx.

    The integrand is split at the knee x = 1/s where 1 - exp(-s x) turns
    from linear growth into saturation; the small-argument factor is
    computed as -expm1(-s x), which is exact where the naive difference
    would cancel.  The caller asserts integrability of x nu'(x) near 0.
    """
    NONNEGATIVE.require(s=s)
    if s == 0:
        return 0.0

    def integrand(x):
        return -np.expm1(-s * x) * levy_density(x)

    knee = 1.0 / s
    points = [0.0, knee, upper] if upper > knee else [0.0, upper]
    return integral(integrand, points, op="phi_from_levy")


def phi_from_tail(tail: LevyTail, s):
    """Laplace exponent from the tail: integral of exp(-x) nu_bar(x/s) dx.

    The upper limit is capped where exp(-x) drives the integrand below
    any representable contribution (x = 745, or earlier when the tail's
    support ends at s * support_upper).
    """
    NONNEGATIVE.require(s=s)
    if s == 0:
        return 0.0

    def integrand(x):
        return np.exp(-x) * float(tail.tail(x / s))

    x_max = _EXP_CUTOFF
    if np.isfinite(tail.support_upper):
        x_max = min(x_max, s * tail.support_upper)
    if x_max <= 0:
        return 0.0
    # the tail factor varies on the x ~ s scale, the exponential on x ~ 1;
    # breaking at both keeps the adaptive pass from overlooking a narrow spike
    breaks = sorted({x_max} | {b for b in (min(s, 1.0), 1.0) if 0.0 < b < x_max})
    return integral(integrand, [0.0, *breaks], op="phi_from_tail")


def lst_from_cdf(cdf, s):
    """Laplace-Stieltjes transform of a CDF via psi(s) = s * integral e^{-sx} F(x) dx.

    Substituting u = s x turns this into integral of e^{-u} F(u/s) du,
    a bounded integrand on [0, 745].  Moderate rates only (s <= 1e6);
    far larger rates need the exponent-side representations.
    """
    NONNEGATIVE.require(s=s)
    if s == 0:
        return 1.0
    if s > 1e6:
        raise InvalidParameterError("lst_from_cdf is restricted to s <= 1e6")

    def integrand(u):
        return np.exp(-u) * float(cdf(u / s))

    total = integral(integrand, [0.0, _EXP_CUTOFF], op="lst_from_cdf")
    return min(max(total, 0.0), 1.0)
