"""Domain types for driftless subordinators and their small-time limit laws.

A subordinator is described here by up to four interchangeable surfaces:
the Laplace exponent ``Phi``, the jump-intensity tail ``nu_bar``, the
time-1 marginal CDF ``F`` and its density ``f``.  This module holds the
container types, the number rules, floors and model rules every argument is
checked against (a bool fails every number rule; the null subordinator, an
exponent below 1e-15 at s = 1 and at s = 100, fails ``NOT_NULL``),
``checks`` and ``declares``, by which a function states each argument's
rules once, the Laplace transform of a CDF and ``integral``, the
one checked integral routine, which serves the package's four integrals: that
transform, the tilted tail of ``transforms.tilt``, the quadrature part of
the ``log_power`` exponent and the ergodic functional's target.

Everything is evaluated in log-argument space where it matters: the
small-time statistic probes the exponent at ``s = u**(1/t)``, which
overflows any float for ``t`` below about 0.01, so every exponent carries
an ``eval_log`` map taking ``log s`` directly.

Every surface and limit law (an exponent, a tail and its inverse, a CDF, a
density, an L or a functional) keeps one elementwise contract: a float array
in, a Python float counting as 0-d, float64 of its shape out.

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
import scipy

from .errors import InvalidParameterError, NumericalFailure

__all__ = [
    "Check",
    "number_rule",
    "POSITIVE",
    "NONNEGATIVE",
    "ABOVE_ONE",
    "OPEN_UNIT",
    "TIMES",
    "DECREASING_TIMES",
    "GRID_TIMES",
    "SHAPE_FLOOR",
    "TIME_FLOOR",
    "SHAPE",
    "COUNT",
    "STD_COUNT",
    "REQUIRED",
    "has",
    "KNOWN_INDEX",
    "INVERTIBLE_TAIL",
    "NOT_NULL",
    "checks",
    "declares",
    "LaplaceExponent",
    "LevyTail",
    "SubordinatorModel",
    "ParetoLaw",
    "ExponentialLaw",
    "pareto_cdf",
    "lst_from_cdf",
    "integral",
]

# Largest x with exp(-x) above the float64 subnormal floor; integrands
# weighted by exp(-x) are identically zero past this point.
EXP_CUTOFF = 745.0

# The floors below which the small-time regime leaves float64.  A log-space
# draw divides a uniform's log, at least log(2**-53), by its shape a (gamma's
# t*gamma, the Dickman recursion's theta = t*gamma, stable's a*t), which
# overflows to -inf below 53 log 2 / float_max = 2.04e-307.  A grid time t
# divides log u, at most 745 in size for a finite u > 0, which overflows below
# 745 / float_max = 4.14e-306.
SHAPE_FLOOR = 2.1e-307
TIME_FLOOR = 4.2e-306

# floats (or paths) per block of every blocked kernel, so that the extra memory
# of a pass over an n-float batch is a few blocks whatever n is:
# - the cutoff compound-Poisson draws, and the exact samplers' arithmetic after
#   their first n-float draw;
# - montecarlo's passes over a batch (the KS statistic, the CSV rows, the
#   masks) and simulate's log-space transforms;
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
        # a value the rule cannot compare or read (a number given for a model) fails it
        try:
            return bool(self.valid(value))
        except (TypeError, ValueError, OverflowError, AttributeError):
            return False

    def refusal(self, value, what=""):
        """False when value passes, else its refusal in the rule's words, after what."""
        return not self.passes(value) and f"{what}must be {self.requirement}, got {value!r}"

    def require(self, **values):
        """InvalidParameterError naming the first of values that does not pass."""
        for name, value in values.items():
            if refused := self.refusal(value, f"{name} "):
                raise InvalidParameterError(refused)


def number_rule(valid, requirement, cast=None):
    """The Check of a number: valid(value) on a value that is not a bool (JSON's true and false)."""
    return Check(lambda v: not isinstance(v, bool) and valid(v), requirement, cast)


# the paper's quantities are finite: NaN and infinity fail every number rule
POSITIVE = number_rule(lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
NONNEGATIVE = number_rule(lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0")
ABOVE_ONE = number_rule(lambda v: math.isfinite(v) and v > 1, "a finite number > 1")
OPEN_UNIT = number_rule(lambda v: 0 < v < 1, "a number in (0, 1)")
# a list of times, or of the u values of a grid; the CLI passes it on as a tuple
TIMES = Check(lambda v: len(v) > 0 and all(POSITIVE.valid(t) for t in v),
              "a non-empty list of finite numbers > 0", tuple)
# times drawn one batch each: ks_by_t is keyed by the time and read in order as
# a trend, and the last, smallest time's KS is the statistic
DECREASING_TIMES = Check(lambda v: TIMES.valid(v) and all(a > b for a, b in zip(v, v[1:])),
                         "a non-empty list of strictly decreasing finite numbers > 0", tuple)
# the t grid of a deterministic check, which evaluates at log(u)/t
GRID_TIMES = Check(lambda v: TIMES.valid(v) and min(v) >= TIME_FLOOR,
                   f"a non-empty list of finite numbers >= {TIME_FLOOR:g}", tuple)
# the shape of a log-space draw
SHAPE = number_rule(lambda v: math.isfinite(v) and v >= SHAPE_FLOOR,
                    f"a finite number >= {SHAPE_FLOOR:g}")

# a count of paths or of threads; past 2**53 a count is no longer exact as a float, and
# no batch of that many floats can be allocated: numpy refuses past 2**63 with a ValueError
COUNT = number_rule(lambda v: int(v) == v and 1 <= v <= 2**53, "an integer in [1, 2**53]", int)
# a sample count whose ddof=1 standard deviation divides by n - 1
STD_COUNT = number_rule(lambda v: int(v) == v and 2 <= v <= 2**53, "an integer in [2, 2**53]",
                        int)
# the default of an argument or field that must be given
REQUIRED = object()


def checks(**rules):
    """Decorator of a library function: a Check per declared argument.

    A model argument declares a tuple of model rules.  Each is checked
    (``Check.require``, in signature order; not a None at a None default)
    before the function runs.  ``fields``, each declared argument's
    (default or REQUIRED, Check or tuple), stays on the function.
    """
    return lambda fn: _checked(fn, rules)


def declares(name, **rules):
    """``checks`` of a model factory, which also sets the model's ``name`` and ``params`` (the
    bound call with defaults) and leaves ``model_name`` on the factory."""
    return lambda factory: _checked(factory, rules, name)


def _checked(fn, rules, name=None):
    sig = inspect.signature(fn)
    params = sig.parameters
    # in signature order; a rule naming no argument of fn fails here, in list.index
    fields = {arg: (REQUIRED if params[arg].default is params[arg].empty else params[arg].default,
                    rules[arg]) for arg in sorted(rules, key=list(params).index)}

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        for arg, (default, rule) in fields.items():
            if bound.arguments[arg] is not None or default is not None:
                for check in (rule,) if isinstance(rule, Check) else rule:
                    check.require(**{arg: bound.arguments[arg]})
        out = fn(*args, **kwargs)
        return out if name is None else replace(out, name=name, params=dict(bound.arguments))

    wrapper.fields, wrapper.model_name = fields, name
    return wrapper


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
        with np.errstate(divide="ignore"):
            return np.piecewise(s_arr, [s_arr > 0], [lambda s: self.eval_log(np.log(s))])


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

    # a refusal names the model as describe() does, not by its closures
    __repr__ = describe


def has(surface):
    """The model rule that a model carries ``surface``, one of its fields."""
    return Check(lambda m: getattr(m, surface) is not None, f"a model with {surface}")


KNOWN_INDEX = Check(lambda m: m.known_gamma is not None, "a model with a known index")
INVERTIBLE_TAIL = Check(lambda m: m.tail is not None and m.tail.inverse_tail is not None,
                        "an invertible jump tail")
# the null subordinator's exponent is 0: a model's exponent counts as null when it is
# below 1e-15 at s = 1 and at s = 100, where the model algebra and S2 have nothing to read
NOT_NULL = Check(
    lambda m: not (float(m.phi.eval(1.0)) < 1e-15 and float(m.phi.eval(100.0)) < 1e-15),
    "a model with phi that is not the null subordinator")


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
    return out


@dataclass(frozen=True)
class ParetoLaw:
    """Pareto limit law on [1, inf) with index gamma."""

    gamma: float

    def __post_init__(self):
        POSITIVE.require(gamma=self.gamma)

    def cdf(self, x):
        return pareto_cdf(self.gamma, x)

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
        return out

    def describe(self):
        return f"Exp(gamma={self.gamma:g})"


# fixed tolerances of every integral: QUADPACK's own targets, and the factor
# by which its summed error estimate may exceed them before the result is refused
_EPSABS = 1e-12
_EPSREL = 1e-10
_ERR_SLACK = 100.0


def integral(fn, points, *, op):
    """Integral of ``fn`` over [points[0], points[-1]], checked.

    ``fn`` is called on one Python float at a time and may return a float
    or a 0-d float64 array: every integrand but ``log_power``'s keeps
    core's elementwise contract.  Each consecutive pair of points is one
    adaptive Gauss-Kronrod pass (QUADPACK's QAGS, or QAGI for an infinite
    end) at the fixed absolute and relative tolerances 1e-12 and 1e-10; the
    pieces' values and error estimates are summed in order.  Raises NumericalFailure naming ``op``
    (exit 3 from the CLI) when the sum is not finite or the summed error
    estimate exceeds 100 * max(1e-12, 1e-10 * |sum|).
    """
    total = 0.0
    err = 0.0
    for a, b in zip(points[:-1], points[1:]):
        # full_output makes quad return its diagnostics instead of warning
        val, e = scipy.integrate.quad(
            fn, a, b, epsabs=_EPSABS, epsrel=_EPSREL, limit=200, full_output=1)[:2]
        total += val
        err += e
    if not (np.isfinite(total) and err <= _ERR_SLACK * max(_EPSABS, _EPSREL * abs(total))):
        raise NumericalFailure(
            f"quadrature gave {total!r} with error {err:.3e}, past tolerance",
            op=op, achieved=err,
        )
    return total


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
        return np.exp(-u) * cdf(u / s)

    total = integral(integrand, [0.0, EXP_CUTOFF], op="lst_from_cdf")
    return min(max(total, 0.0), 1.0)
