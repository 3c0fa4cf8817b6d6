"""Constructors for the concrete subordinator models and parametric families.

Each model carries only the surfaces it genuinely has in closed form
(exponent, tail, time-1 CDF/density, exact sampler of log Y_t) together
with its known small-time Pareto index where one exists.  Estimators
dispatch on availability, so a model with only a CDF is still fully
usable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import special as sc

from .core import (BLOCK, OPEN_UNIT, POSITIVE, SHAPE, Check, ExponentialLaw,
                   LaplaceExponent, LevyTail, SubordinatorModel, declares, integral)
from .dickman import EULER, log_power_tail, make_dickman
from .errors import InvalidParameterError, NumericalFailure

__all__ = [
    "GeneralFamily",
    "make_gamma",
    "make_stable",
    "make_bessel",
    "make_thorin_uniform",
    "make_weibull",
    "make_pareto_type",
    "make_fdist",
    "make_half_cauchy",
    "make_log_power",
    "make_stable_nef",
    "CATALOG",
    "FAMILIES",
    "build_model",
]

_ZETA3 = 1.2020569031595943
# moments of (-log x) under the unit exponential on (0, inf)
_NEG_LOG_MOMENTS = (
    1.0,
    EULER,
    EULER**2 + math.pi**2 / 6.0,
    EULER**3 + EULER * math.pi**2 / 2.0 + 2.0 * _ZETA3,
)


@dataclass(frozen=True)
class GeneralFamily:
    """Parametric family t -> psi_t(u), not necessarily of power form.

    ``psi_t_log`` evaluates psi_t at u = exp(log_u) so the family can be
    probed at u**(1/t) for arbitrarily small t.  ``limit_cdf`` is the
    known limit distribution used for validation.
    """

    psi_t_log: Callable[[float, np.ndarray], np.ndarray]
    limit_cdf: Callable
    name: str = ""
    params: dict = field(default_factory=dict)

    describe = SubordinatorModel.describe


def _gamma_inverse_tail_factory(gamma, lam):
    """Generalized inverse of x -> gamma * E1(lam * x) by safeguarded Newton.

    Seeds from the two asymptotic regimes of E1 and polishes in log-x
    space, where the derivative is simply -gamma * exp(-lam * x).

    Elementwise: each element takes Newton steps until its own step is
    below 1e-14 in size (that step included), at most 60, and the steps
    run only on the elements still moving.  An element's result therefore
    does not depend on the other values in the batch, so a batch inverted
    in blocks gives the same bits as one call on the whole batch.  The
    seeds are formed in the output array; each step gathers the elements
    still moving, steps them and writes them back.
    """

    def inverse_tail(y):
        target = np.asarray(y, dtype=float).ravel() / gamma
        # E1(z) ~ -euler - log z near 0, ~ exp(-z)/z at infinity; z is formed in u
        u = np.negative(target)
        u -= EULER
        np.exp(u, out=u)
        np.copyto(u, 1.0, where=~(target > 1.0))
        big = target <= 1.0
        if np.any(big):
            guess = target[big]
            np.maximum(guess, 1e-300, out=guess)
            np.log(guess, out=guess)
            np.negative(guess, out=guess)
            np.maximum(guess, 1e-12, out=guess)
            u[big] = guess
            del guess
        np.log(u, out=u)
        moving = np.arange(u.size)  # the indices of the elements still moving
        for _ in range(60):
            x = u[moving]
            e = np.exp(x)
            s = sc.exp1(e)
            s -= target[moving]
            np.negative(e, out=e)
            np.exp(e, out=e)
            s /= e
            np.clip(s, -2.0, 2.0, out=s)
            x += s
            u[moving] = x
            # NaN steps keep moving, as they never pass the size test
            moving = moving[~(np.abs(s, out=s) < 1e-14)]
            if not moving.size:
                break
        np.exp(u, out=u)
        u /= lam
        return u.reshape(np.shape(y))

    return inverse_tail


# Shapes below this draw log G(a) by the Liu-Martin-Syring rejection sampler,
# shapes from it up to 1 by the boost.  Measured at n = 1e6 on a 2-core Xeon
# (Python 3.11, numpy 2.4.6), 25 alternating pairs per shape, median ms
# rejection / boost: 27.2 / 37.9 at a = 0.3, 32.4 / 37.5 at 0.4, 34.4 / 37.8
# at 0.45, 34.5 / 36.3 at 0.5 (rejection faster in 16 of 25), 37.8 / 34.7 at
# 0.55 (2 of 25); below 0.1 the rejection sampler takes 26-30 ms, the boost
# 44-50 ms.  The two cross at about 0.5, where the acceptance rate is 0.65.
SMALL_SHAPE = 0.5


def _log_gamma_small_shape(a, log_lam, n, rng):
    """n draws of log(G/lam), G ~ Gamma(a), 0 < a < 1, by rejection.

    Liu, Martin & Syring, "Simulating from a gamma distribution with small
    shape parameter" (Comput. Stat., 2017), in the variable y = log G.
    The unnormalized density a*exp(a*y - e^y) (mass Gamma(a+1)) lies under
    the envelope a*exp(a*y) on y <= 0 (mass 1) and (a/e)*exp(-(1-a)*y) on
    y > 0 (mass w = a/(e*(1-a))), so the acceptance rate is
    Gamma(a+1)/(1+w), which tends to 1 as a -> 0.  One uniform u in (0, 1]
    picks the side and the candidate: y = log(u/ww)/a when
    u <= ww = 1/(1+w), else y = -log((u-ww)/(1-ww))/(1-a).  An exponential
    E accepts it when e^y < E (y <= 0) or e^y - 1 - y < E (y > 0).  As
    u >= 2**-53, every candidate is finite, and so is every draw, for a
    at least ``SHAPE_FLOOR``; below it log(u)/a overflows to -inf, so
    ``make_gamma``'s sampler refuses such a shape.

    Candidates are drawn ``min(BLOCK, n - filled)`` at a time, all the
    block's uniforms and then its exponentials, and the accepted ones are
    appended to the n-float output in draw order until n are filled.
    """
    out = np.empty(n)
    w = a / (math.e * (1.0 - a))
    ww = 1.0 / (1.0 + w)
    log_ww = math.log(ww)
    u = np.empty(min(n, BLOCK))
    e = np.empty(u.size)
    ok = np.empty(u.size, dtype=bool)
    filled = 0
    while filled < n:
        k = min(BLOCK, n - filled)
        ub = rng.random(out=u[:k])
        np.subtract(1.0, ub, out=ub)
        eb = rng.standard_exponential(out=e[:k])
        right = np.flatnonzero(ub > ww)
        u_right, e_right = ub[right], eb[right]
        # the y <= 0 side, tested as y < log E
        np.log(ub, out=ub)
        ub -= log_ww
        ub /= a
        np.log(eb, out=eb)
        okb = np.less(ub, eb, out=ok[:k])
        if right.size:
            u_right -= ww
            u_right /= w * ww  # 1 - ww, without its cancellation
            np.log(u_right, out=u_right)
            u_right /= a - 1.0
            ub[right] = u_right
            okb[right] = np.expm1(u_right) - u_right < e_right
        kept = ub[okb]
        np.subtract(kept, log_lam, out=out[filled : filled + kept.size])
        filled += kept.size
        del kept  # else the next block's accepted draws are made while it is held
    return out


@declares("gamma", gamma=POSITIVE, lam=POSITIVE)
def make_gamma(gamma, lam):
    """Gamma subordinator: exponent gamma*log(1 + s/lam), marginal Gamma(t*gamma, lam).

    The marginal sampler must stay correct for shapes a = t*gamma far
    below 1, the regime every small-time experiment lives in, so it draws
    log(Y_t) = log G(a) - log(lam) in log space: the linear-space draw
    underflows to zero once a drops below ~0.005.  log G(a) comes from
    one of three exact draws, chosen by the shape:

    - a < ``SMALL_SHAPE``: the Liu-Martin-Syring rejection sampler
      (``_log_gamma_small_shape``), about one uniform and one exponential
      per draw at small a;
    - ``SMALL_SHAPE`` <= a < 1: the boost identity
      Gamma(a) = Gamma(a+1) * U**(1/a), as log(Gamma(a+1)) + log(U)/a;
    - a >= 1: log of a direct ``standard_gamma`` draw.

    Memory rule: the batch is the n-float output and O(``BLOCK``)
    buffers.  The rejection sampler writes its accepted draws into the
    output block by block.  The other two draw the n gamma variates into
    the output (``rng.gamma(k, size=n)`` is ``1.0 *
    rng.standard_gamma(k, size=n)``) and take the log, the boost and the
    scale ``BLOCK`` values at a time, each block drawing its own boost
    uniforms from the same stream, so that batch is bitwise the one drawn
    by ``rng.gamma`` and ``rng.random`` on all n at once.
    """
    log_lam = math.log(lam)

    def eval_log(ell):
        return gamma * np.logaddexp(0.0, np.asarray(ell, dtype=float) - log_lam)

    def cdf1(x):
        return sc.gammainc(gamma, lam * np.asarray(x, dtype=float))

    def density1(x):
        x_arr = np.asarray(x, dtype=float)
        log_f = (
            (gamma - 1.0) * np.log(x_arr)
            + gamma * log_lam
            - lam * x_arr
            - sc.gammaln(gamma)
        )
        return np.exp(log_f)

    def tail(x):
        return gamma * sc.exp1(lam * np.asarray(x, dtype=float))

    def levy_density(x):
        x_arr = np.asarray(x, dtype=float)
        return gamma * np.exp(-lam * x_arr) / x_arr

    def log_sampler(t, n, rng):
        shape = t * gamma
        SHAPE.require(**{"t*gamma": shape})
        if shape < SMALL_SHAPE:
            return _log_gamma_small_shape(shape, log_lam, n, rng)
        boost = shape < 1.0
        # rng.gamma(k, size=n) is 1.0 * rng.standard_gamma(k, size=n)
        out = rng.standard_gamma(shape + 1.0 if boost else shape, size=n, out=np.empty(n))
        u = np.empty(min(n, BLOCK)) if boost else None
        for lo in range(0, n, BLOCK):
            block = out[lo : lo + BLOCK]
            np.log(block, out=block)
            if boost:
                # add log(u) / shape, u = 1 - U in (0, 1] keeps the log finite
                ub = rng.random(out=u[: block.size])
                np.subtract(1.0, ub, out=ub)
                np.log(ub, out=ub)
                ub /= shape
                block += ub
            block -= log_lam
        return out

    return SubordinatorModel(
        phi=LaplaceExponent(eval_log=eval_log),
        tail=LevyTail(tail=tail, inverse_tail=_gamma_inverse_tail_factory(gamma, lam)),
        cdf1=cdf1,
        density1=density1,
        log_sampler=log_sampler,
        levy_density=levy_density,
        known_gamma=float(gamma),
    )


@declares("stable", a=POSITIVE, alpha=OPEN_UNIT)
def make_stable(a, alpha):
    """Positive alpha-stable subordinator with exponent a * s**alpha.

    Sampling uses Kanter's exact representation of the one-sided stable
    law S with E exp(-u S) = exp(-u**alpha):

        S = sin(alpha pi V) * sin((1-alpha) pi V)**((1-alpha)/alpha)
            / (sin(pi V)**(1/alpha) * W**((1-alpha)/alpha)),

    V uniform on (0,1) and W unit exponential, then Y_t = (a t)**(1/alpha) S;
    an a*t below ``SHAPE_FLOOR``, the floor of every log-space draw, is
    refused (at 5e-324 it underflows to 0 and every draw to -inf).
    The small-time limit degenerates at 1 (no finite Pareto index), so
    known_gamma is absent.

    Memory rule: the n uniforms V are drawn into the output array; then,
    ``BLOCK`` values at a time, each block draws its exponentials W and
    overwrites its V with log(Y_t).  W continues the generator's stream
    after all n uniforms, so the batch is bitwise that of drawing all n V,
    then all n W, and forming log(Y_t) on the whole arrays.
    """

    def eval_log(ell):
        with np.errstate(over="ignore"):
            return a * np.exp(alpha * np.asarray(ell, dtype=float))

    ratio = (1.0 - alpha) / alpha

    def log_sampler(t, n, rng):
        SHAPE.require(**{"a*t": a * t})
        out = rng.random(n)
        w = np.empty(min(n, BLOCK))
        log_scale = np.log(a * t) / alpha
        for lo in range(0, n, BLOCK):
            v = out[lo : lo + BLOCK]
            v[v == 0.0] = 2.0**-53
            # rng.exponential() is 1.0 * rng.standard_exponential()
            wb = rng.standard_exponential(out=w[: v.size])
            np.maximum(wb, 5e-324, out=wb)
            v[...] = log_scale + (
                np.log(np.sin(alpha * np.pi * v))
                + ratio * np.log(np.sin((1.0 - alpha) * np.pi * v))
                - np.log(np.sin(np.pi * v)) / alpha
                - ratio * np.log(wb)
            )
        return out

    return SubordinatorModel(
        phi=LaplaceExponent(eval_log=eval_log),
        log_sampler=log_sampler,
    )


@declares("bessel")
def make_bessel():
    """Subordinator with exponent log(1 + s + sqrt(s^2 + 2 s)).

    The conjugate form keeps the value positive and cancellation-free;
    the time-1 density exp(-x) I_1(x) / x is expressed through the
    scaled Bessel function so it survives large x.
    """

    def small(ell):
        s = np.exp(ell)
        return np.log1p(s + np.sqrt(s * (s + 2.0)))

    def large(ell):
        e = np.exp(-ell)
        return ell + np.log(2.0 + e + np.expm1(0.5 * np.log1p(2.0 * e)))

    def eval_log(ell):
        ell_arr = np.asarray(ell, dtype=float)
        return np.piecewise(ell_arr, [ell_arr <= 0.0], [small, large])

    def density1(x):
        x_arr = np.asarray(x, dtype=float)
        return np.where(x_arr > 0, sc.ive(1.0, x_arr) / np.where(x_arr > 0, x_arr, 1.0), 0.5)

    return SubordinatorModel(
        phi=LaplaceExponent(eval_log=eval_log),
        density1=density1,
        known_gamma=1.0,
    )


@declares("thorin_uniform", gamma=POSITIVE)
def make_thorin_uniform(gamma):
    """Thorin measure uniform on (0, gamma): exponent
    (s+gamma)log(s+gamma) - s log s - gamma log gamma, jump density
    (1 - exp(-gamma x)) / x**2.
    """
    log_g = math.log(gamma)

    def rest(ell):
        # s*log(1 + gamma/s) + gamma*log(s + gamma) - gamma*log(gamma)
        return (np.exp(ell) * np.logaddexp(0.0, log_g - ell) + gamma * np.logaddexp(log_g, ell)
                - gamma * log_g)

    def eval_log(ell):
        ell_arr = np.asarray(ell, dtype=float)
        return np.piecewise(ell_arr, [ell_arr > 700.0], [
            lambda e: gamma * (1.0 + e - log_g), rest])

    def tail(x):
        x_arr = np.asarray(x, dtype=float)
        return -np.expm1(-gamma * x_arr) / x_arr + gamma * sc.exp1(gamma * x_arr)

    def levy_density(x):
        x_arr = np.asarray(x, dtype=float)
        return -np.expm1(-gamma * x_arr) / x_arr**2

    return SubordinatorModel(
        phi=LaplaceExponent(eval_log=eval_log),
        tail=LevyTail(tail=tail),
        levy_density=levy_density,
        known_gamma=float(gamma),
    )


@declares("weibull", gamma=POSITIVE)
def make_weibull(gamma):
    """Weibull time-1 marginal F(x) = 1 - exp(-x**gamma); CDF/density only."""

    def cdf1(x):
        return -np.expm1(-np.asarray(x, dtype=float) ** gamma)

    def density1(x):
        x_arr = np.asarray(x, dtype=float)
        return gamma * x_arr ** (gamma - 1.0) * np.exp(-(x_arr**gamma))

    return SubordinatorModel(
        cdf1=cdf1,
        density1=density1,
        known_gamma=float(gamma),
    )


@declares("pareto_type", a=POSITIVE)
def make_pareto_type(a):
    """Density a / (1+x)**(a+1); the density is positive at 0, so the index is 1."""

    def cdf1(x):
        return -np.expm1(-a * np.log1p(np.asarray(x, dtype=float)))

    def density1(x):
        return a * np.exp(-(a + 1.0) * np.log1p(np.asarray(x, dtype=float)))

    return SubordinatorModel(
        cdf1=cdf1,
        density1=density1,
        known_gamma=1.0,
    )


@declares("fdist", a=POSITIVE, b=POSITIVE)
def make_fdist(a, b):
    """Beta-prime style density x**(b-1) (1+x)**(-a-b) / B(a, b); index b."""
    log_norm = sc.gammaln(a + b) - sc.gammaln(a) - sc.gammaln(b)

    def cdf1(x):
        x_arr = np.asarray(x, dtype=float)
        return sc.betainc(b, a, x_arr / (1.0 + x_arr))

    def density1(x):
        x_arr = np.asarray(x, dtype=float)
        return np.exp(log_norm + (b - 1.0) * np.log(x_arr) - (a + b) * np.log1p(x_arr))

    return SubordinatorModel(
        cdf1=cdf1,
        density1=density1,
        known_gamma=float(b),
    )


@declares("half_cauchy")
def make_half_cauchy():
    """Cauchy folded onto (0, inf): density (2/pi) / (1 + x^2); index 1."""

    def cdf1(x):
        return (2.0 / np.pi) * np.arctan(np.asarray(x, dtype=float))

    def density1(x):
        return (2.0 / np.pi) / (1.0 + np.asarray(x, dtype=float) ** 2)

    return SubordinatorModel(
        cdf1=cdf1,
        density1=density1,
        known_gamma=1.0,
    )


# odd powers whose log-moments are tabulated
POWER = Check(lambda v: type(v) is int and v in (1, 3),
              "the integer 1 or 3 (odd, tabulated moments)")


@declares("log_power", gamma=POSITIVE, power=POWER)
def make_log_power(gamma, power=3):
    """Tail gamma * (-log x)**power on (0, 1], the slowly-varying test model.

    At power 1 the tail is Dickman's, gamma * log(1/x), and known_gamma is
    gamma.  At power 3 the model has no Pareto limit (its tail dominates
    every -gamma*log x), so known_gamma stays empty.  Either way it
    converges under the generalized statistic t*L(Y_t) with
    L(x) = (-log x)**power and rate gamma.  The
    exponent is quadrature below s = 1e6 and the exact log-moment
    polynomial above, where the truncated remainder is below 1e-300 (past
    float range, NumericalFailure named ``log_power_phi``).
    """

    coeffs = [math.comb(power, k) * _NEG_LOG_MOMENTS[k] for k in range(power + 1)]

    def _phi_one(ell):
        if ell >= math.log(1e6):
            try:  # past float range, a float power raises and a sum or product rounds to inf
                phi = gamma * sum(c * ell ** (power - k) for k, c in enumerate(coeffs))
            except OverflowError:
                phi = math.inf
            if math.isinf(phi) and ell < math.inf:
                raise NumericalFailure(f"Phi at log s = {ell!r} overflows", op="log_power_phi")
            return phi
        s = math.exp(ell)
        hi = min(s, 745.0)  # exp(-x) kills everything beyond
        fn = lambda x: math.exp(-x) * gamma * (ell - math.log(x)) ** power
        return integral(fn, [0.0, min(1.0, hi / 2.0), hi], op="log_power_phi")

    def eval_log(ell):
        ell_arr = np.asarray(ell, dtype=float)
        return np.array([_phi_one(e) for e in ell_arr.ravel().tolist()]).reshape(ell_arr.shape)

    tail, levy_density = log_power_tail(gamma, power)
    return SubordinatorModel(
        phi=LaplaceExponent(eval_log=eval_log),
        tail=tail,
        levy_density=levy_density,
        known_gamma=float(gamma) if power == 1 else None,
    )


# theta = 0 loses the monotone transform
@declares("stable_nef", a=POSITIVE, theta=POSITIVE)
def make_stable_nef(a, theta):
    """Exponential family over the positive stable laws, transform
    exp(-a[(theta+u)^t - theta^t]).  Limit CDF is the unit-shifted
    exponential 1 - exp(-a(x-1)) on x >= 1, ``ExponentialLaw(a)`` at x - 1.
    """
    log_theta = math.log(theta)

    def psi_t_log(t, log_u):
        lu = np.asarray(log_u, dtype=float)
        lt = np.logaddexp(log_theta, lu)
        return np.exp(-a * (np.exp(t * lt) - np.exp(t * log_theta)))

    limit = ExponentialLaw(a)
    return GeneralFamily(
        psi_t_log=psi_t_log,
        limit_cdf=lambda x: limit.cdf(np.subtract(x, 1.0)),
    )


# name -> factory of each catalog model, and of each family
CATALOG = {factory.model_name: factory for factory in (
    make_gamma, make_stable, make_bessel, make_thorin_uniform, make_weibull, make_pareto_type,
    make_fdist, make_half_cauchy, make_dickman, make_log_power)}
FAMILIES = {make_stable_nef.model_name: make_stable_nef}


def build_model(name, params=None):
    """Instantiate a catalog model by name; unknown names raise InvalidParameterError."""
    if name not in CATALOG:
        raise InvalidParameterError(f"unknown model {name!r}; known: {sorted(CATALOG)}")
    return CATALOG[name](**(params or {}))
