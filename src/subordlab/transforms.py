"""Model algebra: exponential tilting, subordination, independent sums, drift.

Every transform acts at the Laplace-exponent level and returns a fresh
immutable model.  Composed and summed models carry exponents (plus log
samplers and tails where they survive the operation); marginal CDFs and
densities do not transform cheaply and are dropped, so criteria
dispatch falls through to the exponent route.
"""

from __future__ import annotations

import math

import numpy as np

from .core import NONNEGATIVE, POSITIVE, LaplaceExponent, LevyTail, SubordinatorModel, integral
from .criteria import detect_limit, require_nondegenerate
from .errors import InvalidParameterError, UnsupportedModelError

__all__ = ["tilt", "compose_outer", "compose_inner", "add", "add_drift"]


def _require_phi(model):
    if model.phi is None:
        raise UnsupportedModelError(f"model {model.name!r} carries no Laplace exponent")
    return model.phi


def _require_nondegenerate(model):
    return require_nondegenerate(_require_phi(model), f"model {model.name!r}")


def tilt(model: SubordinatorModel, theta):
    """Exponential tilting: exponent s -> Phi(theta + s) - Phi(theta).

    The jump measure picks up the factor exp(-theta*x), which leaves the
    log-scale tail behavior (and hence the limit index) untouched.
    theta = 0 is the identity.
    """
    NONNEGATIVE.require(theta=theta)
    if theta == 0:
        return model
    phi = _require_phi(model)
    phi_at_theta = float(phi.eval(theta))
    if not np.isfinite(phi_at_theta):
        raise InvalidParameterError("Phi(theta) must be finite")
    log_theta = math.log(theta)

    def eval_log(ell):
        return phi.eval_log(np.logaddexp(log_theta, np.asarray(ell, dtype=float))) - phi_at_theta

    new_tail = None
    new_density = None
    if model.levy_density is not None:
        base_density = model.levy_density
        upper = model.tail.support_upper if model.tail is not None else np.inf

        def new_density(x):
            x_arr = np.asarray(x, dtype=float)
            return np.exp(-theta * x_arr) * base_density(x_arr)

        def tilted_tail(x):
            # a finite first piece up to 1 keeps the density's peak at a tiny x
            # out of QAGI's map of [x, inf), which cannot resolve it
            x_arr = np.atleast_1d(np.asarray(x, dtype=float))
            out = np.array([
                integral(new_density, [v, min(max(v, 1.0), upper), upper], op="tilted_tail")
                for v in x_arr.tolist()
            ])
            return out if np.asarray(x).ndim else float(out[0])

        new_tail = LevyTail(tail=tilted_tail, support_upper=upper)

    return SubordinatorModel(
        name=f"tilt({model.describe()},theta={theta:g})",
        phi=LaplaceExponent(eval_log=eval_log),
        tail=new_tail,
        levy_density=new_density,
        known_gamma=model.known_gamma,
    )


def _composed(front, back, name, known_gamma):
    front_phi, back_phi = front.phi, back.phi

    def eval_log(ell):
        inner_vals = np.asarray(back_phi.eval_log(np.asarray(ell, dtype=float)), dtype=float)
        return front_phi.eval(inner_vals)

    return SubordinatorModel(
        name=name,
        phi=LaplaceExponent(eval_log=eval_log),
        known_gamma=known_gamma,
    )


def compose_outer(outer: SubordinatorModel, inner: SubordinatorModel):
    """Time-change the inner process by the outer one: exponent Phi(phi(s)).

    When log(phi(s))/log(s) has a positive limit delta and the outer
    model has a known index gamma, the composition's index is
    gamma * delta; otherwise it is left unknown.
    """
    _require_nondegenerate(outer)
    phi_inner = _require_nondegenerate(inner)
    delta = detect_limit(
        lambda grid: np.log(np.asarray(phi_inner.eval_log(grid), dtype=float)) / grid)
    known = None
    if delta is not None and outer.known_gamma is not None:
        known = outer.known_gamma * delta
    return _composed(
        outer, inner, f"compose_outer({outer.describe()},{inner.describe()})", known
    )


def compose_inner(outer: SubordinatorModel, inner: SubordinatorModel):
    """Run the inner process on the outer one's clock: exponent phi(Phi(s)).

    The index multiplies by delta = limit of phi(s)/s when that limit is
    positive and finite (zero kills the limit and leaves the index
    unknown); the base index comes from the inner model.
    """
    phi_outer = _require_nondegenerate(outer)
    _require_nondegenerate(inner)
    delta = detect_limit(
        lambda grid: np.asarray(phi_outer.eval_log(grid), dtype=float) / np.exp(grid))
    known = None
    if delta is not None and inner.known_gamma is not None:
        known = inner.known_gamma * delta
    return _composed(
        outer, inner, f"compose_inner({outer.describe()},{inner.describe()})", known
    )


def add(m1: SubordinatorModel, m2: SubordinatorModel):
    """Independent sum: exponents add, tails add, log samplers add by logaddexp.

    The minimum of independent Pareto limits is Pareto with summed
    indices, so known indices add as well.  The log sampler reduces the
    second part's batch into the first's in place, so a draw holds two
    n-float batches at most.
    """
    phi1 = _require_nondegenerate(m1)
    phi2 = _require_nondegenerate(m2)

    def eval_log(ell):
        ell_arr = np.asarray(ell, dtype=float)
        return np.asarray(phi1.eval_log(ell_arr), dtype=float) + np.asarray(
            phi2.eval_log(ell_arr), dtype=float
        )

    new_tail = None
    if m1.tail is not None and m2.tail is not None:
        t1, t2 = m1.tail, m2.tail

        def tail(x):
            return np.asarray(t1.tail(x), dtype=float) + np.asarray(t2.tail(x), dtype=float)

        new_tail = LevyTail(tail=tail, support_upper=max(t1.support_upper, t2.support_upper))

    log_sampler = None
    if m1.log_sampler is not None and m2.log_sampler is not None:
        ls1, ls2 = m1.log_sampler, m2.log_sampler

        def log_sampler(t, n, rng):
            out = ls1(t, n, rng)
            return np.logaddexp(out, ls2(t, n, rng), out=out)

    known = None
    if m1.known_gamma is not None and m2.known_gamma is not None:
        known = m1.known_gamma + m2.known_gamma

    return SubordinatorModel(
        name=f"add({m1.describe()},{m2.describe()})",
        phi=LaplaceExponent(eval_log=eval_log),
        tail=new_tail,
        log_sampler=log_sampler,
        known_gamma=known,
    )


def add_drift(model: SubordinatorModel, c):
    """Add deterministic drift c*t: exponent Phi(s) + c*s.

    Drift destroys the power-transform limit (the statistic collapses to
    the point mass at 1), so the known index is cleared.  The log sampler
    adds the drift to the base batch in place.
    """
    POSITIVE.require(c=c)
    phi = _require_phi(model)

    def eval_log(ell):
        ell_arr = np.asarray(ell, dtype=float)
        with np.errstate(over="ignore"):
            return np.asarray(phi.eval_log(ell_arr), dtype=float) + c * np.exp(ell_arr)

    log_sampler = None
    if model.log_sampler is not None:
        base_log = model.log_sampler

        def log_sampler(t, n, rng):
            out = base_log(t, n, rng)
            return np.logaddexp(math.log(c) + math.log(t), out, out=out)

    return SubordinatorModel(
        name=f"drift({model.describe()},c={c:g})",
        phi=LaplaceExponent(eval_log=eval_log),
        log_sampler=log_sampler,
    )
