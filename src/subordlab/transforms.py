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

from .core import (
    NONNEGATIVE, NOT_NULL, POSITIVE, LaplaceExponent, LevyTail, SubordinatorModel, checks, has,
    integral,
)
from .criteria import detect_limit
from .errors import InvalidParameterError
from .simulate import sample_marginal

__all__ = ["tilt", "compose_outer", "compose_inner", "add", "add_drift"]


@checks(model=(has("phi"),), theta=NONNEGATIVE)
def tilt(model: SubordinatorModel, theta):
    """Exponential tilting: exponent s -> Phi(theta + s) - Phi(theta).

    The jump measure picks up the factor exp(-theta*x), which leaves the
    log-scale tail behavior (and hence the limit index) untouched.
    theta = 0 is the identity.
    """
    if theta == 0:
        return model
    phi = model.phi
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
            x_arr = np.asarray(x, dtype=float)
            return np.array([
                integral(new_density, [v, min(max(v, 1.0), upper), upper], op="tilted_tail")
                for v in x_arr.ravel().tolist()
            ]).reshape(x_arr.shape)

        new_tail = LevyTail(tail=tilted_tail, support_upper=upper)

    return SubordinatorModel(
        name=f"tilt({model.describe()},theta={theta:g})",
        phi=LaplaceExponent(eval_log=eval_log),
        tail=new_tail,
        levy_density=new_density,
        known_gamma=model.known_gamma,
    )


def _composed(kind, outer, inner, ratio, indexed):
    """``kind``(outer, inner), of exponent Phi(phi(s)): its index is ``indexed``'s times the
    limit of ``ratio`` on the S5 grid (``detect_limit``) when both are known, else unknown."""
    delta = detect_limit(ratio)
    known = None
    if delta is not None and indexed.known_gamma is not None:
        known = indexed.known_gamma * delta
    outer_phi, inner_phi = outer.phi, inner.phi

    def eval_log(ell):
        return outer_phi.eval(inner_phi.eval_log(ell))

    return SubordinatorModel(
        name=f"{kind}({outer.describe()},{inner.describe()})",
        phi=LaplaceExponent(eval_log=eval_log),
        known_gamma=known,
    )


@checks(outer=(NOT_NULL,), inner=(NOT_NULL,))
def compose_outer(outer: SubordinatorModel, inner: SubordinatorModel):
    """Time-change the inner process by the outer one: exponent Phi(phi(s)).

    When log(phi(s))/log(s) has a positive limit delta and the outer
    model has a known index gamma, the composition's index is
    gamma * delta; otherwise it is left unknown.
    """
    return _composed("compose_outer", outer, inner,
                     lambda grid: np.log(inner.phi.eval_log(grid)) / grid, outer)


@checks(outer=(NOT_NULL,), inner=(NOT_NULL,))
def compose_inner(outer: SubordinatorModel, inner: SubordinatorModel):
    """Time-change the inner process by the outer one: exponent Phi(phi(s)).

    This is ``compose_outer``'s exponent; the two differ only in their
    index rule.  Here the outer exponent must grow linearly, Phi(s)/s ->
    delta, so that Phi(phi(s)) ~ delta * phi(s): the index is delta times
    the inner model's when delta is positive and finite (zero kills the
    limit and leaves the index unknown).
    """
    return _composed("compose_inner", outer, inner,
                     lambda grid: outer.phi.eval_log(grid) / np.exp(grid), inner)


@checks(m1=(NOT_NULL,), m2=(NOT_NULL,))
def add(m1: SubordinatorModel, m2: SubordinatorModel):
    """Independent sum: exponents add, tails add, log samplers add by logaddexp.

    The minimum of independent Pareto limits is Pareto with summed
    indices, so known indices add as well.  The log sampler draws each
    part by ``sample_marginal``, which checks it, and reduces the second
    batch into the first in place: a draw holds two n-float batches at most.
    """
    phi1, phi2 = m1.phi, m2.phi

    def eval_log(ell):
        return phi1.eval_log(ell) + phi2.eval_log(ell)

    new_tail = None
    if m1.tail is not None and m2.tail is not None:
        t1, t2 = m1.tail, m2.tail

        def tail(x):
            return t1.tail(x) + t2.tail(x)

        new_tail = LevyTail(tail=tail, support_upper=max(t1.support_upper, t2.support_upper))

    log_sampler = None
    if m1.log_sampler is not None and m2.log_sampler is not None:
        def log_sampler(t, n, rng):
            out = sample_marginal(m1, t, n, rng)
            return np.logaddexp(out, sample_marginal(m2, t, n, rng), out=out)

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


@checks(model=(has("phi"),), c=POSITIVE)
def add_drift(model: SubordinatorModel, c):
    """Add deterministic drift c*t: exponent Phi(s) + c*s.

    Drift destroys the power-transform limit (the statistic collapses to
    the point mass at 1), so the known index is cleared.  The log sampler
    adds the drift in place to the base batch, drawn by ``sample_marginal``.
    """
    phi = model.phi

    def eval_log(ell):
        ell_arr = np.asarray(ell, dtype=float)
        with np.errstate(over="ignore"):
            return phi.eval_log(ell_arr) + c * np.exp(ell_arr)

    log_sampler = None
    if model.log_sampler is not None:
        def log_sampler(t, n, rng):
            out = sample_marginal(model, t, n, rng)
            return np.logaddexp(math.log(c) + math.log(t), out, out=out)

    return SubordinatorModel(
        name=f"drift({model.describe()},c={c:g})",
        phi=LaplaceExponent(eval_log=eval_log),
        log_sampler=log_sampler,
    )
