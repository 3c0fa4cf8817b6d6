"""Empirical verification harness: ECDF/KS machinery and the named experiments.

Each experiment samples a marginal, applies the relevant small-time
transform, and measures the sup-distance between the empirical law and
the predicted limit.  Statistics are reported raw, without p-values:
the limits are approached on a log scale, so the thresholds the callers
assert against are calibrated constants for fixed (t, n), not test
levels.

Zero samples from the compound-Poisson void path transform to the
at-infinity bucket; the KS statistic accounts for that mass explicitly
(``simulate.sample_marginal`` refuses an exact draw of y = 0).

Determinism: every experiment derives its generators from (seed, stream
index) substreams, so identical inputs reproduce identical reports
regardless of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simulate
from .core import (
    ABOVE_ONE, BLOCK, COUNT, DECREASING_TIMES, GRID_TIMES, INVERTIBLE_TAIL, KNOWN_INDEX, OPEN_UNIT,
    POSITIVE, STD_COUNT, TIMES, ExponentialLaw, ParetoLaw, SubordinatorModel, checks, has, integral,
    pareto_cdf,
)
from .criteria import grid_deviations
from .errors import InvalidParameterError
from .simulate import (
    CUTOFF, SAMPLABLE, sample_cutoff_cp, sample_marginal, substream, to_neg_t_power, to_tl,
)

__all__ = [
    "EmpiricalDistribution",
    "neg_t_power_ecdf",
    "ks_distance",
    "two_sample_ks",
    "ks_critical_value",
    "two_sample_ks_critical_value",
    "KS_COEFFICIENTS",
    "ParetoProductLaw",
    "AffineMinLaw",
    "ParetoMixtureLaw",
    "experiment_pareto_limit",
    "experiment_general_limit",
    "experiment_min_rule",
    "experiment_product_rule",
    "experiment_affine",
    "experiment_mixture",
    "experiment_drift",
    "support_check",
    "estimate_ergodic_functional",
    "mean_std_in_place",
    "check_family_limit",
    "export_curve",
    "DEFAULT_N",
]

DEFAULT_N = 100_000
# the rules of a draw of n paths at each time of t_list, or at time t
_DRAWS = {"t_list": DECREASING_TIMES, "n": COUNT, "cutoff": OPEN_UNIT}
_DRAW = {"t": POSITIVE, "n": COUNT, "cutoff": OPEN_UNIT}
# the rules of a model drawn for a limit whose index it knows
_INDEXED = (SAMPLABLE, KNOWN_INDEX)


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sorted finite samples plus the count that exceeded every float."""

    values: np.ndarray
    count_at_infinity: int

    @classmethod
    def from_values(cls, values, count_at_infinity=0):
        """Sort ``values`` in place and keep them: a float array the caller gives
        up (any other sequence is copied first by ``np.asarray``)."""
        arr = np.asarray(values, dtype=float)
        arr.sort()
        return cls(arr, int(count_at_infinity))

    @property
    def n_total(self):
        """Every sample: the finite values and the ones at infinity."""
        return self.values.size + self.count_at_infinity


# CDF code can be monotone only up to rounding (scipy's gammainc steps back by
# up to ~5e-15 between adjacent floats), so u_i bounds the left term only to
# within this much; see ks_distance.
_LEFT_SLACK = 1e-9


def _left_max(cdf, xb, lower, sel):
    """Largest left term F(x-) - (i-1)/n over the block values ``xb[sel]``; (i-1)/n is ``lower``."""
    x = xb[sel]  # a copy, reused for the differences
    np.nextafter(x, -np.inf, out=x)
    return np.subtract(cdf(x), lower[sel], out=x).max()


def ks_distance(emp: EmpiricalDistribution, cdf):
    """Sup distance between the ECDF and a target CDF.

    Evaluated one-sidedly at every finite order statistic: i/n - F(x_i)
    from the right and F(x_i-) - (i-1)/n from the left, where the left
    limit is taken at the previous representable float so that targets
    with atoms are compared against the correct one-sided values (for
    continuous targets the two coincide and this is the textbook
    statistic).  The at-infinity bucket contributes
    1 - finite/n - (1 - cdf(inf)), the gap left at the far right end.

    ``cdf`` is evaluated once over the sorted values, ``BLOCK``
    of them at a time, so the extra memory is a few blocks whatever n is
    (``cdf`` must act elementwise).  Since F(x-) <= F(x),
    u_i = F(x_i) - (i-1)/n bounds the left term at x_i from above, so the
    left limit is needed only where u_i can beat the sup found so far: at
    the running (first-occurrence) argmax of u, whenever a block moves it,
    then at the block's u_i that exceed the running sup less
    ``_LEFT_SLACK`` and start a run of equal values.  Within a run F(x-)
    is fixed and (i-1)/n grows, so the run's first value has its largest
    left term; a run that began in an earlier block had its first value
    taken there, under a smaller sup.  Every skipped left term is at most
    a term already taken, so the result equals the two-pass formula
    exactly, atoms and ties included, for any cdf whose values at adjacent
    floats never step back by ``_LEFT_SLACK`` or more.
    """
    if emp.n_total < 1:
        raise InvalidParameterError("need at least one sample")
    n = emp.n_total
    x = emp.values
    m = x.size
    d = -np.inf
    u_max = -np.inf
    for lo in range(0, m, BLOCK):
        xb = x[lo : lo + BLOCK]
        steps = np.arange(lo, lo + xb.size + 1, dtype=float)
        steps /= n  # steps[j] = (lo + j)/n
        lower = steps[:-1]  # (i-1)/n
        f = cdf(xb)
        u = np.subtract(steps[1:], f)
        d = max(d, u.max())
        u = np.subtract(f, lower, out=u)
        del f
        j = u.argmax()
        if u[j] > u_max:
            u_max = u[j]
            d = max(d, _left_max(cdf, xb, lower, [j]))
        candidates = np.flatnonzero(u > d - _LEFT_SLACK)
        del u
        # only the first of a run of equal values: its left term is the run's largest
        first = (candidates + lo == 0) | (x[candidates + (lo - 1)] != xb[candidates])
        candidates = candidates[first]
        if candidates.size:
            d = max(d, _left_max(cdf, xb, lower, candidates))
    cdf_inf = float(cdf(np.inf))
    at_inf = (1.0 - m / n) - (1.0 - cdf_inf)
    return float(max(d, at_inf, 0.0))


def two_sample_ks(x, y):
    """Two-sample sup ECDF distance (values only, no at-infinity handling).

    Both ECDFs are evaluated ``BLOCK`` values of one sorted sample at a time,
    so beside the two sorted copies the memory is a few blocks.
    """
    xs = np.sort(np.asarray(x, dtype=float))
    ys = np.sort(np.asarray(y, dtype=float))

    def gap(points):
        f = np.searchsorted(xs, points, side="right") / xs.size
        f -= np.searchsorted(ys, points, side="right") / ys.size
        return np.abs(f, out=f).max()

    return float(np.max([gap(s[lo : lo + BLOCK]) for s in (xs, ys)
                         for lo in range(0, s.size, BLOCK)]))


# level -> c(level), the asymptotic Kolmogorov critical value times sqrt(n)
KS_COEFFICIENTS = {0.10: 1.224, 0.05: 1.358, 0.01: 1.628}


def ks_critical_value(n, level=0.01):
    """Asymptotic one-sample critical value, c(level)/sqrt(n)."""
    return KS_COEFFICIENTS[level] / np.sqrt(n)


def two_sample_ks_critical_value(n1, n2, level=0.01):
    return KS_COEFFICIENTS[level] * np.sqrt((n1 + n2) / (n1 * n2))


def _ks_result(label, t, n, law, emp, **more):
    """The KS result of ``emp`` against ``law`` at time t, for the model labelled ``label``."""
    return {"model": label, "statistic": ks_distance(emp, law.cdf), "t": float(t), "n": int(n),
            "target": law.describe(), **more}


@dataclass(frozen=True)
class ParetoProductLaw:
    """Law of the product of independent Pareto(g1) and Pareto(g2) variables.

    Survival (g1 != g2): (g1 x^{-g2} - g2 x^{-g1}) / (g1 - g2); the equal
    case is its limit x^{-g}(1 + g log x).  Re-derived from the tail
    integral and validated against direct product sampling in the tests.
    """

    gamma1: float
    gamma2: float

    def cdf(self, x):
        x_arr = np.asarray(x, dtype=float)
        g1, g2 = self.gamma1, self.gamma2
        with np.errstate(invalid="ignore", over="ignore"):
            xs = np.maximum(x_arr, 1.0)
            if abs(g1 - g2) < 1e-6:
                g = 0.5 * (g1 + g2)
                surv = xs ** (-g) * (1.0 + g * np.log(xs))
            else:
                surv = (g1 * xs ** (-g2) - g2 * xs ** (-g1)) / (g1 - g2)
        out = np.where(x_arr >= 1.0, 1.0 - surv, 0.0)
        return np.where(np.isposinf(x_arr), 1.0, out)

    def describe(self):
        return f"ParetoProduct(gamma1={self.gamma1:g},gamma2={self.gamma2:g})"


@dataclass(frozen=True)
class AffineMinLaw:
    """Law of min(a * Pareto(gamma), b): Pareto CDF of x/a below b, then 1."""

    a: float
    b: float
    gamma: float

    def cdf(self, x):
        x_arr = np.asarray(x, dtype=float)
        return np.where(x_arr >= self.b, 1.0, pareto_cdf(self.gamma, x_arr / self.a))

    def describe(self):
        return f"min({self.a:g}*Pareto({self.gamma:g}),{self.b:g})"


@dataclass(frozen=True)
class ParetoMixtureLaw:
    """Pareto component with weight q plus an atom of mass 1-q at 1."""

    q: float
    gamma: float

    def cdf(self, x):
        x_arr = np.asarray(x, dtype=float)
        return (1.0 - self.q) * (x_arr >= 1.0) + self.q * pareto_cdf(self.gamma, x_arr)

    def describe(self):
        return f"mixture(q={self.q:g},Pareto({self.gamma:g}))"


def neg_t_power_ecdf(t, log_samples):
    """ECDF of y**(-t) over a batch of log(Y_t), transformed and sorted in place."""
    # through the module: perfbench/tracer.py expects calls at simulate's own binding site
    return EmpiricalDistribution.from_values(*simulate.to_neg_t_power(log_samples, t))


def _limit_result(model, law, t_list, n, seed, cutoff, ecdf, csv=None):
    """The KS result against ``law`` at the last, smallest t of ``t_list``.

    At the k-th t, n values of log(Y_t) are drawn from ``substream(seed,
    k)`` and ``ecdf(t, log_samples)`` maps them to the compared ECDF.
    ``ks_by_t`` holds every t's statistic, keyed by ``str(float(t))`` in
    ``t_list``'s order, strictly decreasing as the callers declare.  ``csv``
    gets the last t's ECDF curve.
    """
    ks_by_t = {}
    for k, t in enumerate(t_list):
        emp = ecdf(t, sample_marginal(model, t, n, substream(seed, k), cutoff=cutoff))
        result = _ks_result(model.describe(), t, n, law, emp)
        ks_by_t[str(float(t))] = result["statistic"]
        if csv is not None and k == len(t_list) - 1:
            export_curve(emp, law.cdf, csv)
        del emp  # before the next t draws its batch
    return {**result, "ks_by_t": ks_by_t}


@checks(model=(SAMPLABLE,), **_DRAWS, gamma=POSITIVE)
def experiment_pareto_limit(
    model: SubordinatorModel, t_list=(0.2, 0.1, 0.05, 0.01), n=DEFAULT_N, seed=0,
    *, cutoff=CUTOFF, gamma=None, csv=None,
):
    """KS of y**(-t) against its Pareto limit, per t; ``csv`` gets the last t's ECDF curve."""
    if gamma is None:  # the limit's index is then the model's
        KNOWN_INDEX.require(model=model)
    law = ParetoLaw(model.known_gamma if gamma is None else gamma)
    return _limit_result(model, law, t_list, n, seed, cutoff, neg_t_power_ecdf, csv)


@checks(model=(SAMPLABLE,), **_DRAWS, gamma=POSITIVE)
def experiment_general_limit(
    model: SubordinatorModel, L, gamma, t_list=(0.01,), n=DEFAULT_N, seed=0,
    *, cutoff=CUTOFF,
):
    """KS of t*L(Y_t) against the exponential law with rate gamma, per t; L takes log y."""
    return _limit_result(
        model, ExponentialLaw(gamma), t_list, n, seed, cutoff,
        lambda t, log_samples: EmpiricalDistribution.from_values(*to_tl(log_samples, L, t)))


def _two_model_transformed(m1, m2, t, n, seed, cutoff, combine):
    """Two independent log batches, ``combine``-d (a ufunc) into the first, transformed in place."""
    l1 = sample_marginal(m1, t, n, substream(seed, 0), cutoff=cutoff)
    combine(l1, sample_marginal(m2, t, n, substream(seed, 1), cutoff=cutoff), out=l1)
    return EmpiricalDistribution.from_values(*to_neg_t_power(l1, t))


@checks(m1=_INDEXED, m2=_INDEXED, **_DRAW)
def experiment_min_rule(m1, m2, t=0.01, n=DEFAULT_N, seed=0, *, cutoff=CUTOFF):
    """Sum of independent marginals, transformed: limit is Pareto(g1 + g2)."""
    law = ParetoLaw(m1.known_gamma + m2.known_gamma)
    emp = _two_model_transformed(m1, m2, t, n, seed, cutoff, np.logaddexp)
    return _ks_result(f"{m1.describe()}+{m2.describe()}", t, n, law, emp)


@checks(m1=_INDEXED, m2=_INDEXED, **_DRAW)
def experiment_product_rule(m1, m2, t=0.01, n=DEFAULT_N, seed=0, *, cutoff=CUTOFF):
    """Product of independent marginals, transformed: limit is the Pareto product law."""
    law = ParetoProductLaw(m1.known_gamma, m2.known_gamma)
    emp = _two_model_transformed(m1, m2, t, n, seed, cutoff, np.add)
    return _ks_result(f"{m1.describe()}*{m2.describe()}", t, n, law, emp)


@checks(model=_INDEXED, **_DRAW, a=ABOVE_ONE, b=ABOVE_ONE)
def experiment_affine(model, a, b, t=0.05, n=DEFAULT_N, seed=0, *, cutoff=CUTOFF):
    """KS of (a_t Y_t + b_t)**(-t) against min(a*Pareto, b), a_t = a**(-1/t)."""
    law = AffineMinLaw(a, b, model.known_gamma)
    log_a_t = -np.log(a) / t
    log_b_t = -np.log(b) / t
    log_y = sample_marginal(model, t, n, substream(seed, 0), cutoff=cutoff)
    np.add(log_y, log_a_t, out=log_y)
    np.logaddexp(log_y, log_b_t, out=log_y)
    emp = neg_t_power_ecdf(t, log_y)
    return _ks_result(f"affine(a={a:g},b={b:g},{model.describe()})", t, n, law, emp)


# width of the window just below the atom at 1 in which experiment_mixture counts its mass
_JUMP_WINDOW = 0.05


@checks(model=_INDEXED, **_DRAW, q=OPEN_UNIT)
def experiment_mixture(model, q, t=1e-3, n=DEFAULT_N, seed=0, *, cutoff=CUTOFF):
    """Start the process at an independent level B (0 with probability q, else 1).

    The transformed statistic converges to a mixture: an atom of mass
    1-q at 1 plus q times the Pareto limit.  The KS result carries, as
    ``jump_at_one``, the empirical mass found in the window just below the atom.
    """
    law = ParetoMixtureLaw(q, model.known_gamma)
    log_l = sample_marginal(model, t, n, substream(seed, 0), cutoff=cutoff)
    # the level B: the n uniforms of stream 1, drawn a block at a time
    level_rng = substream(seed, 1)
    u = np.empty(min(n, BLOCK))
    for lo in range(0, n, BLOCK):
        block = log_l[lo : lo + BLOCK]
        at_one = level_rng.random(out=u[: block.size]) >= q
        np.logaddexp(block, 0.0, out=block, where=at_one)
    emp = neg_t_power_ecdf(t, log_l)
    # the values are sorted: the window's count is two searches
    inside = (np.searchsorted(emp.values, 1.0 + 1e-9, side="right")
              - np.searchsorted(emp.values, 1.0 - _JUMP_WINDOW))
    return _ks_result(f"mixture(q={q:g},{model.describe()})", t, n, law, emp,
                      jump_at_one=float(inside / emp.n_total))


@checks(model=(SAMPLABLE,), **_DRAW, c=POSITIVE, window=POSITIVE)
def experiment_drift(model, c=1.0, t=1e-3, n=DEFAULT_N, seed=0, *, cutoff=CUTOFF, window=0.05):
    """Mass of (c*t + Y_t)**(-t) inside [1-window, 1+window].

    Drift collapses the limit to the point mass at 1, so the fraction
    should approach one as t shrinks; the fraction is the result's ``statistic``.
    """
    log_y = sample_marginal(model, t, n, substream(seed, 0), cutoff=cutoff)
    np.logaddexp(np.log(c) + np.log(t), log_y, out=log_y)
    values, _ = to_neg_t_power(log_y, t)
    # the values are not sorted: the window's count is a mask, a block at a time
    inside = 0
    for lo in range(0, values.size, BLOCK):
        block = values[lo : lo + BLOCK]
        inside += np.count_nonzero((block >= 1.0 - window) & (block <= 1.0 + window))
    return {"model": f"drift(c={c:g},{model.describe()})", "statistic": float(inside / n),
            "t": float(t), "n": int(n)}


@checks(delta=OPEN_UNIT)
def support_check(emp: EmpiricalDistribution, delta=0.1):
    """Empirical mass below 1 - delta; should vanish as t -> 0."""
    # the values are sorted: the count below is a search, not a mask
    return float(np.searchsorted(emp.values, 1.0 - delta) / emp.n_total)


def mean_std_in_place(values, n):
    """The mean and the ``ddof=1`` std of n samples: ``values``, and n - values.size zeros.

    The reductions are those of ``ndarray.mean`` and ``ndarray.std``: one
    pairwise sum, divided by n; then subtract the mean, square and sum, add
    the zeros' (n - values.size) * mean**2, divide by n - 1, and take the
    square root.  At n = values.size the added term is +0.0, so the result
    is ``values.mean()`` and ``values.std(ddof=1)``, bitwise.  The
    deviations are formed in ``values`` (a float ndarray the caller gives
    up), so the peak is the batch alone.
    """
    STD_COUNT.require(n=n)
    mean = np.add.reduce(values) / n
    values -= mean
    np.square(values, out=values)
    return mean, np.sqrt((np.add.reduce(values) + (n - values.size) * np.square(mean)) / (n - 1))


@checks(model=(INVERTIBLE_TAIL, has("levy_density")), t=POSITIVE, n=STD_COUNT, cutoff=OPEN_UNIT)
def estimate_ergodic_functional(model, f, delta0, t=1e-3, n=10_000_000, seed=0, *, cutoff=CUTOFF):
    """Monte Carlo estimate of E f(Y_t) / t (the ``statistic``), with its ``stderr``.

    For bounded continuous f vanishing on [0, delta0] this converges to
    the integral of f against the jump measure, the result's ``target``,
    computed by quadrature (NumericalFailure named ``ergodic_target``
    past tolerance) before anything is drawn.  The cutoff must sit
    strictly below delta0, otherwise the dropped jumps bias the
    functional itself.  ``f`` keeps core's elementwise contract; n >= 2.

    The model needs an invertible jump tail and a Levy density, as
    declared: f ignores everything below delta0 > cutoff, so the cutoff
    compound-Poisson draw is exact for the functional.  It is drawn in
    sparse form and never densified.  f is applied to the jump sums, and
    only the k paths with f(v) != 0 are kept, so the memory grows with the
    paths that jump, not with n.  f vanishes at 0 (an f with f(0) != 0 is
    refused), so every other path reads 0: ``mean_std_in_place`` takes the
    kept values, in path order, and counts the n - k zeros.
    """
    if delta0 <= cutoff:
        raise InvalidParameterError("need delta0 > cutoff, else the truncation biases f")
    if f(0.0) != 0.0:
        raise InvalidParameterError("f must vanish on [0, delta0], got f(0) != 0")
    upper = model.tail.support_upper
    # over the whole support; QAGI's map of [delta0, inf) alone is coarser near
    # delta0 (it moved gamma(1, 1)'s target by 2.4e-12 relative), so it only
    # takes the part past 100
    target = integral(
        lambda x: f(x) * model.levy_density(x),
        [delta0, upper] if np.isfinite(upper) else [delta0, 100.0, np.inf], op="ergodic_target",
    )
    fv = f(sample_cutoff_cp(model.tail, cutoff, t, substream(seed, 0), n))
    mean, std = mean_std_in_place(fv[fv != 0.0], n)
    return {"model": model.describe(), "statistic": float(mean / t),
            "stderr": float(std / (np.sqrt(n) * t)), "t": float(t), "n": int(n), "target": target}


@checks(t_grid=GRID_TIMES, u_grid=TIMES)
def check_family_limit(family, t_grid=None, u_grid=None):
    """Deterministic check of psi_t(u**(1/t)) against 1 - F*(u) on a grid.

    Works for arbitrary families t -> psi_t (not only powers of one
    transform), against the limit CDF the family carries.  Returns the
    ``criteria.grid_deviations`` of ``family.psi_t_log``, with the
    family's ``describe()`` as ``model``.
    """
    return {"model": family.describe(), **grid_deviations(
        family.psi_t_log, lambda u: 1.0 - family.limit_cdf(u),
        [1e-2, 1e-3, 1e-4] if t_grid is None else t_grid,
        np.geomspace(1.1, 10.0, 12) if u_grid is None else u_grid)}


def export_curve(emp: EmpiricalDistribution, cdf, path):
    """Write the ECDF-vs-target curve as CSV with columns x, ecdf, target.

    Each value is written as its ``repr``, rows end in CRLF and nothing is
    quoted: the bytes ``csv.writer`` would write.  The rows are formatted
    and written ``BLOCK // 32`` at a time (a row's Python floats
    and strings take about 32 floats' worth of memory), so the memory is
    about one block whatever the row count; ``cdf`` must act elementwise.
    """
    n = emp.values.size
    chunk = BLOCK // 32
    with open(path, "w", newline="") as fh:
        fh.write("x,ecdf,target\r\n")
        for lo in range(0, n, chunk):
            x = emp.values[lo : lo + chunk]
            ecdf = np.arange(lo + 1, lo + x.size + 1) / emp.n_total
            targets = cdf(x)
            fh.write("".join(
                f"{xv!r},{e!r},{tv!r}\r\n"
                for xv, e, tv in zip(x.tolist(), ecdf.tolist(), targets.tolist())
            ))
