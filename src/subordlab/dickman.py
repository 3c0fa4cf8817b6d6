"""Dickman process machinery: tail, the Dickman function rho, density, samplers.

The subordinator here has jump density gamma/x on (0, 1], so its tail is
nu_bar(x) = -gamma*log(x) with the exact inverse exp(-y/gamma).  The
time-1, gamma=1 marginal density is exp(-euler)*rho(x) with rho the
function solving rho(z) = 1 on [0, 1] and z*rho'(z) = -rho(z-1) beyond.

rho is tabulated as one power series per unit interval [k, k+1], about its
midpoint (Marsaglia, Zaman & Marsaglia, Math. Comp. 53, 1989; van de Lune &
Wattel, Math. Comp. 23, 1969).  The delay equation gives each series'
coefficients from the previous interval's, all but the constant one; that
is fixed by the identity (k+1)*rho(k+1) = integral of rho over [k, k+1],
which keeps rho relatively accurate down to rho(40) ~ 7e-73.  The series
are exact up to rounding: rho is good to a few parts in 1e14 over [0, 40],
and it integrates to exp(euler) term by term.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special as sc

from .core import (
    BLOCK, POSITIVE, SHAPE, Check, LaplaceExponent, LevyTail, SubordinatorModel, checks, declares,
)
from .errors import InvalidParameterError, OutOfRangeError

__all__ = [
    "EULER",
    "RECURSION_REL_BIAS",
    "MAX_RECURSION_DEPTH",
    "DEPTH",
    "RHO_INTERVALS",
    "DickmanFunction",
    "dickman_rho",
    "dickman_density",
    "dickman_density_norm",
    "sample_dickman_recursion",
    "recursion_mean_bias",
    "recursion_depth",
    "make_dickman",
]

EULER = 0.57721566490153286

# relative mean bias the truncated recursion may leave: bias <= RECURSION_REL_BIAS * theta
RECURSION_REL_BIAS = 1e-12
# most terms the recursion runs (each term holds its own generator), and the depth rule
MAX_RECURSION_DEPTH = 10_000
DEPTH = Check(lambda v: int(v) == v and 1 <= v <= MAX_RECURSION_DEPTH,
              f"an integer in [1, {MAX_RECURSION_DEPTH}]", int)
# unit intervals [k, k+1] on which rho is tabulated, and terms of its series on each;
# the series converges like 3**-i, so 40 terms reach rounding
RHO_INTERVALS = 40
SERIES_TERMS = 40
# integral of s**i over [-1/2, 1/2]
_MOMENTS = np.array([0.5**i / (i + 1) if i % 2 == 0 else 0.0 for i in range(SERIES_TERMS)])


def _series_coefficients():
    """Row k holds b_{k,i}, the power series of rho about k + 1/2 (see DickmanFunction)."""
    b = [[1.0] + [0.0] * (SERIES_TERMS - 1)]
    for k in range(1, RHO_INTERVALS):
        # z*rho'(z) = -rho(z-1) at z = k + 1/2 + s, term by term in s
        c, prev, row = k + 0.5, b[-1], [0.0] * SERIES_TERMS
        for i in range(SERIES_TERMS - 1):
            row[i + 1] = -(prev[i] + i * row[i]) / (c * (i + 1))
        # the other coefficients do not depend on b_{k,0}: solve for it
        # (k+1)*rho(k+1) = integral of rho over [k, k+1], i.e.
        # (k+1) * sum_i b_{k,i} / 2**i = sum_i b_{k,i} * _MOMENTS[i], with _MOMENTS[0] = 1
        row[0] = math.fsum(row[i] * (_MOMENTS[i] - (k + 1) * 0.5**i)
                           for i in range(1, SERIES_TERMS)) / k
        b.append(row)
    return np.array(b)


@dataclass(frozen=True)
class DickmanFunction:
    """rho on [0, RHO_INTERVALS] as one power series per unit interval.

    On [k, k+1], rho(k + 1/2 + s) = sum_i b[k, i] * s**i for |s| <= 1/2.
    """

    b: np.ndarray

    @classmethod
    def build(cls):
        return cls(b=_series_coefficients())

    def __call__(self, z):
        z_arr = np.asarray(z, dtype=float)
        if not np.all(z_arr >= 0):
            raise InvalidParameterError("rho is defined on z >= 0")
        if np.any(z_arr > RHO_INTERVALS):
            raise OutOfRangeError(f"rho is evaluated only up to z = {RHO_INTERVALS}")
        # z = RHO_INTERVALS is the right end of the last interval
        k = np.minimum(np.floor(z_arr), RHO_INTERVALS - 1).astype(int)
        s = z_arr - k - 0.5
        out = self.b[k, -1]
        for i in range(SERIES_TERMS - 2, -1, -1):
            out = out * s + self.b[k, i]
        return out


_default_table = None
_table_lock = threading.Lock()


def _table():
    global _default_table
    table = _default_table
    if table is None:
        with _table_lock:
            if _default_table is None:
                _default_table = DickmanFunction.build()
            table = _default_table
    return table


def dickman_rho(z):
    """rho(z) for z in [0, RHO_INTERVALS], from the default series table."""
    return _table()(z)


def dickman_density(x):
    """Time-1 marginal density for gamma = 1: exp(-euler) * rho(x)."""
    return np.exp(-EULER) * dickman_rho(x)


def dickman_density_norm(z_max=RHO_INTERVALS):
    """Integral of dickman_density over [0, z_max], integer z_max <= RHO_INTERVALS.

    The series are integrated term by term and summed exactly rounded; at
    z_max = RHO_INTERVALS the result is 1 to rounding (rho integrates to
    exp(euler), and its mass past 40 is below 1e-72).
    """
    if not (int(z_max) == z_max and 0 <= z_max <= RHO_INTERVALS):
        raise OutOfRangeError(f"z_max must be an integer in [0, {RHO_INTERVALS}]")
    terms = _table().b[: int(z_max)] * _MOMENTS
    return float(np.exp(-EULER) * math.fsum(terms.ravel().tolist()))


def recursion_mean_bias(gamma, depth):
    """Mean left out by truncating the uniform-product series at `depth` terms."""
    r = gamma / (gamma + 1.0)
    return r ** (depth + 1) * (gamma + 1.0)


def recursion_depth(theta):
    """Fewest terms d >= 1 with recursion_mean_bias(theta, d) <= RECURSION_REL_BIAS * theta.

    The bias falls geometrically in d, so d grows like theta * log(theta / RECURSION_REL_BIAS).
    The search stops at ``MAX_RECURSION_DEPTH`` (reached near theta = 360): a theta that needs
    more terms raises ``InvalidParameterError``, as does a theta below ``SHAPE_FLOOR``, where
    the recursion's first term overflows.
    """
    SHAPE.require(theta=theta)
    bound = RECURSION_REL_BIAS * theta
    depth = 1
    while recursion_mean_bias(theta, depth) > bound:
        if depth == MAX_RECURSION_DEPTH:
            raise InvalidParameterError(
                f"theta = {theta!r} needs more than {MAX_RECURSION_DEPTH} recursion terms"
            )
        depth += 1
    return depth


def _usable_cpus():
    """CPUs this process may run on: its affinity mask where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@checks(gamma=SHAPE, depth=DEPTH)
def sample_dickman_recursion(gamma, depth, rng, n=1):
    """Draw log S from the generalized Dickman law, S = sum_{i<=d} (U_1...U_i)**(1/gamma).

    log S = log1p(-U_1)/gamma + log1p(sum_{k>=2} W_2...W_k), W_j = (1 - U_j)**(1/gamma):
    the inner sum is added to 1, so its terms may underflow, and tiny gamma
    stays exact down to ``SHAPE_FLOOR``, below which log1p(-U_1)/gamma
    overflows (InvalidParameterError).  The neglected tail has mean ``recursion_mean_bias(gamma,
    depth)``; ``recursion_depth(gamma)`` is the fewest terms that hold it
    to ``RECURSION_REL_BIAS * gamma``.  ``depth`` may not exceed
    ``MAX_RECURSION_DEPTH``.

    Block and chunk rule: the paths are cut into ``BLOCK``-path
    blocks, and the blocks into one contiguous chunk of whole blocks per
    usable CPU (the process's CPU affinity), never more chunks than blocks.
    Each chunk runs all ``depth`` terms on one block at a time, while its
    two block buffers stay in cache, with the running product and sum
    updated in place.  Term k of the chunk starting at path lo draws its
    uniforms from its own copy of ``rng``'s PCG64 bit generator advanced
    by k*n + lo, the stream offset at which the term-by-term loop (all n
    uniforms of term 1, then of term 2, ...) draws them, so every sample
    is bitwise the one that loop gives, whatever the number of chunks.
    The caller's thread runs the last chunk and a thread pool the others;
    numpy's draws and ufuncs release the GIL, so the chunks run in
    parallel.  One chunk (n within one block, or one usable CPU) runs
    inline and starts no thread, and no thread outlives the call.
    Afterwards ``rng`` is left where the term-by-term loop leaves it,
    n*depth doubles on.
    """
    caller = rng.bit_generator
    start = caller.state
    acc = np.empty(n)
    e = 1.0 / gamma

    def run(lo, hi):
        # paths [lo, hi); returns the last term's bit generator
        terms = []
        for k in range(depth):
            bg = type(caller)()
            bg.state = start
            bg.advance(k * n + lo)
            terms.append(np.random.Generator(bg))
        u = np.empty(min(hi - lo, BLOCK))
        prod = np.empty_like(u)
        for b in range(lo, hi, BLOCK):
            m = min(BLOCK, hi - b)
            a, p, v = acc[b : b + m], prod[:m], u[:m]
            a.fill(0.0)
            p.fill(1.0)
            for term in terms[1:]:
                term.random(m, out=v)
                np.subtract(1.0, v, out=v)
                # the in-place operator keeps numpy's scalar-exponent fast paths
                # (2 -> square, 0.5 -> sqrt)
                v **= e
                p *= v
                a += p
            np.log1p(a, out=a)
            terms[0].random(m, out=v)
            np.negative(v, out=v)
            np.log1p(v, out=v)
            v /= gamma
            a += v
        return terms[-1].bit_generator

    blocks = -(-n // BLOCK)
    chunks = max(1, min(blocks, _usable_cpus()))
    cuts = [BLOCK * (blocks * i // chunks) for i in range(chunks)] + [n]
    if chunks == 1:
        end = run(0, n)
    else:
        with ThreadPoolExecutor(chunks - 1) as pool:
            rest = [pool.submit(run, lo, hi) for lo, hi in zip(cuts[:-2], cuts[1:-1])]
            end = run(cuts[-2], n)
            for future in rest:
                future.result()
    # the bit generator's 32-bit buffer is untouched by double draws
    caller.state = dict(start, state=end.state["state"])
    return acc


def _phi_log_factory(gamma):
    def eval_log(ell):
        ell_arr = np.asarray(ell, dtype=float)
        out = np.empty_like(ell_arr)
        tiny = ell_arr < -30.0
        if np.any(tiny):
            s = np.exp(ell_arr[tiny])
            out[tiny] = gamma * s * (1.0 - s / 4.0 + s * s / 18.0)
        rest = ~tiny
        if np.any(rest):
            with np.errstate(over="ignore"):
                s = np.exp(ell_arr[rest])
            out[rest] = gamma * (EULER + ell_arr[rest] + sc.exp1(s))
        return out

    return eval_log


@declares("dickman", gamma=POSITIVE)
def make_dickman(gamma):
    """Subordinator with jump density gamma/x on (0, 1].

    Tail -gamma*log(x) with exact inverse, closed-form exponent
    gamma*(euler + log s + E1(s)), exact log-space marginal sampler through
    the uniform-product recursion (Y_t is generalized Dickman with parameter
    t*gamma, run to recursion_depth(t*gamma) terms), and for gamma = 1
    the rho-based marginal density.
    """

    def tail(x):
        x_arr = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(x_arr < 1.0, -gamma * np.log(np.minimum(x_arr, 1.0)), 0.0)

    def inverse_tail(y):
        return np.exp(-np.asarray(y, dtype=float) / gamma)

    def levy_density(x):
        x_arr = np.asarray(x, dtype=float)
        return np.where(x_arr <= 1.0, gamma / x_arr, 0.0)

    def log_sampler(t, n, rng):
        theta = t * gamma
        return sample_dickman_recursion(theta, recursion_depth(theta), rng, n)

    density1 = None
    if gamma == 1.0:
        density1 = dickman_density

    return SubordinatorModel(
        phi=LaplaceExponent(eval_log=_phi_log_factory(gamma)),
        tail=LevyTail(tail=tail, inverse_tail=inverse_tail, support_upper=1.0),
        density1=density1,
        log_sampler=log_sampler,
        levy_density=levy_density,
        known_gamma=float(gamma),
    )
