"""Dickman process machinery: tail, delay-ODE function table, density, samplers.

The subordinator here has jump density gamma/x on (0, 1], so its tail is
nu_bar(x) = -gamma*log(x) with the exact inverse exp(-y/gamma).  The
time-1, gamma=1 marginal density is exp(-euler)*rho(x) with rho the
function solving rho(z) = 1 on [0, 1] and z*rho'(z) = -rho(z-1) beyond.

rho decays roughly like z**(-z), so the table integrates u = log(rho):
u'(z) = -exp(u(z-1) - u(z))/z.  That keeps every tabulated value positive
and relatively accurate out to z_max = 40, far past anything Monte Carlo
can reach.  The stepper is classical fixed-step fourth-order Runge-Kutta
by the method of steps: each unit interval is integrated with the delayed
values read back from the already completed part of the table.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special as sc

from .core import LaplaceExponent, LevyTail, SubordinatorModel
from .errors import InvalidParameterError, OutOfRangeError

__all__ = [
    "EULER",
    "RECURSION_REL_BIAS",
    "MAX_RECURSION_DEPTH",
    "DickmanFunction",
    "dickman_rho",
    "dickman_density",
    "sample_dickman_recursion",
    "recursion_mean_bias",
    "recursion_depth",
    "make_dickman",
]

EULER = 0.57721566490153286

# relative mean bias the truncated recursion may leave: bias <= RECURSION_REL_BIAS * theta
RECURSION_REL_BIAS = 1e-12
# most terms the recursion runs; each term holds its own generator
MAX_RECURSION_DEPTH = 10_000
# paths per block of the recursion: a chunk's two block buffers stay in a 2 MB L2, and
# each draw or ufunc runs long enough between GIL hand-offs for the chunks to overlap
RECURSION_BLOCK = 1 << 16


def _build_log_table(z_max, h):
    """Tabulate u = log(rho) on a uniform grid of step h up to z_max.

    Each unit interval is marched with classical RK4; the delayed term is
    read from the finished part of the table (grid points exactly, half
    points by 4-point cubic stencils kept on one side of the integer
    knots, where the solution loses a derivative).  The delay equation
    also implies z*rho(z) = integral of rho over [z-1, z]; re-anchoring
    every interval endpoint on that identity pins the slowly decaying
    perturbation mode that would otherwise swamp rho once it falls below
    the absolute rounding floor, and keeps the table relatively accurate
    all the way down to rho(z_max) ~ 1e-71.
    """
    steps_per_unit = int(round(1.0 / h))
    if abs(steps_per_unit * h - 1.0) > 1e-12:
        raise InvalidParameterError("step must divide the unit interval exactly")
    if z_max < 2 or z_max != int(z_max) or z_max > 100:
        raise InvalidParameterError("z_max must be an integer in [2, 100]")
    k = steps_per_unit
    if k % 2:
        raise InvalidParameterError("1/h must be even for the boundary quadrature")
    n_total = int(z_max) * k
    u = np.zeros(n_total + 1)
    simpson_w = np.ones(k + 1)
    simpson_w[1:-1:2] = 4.0
    simpson_w[2:-1:2] = 2.0
    simpson_w *= h / 3.0

    for m in range(1, int(z_max)):
        a = m * k
        if m == 1:
            ud_grid = np.zeros(k + 1)
            ud_half = np.zeros(k)
        else:
            ud_grid = u[a - k : a + 1].copy()
            j = np.arange(a - k, a)
            ud_half = (-u[j - 1] + 9.0 * u[j] + 9.0 * u[j + 1] - u[np.minimum(j + 2, a)]) / 16.0
            j0 = a - k
            ud_half[0] = (5.0 * u[j0] + 15.0 * u[j0 + 1] - 5.0 * u[j0 + 2] + u[j0 + 3]) / 16.0
            ud_half[-1] = (u[a - 3] - 5.0 * u[a - 2] + 15.0 * u[a - 1] + 5.0 * u[a]) / 16.0
        # march on Python floats: the same IEEE arithmetic as numpy scalars, at half the cost
        ud_grid, ud_half = ud_grid.tolist(), ud_half.tolist()
        ui = float(u[a])
        half = 0.5 * h
        march = []
        for i in range(k):
            z = m + i * h
            d0 = ud_grid[i]
            dh = ud_half[i]
            d1 = ud_grid[i + 1]
            k1 = -math.exp(d0 - ui) / z
            k2 = -math.exp(dh - (ui + half * k1)) / (z + half)
            k3 = -math.exp(dh - (ui + half * k2)) / (z + half)
            k4 = -math.exp(d1 - (ui + h * k3)) / (z + h)
            ui += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            march.append(ui)
        u[a + 1 : a + k + 1] = march
        # boundary anchor: (m+1) * rho(m+1) = integral of rho over [m, m+1]
        integral = float(simpson_w @ np.exp(u[a : a + k + 1]))
        u[a + k] = math.log(integral / (m + 1.0))
    return u


@dataclass(frozen=True)
class DickmanFunction:
    """Tabulated rho with cubic interpolation between knots."""

    h: float
    z_max: float
    rho_values: np.ndarray
    _log_spline: "scipy.interpolate.CubicSpline"

    @classmethod
    def build(cls, z_max=40.0, h=1e-3):
        # imported here, so that importing the package does not load scipy.interpolate
        from scipy.interpolate import CubicSpline

        u = _build_log_table(z_max, h)
        zs = np.arange(u.size) * h
        spline = CubicSpline(zs, u)
        return cls(h=h, z_max=float(z_max), rho_values=np.exp(u), _log_spline=spline)

    def __call__(self, z):
        z_arr = np.asarray(z, dtype=float)
        if np.any(z_arr < 0):
            raise InvalidParameterError("rho is defined on z >= 0")
        if np.any(z_arr > self.z_max):
            raise OutOfRangeError(f"rho tabulated only up to z_max = {self.z_max:g}")
        out = np.where(z_arr <= 1.0, 1.0, np.exp(self._log_spline(np.maximum(z_arr, 1.0))))
        return out if out.ndim else float(out)


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
    """rho(z) from the default table (z_max = 40, step 1e-3)."""
    return _table()(z)


def dickman_density(x):
    """Time-1 marginal density for gamma = 1: exp(-euler) * rho(x)."""
    return np.exp(-EULER) * dickman_rho(x)


def recursion_mean_bias(gamma, depth):
    """Mean left out by truncating the uniform-product series at `depth` terms."""
    r = gamma / (gamma + 1.0)
    return r ** (depth + 1) * (gamma + 1.0)


def recursion_depth(theta):
    """Fewest terms d >= 1 with recursion_mean_bias(theta, d) <= RECURSION_REL_BIAS * theta.

    The bias falls geometrically in d, so d grows like theta * log(theta / RECURSION_REL_BIAS).
    The search stops at ``MAX_RECURSION_DEPTH`` (reached near theta = 360): a theta that needs
    more terms raises ``InvalidParameterError``.
    """
    if not (theta > 0 and math.isfinite(theta)):
        raise InvalidParameterError("theta must be positive and finite")
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


def sample_dickman_recursion(gamma, depth, rng, n=1, *, log=False):
    """Draw from the generalized Dickman law as sum_{i<=d} (U_1...U_i)**(1/gamma).

    With ``log=True`` the running sum is carried through logaddexp, which
    keeps samples exact for tiny gamma where the linear products
    underflow.  The neglected tail has mean ``recursion_mean_bias(gamma,
    depth)``; ``recursion_depth(gamma)`` is the fewest terms that hold it
    to ``RECURSION_REL_BIAS * gamma``.  ``depth`` may not exceed
    ``MAX_RECURSION_DEPTH``.

    Block and chunk rule: the paths are cut into ``RECURSION_BLOCK``-path
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
    if gamma <= 0:
        raise InvalidParameterError("gamma must be positive")
    if not 1 <= depth <= MAX_RECURSION_DEPTH:
        raise InvalidParameterError(f"depth must lie in [1, {MAX_RECURSION_DEPTH}]")
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
        u = np.empty(min(hi - lo, RECURSION_BLOCK))
        prod = np.empty_like(u)
        for b in range(lo, hi, RECURSION_BLOCK):
            m = min(RECURSION_BLOCK, hi - b)
            a, p, v = acc[b : b + m], prod[:m], u[:m]
            if log:
                a.fill(-np.inf)
                p.fill(0.0)
                for term in terms:
                    term.random(m, out=v)
                    np.negative(v, out=v)
                    np.log1p(v, out=v)
                    v /= gamma
                    p += v
                    np.logaddexp(a, p, out=a)
            else:
                a.fill(0.0)
                p.fill(1.0)
                for term in terms:
                    term.random(m, out=v)
                    np.subtract(1.0, v, out=v)
                    # the in-place operator keeps numpy's scalar-exponent fast paths
                    # (2 -> square, 0.5 -> sqrt)
                    v **= e
                    p *= v
                    a += p
        return terms[-1].bit_generator

    blocks = -(-n // RECURSION_BLOCK)
    chunks = max(1, min(blocks, _usable_cpus()))
    cuts = [RECURSION_BLOCK * (blocks * i // chunks) for i in range(chunks)] + [n]
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
        return out if out.ndim else float(out)

    return eval_log


def make_dickman(gamma):
    """Subordinator with jump density gamma/x on (0, 1].

    Tail -gamma*log(x) with exact inverse, closed-form exponent
    gamma*(euler + log s + E1(s)), exact log-space marginal sampler through
    the uniform-product recursion (Y_t is generalized Dickman with parameter
    t*gamma, run to recursion_depth(t*gamma) terms), and for gamma = 1
    the rho-based marginal density.
    """
    if gamma <= 0:
        raise InvalidParameterError("gamma must be positive")

    def tail(x):
        x_arr = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            out = np.where(x_arr < 1.0, -gamma * np.log(np.minimum(x_arr, 1.0)), 0.0)
        return out if out.ndim else float(out)

    def inverse_tail(y):
        return np.exp(-np.asarray(y, dtype=float) / gamma)

    def levy_density(x):
        x_arr = np.asarray(x, dtype=float)
        out = np.where(x_arr <= 1.0, gamma / x_arr, 0.0)
        return out if out.ndim else float(out)

    def log_sampler(t, n, rng):
        theta = t * gamma
        return sample_dickman_recursion(theta, recursion_depth(theta), rng, n, log=True)

    density1 = None
    if gamma == 1.0:
        density1 = dickman_density

    return SubordinatorModel(
        name="dickman",
        phi=LaplaceExponent(eval_log=_phi_log_factory(gamma)),
        tail=LevyTail(tail=tail, inverse_tail=inverse_tail, support_upper=1.0),
        density1=density1,
        log_sampler=log_sampler,
        levy_density=levy_density,
        known_gamma=float(gamma),
        params={"gamma": gamma},
    )
