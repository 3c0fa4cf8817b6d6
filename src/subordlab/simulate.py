"""Marginal samplers and the log-space transforms of the sampled values.

Exact samplers are used whenever a model has one; everything else goes
through the cutoff compound-Poisson construction: jumps below a cutoff
eps are dropped (no drift compensation, since adding drift would change
the model class) and the remaining jumps arrive Poisson(t * nu_bar(eps))
with sizes drawn by inverting the tail.  The dropped mass biases the
mean down by t * integral of x d nu over (0, eps); callers see the bias,
it is never silently absorbed.

Every draw is handed on as log(Y_t), the one sampling surface that stays
exact across the small-time regime (a linear gamma draw underflows to
zero once its shape drops below about 0.005).  Transformed statistics
are computed from it: y**(-t) as exp(-t*log y), so a sample like
exp(1e4) poses no problem, and -inf logs (the compound-Poisson void
path's exact zeros) land in a separate at-infinity bucket that
downstream ECDF comparisons treat as exceeding every finite threshold.
"""

from __future__ import annotations

import math

import numpy as np

from .core import BLOCK, LevyTail, SubordinatorModel
from .errors import InvalidParameterError, UnsupportedModelError

__all__ = [
    "substream",
    "can_sample",
    "sample_marginal",
    "sample_cutoff_cp",
    "to_neg_t_power",
    "to_tl",
]


def substream(seed, stream):
    """Independent, reproducible generator for (seed, stream index)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.PCG64(ss))


def _hit_paths(lam, p, n, rng):
    """Sparse branch of ``sample_cutoff_cp``: the paths that jump, and their counts.

    The gaps between successive paths with at least one jump are
    Geometric(p), p = 1 - exp(-lam).  They are drawn in blocks of
    ``min(BLOCK, h + 4*sqrt(h) + 16)``, h = p * (paths left after the
    last hit), and summed until a position passes n.  Each hit path's count
    is then drawn from the zero-truncated Poisson(lam), as 1 + Poisson(lam
    + log1p(-U*p)): the first arrival T <= 1 is inverted from U, and the
    rest arrive Poisson(lam*(1 - T)) after it.
    """
    if p == 0.0:  # lam underflowed: no path jumps
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int64)
    hits = []
    last = -1  # the position of the last hit so far
    while True:
        h = (n - 1 - last) * p
        gaps = rng.geometric(p, min(BLOCK, int(h + 4.0 * math.sqrt(h)) + 16))
        # a gap past n ends the batch; capping it keeps the positions in range
        np.minimum(gaps, n + 1, out=gaps)
        pos = np.cumsum(gaps)
        pos += last
        inside = int(np.searchsorted(pos, n))
        hits.append(pos[:inside])
        if inside < pos.size:
            break
        last = int(pos[-1])
    idx = np.concatenate(hits).astype(np.intp, copy=False)
    mu = rng.random(idx.size)
    mu *= -p
    np.log1p(mu, out=mu)
    mu += lam
    np.maximum(mu, 0.0, out=mu)  # rounding can leave lam + log1p(-p) below 0
    counts = rng.poisson(mu)
    counts += 1
    return idx, counts


def sample_cutoff_cp(tail: LevyTail, eps, t, rng, n=1):
    """Cutoff compound-Poisson batch in sparse form: the paths that jump, and their sums.

    Each of the n paths is the sum of Poisson(lam) jumps above eps,
    lam = t*nu_bar(eps), drawn by inversion, inverse_tail(U * nu_bar(eps)).
    Returns ``(idx, sums)``: the ascending indices of the paths with at
    least one jump (``np.intp``) and each one's jump sum.  Every other path
    is an exact zero (the void path, probability exp(-lam)), a legitimate
    sample; ``np.zeros(n)`` with ``[idx] = sums`` is the dense batch.  Mean
    bias vs. the true marginal is -t * integral_0^eps x dnu(x).

    The paths that jump are found one of two ways, by the chance
    p = 1 - exp(-lam) that a path jumps:

    - p < 1/2 (sparse): the hit positions are drawn directly, from
      Geometric(p) gaps, and each hit's count from the zero-truncated
      Poisson (``_hit_paths``); the work grows with the hits, not with n.
      A p that underflows to 0 gives no hits.
    - p >= 1/2 (dense): the n Poisson counts are drawn ``BLOCK`` paths
      at a time, keeping the paths with jumps and their counts; the batch
      is bitwise the one drawn by all n counts, then all jumps, in single
      calls.

    Either way the jumps are then drawn in blocks of at most ``BLOCK``
    that end on a path boundary (a path with more jumps is a block of its
    own), inverted (``inverse_tail`` must be elementwise), and each path's
    jumps summed in draw order.  Memory grows with neither n nor the jump
    count, only with the paths that jump.
    """
    if tail.inverse_tail is None:
        raise UnsupportedModelError("tail has no inverse; cannot draw jumps")
    if not (0.0 < eps < tail.support_upper):
        raise InvalidParameterError("cutoff must lie inside the jump support")
    nu_eps = float(tail.tail(eps))
    if not np.isfinite(nu_eps) or nu_eps <= 0:
        raise InvalidParameterError(f"invalid cutoff: nu_bar(eps) = {nu_eps!r}")
    lam = t * nu_eps
    p = -math.expm1(-lam)
    if p < 0.5:
        idx, counts = _hit_paths(lam, p, n, rng)
        hit_counts = [counts]
    else:
        hits, hit_counts = [], []  # per block of counts: paths with jumps, their counts
        for start in range(0, n, BLOCK):
            counts = rng.poisson(lam, min(BLOCK, n - start))
            hit = np.flatnonzero(counts)
            if hit.size:
                hits.append(hit + start)
                hit_counts.append(counts[hit])
        idx = np.concatenate(hits) if hits else np.empty(0, dtype=np.intp)
        del hits
    sums = np.empty(idx.size)
    pos = 0
    for counts in hit_counts:
        ends = np.cumsum(counts)
        lo = 0
        while lo < counts.size:
            done = ends[lo - 1] if lo else 0
            hi = max(int(np.searchsorted(ends, done + BLOCK, side="right")), lo + 1)
            jumps = rng.random(int(ends[hi - 1] - done))
            jumps *= nu_eps
            jumps = np.asarray(tail.inverse_tail(jumps), dtype=float)
            owner = np.repeat(np.arange(hi - lo), counts[lo:hi])
            sums[pos + lo : pos + hi] = np.bincount(owner, weights=jumps, minlength=hi - lo)
            lo = hi
        pos += counts.size
    return idx, sums


def can_sample(model: SubordinatorModel):
    """Whether ``sample_marginal`` can draw from the model: exact log sampler or invertible tail."""
    return model.log_sampler is not None or (
        model.tail is not None and model.tail.inverse_tail is not None
    )


def sample_marginal(model: SubordinatorModel, t, n, rng, *, cutoff=1e-6):
    """Draw n values of log(Y_t): exact log sampler if the model has one, else cutoff CP.

    Exact samplers produce log(Y_t) natively (no underflow, no zeros).
    The cutoff-CP batch is scattered from its sparse form into the
    n-float output, which then takes its log in place, so the void paths
    become -inf.  Either way the result is a fresh array the caller owns.
    """
    if t <= 0:
        raise InvalidParameterError("time must be positive")
    if model.log_sampler is not None:
        return model.log_sampler(t, n, rng)
    if not can_sample(model):
        raise UnsupportedModelError(
            f"model {model.name!r} has neither an exact sampler nor an invertible tail"
        )
    idx, sums = sample_cutoff_cp(model.tail, cutoff, t, rng, n)
    values = np.zeros(n)
    values[idx] = sums
    with np.errstate(divide="ignore"):
        np.log(values, out=values)
    return values


def to_neg_t_power(samples, t, *, out=None):
    """Map log y to y**(-t) = exp(-t*log y); returns (finite values, at-infinity count).

    ``samples`` are log values.  A -inf sample (y = 0) has no finite
    image and is counted in the at-infinity bucket instead.

    The images are written to ``out`` (any float array of the batch's
    size, the batch itself included) or, by default, to a fresh array, so
    the caller's samples are never changed unless passed as ``out``.  The
    finite values are then packed to its front, in order, ``BLOCK`` at
    a time; the returned values are that prefix, a view of the array.
    """
    if t <= 0:
        raise InvalidParameterError("time must be positive")
    log_y = np.asarray(samples, dtype=float)
    with np.errstate(over="ignore"):
        res = np.multiply(log_y, -t, out=out)
        np.exp(res, out=res)
    k = 0
    for lo in range(0, res.size, BLOCK):
        block = res[lo : lo + BLOCK]
        finite = np.isfinite(block)
        if k == lo and finite.all():
            k += block.size
            continue
        kept = block[finite]
        res[k : k + kept.size] = kept
        k += kept.size
    return res[:k], int(res.size - k)


def to_tl(samples, L, t, *, out=None):
    """Map log y to t*L(y) for a decreasing L; returns (finite values, at-infinity count).

    ``samples`` are log values, and ``L`` takes log y, so that no batch
    passes through exp and underflows.  L sees only the finite log
    values and must act elementwise: it is applied ``BLOCK`` values at
    a time.  Samples with no finite image count as at infinity.  The
    finite images are packed, in order, at the front of ``out`` (any float
    array of the batch's size, the batch itself included) or, by default,
    of a fresh array; the returned values are that prefix, a view of the
    array.
    """
    if t <= 0:
        raise InvalidParameterError("time must be positive")
    log_y = np.asarray(samples, dtype=float)
    if out is None:
        out = np.empty(log_y.size)
    k = 0
    for lo in range(0, log_y.size, BLOCK):
        block = log_y[lo : lo + BLOCK]
        block = block[np.isfinite(block)]
        vals = t * np.asarray(L(block), dtype=float)
        vals = vals[np.isfinite(vals)]
        out[k : k + vals.size] = vals
        k += vals.size
    return out[:k], int(log_y.size - k)
