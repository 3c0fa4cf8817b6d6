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

from .core import BLOCK, INVERTIBLE_TAIL, POSITIVE, Check, LevyTail, SubordinatorModel, checks
from .errors import InvalidParameterError, NumericalFailure, UnsupportedModelError

__all__ = [
    "substream",
    "can_sample",
    "SAMPLABLE",
    "sample_marginal",
    "sample_cutoff_cp",
    "to_neg_t_power",
    "to_tl",
]

# Work ceilings of the cutoff compound-Poisson draw, checked before it draws:
# the expected jumps of one path, lam = t*nu_bar(eps) (a path's jumps are one
# array, so this keeps it near 200 MB), and of the batch, n*lam.  Each is over
# 100 times the most any bundled config or test asks for: lam = 2.1e5 and
# n*lam = 1.4e7.
MAX_CP_PATH_JUMPS = 2.5e7
MAX_CP_JUMPS = 2e9
# the jump size eps below which a cutoff compound-Poisson draw drops jumps, by default
CUTOFF = 1e-6


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


def _jump_sums(tail, nu_eps, counts, rng, out):
    """Write to ``out[i]`` the sum of ``counts[i]`` jumps drawn above eps, in path order.

    The jumps are drawn in blocks of at most ``BLOCK`` that end on a path
    boundary (a path with more jumps is a block of its own), inverted
    (``inverse_tail`` must be elementwise), and each path's jumps summed
    in draw order; a path with no jumps gets 0.0 and draws nothing (a
    block with no jumps draws ``rng.random(0)``, which takes no bits).
    """
    ends = np.cumsum(counts)
    lo = 0
    while lo < counts.size:
        done = ends[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(ends, done + BLOCK, side="right")), lo + 1)
        jumps = rng.random(int(ends[hi - 1] - done))
        jumps *= nu_eps
        jumps = tail.inverse_tail(jumps)
        owner = np.repeat(np.arange(hi - lo), counts[lo:hi])
        out[lo:hi] = np.bincount(owner, weights=jumps, minlength=hi - lo)
        lo = hi


def sample_cutoff_cp(tail: LevyTail, eps, t, rng, n, *, out=None):
    """Cutoff compound-Poisson batch of n paths: dense in ``out``, else in sparse form.

    Each of the n paths is the sum of Poisson(lam) jumps above eps,
    lam = t*nu_bar(eps), drawn by inversion, inverse_tail(U * nu_bar(eps)).
    A path with no jump is an exact zero (the void path, probability
    exp(-lam)), a legitimate sample.  Mean bias vs. the true marginal is
    -t * integral_0^eps x dnu(x).

    With ``out`` (an n-float array) the batch is written to it and ``out``
    is returned.  Without, the result is the jump sums of the paths that
    jump, in path order: the dense batch's nonzero values.

    The draw takes one of two forms, by the chance p = 1 - exp(-lam) that
    a path jumps:

    - p < 1/2 (sparse): the hit positions are drawn directly, from
      Geometric(p) gaps, and each hit's count from the zero-truncated
      Poisson (``_hit_paths``); the work grows with the hits, not with n.
      A p that underflows to 0 gives no hits.  ``out`` is zero-filled and
      the hits' sums are scattered into it.
    - p >= 1/2 (dense): the n Poisson counts are drawn ``BLOCK`` paths at
      a time into the output itself (counts are exact as floats), then
      each ``BLOCK``-path window's counts are overwritten with its paths'
      jump sums.  The batch is bitwise the one drawn by all n counts, then
      all jumps, in single calls.  Without ``out`` the batch is drawn into
      a fresh n-float array and its nonzero values returned.

    Either way the jumps are drawn by ``_jump_sums``, in path order, in
    blocks of at most ``BLOCK`` jumps.  Beyond the n-float batch, memory
    grows with neither n nor the jump count, only with the paths that jump
    in the sparse form and the jumps of the longest path.  A batch that
    expects more than ``MAX_CP_PATH_JUMPS`` jumps per path or
    ``MAX_CP_JUMPS`` in all is refused (InvalidParameterError) before
    anything is drawn.
    """
    POSITIVE.require(t=t)
    if tail.inverse_tail is None:
        raise UnsupportedModelError("tail has no inverse; cannot draw jumps")
    if not (0.0 < eps < tail.support_upper):
        raise InvalidParameterError("cutoff must lie inside the jump support")
    if out is not None and out.shape != (n,):
        raise InvalidParameterError(f"out must hold n = {n} floats, got shape {out.shape}")
    nu_eps = float(tail.tail(eps))
    if not np.isfinite(nu_eps) or nu_eps <= 0:
        raise InvalidParameterError(f"invalid cutoff: nu_bar(eps) = {nu_eps!r}")
    lam = t * nu_eps
    for jumps, ceiling, what in ((lam, MAX_CP_PATH_JUMPS, "per path"),
                                 (n * lam, MAX_CP_JUMPS, "in all")):
        if jumps > ceiling:
            raise InvalidParameterError(f"the cutoff draw expects {jumps:.4g} jumps {what}, "
                                        f"past the ceiling {ceiling:g}; raise the cutoff")
    p = -math.expm1(-lam)
    if p < 0.5:
        idx, counts = _hit_paths(lam, p, n, rng)
        sums = np.empty(idx.size)
        _jump_sums(tail, nu_eps, counts, rng, sums)
        if out is None:
            return sums
        out.fill(0.0)
        out[idx] = sums
        return out
    dense = np.empty(n) if out is None else out
    for lo in range(0, n, BLOCK):
        dense[lo : lo + BLOCK] = rng.poisson(lam, min(BLOCK, n - lo))
    for lo in range(0, n, BLOCK):
        window = dense[lo : lo + BLOCK]
        _jump_sums(tail, nu_eps, window.astype(np.int64), rng, window)
    return dense[dense != 0.0] if out is None else out


def can_sample(model: SubordinatorModel):
    """Whether ``sample_marginal`` can draw from the model: exact log sampler or invertible tail."""
    return model.log_sampler is not None or INVERTIBLE_TAIL.valid(model)


SAMPLABLE = Check(can_sample, "an exact sampler or an invertible jump tail")


@checks(model=(SAMPLABLE,), t=POSITIVE)
def sample_marginal(model: SubordinatorModel, t, n, rng, *, cutoff=CUTOFF):
    """Draw n values of log(Y_t): exact log sampler if the model has one, else cutoff CP.

    Exact samplers produce log(Y_t) natively (no underflow, no zeros), so
    a batch whose min or max is not finite is refused (NumericalFailure).
    The cutoff-CP batch is drawn into the n-float output, which then takes
    its log in place, so the void paths become -inf.  Either way the result is a fresh array the caller owns.
    """
    if model.log_sampler is not None:
        log_y = model.log_sampler(t, n, rng)
        if log_y.size and not (-np.inf < log_y.min() and log_y.max() < np.inf):
            raise NumericalFailure(f"the exact sampler of {model.describe()} drew a non-finite "
                                   "log(Y_t)")
        return log_y
    values = sample_cutoff_cp(model.tail, cutoff, t, rng, n, out=np.empty(n))
    with np.errstate(divide="ignore"):
        np.log(values, out=values)
    return values


def _finite_images(samples, image):
    """The finite images of log values, packed in place; returns (them, at-infinity count).

    ``image`` maps each ``BLOCK``-value block of ``samples`` (a float array;
    any other sequence is copied first by ``np.asarray``) to its images,
    and the finite ones are packed, in order, at the front of the array:
    the returned values are that prefix, a view.  A block that ``image``
    overwrote and returned stays where it is while nothing before it was
    dropped and its images are all finite.
    """
    res = np.asarray(samples, dtype=float)
    k = 0
    for lo in range(0, res.size, BLOCK):
        block = res[lo : lo + BLOCK]
        vals = image(block)
        finite = np.isfinite(vals)
        if vals is block and k == lo and finite.all():
            k += block.size
            continue
        kept = vals[finite]
        res[k : k + kept.size] = kept
        k += kept.size
    return res[:k], int(res.size - k)


def to_neg_t_power(samples, t):
    """Map log y to y**(-t) = exp(-t*log y) in place; returns (finite values, at-infinity count).

    ``samples`` are log values, overwritten by their images (a float
    array; any other sequence is copied first by ``np.asarray``).  A -inf
    sample (y = 0) has no finite image and is counted in the at-infinity
    bucket instead.  The finite values are packed to the front of the
    array, in order; the returned values are that prefix, a view of the
    array.
    """
    POSITIVE.require(t=t)

    def image(block):
        with np.errstate(over="ignore"):
            block *= -t
            return np.exp(block, out=block)

    return _finite_images(samples, image)


def to_tl(samples, L, t):
    """Map log y to t*L(y) for a decreasing L in place; returns (finite values, at-infinity count).

    ``samples`` are log values, overwritten by their images (a float
    array; any other sequence is copied first by ``np.asarray``), and
    ``L`` takes log y, so that no batch passes through exp and underflows.
    L sees only the finite log values and must act elementwise: it is
    applied ``BLOCK`` values at a time.  Samples with no finite image
    count as at infinity.  The finite images are packed, in order, at the
    front of the array; the returned values are that prefix, a view of
    the array.
    """
    POSITIVE.require(t=t)
    return _finite_images(samples, lambda block: t * L(block[np.isfinite(block)]))
