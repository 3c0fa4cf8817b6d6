"""Samplers, substreams, and the log-space transforms."""

import math
import re

import numpy as np
import pytest
from scipy.stats import chi2

from scipy.optimize import brentq
from test_contract import models

from subordlab import catalog
from subordlab.core import BLOCK, SHAPE_FLOOR, LevyTail, integral
from subordlab.dickman import make_dickman
from subordlab.errors import InvalidParameterError
from subordlab.montecarlo import two_sample_ks, two_sample_ks_critical_value
from subordlab.simulate import (
    MAX_CP_JUMPS,
    MAX_CP_PATH_JUMPS,
    SAMPLABLE,
    sample_cutoff_cp,
    sample_marginal,
    substream,
    to_neg_t_power,
    to_tl,
)


class TestSubstreams:
    def test_same_seed_and_stream_replays(self):
        a = substream(42, 3).random(100)
        b = substream(42, 3).random(100)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = substream(42, 0).random(1000)
        b = substream(42, 1).random(1000)
        assert not np.array_equal(a, b)

    def test_cross_stream_correlation_smoke(self):
        n = 100_000
        a = substream(7, 0).random(n)
        b = substream(7, 1).random(n)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 4.0 / math.sqrt(n)


class TestSampleMarginal:
    def test_gamma_mean(self, gamma11):
        samples = np.exp(sample_marginal(gamma11, 2.0, 500_000, substream(21, 0)))
        stderr = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - 2.0) <= 3.0 * stderr

    def test_stable_laplace_identity(self):
        st = catalog.make_stable(1.0, 0.5)
        vals = np.exp(-np.exp(sample_marginal(st, 1.0, 500_000, substream(22, 0))))
        stderr = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - math.exp(-1.0)) <= 3.0 * stderr

    def test_dickman_mean(self, dickman1):
        samples = np.exp(sample_marginal(dickman1, 1.0, 500_000, substream(23, 0)))
        stderr = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - 1.0) <= 3.0 * stderr

    def test_unsupported_model(self):
        w = catalog.make_weibull(2.0)
        rng = substream(0, 0)
        before = rng.bit_generator.state
        with pytest.raises(InvalidParameterError, match="^model must be an exact sampler or an "
                                                        r"invertible jump tail, got weibull\("):
            sample_marginal(w, 0.5, 10, rng)
        assert rng.bit_generator.state == before

    def test_exact_log_path_has_no_zeros(self, gamma11):
        log_s = sample_marginal(gamma11, 0.001, 100_000, substream(24, 0))
        assert np.all(np.isfinite(log_s))

    @pytest.mark.parametrize("model,shape", [
        (catalog.make_gamma(1.0, 1.0), "t*gamma"), (make_dickman(1.0), "theta"),
        (catalog.make_stable(1.0, 0.5), "a*t")])
    def test_exact_draws_are_finite_down_to_the_shape_floor(self, model, shape):
        # below it, log(u)/shape overflowed: every draw -inf
        log_s = sample_marginal(model, SHAPE_FLOOR, 10_000, substream(25, 0))
        assert np.all(np.isfinite(log_s))
        rng = substream(25, 0)
        start = rng.bit_generator.state
        with pytest.raises(InvalidParameterError, match=rf"^{re.escape(shape)} must be a finite"):
            sample_marginal(model, SHAPE_FLOOR / 2.0, 10, rng)
        assert rng.bit_generator.state == start


# level of each chi-square check of the sparse branch: seven of them, so
# that together they fail a correct sampler less than 1% of the time
CHI2_LEVEL = 1e-3

# a Poisson process: every jump has size 1, at rate 1, so a path's sum is its count
UNIT_JUMPS = LevyTail(
    tail=lambda x: np.where(np.asarray(x) < 1.0, 1.0, 0.0),
    inverse_tail=lambda y: np.ones(np.shape(y)),
    support_upper=1.0,
)

CP_TAILS = {
    "dickman": lambda: make_dickman(1.0).tail,
    "gamma": lambda: catalog.make_gamma(1.0, 1.0).tail,
    "log_power": lambda: catalog.make_log_power(0.1, 3).tail,
}


def hit_gaps(tail, eps, t, n, rng):
    """The sparse cutoff draw as first written: (the hit paths, their jump sums).

    The hit positions come from geometric gaps in the sampler's blocks, then
    every hit's truncated-Poisson count, then all the jumps at once.
    """
    nu_eps = float(tail.tail(eps))
    lam = t * nu_eps
    p = -math.expm1(-lam)
    hits, last = [], -1
    while True:
        h = (n - 1 - last) * p
        gaps = rng.geometric(p, min(BLOCK, int(h + 4.0 * math.sqrt(h)) + 16))
        pos = last + np.cumsum(np.minimum(gaps, n + 1))
        hits.extend(pos[pos < n])
        if pos[-1] >= n:
            break
        last = pos[-1]
    idx = np.array(hits, dtype=np.intp)
    counts = 1 + rng.poisson(np.maximum(lam + np.log1p(-rng.random(idx.size) * p), 0.0))
    jumps = np.asarray(tail.inverse_tail(rng.random(int(counts.sum())) * nu_eps), dtype=float)
    owner = np.repeat(np.arange(idx.size), counts)
    return idx, np.bincount(owner, weights=jumps, minlength=idx.size)


# Every sampler against its own exponent: E exp(-s Y_t) = exp(-t phi(s)), and
# exp(-s Y) lies in [0, 1], so by Hoeffding's inequality the mean of n draws
# leaves it by more than c = sqrt(log(2/alpha) / (2n)) with chance at most
# alpha, at any n and any law.  n and alpha are fixed here, not tuned on runs.
LAPLACE_N = 200_000
LAPLACE_ALPHA = 1e-3
LAPLACE_C = math.sqrt(math.log(2.0 / LAPLACE_ALPHA) / (2 * LAPLACE_N))  # 0.00436
LAPLACE_TIMES = (1.0, 0.01)
# a cutoff compound-Poisson case draws at the default cutoff 1e-6 unless its
# batch would then expect more jumps than this (log_power at t = 1 would expect
# 5e8 to 1.3e9), and else at the cutoff eps with n t nu_bar(eps) = LAPLACE_JUMPS;
# the gate reads the eps it drew at
LAPLACE_JUMPS = 5e7


def laplace_cases():
    """Every model that has phi and can be drawn, at its defaults and at 2.5 times its
    params, at each time of ``LAPLACE_TIMES``."""
    for scale in (1.0, 2.5):
        for label, model in models(scale):
            if model.phi is not None and SAMPLABLE.passes(model):
                for t in LAPLACE_TIMES:
                    yield pytest.param(model, t, id=f"{label}-t{t:g}")


class TestLaplaceTransform:
    # 32 cases: by the union bound a correct sampler fails one with chance at most 0.032
    @pytest.mark.parametrize("model, t", list(laplace_cases()))
    def test_sampler_matches_its_exponent(self, model, t):
        # s solves t phi(s) = log 2, found on phi.eval_log, so the target is 1/2
        hi = 1.0
        while t * model.phi.eval_log(hi) < math.log(2.0):
            hi *= 2.0
        ell = brentq(lambda e: t * model.phi.eval_log(e) - math.log(2.0), -60.0, hi, xtol=1e-13)
        target = math.exp(-t * model.phi.eval_log(ell))
        upper = target
        eps = 1e-6
        if model.log_sampler is None:
            # the cutoff draw's exponent is phi - phi_eps, 0 <= phi_eps(s) <= s m_eps,
            # with m_eps the mean of the dropped jumps, integral_0^eps x nu(dx)
            eps = max(eps, float(model.tail.inverse_tail(LAPLACE_JUMPS / (LAPLACE_N * t))))
            m_eps = integral(lambda x: x * model.levy_density(x), [0.0, eps], op="m_eps")
            upper = min(1.0, target * math.exp(t * math.exp(ell) * m_eps))
        log_y = sample_marginal(model, t, LAPLACE_N, substream(14, 0), cutoff=eps)
        with np.errstate(over="ignore"):
            mean = np.exp(-np.exp(ell + log_y)).mean()
        assert target - LAPLACE_C <= mean <= upper + LAPLACE_C, (
            f"mean {mean!r} outside [{target!r}, {upper!r}] widened by c = {LAPLACE_C:.5f}: "
            f"off by {max(target - mean, mean - upper) / LAPLACE_C:.2f} c")


class TestCutoffCp:
    def test_void_path_probability(self, dickman1, dense_cp):
        # P(sample == 0) = exp(-t * nu_bar(eps))
        eps, t, n = 1e-2, 0.25, 400_000
        nu_eps = float(dickman1.tail.tail(eps))
        samples = dense_cp(dickman1.tail, eps, t, substream(31, 0), n)
        frac_zero = np.mean(samples == 0.0)
        target = math.exp(-t * nu_eps)
        assert abs(frac_zero - target) <= 4.0 * math.sqrt(target * (1 - target) / n)

    def test_truncated_mean(self, dickman1, dense_cp):
        # E sum = t * integral_eps^1 x dnu = t * gamma * (1 - eps)
        eps, n = 1e-6, 1_000_000
        samples = dense_cp(dickman1.tail, eps, 1.0, substream(32, 0), n)
        stderr = samples.std(ddof=1) / math.sqrt(n)
        assert abs(samples.mean() - (1.0 - eps)) <= 3.0 * stderr

    def test_jump_law_matches_normalized_tail(self):
        # single-jump law: P(jump > x) = log(x)/log(eps) for the Dickman tail
        model = make_dickman(2.0)
        eps = 1e-6
        rng = substream(33, 0)
        nu_eps = float(model.tail.tail(eps))
        jumps = np.asarray(model.tail.inverse_tail(rng.random(200_000) * nu_eps))
        x_grid = np.geomspace(eps * 10, 0.9, 25)
        emp_tail = np.array([(jumps > x).mean() for x in x_grid])
        target = np.log(x_grid) / np.log(eps)
        assert np.max(np.abs(emp_tail - target)) < 0.01

    @pytest.mark.parametrize(
        "t,n",
        [
            (1e6, 1_000),  # 6.25e8 jumps per path: one path's jumps would take 5 GB
            (3.2e4, 101),  # 2e7 jumps per path, under that ceiling, but 2.02e9 in all
        ],
    )
    def test_work_ceilings_checked_before_any_draw(self, t, n):
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"rng.{name} called past a work ceiling")

        tail = catalog.make_log_power(0.1, 3).tail  # nu_bar(1e-8) = 625
        assert t * tail.tail(1e-8) > MAX_CP_PATH_JUMPS or n * t * tail.tail(1e-8) > MAX_CP_JUMPS
        with pytest.raises(InvalidParameterError, match="past the ceiling"):
            sample_cutoff_cp(tail, 1e-8, t, NoDraws(), n)

    def test_invalid_cutoff(self, dickman1):
        with pytest.raises(InvalidParameterError):
            sample_cutoff_cp(dickman1.tail, 2.0, 1.0, substream(0, 0), 5)

    def test_cutoff_consistency_two_epsilons(self, dickman1, dense_cp):
        n = 100_000
        coarse = dense_cp(dickman1.tail, 1e-4, 1.0, substream(34, 0), n)
        fine = dense_cp(dickman1.tail, 1e-8, 1.0, substream(34, 1), n)
        assert two_sample_ks(coarse, fine) <= two_sample_ks_critical_value(n, n, 0.01)

    @pytest.mark.parametrize(
        "model,eps,t,n",
        [
            ("dickman", 0.5, 1e-9, 1000),  # void path: no jumps at all
            ("dickman", 1e-6, 1.0, 1),
            ("dickman", 1e-6, 1.0, 2000),  # ~14 jumps per path
            ("gamma", 1e-6, 1e-3, 1_000_000),  # ~1% of paths jump
            ("dickman", 1e-6, 1e-3, 1_000_000),  # sparse: ~1.4% of paths jump
            ("log_power", 1e-8, 0.01, 150_000),  # dense: ~6.3 jumps per path
            ("log_power", 1e-12, 100.0, 3),  # one path's jumps span several blocks
            ("dickman", 1e-6, 0.06, BLOCK + 2),  # dense: the last window draws no jumps
        ],
    )
    def test_matches_full_length_binning(self, model, eps, t, n, dense_cp):
        # p >= 1/2: the binning over all n paths that sample_cutoff_cp used before
        def full_length(tail, rng):
            nu_eps = float(tail.tail(eps))
            counts = rng.poisson(t * nu_eps, n)
            total = int(counts.sum())
            sums = np.zeros(n)
            if total:
                jumps = np.asarray(tail.inverse_tail(rng.random(total) * nu_eps), dtype=float)
                owner = np.repeat(np.arange(n), counts)
                sums = np.bincount(owner, weights=jumps, minlength=n)
            return sums

        def hit_gaps_dense(tail, rng):
            idx, sums = hit_gaps(tail, eps, t, n, rng)
            dense = np.zeros(n)
            dense[idx] = sums
            return dense

        tail = CP_TAILS[model]()
        sparse = -math.expm1(-t * float(tail.tail(eps))) < 0.5
        rng, ref = substream(36, 0), substream(36, 0)
        got = dense_cp(tail, eps, t, rng, n)
        want = (hit_gaps_dense if sparse else full_length)(tail, ref)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state
        # the sparse form is the sums of exactly the paths that jumped, in path order
        sums = sample_cutoff_cp(tail, eps, t, substream(36, 0), n)
        assert sums.tobytes() == want[np.flatnonzero(want)].tobytes()
        # the dense form writes the same batch into out, from a dirty buffer
        rng, out = substream(36, 0), np.full(n, np.nan)
        assert sample_cutoff_cp(tail, eps, t, rng, n, out=out) is out
        assert out.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state
        if t == 1e-9:  # the void case really drew no jumps
            assert not got.any()
        if n == BLOCK + 2:  # and the last window's two paths drew none
            assert not got[BLOCK:].any()

    def test_sparse_draw_over_several_blocks_of_hits(self):
        # n*p = 2.1e5 hits take four blocks of gaps, each block sized from the
        # paths left after the last hit.  A floor of 1e-3 on the truncated-Poisson
        # means would change about n*5e-7 = 5 of the counts.  The sums and the
        # generator's end state are those of the reference
        tail, eps, t, n = CP_TAILS["dickman"](), 1e-6, 1.5e-3, 10_000_000
        assert n * -math.expm1(-t * float(tail.tail(eps))) > 3 * BLOCK
        rng, ref = substream(38, 0), substream(38, 0)
        got = sample_cutoff_cp(tail, eps, t, rng, n)
        _, want = hit_gaps(tail, eps, t, n, ref)
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_out_must_hold_the_batch(self, dickman1):
        with pytest.raises(InvalidParameterError):
            sample_cutoff_cp(dickman1.tail, 1e-6, 1.0, substream(0, 0), 5, out=np.empty(4))

    def test_block_sizes_are_crossed(self):
        # the dense case above draws several blocks of counts and of jumps
        jumps = 0.01 * float(CP_TAILS["log_power"]().tail(1e-8)) * 150_000
        assert BLOCK < 150_000 and BLOCK < jumps / 4

    def test_sparse_batch_memory_is_the_output_alone(self, traced_peak):
        # ~1.4% of 1e6 paths jump: beyond the 8n-byte output only the block
        # buffers and the jumping paths are held
        n = 1_000_000
        tail = make_dickman(1.0).tail
        peak = traced_peak(lambda: sample_cutoff_cp(tail, 1e-6, 1e-3, substream(37, 0), n))
        assert peak <= 8 * n + 2 * 2**20

    def test_dense_batch_memory_does_not_grow_with_jumps(self, traced_peak):
        # ~6.3 jumps per path at cutoff 1e-8, ~21 at 1e-12: the same peak
        n = 100_000
        tail = catalog.make_log_power(0.1, 3).tail
        peaks = [
            traced_peak(lambda: sample_cutoff_cp(tail, eps, 0.01, substream(38, 0), n))
            for eps in (1e-8, 1e-12)
        ]
        assert max(peaks) <= 1.5 * min(peaks)

    def test_dense_marginal_pays_nothing_for_the_sparse_form(self, traced_peak):
        # ~6.3 jumps per path, nearly every path jumps: the counts and then
        # the sums are written into the one n-float batch, with no sparse
        # pair beside it (25.5 MiB when the pair was scattered into it)
        n = 1_000_000
        model = catalog.make_log_power(0.1, 3)
        peak = traced_peak(
            lambda: sample_marginal(model, 0.01, n, substream(40, 0), cutoff=1e-8)
        )
        assert peak <= 8 * n + 4 * 2**20

    @pytest.mark.parametrize(
        "tail",
        [
            catalog.make_gamma(1.0, 1.0).tail,
            catalog.make_gamma(0.5, 3.0).tail,
            catalog.make_gamma(2.0, 0.2).tail,
            make_dickman(1.0).tail,
            make_dickman(0.3).tail,
            catalog.make_log_power(0.1, 3).tail,
            catalog.make_log_power(2.0, 1).tail,
        ],
    )
    def test_inverse_tail_is_elementwise(self, tail):
        # the blocked sampler inverts each block on its own: blocks of 1 and
        # 1024 must give the bits of one call on the whole batch
        nu_eps = float(tail.tail(1e-8))
        y = substream(39, 0).random(5000) * nu_eps
        y[:3] = (nu_eps, nu_eps * 1e-12, nu_eps * 0.5)
        full = np.asarray(tail.inverse_tail(y), dtype=float)
        for size in (1, 1024):
            blocks = np.concatenate(
                [np.asarray(tail.inverse_tail(y[i : i + size]), dtype=float)
                 for i in range(0, y.size, size)]
            )
            assert blocks.tobytes() == full.tobytes()
        assert tail.inverse_tail(float(y[7])) == full[7]
        # a block with no jumps inverts an empty draw
        assert np.asarray(tail.inverse_tail(y[:0]), dtype=float).shape == (0,)

    @pytest.mark.parametrize("lam", [1e-3, 0.05, 0.3, 0.69])
    def test_sparse_hits_are_binomial(self, lam):
        # p = 1 - exp(-lam) < 1/2: the hit count is Binomial(n, p), and the
        # hits spread evenly over the paths (10 equal bins, by chi-square)
        n = 1_000_000
        p = -math.expm1(-lam)
        idx = np.flatnonzero(sample_cutoff_cp(UNIT_JUMPS, 0.5, lam, substream(41, 0), n,
                                              out=np.empty(n)))
        assert abs(idx.size - n * p) <= 4.0 * math.sqrt(n * p * (1.0 - p))
        assert np.all(np.diff(idx) > 0) and idx[0] >= 0 and idx[-1] < n
        bins = np.bincount(idx * 10 // n, minlength=10)
        assert chi2.sf(np.sum((bins - idx.size / 10) ** 2 / (idx.size / 10)), 9) >= CHI2_LEVEL

    @pytest.mark.parametrize("lam", [0.01, 0.3, 0.69])
    def test_sparse_hit_counts_are_zero_truncated_poisson(self, lam):
        # unit jumps: each hit path's sum is its count, P(K = k) =
        # e^-lam lam^k / (k! p) for k >= 1.  Bins 1..last, then one bin
        # for k > last, each with at least 20 expected hits
        n = 1_000_000
        p = -math.expm1(-lam)
        sums = sample_cutoff_cp(UNIT_JUMPS, 0.5, lam, substream(42, 0), n)
        counts = sums.astype(np.int64)
        assert np.array_equal(counts, sums) and counts.min() >= 1
        pmf = [math.exp(-lam) * lam**k / (math.factorial(k) * p) for k in range(1, 30)]
        expected = counts.size * np.array(pmf)
        beyond = counts.size - np.cumsum(expected)
        last = int(np.sum((expected >= 20.0) & (beyond >= 20.0)))
        observed = np.bincount(np.minimum(counts, last + 1), minlength=last + 2)[1:]
        expected = np.append(expected[:last], beyond[last - 1])
        stat = np.sum((observed - expected) ** 2 / expected)
        assert chi2.sf(stat, expected.size - 1) >= CHI2_LEVEL

    def test_sparse_and_dense_branches_agree_at_half(self, gamma11, dense_cp):
        # p just below 1/2 draws hit positions, just above draws every count
        n = 200_000
        nu_eps = float(gamma11.tail.tail(1e-6))
        below, above = (
            dense_cp(gamma11.tail, 1e-6, -math.log1p(-p) / nu_eps, substream(43, i), n)
            for i, p in enumerate((0.5 - 1e-6, 0.5 + 1e-6))
        )
        assert two_sample_ks(below, above) <= two_sample_ks_critical_value(n, n, 0.01)

    def test_sparse_truncated_mean(self, dickman1, dense_cp):
        # E sum = t * gamma * (1 - eps), at p = 0.013 and p = 0.34
        eps, n = 1e-6, 1_000_000
        for stream, t in enumerate((1e-3, 0.03)):
            samples = dense_cp(dickman1.tail, eps, t, substream(44, stream), n)
            stderr = samples.std(ddof=1) / math.sqrt(n)
            assert abs(samples.mean() - t * (1.0 - eps)) <= 3.0 * stderr, t

    @pytest.mark.parametrize("t", [1e-320, 1e-310, 1e-300])
    def test_vanishing_jump_chance_draws_no_hits(self, gamma11, t):
        # t * nu_bar(10) = t * 4.2e-6: 0 at t = 1e-320, subnormal at 1e-310
        rng = substream(45, 0)
        start = rng.bit_generator.state
        assert sample_cutoff_cp(gamma11.tail, 10.0, t, rng, 1_000_000).size == 0
        if t * float(gamma11.tail.tail(10.0)) == 0.0:  # p underflowed: nothing drawn
            assert rng.bit_generator.state == start

    def test_exact_vs_cp_gamma(self, gamma11, dense_cp):
        n = 100_000
        exact = np.exp(gamma11.log_sampler(1.0, n, substream(35, 0)))
        cp = dense_cp(gamma11.tail, 1e-6, 1.0, substream(35, 1), n)
        assert two_sample_ks(exact, cp) <= two_sample_ks_critical_value(n, n, 0.01)


class TestTransforms:
    def test_unit_sample_fixed(self):
        vals, n_inf = to_neg_t_power(np.array([0.0]), 0.3)
        assert n_inf == 0 and vals[0] == 1.0

    def test_huge_sample_no_overflow(self):
        # y = exp(100), t = 0.01 -> y**(-t) = exp(-1), computed in log space
        vals, n_inf = to_neg_t_power(np.array([100.0]), 0.01)
        assert n_inf == 0
        assert vals[0] == pytest.approx(math.exp(-1.0), rel=1e-12, abs=0.0)

    def test_zero_goes_to_infinity_bucket(self):
        vals, n_inf = to_neg_t_power(np.array([-np.inf, math.log(2.0)]), 0.1)
        assert n_inf == 1 and vals.size == 1

    def test_power_matches_allocating_form(self):
        rng = np.random.default_rng(4)
        log_y = np.concatenate([[-np.inf, -800.0, 0.0, 800.0], rng.normal(0.0, 50.0, 1000)])
        for t in (1e-3, 0.3, 2.0):
            vals, n_inf = to_neg_t_power(log_y.copy(), t)
            with np.errstate(over="ignore"):
                old = np.exp(-t * log_y)
            finite = np.isfinite(old)
            assert n_inf == int(np.sum(~finite)) and type(n_inf) is int
            assert vals.tobytes() == old[finite].tobytes()
        # nothing at infinity: the transformed batch is returned whole
        vals, n_inf = to_neg_t_power(log_y[1:].copy(), 0.3)
        assert n_inf == 0 and vals.tobytes() == np.exp(-0.3 * log_y[1:]).tobytes()

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    def test_out_matches_default_and_allocating_form(self, n):
        # both transforms write into the batch; the allocating expressions they
        # replaced are the reference
        def allocating_power(log_y, t):
            with np.errstate(over="ignore"):
                vals = np.exp(-t * log_y)
            finite = np.isfinite(vals)
            return vals[finite], int(np.sum(~finite))

        def allocating_tl(log_y, t, L):
            finite = np.isfinite(log_y)
            vals = t * L(log_y[finite])
            keep = np.isfinite(vals)
            return vals[keep], int(np.sum(~finite) + np.sum(~keep))

        rng = np.random.default_rng(n)
        log_y = rng.normal(0.0, 300.0, n)
        log_y[rng.random(n) < 0.01] = -np.inf  # void compound-Poisson paths
        # exp(800 t) and (1e200)**3 overflow: images at infinity
        head = (-np.inf, -800.0, 800.0, -1e200)[:n]
        log_y[: len(head)] = head

        def L(ly):
            with np.errstate(over="ignore"):
                return (-ly) ** 3

        for t in (1e-3, 2.0):
            for transform, want in (
                (lambda y: to_neg_t_power(y, t), allocating_power(log_y, t)),
                (lambda y: to_tl(y, L, t), allocating_tl(log_y, t, L)),
            ):
                batch = log_y.copy()
                vals, n_inf = transform(batch)
                assert vals.tobytes() == want[0].tobytes() and n_inf == want[1]
                assert type(n_inf) is int
                # written into the batch itself (n = 1 leaves nothing finite)
                assert np.shares_memory(vals, batch) or not vals.size
                # a sequence other than a float array is copied first
                listed = log_y.tolist()
                vals, n_inf = transform(listed)
                assert listed == log_y.tolist()
                assert vals.tobytes() == want[0].tobytes() and n_inf == want[1]

    def test_tl_arithmetic(self):
        vals, n_inf = to_tl(np.array([-5.0]), lambda ly: -ly, 0.2)
        assert vals[0] == pytest.approx(1.0, rel=1e-12, abs=0.0)
        vals, _ = to_tl(np.array([-2.0]), lambda ly: (-ly) ** 3, 0.5)
        assert vals[0] == pytest.approx(4.0, rel=1e-12, abs=0.0)

    def test_tl_log_variant(self):
        vals, n_inf = to_tl(np.array([-800.0, -np.inf]), lambda ly: -ly, 0.5)
        assert n_inf == 1
        assert vals[0] == pytest.approx(400.0)

    def test_reproducibility_bitwise(self, gamma11):
        a = sample_marginal(gamma11, 0.1, 5000, substream(77, 0))
        b = sample_marginal(gamma11, 0.1, 5000, substream(77, 0))
        np.testing.assert_array_equal(a, b)
