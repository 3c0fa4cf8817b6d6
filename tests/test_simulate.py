"""Samplers, substreams, and the log-space transforms."""

import math

import numpy as np
import pytest
from scipy.stats import chi2

from subordlab import catalog
from subordlab.core import BLOCK, LevyTail
from subordlab.dickman import make_dickman
from subordlab.errors import InvalidParameterError, UnsupportedModelError
from subordlab.montecarlo import two_sample_ks, two_sample_ks_critical_value
from subordlab.simulate import (
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
        with pytest.raises(UnsupportedModelError):
            sample_marginal(w, 0.5, 10, substream(0, 0))

    def test_exact_log_path_has_no_zeros(self, gamma11):
        log_s = sample_marginal(gamma11, 0.001, 100_000, substream(24, 0))
        assert np.all(np.isfinite(log_s))


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

        # p < 1/2: the hit positions from geometric gaps, in the sampler's
        # blocks, then every hit's truncated-Poisson count, then all jumps
        def hit_gaps(tail, rng):
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
            total = int(counts.sum())
            sums = np.zeros(n)
            if total:
                jumps = np.asarray(tail.inverse_tail(rng.random(total) * nu_eps), dtype=float)
                owner = np.repeat(idx, counts)
                sums = np.bincount(owner, weights=jumps, minlength=n)
            return sums

        tail = CP_TAILS[model]()
        sparse = -math.expm1(-t * float(tail.tail(eps))) < 0.5
        rng, ref = substream(36, 0), substream(36, 0)
        got = dense_cp(tail, eps, t, rng, n)
        want = (hit_gaps if sparse else full_length)(tail, ref)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state
        # the sparse form lists exactly the paths that jumped, in ascending order
        idx, sums = sample_cutoff_cp(tail, eps, t, substream(36, 0), n)
        assert idx.dtype == np.intp and np.array_equal(idx, np.flatnonzero(want))
        assert sums.tobytes() == want[idx].tobytes()
        if t == 1e-9:  # the void case really drew no jumps
            assert not got.any()

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
        # ~6.3 jumps per path, nearly every path jumps: the sparse pair is
        # about n indices plus n sums, scattered into the one n-float batch
        n = 1_000_000
        model = catalog.make_log_power(0.1, 3)
        peak = traced_peak(
            lambda: sample_marginal(model, 0.01, n, substream(40, 0), cutoff=1e-8)
        )
        assert peak <= 32 * 2**20

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

    @pytest.mark.parametrize("lam", [1e-3, 0.05, 0.3, 0.69])
    def test_sparse_hits_are_binomial(self, lam):
        # p = 1 - exp(-lam) < 1/2: the hit count is Binomial(n, p), and the
        # hits spread evenly over the paths (10 equal bins, by chi-square)
        n = 1_000_000
        p = -math.expm1(-lam)
        idx, _ = sample_cutoff_cp(UNIT_JUMPS, 0.5, lam, substream(41, 0), n)
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
        _, sums = sample_cutoff_cp(UNIT_JUMPS, 0.5, lam, substream(42, 0), n)
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
        idx, sums = sample_cutoff_cp(gamma11.tail, 10.0, t, rng, 1_000_000)
        assert idx.size == 0 and sums.size == 0
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
        assert vals[0] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_zero_goes_to_infinity_bucket(self):
        vals, n_inf = to_neg_t_power(np.array([-np.inf, math.log(2.0)]), 0.1)
        assert n_inf == 1 and vals.size == 1

    def test_power_matches_allocating_form(self):
        rng = np.random.default_rng(4)
        log_y = np.concatenate([[-np.inf, -800.0, 0.0, 800.0], rng.normal(0.0, 50.0, 1000)])
        for t in (1e-3, 0.3, 2.0):
            vals, n_inf = to_neg_t_power(log_y, t)
            with np.errstate(over="ignore"):
                old = np.exp(-t * log_y)
            finite = np.isfinite(old)
            assert n_inf == int(np.sum(~finite)) and type(n_inf) is int
            assert vals.tobytes() == old[finite].tobytes()
        # nothing at infinity: the transformed batch is returned whole
        vals, n_inf = to_neg_t_power(log_y[1:], 0.3)
        assert n_inf == 0 and vals.tobytes() == np.exp(-0.3 * log_y[1:]).tobytes()

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    def test_out_matches_default_and_allocating_form(self, n):
        # the expressions both transforms used before they took out=
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
                (lambda y, **kw: to_neg_t_power(y, t, **kw), allocating_power(log_y, t)),
                (lambda y, **kw: to_tl(y, L, t, **kw), allocating_tl(log_y, t, L)),
            ):
                before = log_y.tobytes()
                vals, n_inf = transform(log_y)
                assert log_y.tobytes() == before  # the default leaves the batch alone
                assert vals.tobytes() == want[0].tobytes() and n_inf == want[1]
                assert type(n_inf) is int
                batch = log_y.copy()
                vals, n_inf = transform(batch, out=batch)
                assert vals.tobytes() == want[0].tobytes() and n_inf == want[1]
                # written into the batch itself (n = 1 leaves nothing finite)
                assert np.shares_memory(vals, batch) or not vals.size
                out = np.empty(n)
                vals, n_inf = transform(log_y, out=out)
                assert log_y.tobytes() == before
                assert vals.tobytes() == want[0].tobytes() and n_inf == want[1]
                assert np.shares_memory(vals, out) or not vals.size

    def test_tl_arithmetic(self):
        vals, n_inf = to_tl(np.array([-5.0]), lambda ly: -ly, 0.2)
        assert vals[0] == pytest.approx(1.0, rel=1e-12)
        vals, _ = to_tl(np.array([-2.0]), lambda ly: (-ly) ** 3, 0.5)
        assert vals[0] == pytest.approx(4.0, rel=1e-12)

    def test_tl_log_variant(self):
        vals, n_inf = to_tl(np.array([-800.0, -np.inf]), lambda ly: -ly, 0.5)
        assert n_inf == 1
        assert vals[0] == pytest.approx(400.0)

    def test_reproducibility_bitwise(self, gamma11):
        a = sample_marginal(gamma11, 0.1, 5000, substream(77, 0))
        b = sample_marginal(gamma11, 0.1, 5000, substream(77, 0))
        np.testing.assert_array_equal(a, b)
