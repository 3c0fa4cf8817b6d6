"""KS machinery and the named limit experiments."""

import csv
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subordlab import catalog, cli, criteria, dickman, montecarlo as mc
from subordlab.core import BLOCK, ExponentialLaw, ParetoLaw, pareto_cdf
from subordlab.errors import InvalidParameterError
from subordlab.simulate import sample_marginal, substream, to_neg_t_power
from conftest import pareto_quantile, pareto_sample

# L as a function of log x
NEG_LOG = lambda ly: -ly
CUBE = lambda ly: (-ly) ** 3


class TestKsDistance:
    def test_plugin_quantile_grid(self):
        law = ParetoLaw(2.0)
        n = 500
        xs = pareto_quantile(2.0, np.arange(1, n + 1) / (n + 1))
        emp = mc.EmpiricalDistribution.from_values(xs)
        assert mc.ks_distance(emp, law.cdf) <= 1.0 / (n + 1) + 1e-12

    def test_exact_sampling_self_consistency(self):
        law = ParetoLaw(2.0)
        n = 100_000
        samples = pareto_sample(2.0, n, substream(1, 0))
        emp = mc.EmpiricalDistribution.from_values(samples)
        assert mc.ks_distance(emp, law.cdf) <= mc.ks_critical_value(n, 0.01)

    def test_all_mass_at_infinity(self):
        emp = mc.EmpiricalDistribution.from_values(np.array([]), count_at_infinity=50)
        assert mc.ks_distance(emp, ParetoLaw(1.0).cdf) == 1.0

    def test_atomic_target_handled_one_sidedly(self):
        # half the mass at the atom of a Bernoulli-at-1 target
        law = mc.ParetoMixtureLaw(q=0.5, gamma=1.0)
        values = np.concatenate([np.ones(500), pareto_quantile(1.0, (np.arange(1, 501) - 0.5) / 500)])
        emp = mc.EmpiricalDistribution.from_values(values)
        assert mc.ks_distance(emp, law.cdf) <= 2e-3

    def test_empty_rejected(self):
        emp = mc.EmpiricalDistribution.from_values(np.array([]), count_at_infinity=0)
        with pytest.raises(InvalidParameterError):
            mc.ks_distance(emp, ParetoLaw(1.0).cdf)

    @given(st.integers(10, 500), st.floats(0.3, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_statistic_bounded(self, n, gamma):
        samples = pareto_sample(gamma, n, np.random.default_rng(n))
        emp = mc.EmpiricalDistribution.from_values(samples)
        stat = mc.ks_distance(emp, ParetoLaw(2.0 * gamma).cdf)
        assert 0.0 <= stat <= 1.0


class TestTwoSampleKs:
    def test_identical_samples_zero(self):
        x = np.arange(10.0)
        assert mc.two_sample_ks(x, x) == 0.0

    def test_disjoint_samples_one(self):
        assert mc.two_sample_ks(np.zeros(5), np.ones(5)) == 1.0

    def test_blocks_match_the_concatenated_columns(self):
        # both ECDFs over all values at once, as before the blocks; rounded values
        # put ties within and across the samples, -inf stands for a log of 0, the
        # first small pair reaches its sup only at a value of the second sample,
        # and the second only at the first value of the first sample's first block
        rng = np.random.default_rng(3)
        x = np.round(rng.normal(size=2 * BLOCK + 5), 2)
        y = np.round(rng.normal(0.01, 1.0, size=BLOCK + 3), 2)
        x[:7] = -np.inf
        for a, b in ((x, y), (y, x), ([0.0, 1.0, 2.0], [0.5, 0.6, 0.7]),
                     ([0.0, 4.0], [1.0, 2.0, 3.0, 4.0])):
            a_sorted, b_sorted = np.sort(a), np.sort(b)
            both = np.concatenate([a_sorted, b_sorted])
            fa = np.searchsorted(a_sorted, both, side="right") / a_sorted.size
            fb = np.searchsorted(b_sorted, both, side="right") / b_sorted.size
            assert mc.two_sample_ks(a, b) == float(np.max(np.abs(fa - fb)))


@pytest.mark.parametrize("level", [0.10, 0.05, 0.01])
def test_ks_coefficients_are_kolmogorov_quantiles(level):
    # c(level) is the upper level-quantile of the Kolmogorov distribution, to 3 places
    from scipy.stats import kstwobign

    assert mc.KS_COEFFICIENTS[level] == round(float(kstwobign.isf(level)), 3)


class TestProductLaw:
    def test_rederived_cdf_against_direct_sampling(self):
        # validation demanded before the product target may be used
        rng = substream(9, 0)
        n = 1_000_000
        for g1, g2 in [(1.0, 1.0), (1.0, 2.0), (0.5, 1.7)]:
            p1 = pareto_sample(g1, n, rng)
            p2 = pareto_sample(g2, n, rng)
            emp = mc.EmpiricalDistribution.from_values(p1 * p2)
            law = mc.ParetoProductLaw(g1, g2)
            assert mc.ks_distance(emp, law.cdf) <= mc.ks_critical_value(n, 0.01), (g1, g2)

    @pytest.mark.parametrize("g1,g2", [(1.0, 1.0), (1.0, 2.0)])
    @pytest.mark.parametrize("x", [1.001, 1.005, 1.0099, 2.0])
    def test_cdf_near_one_against_quadrature(self, g1, g2, x):
        # P(P1 P2 <= x) is the integral over p in [1, x] of P(P2 <= x/p) times P1's
        # density; [1, 1.01) holds about 5e-5 of the mass at (1, 1), below any KS gate
        from scipy.integrate import quad

        oracle, _ = quad(lambda p: (1.0 - (x / p) ** -g2) * g1 * p ** (-g1 - 1.0), 1.0, x,
                         epsabs=1e-15, epsrel=1e-12)
        assert abs(float(mc.ParetoProductLaw(g1, g2).cdf(x)) - oracle) <= 1e-12

    def test_equal_gamma_limit_continuous(self):
        near = mc.ParetoProductLaw(1.0, 1.0 + 5e-7)
        exact = mc.ParetoProductLaw(1.0, 1.0)
        x = np.geomspace(1.0, 50.0, 40)
        np.testing.assert_allclose(near.cdf(x), exact.cdf(x), atol=1e-5)


class TestParetoLimitExperiment:
    def test_gamma_small_t(self, gamma11):
        result = mc.experiment_pareto_limit(gamma11, t_list=(0.01,), n=100_000, seed=42)
        assert result["statistic"] <= 0.05

    def test_dickman_small_t(self, dickman1):
        result = mc.experiment_pareto_limit(dickman1, t_list=(0.01,), n=100_000, seed=42)
        assert result["statistic"] <= 0.07

    def test_trend_nonincreasing_with_slack(self, gamma11):
        result = mc.experiment_pareto_limit(
            gamma11, t_list=(0.2, 0.1, 0.05, 0.01), n=100_000, seed=42
        )
        ks = list(result["ks_by_t"].values())
        floor = mc.ks_critical_value(100_000, 0.01)
        assert all(ks[i + 1] <= ks[i] * 1.2 + floor for i in range(3))

    def test_negative_control_triples_statistic(self, gamma11, dickman1):
        for model in (gamma11, dickman1):
            matched = mc.experiment_pareto_limit(model, t_list=(0.01,), n=100_000, seed=42)
            control = mc.experiment_pareto_limit(
                model, t_list=(0.01,), n=100_000, seed=42, gamma=2.0 * model.known_gamma
            )
            assert control["statistic"] >= 3.0 * matched["statistic"]

    def test_exact_sampler_never_hits_infinity_bucket(self, gamma11):
        # enforced inside the experiment; reaching a report implies it held
        result = mc.experiment_pareto_limit(gamma11, t_list=(0.001,), n=50_000, seed=1)
        assert result["statistic"] < 1.0

    def test_requires_index(self):
        stable = catalog.make_stable(1.0, 0.5)
        with pytest.raises(InvalidParameterError):
            mc.experiment_pareto_limit(stable, t_list=(0.1,), n=100, seed=0)

    def test_determinism(self, gamma11):
        a = mc.experiment_pareto_limit(gamma11, t_list=(0.05,), n=20_000, seed=3)
        b = mc.experiment_pareto_limit(gamma11, t_list=(0.05,), n=20_000, seed=3)
        assert a == b


class TestGeneralLimitExperiment:
    def test_neg_log_matches_pareto_under_log(self, gamma11):
        result = mc.experiment_general_limit(
            gamma11, NEG_LOG, 1.0, t_list=(0.01,), n=100_000, seed=4
        )
        assert result["statistic"] <= 0.05

    def test_cubed_log_on_matching_tail(self):
        model = catalog.make_log_power(0.1, 3)
        result = mc.experiment_general_limit(
            model, CUBE, 0.1, t_list=(0.01,), n=100_000, seed=3, cutoff=1e-8
        )
        assert result["statistic"] <= 0.1

    def test_mismatched_rate_negative_control(self, gamma11):
        result = mc.experiment_general_limit(
            gamma11, NEG_LOG, 2.0, t_list=(0.01,), n=100_000, seed=4
        )
        assert result["statistic"] >= 0.15


class TestCombinationExperiments:
    def test_min_rule_sum_of_indices(self, gamma11, gamma21):
        result = mc.experiment_min_rule(gamma11, gamma21, t=0.01, n=100_000, seed=7)
        assert result["statistic"] <= 0.07
        assert "3" in result["target"]

    def test_product_rule(self, gamma11):
        result = mc.experiment_product_rule(gamma11, gamma11, t=0.01, n=100_000, seed=8)
        assert result["statistic"] <= 0.07

    def test_affine_with_separated_levels(self, gamma11):
        result = mc.experiment_affine(gamma11, 2.0, 32.0, t=0.05, n=100_000, seed=9)
        assert result["statistic"] <= 0.1

    def test_affine_target_saturates_at_b(self):
        law = mc.AffineMinLaw(2.0, 32.0, 1.0)
        assert law.cdf(32.0) == 1.0
        assert law.cdf(1e9) == 1.0
        assert law.cdf(31.999) == pytest.approx(pareto_cdf(1.0, 31.999 / 2.0))

    def test_affine_parameter_guards(self, gamma11):
        with pytest.raises(InvalidParameterError):
            mc.experiment_affine(gamma11, 1.0, 2.0, t=0.05, n=100, seed=0)
        # a**(-1/t) = 2**-10000 underflows in linear space, not in log space:
        # small t is accepted and still meets the min(a*Pareto, b) law
        for seed in (0, 1, 2, 3, 9):
            result = mc.experiment_affine(gamma11, 2.0, 32.0, t=1e-4, n=100_000, seed=seed)
            assert result["statistic"] <= mc.ks_critical_value(100_000, 0.01)


class TestMixtureExperiment:
    def test_ks_and_atom_mass(self, gamma11):
        result = mc.experiment_mixture(gamma11, q=0.3, t=1e-3, n=100_000, seed=10)
        assert result["statistic"] <= 0.07
        assert result["jump_at_one"] == pytest.approx(0.7, abs=0.01)

    def test_q_one_collapses_to_pure_pareto(self, gamma11):
        # q -> 1 means no atom: the target reduces to the plain Pareto law
        law = mc.ParetoMixtureLaw(q=1.0 - 1e-12, gamma=1.0)
        x = np.geomspace(1.0, 100.0, 20)
        np.testing.assert_allclose(law.cdf(x), pareto_cdf(1.0, x), atol=1e-11)

    def test_q_bounds(self, gamma11):
        with pytest.raises(InvalidParameterError):
            mc.experiment_mixture(gamma11, q=0.0, t=0.01, n=100, seed=0)

    def test_jump_window_edges(self, gamma11, monkeypatch):
        # a hand-built batch in place of the drawn one: the window [1 - 0.05, 1 + 1e-9]
        # holds both edges and 1, and the floats just past either edge stay out
        lo, hi = 1.0 - 0.05, 1.0 + 1e-9
        values = [0.5, np.nextafter(lo, 0.0), lo, 1.0, hi, np.nextafter(hi, 2.0), 1.0 + 2e-9, 3.0]
        emp = mc.EmpiricalDistribution.from_values(values, count_at_infinity=2)
        monkeypatch.setattr(mc, "neg_t_power_ecdf", lambda t, log_samples: emp)
        result = mc.experiment_mixture(gamma11, q=0.4, t=1e-3, n=10, seed=0)
        assert result["jump_at_one"] == 3 / 10


class TestDriftAndSupport:
    def test_drift_mass_concentrates_at_one(self, gamma11):
        result = mc.experiment_drift(gamma11, 1.0, t=1e-3, n=100_000, seed=11)
        assert result["statistic"] >= 0.99

    def test_drift_window_edges(self, gamma11, monkeypatch):
        # hand-built values in place of the transformed ones: the window
        # [1 - 0.05, 1 + 0.05] holds both edges and 1, the floats just past either
        # edge stay out, and the first value of each counted block is read
        lo, hi = 1.0 - 0.05, 1.0 + 0.05
        values = np.full(BLOCK + 8, 3.0)
        values[:8] = [1.0, np.nextafter(lo, 0.0), lo, 1.0, hi, np.nextafter(hi, 2.0), 0.5, 1.0]
        values[BLOCK] = 1.0
        monkeypatch.setattr(mc, "to_neg_t_power", lambda log_y, t: (values, 0))
        result = mc.experiment_drift(gamma11, 1.0, t=1e-3, n=values.size, seed=0)
        assert result["statistic"] == 6 / values.size

    def test_drift_adds_c_times_t(self, gamma11):
        # the fraction of (c*t + Y_t)**(-t) in the window, computed by hand from the
        # same draw: at c = 100 and t = 0.1 the values sit near 10**-0.1 = 0.79, inside
        # [0.75, 1.25], where a drift of c/t would put them near 1000**-0.1 = 0.5
        c, t, n, window = 100.0, 0.1, 1000, 0.25
        y = np.exp(sample_marginal(gamma11, t, n, substream(15, 0)))
        inside = np.count_nonzero(np.abs((c * t + y) ** -t - 1.0) <= window)
        result = mc.experiment_drift(gamma11, c, t=t, n=n, seed=15, window=window)
        assert result["statistic"] == inside / n > 0.99

    def test_exact_pareto_support(self):
        samples = pareto_sample(1.0, 10_000, substream(12, 0))
        assert mc.support_check(mc.EmpiricalDistribution.from_values(samples), 0.1) == 0.0

    def test_gamma_support_fraction_vanishes(self, gamma11):
        log_s = sample_marginal(gamma11, 0.01, 100_000, substream(13, 0))
        values, n_inf = to_neg_t_power(log_s, 0.01)
        emp = mc.EmpiricalDistribution.from_values(values, n_inf)
        assert mc.support_check(emp, 0.1) <= 0.01

    def test_drifted_mass_leaves_both_sides(self, gamma11):
        # the limit point mass at 1: nothing escapes the window either way
        result = mc.experiment_drift(gamma11, 1.0, t=1e-4, n=50_000, seed=14, window=0.05)
        assert result["statistic"] == pytest.approx(1.0, abs=1e-3)

    def test_support_delta_validation(self):
        with pytest.raises(InvalidParameterError):
            mc.support_check(mc.EmpiricalDistribution.from_values([1.0]), 1.5)


RAMP = cli.FUNCTIONALS["ramp"][0]
SEED_RAMP = 11
RAMP_BATCHES = [
    ("gamma", 3 * BLOCK + 5),  # cutoff compound Poisson
    ("dickman", 2),  # the fewest paths a standard deviation takes
    ("gamma-t1", BLOCK + 9),  # f(Y_t) > 0 on most paths
]


def ramp_batch(model, n, dense_cp):
    """(model, t, the ramp of the dense batch the ergodic estimate draws at ``SEED_RAMP``)."""
    m, t = {
        "gamma": lambda: (catalog.make_gamma(1.0, 1.0), 0.05),
        "dickman": lambda: (catalog.make_dickman(1.0), 0.05),
        "gamma-t1": lambda: (catalog.make_gamma(1.0, 1.0), 1.0),
    }[model]()
    vals = RAMP(dense_cp(m.tail, 1e-6, t, substream(SEED_RAMP, 0), n))
    if model == "gamma-t1":
        assert np.count_nonzero(vals) > n / 2
    return m, t, vals


class TestErgodicFunctional:
    def test_model_without_invertible_tail_rejected(self):
        # an exact sampler but no jump tail: the cutoff compound-Poisson draw has nothing to invert
        with pytest.raises(InvalidParameterError, match="must be an invertible jump tail"):
            mc.estimate_ergodic_functional(
                catalog.make_stable(1.0, 0.5), lambda x: np.asarray(x), 0.5, 0.01, 100)

    def test_model_without_levy_density_rejected(self, dickman1, monkeypatch):
        # the target integrates f against the jump density, before anything is drawn
        monkeypatch.setattr(mc, "sample_cutoff_cp", None)
        with pytest.raises(InvalidParameterError, match="must be a model with levy_density"):
            mc.estimate_ergodic_functional(
                replace(dickman1, levy_density=None), cli.FUNCTIONALS["ramp"][0], 0.5, 0.01, 100)

    def test_target_is_the_integral_against_the_jump_measure(self, dickman1):
        # ramp * 1/x over [1/2, 1]: 4 (1/4 - (1/2) log(3/2)) + log(4/3)
        est = mc.estimate_ergodic_functional(dickman1, cli.FUNCTIONALS["ramp"][0], 0.5, 0.01, 100)
        want = 1.0 - 2.0 * math.log(1.5) + math.log(4.0 / 3.0)
        assert est["target"] == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_zero_functional(self, dickman1):
        est = mc.estimate_ergodic_functional(
            dickman1, lambda x: np.zeros_like(np.asarray(x, dtype=float)), 0.5, 0.01, 10_000
        )
        assert est["statistic"] == 0.0

    def test_dickman_ramp_against_quadrature(self, dickman1):
        from scipy.integrate import quad

        ramp = lambda x: np.minimum(1.0, np.maximum(0.0, (np.asarray(x, dtype=float) - 0.5) * 4.0))
        est = mc.estimate_ergodic_functional(dickman1, ramp, 0.5, t=1e-3, n=2_000_000, seed=5)
        target, _ = quad(lambda x: min(1.0, max(0.0, (x - 0.5) * 4.0)) / x, 0.5, 1.0)
        assert abs(est["statistic"] - target) <= 0.05 * target

    def test_gamma_smoothed_indicator(self, gamma11):
        from scipy.integrate import quad

        bump = lambda x: np.clip((np.asarray(x, dtype=float) - 0.9) / 0.2, 0.0, 1.0)
        est = mc.estimate_ergodic_functional(gamma11, bump, 0.9, t=0.01, n=2_000_000, seed=6)
        target, _ = quad(lambda x: min(max((x - 0.9) / 0.2, 0.0), 1.0) * math.exp(-x) / x, 0.9, 50.0)
        assert abs(est["statistic"] - target) <= 0.05 * target

    @pytest.mark.parametrize("model,n", RAMP_BATCHES)
    def test_blocked_estimate_matches_mean_and_std(self, model, n, dense_cp):
        # the kept-path formula on the dense batch: the sparse draw keeps exactly
        # the paths whose ramp is not f0, in path order
        m, t, vals = ramp_batch(model, n, dense_cp)
        est = mc.estimate_ergodic_functional(m, RAMP, 0.5, t, n, SEED_RAMP)
        f0 = RAMP(0.0)
        kept = vals[vals != f0]
        mean = f0 + np.add.reduce(kept - f0) / n
        var = (np.add.reduce(np.square(kept - mean))
               + (n - kept.size) * np.square(f0 - mean)) / (n - 1)
        assert est["statistic"] == float(mean / t)
        assert est["stderr"] == float(np.sqrt(var) / (np.sqrt(n) * t))
        assert (est["stderr"] > 0.0) == (vals.min() < vals.max())

    @pytest.mark.parametrize("model,n", RAMP_BATCHES)
    def test_estimate_is_within_ulps_of_exactly_rounded_sums(self, model, n, dense_cp):
        # The bound is fixed from the arithmetic, not from a run.  The ramp is
        # nonnegative and f0 = 0, so numpy's pairwise sum of k <= 2**18 kept
        # values is within 37 roundings of the exact sum (<= 15 additions in a
        # leaf's accumulator, 3 joining the 8 accumulators, <= 7 for the leaf's
        # remainder, <= 12 tree levels).  The mean then takes 2 more (/n, /t),
        # the oracle's math.fsum mean 2, so the statistic is within 41 ulps.
        # The variance is flat in the mean at its minimum; its terms take 3
        # roundings each and the same pairwise sum, the remainder term, the
        # division and the square root about 4 more, and the oracle 4, so the
        # stderr is within about 31 ulps.  48 ulps bounds both.
        m, t, vals = ramp_batch(model, n, dense_cp)
        assert RAMP(0.0) == 0.0 and vals.min() >= 0.0 and n <= 2**18
        est = mc.estimate_ergodic_functional(m, RAMP, 0.5, t, n, SEED_RAMP)
        mean = math.fsum(vals) / n
        stderr = math.sqrt(math.fsum(np.square(vals - mean)) / (n - 1)) / (math.sqrt(n) * t)
        for got, want in ((est["statistic"], mean / t), (est["stderr"], stderr)):
            assert abs(got - want) <= 48 * np.spacing(want)

    def test_estimate_matches_the_dense_batch_moments(self, dense_cp):
        # most paths read f > 0 here, so the paths left out (f = 0) weigh in the variance
        m, t, vals = ramp_batch("gamma-t1", BLOCK + 9, dense_cp)
        n = vals.size
        est = mc.estimate_ergodic_functional(m, RAMP, 0.5, t, n, SEED_RAMP)
        assert est["statistic"] == pytest.approx(vals.mean() / t, rel=1e-12, abs=0.0)
        assert est["stderr"] == pytest.approx(vals.std(ddof=1) / (math.sqrt(n) * t),
                                              rel=1e-12, abs=0.0)

    def test_functional_not_vanishing_at_zero_refused(self, dickman1, monkeypatch):
        # f must vanish on [0, delta0]: an f with f(0) != 0 is refused before anything is drawn
        monkeypatch.setattr(mc, "sample_cutoff_cp", None)
        for f0 in (1.0, np.nan):
            with pytest.raises(InvalidParameterError, match="f must vanish"):
                mc.estimate_ergodic_functional(
                    dickman1, lambda x, f0=f0: RAMP(x) + f0, 0.5, 0.01, 100)

    def test_ramp_is_the_clipped_line_bitwise(self):
        x = np.concatenate([np.linspace(-1.0, 2.0, 301), [0.5, 0.75, -np.inf, np.inf, np.nan]])
        want = np.minimum(1.0, np.maximum(0.0, (x - 0.5) * 4.0))
        assert RAMP(x).tobytes() == want.tobytes()

    def test_one_path_has_no_standard_deviation(self, dickman1):
        # the ddof=1 standard deviation divided by n - 1 = 0 and read NaN
        refusal = re.escape("n must be an integer in [2, 2**53], got 1")
        with pytest.raises(InvalidParameterError, match=refusal):
            mc.estimate_ergodic_functional(dickman1, cli.FUNCTIONALS["ramp"][0], 0.5, 0.05, 1)
        with pytest.raises(InvalidParameterError, match=refusal):
            mc.mean_std_in_place(np.ones(1), 1)

    @pytest.mark.parametrize("n", [2, 9, 129, BLOCK + 1, 3 * BLOCK + 7])
    def test_mean_std_in_place_replays_ndarray_reductions(self, n):
        rng = np.random.default_rng(n)
        dense = rng.standard_normal(n) * rng.lognormal(0.0, 5.0, n)
        mean, std = dense.mean(), dense.std(ddof=1)
        got = mc.mean_std_in_place(dense.copy(), n)
        assert got[0].tobytes() == mean.tobytes() and got[1].tobytes() == std.tobytes()
        # the batch's negative values as zeros, left out and counted
        zeroed = np.maximum(dense, 0.0)
        got = mc.mean_std_in_place(dense[dense > 0.0], n)
        assert got == pytest.approx((zeroed.mean(), zeroed.std(ddof=1)), rel=1e-12, abs=0.0)

    def test_sparse_estimate_memory_does_not_grow_with_n(self, traced_peak):
        # ~1.4% of paths jump and ~0.07% reach the ramp: no n-float array is held
        m = catalog.make_dickman(1.0)
        ramp = lambda x: np.minimum(1.0, np.maximum(0.0, (np.asarray(x, dtype=float) - 0.5) * 4.0))
        peak = traced_peak(lambda: mc.estimate_ergodic_functional(m, ramp, 0.5, 1e-3, 2_000_000))
        assert peak <= 4 * 2**20

    def test_cutoff_above_delta0_rejected(self, dickman1):
        with pytest.raises(InvalidParameterError):
            mc.estimate_ergodic_functional(
                dickman1, lambda x: x, 0.5, 0.01, 100, cutoff=0.6
            )


class TestFamilyLimit:
    def test_stable_nef_deterministic_deviation(self):
        fam = catalog.make_stable_nef(1.0, 1.0)
        result = mc.check_family_limit(fam, t_grid=[1e-2, 1e-3, 1e-4])
        assert result["model"] == fam.describe()
        assert result["statistic"] <= 1e-3
        assert np.all(np.diff(result["deviations"]) <= 1e-12)

    def test_below_support_trivial(self):
        fam = catalog.make_stable_nef(1.0, 1.0)
        result = mc.check_family_limit(fam, t_grid=[1e-3], u_grid=[0.3, 0.7])
        assert result["statistic"] <= 1e-6

    def test_gamma_wrapped_as_family(self, gamma11):
        fam = catalog.GeneralFamily(
            name="gamma-power",
            psi_t_log=lambda t, lu: np.exp(-t * np.asarray(gamma11.phi.eval_log(lu), dtype=float)),
            limit_cdf=lambda x: pareto_cdf(1.0, x),
            params={},
        )
        result = mc.check_family_limit(fam, t_grid=[1e-3])
        assert result["statistic"] <= 1e-2


# each library experiment and grid check at a small n, on gamma(1, 1)
RESULTS = {
    "experiment_pareto_limit": lambda g: mc.experiment_pareto_limit(g, (0.1, 0.05), 1000, 1),
    "experiment_general_limit":
        lambda g: mc.experiment_general_limit(g, NEG_LOG, 1.0, (0.1, 0.05), 1000, 1),
    "experiment_min_rule": lambda g: mc.experiment_min_rule(g, g, 0.05, 1000, 1),
    "experiment_product_rule": lambda g: mc.experiment_product_rule(g, g, 0.05, 1000, 1),
    "experiment_affine": lambda g: mc.experiment_affine(g, 2.0, 32.0, 0.05, 1000, 1),
    "experiment_mixture": lambda g: mc.experiment_mixture(g, 0.3, 0.05, 1000, 1),
    "experiment_drift": lambda g: mc.experiment_drift(g, 1.0, 0.05, 1000, 1),
    "estimate_ergodic_functional":
        lambda g: mc.estimate_ergodic_functional(g, cli.FUNCTIONALS["ramp"][0], 0.5, 0.5, 1000, 1),
    "check_family_limit": lambda g: mc.check_family_limit(catalog.make_stable_nef(1.0, 1.0)),
    "check_s2": lambda g: criteria.check_s2(g, ParetoLaw(1.0).cdf),
}


class TestResultContract:
    """Each experiment returns the statistics its report row holds."""

    def test_every_experiment_is_listed(self):
        assert {name for name in dir(mc) if name.startswith("experiment_")} <= set(RESULTS)

    @pytest.mark.parametrize("name", list(RESULTS))
    def test_result_is_json_with_a_float_statistic(self, gamma11, name):
        result = RESULTS[name](gamma11)
        assert json.loads(json.dumps(result)) == result
        assert type(result["statistic"]) is float

    def test_limit_experiments_share_one_shape(self, gamma11):
        pareto = RESULTS["experiment_pareto_limit"](gamma11)
        general = RESULTS["experiment_general_limit"](gamma11)
        assert set(pareto) == set(general)
        assert list(pareto["ks_by_t"]) == ["0.1", "0.05"]
        assert pareto["statistic"] == pareto["ks_by_t"]["0.05"] and pareto["t"] == 0.05

    @pytest.mark.parametrize("name", ["experiment_pareto_limit", "experiment_general_limit"])
    def test_repeated_time_refused(self, gamma11, name):
        # ks_by_t is keyed by the time, so a repeat's first draw would be in no report
        args = (gamma11,) if name == "experiment_pareto_limit" else (gamma11, NEG_LOG, 1.0)
        with pytest.raises(InvalidParameterError, match=r"^t_list must be a non-empty list of "
                           r"strictly decreasing finite numbers > 0, got \(0\.1, 0\.05, 0\.1\)$"):
            getattr(mc, name)(*args, t_list=(0.1, 0.05, 0.1), n=10)

    @pytest.mark.parametrize("name", ["experiment_pareto_limit", "experiment_general_limit"])
    def test_increasing_times_refused(self, monkeypatch, gamma11, name):
        # the statistic was the last time's KS and the trend read ks_by_t in list
        # order, so [0.01, 0.05, 0.1, 0.2] failed where its reverse passed
        args = (gamma11,) if name == "experiment_pareto_limit" else (gamma11, NEG_LOG, 1.0)
        monkeypatch.setattr(mc, "sample_marginal", None)  # refused before any draw
        with pytest.raises(InvalidParameterError, match="strictly decreasing"):
            getattr(mc, name)(*args, t_list=(0.01, 0.05, 0.1, 0.2), n=10)


class TestExportCurve:
    def test_csv_columns_and_values(self, tmp_path, gamma11):
        emp = mc.EmpiricalDistribution.from_values(np.array([1.0, 2.0, 4.0]))
        path = tmp_path / "curve.csv"
        mc.export_curve(emp, ParetoLaw(1.0).cdf, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,ecdf,target"
        first = lines[1].split(",")
        assert float(first[0]) == 1.0
        assert float(first[1]) == pytest.approx(1.0 / 3.0)
        assert float(first[2]) == 0.0

    @pytest.mark.parametrize(
        "values,n_inf,cdf",
        [
            # repr switches to exponent form below 1e-4 and from 1e16 up
            (
                [1e-300, 3e-5, 1e-4, 0.123, 1.0, 2.5, 1e16, 3.5e17, 1.7e308],
                3,
                ExponentialLaw(1.0).cdf,
            ),
            (pareto_sample(1.0, 1000, substream(9, 0)), 0, ParetoLaw(0.5).cdf),
            ([], 2, ParetoLaw(1.0).cdf),
        ],
    )
    def test_bytes_match_csv_writer(self, tmp_path, values, n_inf, cdf):
        def csv_writer_export(emp, path):
            targets = np.asarray(cdf(emp.values), dtype=float)
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["x", "ecdf", "target"])
                for i, (x, tv) in enumerate(zip(emp.values, targets), start=1):
                    writer.writerow([repr(float(x)), repr(i / emp.n_total), repr(float(tv))])

        emp = mc.EmpiricalDistribution.from_values(np.asarray(values, dtype=float), n_inf)
        mc.export_curve(emp, cdf, tmp_path / "new.csv")
        csv_writer_export(emp, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize(
        "rows", [0, 1, BLOCK // 32 - 1, BLOCK // 32,
                 BLOCK // 32 + 1, 100_000],
    )
    def test_chunked_rows_match_single_string_writer(self, tmp_path, rows):
        # the writer before it wrote in chunks of rows: every row in one string
        def single_string_export(emp, cdf, path):
            n = emp.values.size
            xs = emp.values.tolist()
            ecdf = (np.arange(1, n + 1) / emp.n_total).tolist()
            targets = np.asarray(cdf(emp.values), dtype=float).tolist()
            lines = [f"{x!r},{e!r},{tv!r}\r\n" for x, e, tv in zip(xs, ecdf, targets)]
            with open(path, "w", newline="") as fh:
                fh.write("x,ecdf,target\r\n" + "".join(lines))

        law = ParetoLaw(1.0)
        emp = mc.EmpiricalDistribution.from_values(pareto_sample(1.0, rows, substream(15, 0)), 2)
        mc.export_curve(emp, law.cdf, tmp_path / "new.csv")
        single_string_export(emp, law.cdf, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_memory_is_one_chunk_of_rows(self, tmp_path, traced_peak):
        # 28.0 MiB when every row went into one string
        law = ParetoLaw(1.0)
        emp = mc.EmpiricalDistribution.from_values(pareto_sample(1.0, 100_000, substream(16, 0)))
        peak = traced_peak(lambda: mc.export_curve(emp, law.cdf, tmp_path / "curve.csv"))
        assert peak <= 4 * 2**20


MIB = 2**20
N_1E6 = 1_000_000
GAMMA_11 = {"name": "gamma", "params": {"gamma": 1.0, "lam": 1.0}}
# Monte Carlo entries of the n = 1e6 sweep config; the comment on each is its
# peak traced memory before the experiments worked on their own batch in place
ONE_BATCH_ENTRIES = {
    "pareto_limit-gamma": {  # 31.5 MiB
        "kind": "pareto_limit", "model": GAMMA_11,
        "params": {"t_list": [0.2, 0.1, 0.05, 0.02, 0.01], "n": N_1E6}},
    "pareto_limit-stable": {  # 38.2 MiB
        "kind": "pareto_limit", "model": {"name": "stable", "params": {"a": 1.0, "alpha": 0.5}},
        "params": {"t_list": [0.01], "n": N_1E6, "gamma": 1.0}},
    "affine": {  # 54.4 MiB
        "kind": "affine", "model": GAMMA_11,
        "params": {"a": 2.0, "b": 32.0, "t": 0.05, "n": N_1E6}},
    "mixture": {  # 71.6 MiB
        "kind": "mixture", "model": GAMMA_11, "params": {"q": 0.4, "t": 0.001, "n": N_1E6}},
    "drift": {  # 24.8 MiB
        "kind": "drift", "model": GAMMA_11,
        "params": {"c": 2.0, "t": 0.001, "n": N_1E6, "window": 0.05}},
    "support": {  # 22.9 MiB
        "kind": "support", "model": {"name": "gamma", "params": {"gamma": 2.0, "lam": 1.0}},
        "params": {"t": 0.01, "n": N_1E6, "delta": 0.1}},
}
TWO_BATCH_ENTRIES = {
    "min_rule": {  # 31.5 MiB
        "kind": "min_rule", "model": GAMMA_11,
        "model2": {"name": "gamma", "params": {"gamma": 0.5, "lam": 2.0}},
        "params": {"t": 0.01, "n": N_1E6}},
    "product_rule": {  # 39.1 MiB
        "kind": "product_rule", "model": GAMMA_11,
        "model2": {"name": "gamma", "params": {"gamma": 2.0, "lam": 1.0}},
        "params": {"t": 0.01, "n": N_1E6}},
    "pareto_limit-add": {  # 31.5 MiB
        "kind": "pareto_limit",
        "model": {"transform": "add", "of": [
            {"name": "gamma", "params": {"gamma": 0.5, "lam": 1.0}},
            {"name": "gamma", "params": {"gamma": 1.5, "lam": 3.0}}]},
        "params": {"t_list": [0.05, 0.01], "n": N_1E6}},
}


def run_checked(entry):
    """A call of cli.run_experiment on entry, checked (and its models built) now."""
    [checked] = cli.validate_config({"experiments": [entry]})
    return lambda: cli.run_experiment(checked, 7, None, 0)


class TestExperimentMemory:
    """Each experiment holds one n-float batch, two where two marginals combine."""

    @pytest.mark.parametrize("name", sorted(ONE_BATCH_ENTRIES))
    def test_single_batch(self, name, traced_peak):
        peak = traced_peak(run_checked(ONE_BATCH_ENTRIES[name]))
        assert peak <= 8 * N_1E6 + 4 * MIB

    @pytest.mark.parametrize("name", sorted(TWO_BATCH_ENTRIES))
    def test_two_batches(self, name, traced_peak):
        peak = traced_peak(run_checked(TWO_BATCH_ENTRIES[name]))
        assert peak <= 16 * N_1E6 + 4 * MIB

    def test_recursion_mean_holds_one_batch(self, monkeypatch, traced_peak):
        # the statistics are formed in the batch (15.3 MiB when std copied it);
        # two chunks hold two block buffers each
        monkeypatch.setattr(dickman, "_usable_cpus", lambda: 2)
        values = {"gamma": 1.0, "n": N_1E6, "depth": None, "sigma_mult": 3.0}
        peak = traced_peak(lambda: cli._recursion_mean(values, {}, 0))
        assert peak <= 8 * N_1E6 + 3 * MIB

    def test_two_sampler_ks_holds_its_two_batches_and_their_sorted_copies(self, traced_peak):
        # 14 n-float arrays (107 MiB) when both ECDFs ran over concatenated columns
        values = {"gamma": 1.0, "n": N_1E6, "cutoff": 1e-6, "level": 0.01}
        peak = traced_peak(lambda: cli._two_sampler_ks(values, {}, 0))
        assert peak <= 4 * 8 * N_1E6 + 3 * MIB

    def test_general_limit_is_its_cutoff_cp_draw(self, traced_peak):
        # ~6.4e6 jumps are drawn into the one batch: 46.7 MiB when every jump
        # was held, 25.5 MiB when the sparse pair was scattered into the batch
        entry = {
            "kind": "general_limit",
            "model": {"name": "log_power", "params": {"gamma": 0.1, "power": 3}},
            "params": {"L": "neg_log_cubed", "gamma": 0.1, "t_list": [0.01], "n": N_1E6,
                       "cutoff": 1e-8},
        }
        peak = traced_peak(run_checked(entry))
        assert peak <= 8 * N_1E6 + 4 * MIB
