"""Independent re-derivations of the statistics the harness relies on."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sc

from subordlab import catalog, criteria, montecarlo as mc, transforms
from subordlab.core import BLOCK, ExponentialLaw, ParetoLaw, integral, pareto_cdf
from subordlab.dickman import make_dickman
from subordlab.simulate import sample_marginal, substream, to_neg_t_power


def brute_force_ks(emp, cdf):
    """Sup of |ECDF - F| over the extended line, from first principles.

    Evaluates both functions at every sample point and just below it
    (the only places the sup can be approached), plus the limit at
    +infinity where the at-infinity bucket never arrives.
    """
    candidates = np.concatenate([emp.values, np.nextafter(emp.values, -np.inf)])
    ecdf = np.searchsorted(emp.values, candidates, side="right") / emp.n_total
    f_vals = np.asarray(cdf(candidates), dtype=float)
    sup = float(np.max(np.abs(ecdf - f_vals))) if candidates.size else 0.0
    tail_gap = abs(emp.values.size / emp.n_total - float(cdf(np.inf)))
    return max(sup, tail_gap)


def two_pass_ks(emp, cdf):
    """The KS formula before its one-pass rewrite: both one-sided CDF values at every point."""
    n = emp.n_total
    m = emp.values.size
    d = 0.0
    if m:
        f_right = np.asarray(cdf(emp.values), dtype=float)
        f_left = np.asarray(cdf(np.nextafter(emp.values, -np.inf)), dtype=float)
        i = np.arange(1, m + 1)
        d = max(np.max(i / n - f_right), np.max(f_left - (i - 1) / n))
    cdf_inf = float(cdf(np.inf))
    at_inf = (1.0 - m / n) - (1.0 - cdf_inf)
    return float(max(d, at_inf, 0.0))


def quad_bound(value, nesting=1):
    """The error ``integral`` accepts on a result near value, times the quadratures nested in it."""
    return nesting * 100.0 * max(1e-12, 1e-10 * abs(value))


def phi_from_levy(levy_density, s, *, upper=np.inf):
    """Laplace exponent from a Levy density: integral of (1-exp(-s x)) nu'(x) dx, s > 0.

    The integrand is split at the knee x = 1/s where 1 - exp(-s x) turns
    from linear growth into saturation; the small-argument factor is
    computed as -expm1(-s x), which is exact where the naive difference
    would cancel.  The caller asserts integrability of x nu'(x) near 0.
    """

    def integrand(x):
        return -np.expm1(-s * x) * levy_density(x)

    knee = 1.0 / s
    points = [0.0, knee, upper] if upper > knee else [0.0, upper]
    return integral(integrand, points, op="phi_from_levy")


def phi_from_tail(tail, s):
    """Laplace exponent from the tail: integral of exp(-x) nu_bar(x/s) dx, s > 0.

    The upper limit is capped where exp(-x) drives the integrand below
    any representable contribution (x = 745, or earlier when the tail's
    support ends at s * support_upper).
    """

    def integrand(x):
        return np.exp(-x) * tail.tail(x / s)

    x_max = min(745.0, s * tail.support_upper)
    # the tail factor varies on the x ~ s scale, the exponential on x ~ 1;
    # breaking at both keeps the adaptive pass from overlooking a narrow spike
    breaks = sorted({x_max} | {b for b in (min(s, 1.0), 1.0) if 0.0 < b < x_max})
    return integral(integrand, [0.0, *breaks], op="phi_from_tail")


def counting(cdf):
    """Wrap a CDF so the number of points it is evaluated at is recorded."""
    def wrapped(x):
        wrapped.points += np.size(x)
        return cdf(x)

    wrapped.points = 0
    return wrapped


def transformed_gamma(t, n, seed):
    """(Y_t)**(-t) for the gamma(1, 1) subordinator, as an empirical law."""
    log_y = catalog.make_gamma(1.0, 1.0).log_sampler(t, n, substream(seed, 0))
    values, n_inf = to_neg_t_power(log_y, t)
    return mc.EmpiricalDistribution.from_values(values, n_inf)


def mixture_batch(n, seed):
    """``experiment_mixture``'s transformed batch (q = 0.4, t = 1e-3) on gamma(1, 1)."""
    log_l = catalog.make_gamma(1.0, 1.0).log_sampler(1e-3, n, substream(seed, 0))
    at_one = substream(seed, 1).random(n) >= 0.4
    combined = np.where(at_one, np.logaddexp(log_l, 0.0), log_l)
    return mc.EmpiricalDistribution.from_values(*to_neg_t_power(combined, 1e-3))


def affine_batch(n, seed):
    """``experiment_affine``'s transformed batch (a = 2, b = 32, t = 0.05) on gamma(1, 1)."""
    log_y = catalog.make_gamma(1.0, 1.0).log_sampler(0.05, n, substream(seed, 0))
    combined = np.logaddexp(-np.log(2.0) / 0.05 + log_y, -np.log(32.0) / 0.05)
    return mc.EmpiricalDistribution.from_values(*to_neg_t_power(combined, 0.05))


class TestKsOnePassEqualsTwoPass:
    """ks_distance evaluates left limits only where they can matter; the value must not move."""

    def test_continuous_pareto(self):
        emp = transformed_gamma(0.05, 100_000, 41)
        law = ParetoLaw(1.0)
        assert mc.ks_distance(emp, law.cdf) == two_pass_ks(emp, law.cdf)

    def test_mixture_atom_at_one(self):
        law = mc.ParetoMixtureLaw(q=0.4, gamma=1.0)
        rng = substream(42, 0)
        values = np.where(rng.random(50_000) < 0.6, 1.0, ParetoLaw(1.0).sample(50_000, rng))
        emp = mc.EmpiricalDistribution.from_values(values)
        assert mc.ks_distance(emp, law.cdf) == two_pass_ks(emp, law.cdf)
        # the mixture experiment's own batch: atom values just below 1
        gamma = catalog.make_gamma(1.0, 1.0)
        result = mc.experiment_mixture(gamma, 0.4, 1e-3, 20_000, seed=43)
        log_l = gamma.log_sampler(1e-3, 20_000, substream(43, 0))
        at_one = substream(43, 1).random(20_000) >= 0.4
        combined = np.where(at_one, np.logaddexp(log_l, 0.0), log_l)
        emp = mc.EmpiricalDistribution.from_values(*to_neg_t_power(combined, 1e-3))
        assert result["statistic"] == two_pass_ks(emp, law.cdf)

    def test_affine_min_ties_at_b(self):
        law = mc.AffineMinLaw(2.0, 8.0, 1.0)
        rng = substream(44, 0)
        values = np.minimum(2.0 * ParetoLaw(1.0).sample(50_000, rng), 8.0)
        assert np.sum(values == 8.0) > 5000
        emp = mc.EmpiricalDistribution.from_values(values)
        assert mc.ks_distance(emp, law.cdf) == two_pass_ks(emp, law.cdf)

    def test_at_infinity_mass(self):
        law = ParetoLaw(1.0)
        emp = mc.EmpiricalDistribution.from_values(
            law.sample(9000, substream(45, 0)), count_at_infinity=1000
        )
        assert mc.ks_distance(emp, law.cdf) == two_pass_ks(emp, law.cdf)

    @pytest.mark.parametrize(
        "m", [1, BLOCK - 1, BLOCK, BLOCK + 1,
              3 * BLOCK + 7],
    )
    def test_block_edges(self, m):
        # the blocked pass against the two-pass formula, one block, several,
        # and a partial last block; the mixture target puts its atom in every block
        rng = substream(49, 0)
        pareto = ParetoLaw(1.0).sample(m, rng)
        values = np.where(rng.random(m) < 0.3, 1.0, pareto)
        # too heavy a tail, capped at b: u peaks at the atom at b, while the
        # sup is the left term just below it, found only as a candidate
        capped = np.minimum(2.0 * ParetoLaw(0.5).sample(m, rng), 8.0)
        for emp, law in (
            (mc.EmpiricalDistribution.from_values(pareto, 5), ParetoLaw(1.1)),
            (mc.EmpiricalDistribution.from_values(values), mc.ParetoMixtureLaw(0.7, 1.0)),
            (mc.EmpiricalDistribution.from_values(capped), mc.AffineMinLaw(2.0, 8.0, 1.0)),
        ):
            assert mc.ks_distance(emp, law.cdf) == two_pass_ks(emp, law.cdf)

    def test_full_size_mixture_and_affine_batches(self):
        # the experiments' own atom-heavy batches at n = 1e6, built by the
        # expressions the experiments used before they worked in place
        n = 1_000_000
        gamma = catalog.make_gamma(1.0, 1.0)
        result = mc.experiment_mixture(gamma, 0.4, 1e-3, n, seed=50)
        emp = mixture_batch(n, 50)
        assert result["statistic"] == two_pass_ks(emp, mc.ParetoMixtureLaw(0.4, 1.0).cdf)

        result = mc.experiment_affine(gamma, 2.0, 32.0, 0.05, n, seed=51)
        emp = affine_batch(n, 51)
        law = mc.AffineMinLaw(2.0, 32.0, 1.0)
        assert np.sum(emp.values == emp.values[-1]) > n / 100  # the atom at b
        assert result["statistic"] == two_pass_ks(emp, law.cdf)

    def test_ties_take_one_left_limit_per_run(self):
        # ~60% of the mixture batch ties at the atom; each run of ties needs
        # one left limit, so the CDF sees about n points, not one per tie
        n = 1_000_000
        for emp, law in (
            (mixture_batch(n, 52), mc.ParetoMixtureLaw(0.4, 1.0)),
            (affine_batch(n, 53), mc.AffineMinLaw(2.0, 32.0, 1.0)),
        ):
            cdf = counting(law.cdf)
            assert mc.ks_distance(emp, cdf) == two_pass_ks(emp, law.cdf)
            assert cdf.points <= n + 100

    def test_left_dominated_batch_stays_one_pass(self):
        # a Pareto(0.99) batch has more mass far out than Pareto(1), so the sup
        # is a left-limit term and u > sup(right terms) holds almost everywhere
        values = ParetoLaw(0.99).sample(100_000, substream(46, 0))
        emp = mc.EmpiricalDistribution.from_values(values)
        law = ParetoLaw(1.0)
        i = np.arange(1, values.size + 1)
        f = law.cdf(emp.values)
        assert np.max(f - (i - 1) / emp.n_total) > np.max(i / emp.n_total - f)
        cdf = counting(law.cdf)
        assert mc.ks_distance(emp, cdf) == two_pass_ks(emp, law.cdf)
        # one pass over the batch, the infinity point and a handful of left limits
        assert cdf.points <= values.size + 100

    @pytest.mark.parametrize("shape", [0.05, 0.7, 3.0])
    def test_gammainc_lambda(self, shape):
        # gammainc can step back by a few ulps between adjacent floats
        values = substream(47, 0).gamma(shape, size=100_000)
        emp = mc.EmpiricalDistribution.from_values(values)
        for a in (shape, 1.1 * shape):
            cdf = lambda x, a=a: sc.gammainc(a, x)
            assert mc.ks_distance(emp, cdf) == two_pass_ks(emp, cdf)

    def test_cdf_stepping_back_by_less_than_the_slack(self):
        # uniform CDF that steps back by 1e-11 just below x_2, whose u trails the
        # largest u by 1e-12: the sup is that left term, found through the slack
        x = np.array([0.5, 0.75 - 1e-12, 0.9, 0.95])
        bump = np.nextafter(x[1], -np.inf)
        cdf = lambda v: np.clip(v, 0.0, 1.0) + 1e-11 * (np.asarray(v) == bump)
        emp = mc.EmpiricalDistribution.from_values(x)
        assert two_pass_ks(emp, cdf) > 0.5
        assert mc.ks_distance(emp, cdf) == two_pass_ks(emp, cdf)

    def test_exponential_target(self):
        values = ExponentialLaw(2.0).sample(20_000, substream(48, 0))
        emp = mc.EmpiricalDistribution.from_values(values)
        law = ExponentialLaw(2.1)
        assert mc.ks_distance(emp, law.cdf) == two_pass_ks(emp, law.cdf)


class TestKsAgainstBruteForce:
    def test_continuous_target(self):
        law = ParetoLaw(1.5)
        emp = mc.EmpiricalDistribution.from_values(law.sample(5000, substream(3, 0)))
        assert mc.ks_distance(emp, law.cdf) == pytest.approx(
            brute_force_ks(emp, law.cdf), abs=1e-12
        )

    def test_atomic_target(self):
        law = mc.ParetoMixtureLaw(q=0.4, gamma=1.0)
        rng = substream(4, 0)
        values = np.where(rng.random(5000) < 0.6, 1.0, ParetoLaw(1.0).sample(5000, rng))
        emp = mc.EmpiricalDistribution.from_values(values)
        assert mc.ks_distance(emp, law.cdf) == pytest.approx(
            brute_force_ks(emp, law.cdf), abs=1e-12
        )

    def test_saturating_target_with_ties(self):
        law = mc.AffineMinLaw(2.0, 8.0, 1.0)
        values = np.concatenate([np.full(300, 8.0), np.linspace(2.0, 7.9, 700)])
        emp = mc.EmpiricalDistribution.from_values(values)
        assert mc.ks_distance(emp, law.cdf) == pytest.approx(
            brute_force_ks(emp, law.cdf), abs=1e-12
        )

    def test_with_at_infinity_mass(self):
        law = ParetoLaw(1.0)
        emp = mc.EmpiricalDistribution.from_values(
            law.sample(900, substream(5, 0)), count_at_infinity=100
        )
        assert mc.ks_distance(emp, law.cdf) == pytest.approx(
            brute_force_ks(emp, law.cdf), abs=1e-12
        )

    @given(
        n=st.integers(2, 200),
        n_inf=st.integers(0, 30),
        gamma=st.floats(0.3, 4.0),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_formula_equals_sup_on_random_batches(self, n, n_inf, gamma, seed):
        law = ParetoLaw(gamma)
        values = ParetoLaw(1.0).sample(n, substream(seed, 0))
        emp = mc.EmpiricalDistribution.from_values(values, count_at_infinity=n_inf)
        assert mc.ks_distance(emp, law.cdf) == pytest.approx(
            brute_force_ks(emp, law.cdf), abs=1e-12
        )
        assert mc.ks_distance(emp, law.cdf) == two_pass_ks(emp, law.cdf)


class TestNegativeControls:
    """Doubling the target index must inflate every experiment's statistic."""

    def test_min_rule_control(self, gamma11, gamma21):
        t, n, seed = 0.01, 50_000, 21
        l1 = sample_marginal(gamma11, t, n, substream(seed, 0))
        l2 = sample_marginal(gamma21, t, n, substream(seed, 1))
        values, n_inf = to_neg_t_power(np.logaddexp(l1, l2), t)
        emp = mc.EmpiricalDistribution.from_values(values, n_inf)
        matched = mc.ks_distance(emp, ParetoLaw(3.0).cdf)
        control = mc.ks_distance(emp, ParetoLaw(6.0).cdf)
        assert control >= 3.0 * matched

    def test_product_rule_control(self, gamma11):
        t, n, seed = 0.01, 50_000, 22
        l1 = sample_marginal(gamma11, t, n, substream(seed, 0))
        l2 = sample_marginal(gamma11, t, n, substream(seed, 1))
        values, n_inf = to_neg_t_power(l1 + l2, t)
        emp = mc.EmpiricalDistribution.from_values(values, n_inf)
        matched = mc.ks_distance(emp, mc.ParetoProductLaw(1.0, 1.0).cdf)
        control = mc.ks_distance(emp, mc.ParetoProductLaw(2.0, 2.0).cdf)
        assert control >= 3.0 * matched

    def test_mixture_control(self, gamma11):
        result = mc.experiment_mixture(gamma11, q=0.3, t=1e-3, n=50_000, seed=23)
        # same samples, target with doubled index in the Pareto component
        rng = substream(23, 0)
        log_l = sample_marginal(gamma11, 1e-3, 50_000, rng)
        at_one = substream(23, 1).random(50_000) >= 0.3
        values, n_inf = to_neg_t_power(
            np.where(at_one, np.logaddexp(log_l, 0.0), log_l), 1e-3
        )
        emp = mc.EmpiricalDistribution.from_values(values, n_inf)
        control = mc.ks_distance(emp, mc.ParetoMixtureLaw(0.3, 2.0).cdf)
        assert control >= 3.0 * result["statistic"]


class TestSpecSpotValues:
    def test_s2_gamma_at_u_e_t_one_thousandth(self, gamma11):
        # t*Phi(e**(1/t)) = t*log(1 + e**(1/t)) -> 1 = -log(1 - Pi_1(e))
        result = criteria.check_s2(
            gamma11, lambda u: pareto_cdf(1.0, u), t_grid=[1e-3], u_grid=[math.e]
        )
        assert result["statistic"] <= 1e-2

    def test_gamma_marginal_mass_spot_value(self, gamma11):
        # P(Y_t <= 2**-100) at t = 0.01 sits within half a percent of the
        # Pareto tail value 1/2 (the analytic check behind the MC bound)
        from scipy.special import gammainc

        p = float(gammainc(0.01, 2.0 ** (-100.0)))
        assert p == pytest.approx(0.5, abs=5e-3)

    def test_ol2_lower_bound_vacuous_when_psi_small(self, gamma11):
        # whenever psi(z/x) <= e^-z the lower bound is nonpositive
        z, x = 2.0, 1e-3
        psi = math.exp(-float(gamma11.phi.eval(z / x)))
        assert psi <= math.exp(-z)
        lower = (math.exp(z) * psi - 1.0) / (math.exp(z) - 1.0)
        assert lower <= 0.0 <= float(gamma11.cdf1(x))

    def test_affine_collapse_limit_matches_plain_pareto(self, gamma11):
        # a -> 1, b -> inf: the affine target degenerates to the Pareto law
        law = mc.AffineMinLaw(1.0 + 1e-12, 1e12, 1.0)
        x = np.geomspace(1.0, 1e6, 30)
        np.testing.assert_allclose(law.cdf(x), pareto_cdf(1.0, x), rtol=1e-9)


class TestTiltIndexInvarianceProperty:
    @given(theta=st.floats(0.05, 5.0), gamma=st.floats(0.3, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_tilted_gamma_estimate_stable(self, theta, gamma):
        model = catalog.make_gamma(gamma, 1.0)
        est = criteria.estimate_gamma_s5(transforms.tilt(model, theta).phi)
        assert est.verdict == "converged"
        assert est.gamma_hat == pytest.approx(gamma, abs=0.02)

    @given(theta=st.floats(0.05, 3.0))
    @settings(max_examples=15, deadline=None)
    def test_tilted_dickman_estimate_stable(self, theta):
        model = make_dickman(1.0)
        est = criteria.estimate_gamma_s5(transforms.tilt(model, theta).phi)
        assert est.gamma_hat == pytest.approx(1.0, abs=0.02)


class TestBridgeOracles:
    """Each exponent oracle against a closed form, gamma(2, 3)'s 2 log(1 + s/3)."""

    S = (1e-2, 1.0, 1e2, 1e6)

    def test_phi_from_levy_closed_form(self):
        model = catalog.make_gamma(2.0, 3.0)
        for s in self.S:
            want = 2.0 * math.log1p(s / 3.0)
            assert abs(phi_from_levy(model.levy_density, s) - want) <= quad_bound(want), s

    def test_phi_from_tail_closed_form(self):
        model = catalog.make_gamma(2.0, 3.0)
        for s in self.S:
            want = 2.0 * math.log1p(s / 3.0)
            assert abs(phi_from_tail(model.tail, s) - want) <= quad_bound(want), s
