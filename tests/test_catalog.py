"""Model constructors against their closed forms and sampling identities."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy import special as sc
from scipy.special import erfc, gammainc, gammaln

from subordlab import catalog, transforms
from subordlab.core import BLOCK
from subordlab.errors import InvalidParameterError
from subordlab.montecarlo import ks_critical_value, ks_distance, EmpiricalDistribution


class CountingRng:
    """A generator that counts the uniforms drawn through it."""

    def __init__(self, rng):
        self.rng = rng
        self.uniforms = 0

    def random(self, *args, **kwargs):
        out = self.rng.random(*args, **kwargs)
        self.uniforms += np.size(out)
        return out

    def __getattr__(self, name):
        return getattr(self.rng, name)


# batch sizes around the blocks the samplers work in
BLOCK_EDGES = (1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7)


class TestGamma:
    def test_phi_closed_form(self, gamma11):
        assert gamma11.phi.eval(math.e - 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_phi_at_zero(self):
        assert catalog.make_gamma(2.0, 3.0).phi.eval(0.0) == 0.0

    def test_density_tends_to_one_at_origin(self, gamma11):
        # density ~ x**(gamma-1) near 0; gamma = lam = 1 gives limit 1
        assert gamma11.density1(1e-9) == pytest.approx(1.0, rel=1e-6)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(InvalidParameterError):
            catalog.make_gamma(0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            catalog.make_gamma(1.0, -2.0)

    def test_marginal_sampler_mean(self, gamma11):
        rng = np.random.default_rng(11)
        samples = np.exp(gamma11.log_sampler(2.0, 200_000, rng))
        stderr = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - 2.0) <= 3.0 * stderr

    def test_small_shape_sampler_matches_marginal_law(self, gamma11):
        # t*gamma = 0.02: far below the shapes where naive gamma draws survive
        rng = np.random.default_rng(12)
        t = 0.02
        log_s = gamma11.log_sampler(t, 100_000, rng)
        assert np.all(np.isfinite(log_s))
        from scipy.special import gammainc

        emp = EmpiricalDistribution.from_values(np.exp(np.clip(log_s, -700, 700)))
        stat = ks_distance(emp, lambda x: gammainc(t, np.asarray(x, dtype=float)))
        assert stat <= ks_critical_value(100_000, 0.01)

    @pytest.mark.parametrize(
        "gamma,lam,t",
        [(1.0, 2.0, 0.02), (0.5, 1.0, 0.2), (1.0, 1.0, 1.0), (2.0, 0.5, 0.7), (1.0, 3.0, 0.7)],
    )
    def test_log_sampler_matches_allocating_form(self, gamma, lam, t):
        def rejection(rng, n, a):
            # the Liu-Martin-Syring sampler on whole candidate blocks: all the
            # block's uniforms, then its exponentials; accepted draws in order
            w = a / (math.e * (1.0 - a))
            ww = 1.0 / (1.0 + w)
            got, filled = [], 0
            while filled < n:
                k = min(BLOCK, n - filled)
                u = 1.0 - rng.random(k)
                e = rng.standard_exponential(k)
                left = u <= ww
                y = np.empty(k)
                y[left] = (np.log(u[left]) - math.log(ww)) / a
                y[~left] = -np.log((u[~left] - ww) / (w * ww)) / (1.0 - a)
                ok = np.where(left, y < np.log(e), np.expm1(y) - y < e)
                got.append(y[ok] - math.log(lam))
                filled += int(ok.sum())
            return np.concatenate(got)

        # the expressions the boost and direct draws used before they worked
        # on their draw buffers
        def allocating(rng, n):
            shape = t * gamma
            if shape < catalog.SMALL_SHAPE:
                return rejection(rng, n, shape)
            if shape >= 1.0:
                return np.log(rng.gamma(shape, size=n)) - math.log(lam)
            boost = rng.gamma(shape + 1.0, size=n)
            u = 1.0 - rng.random(n)
            return np.log(boost) + np.log(u) / shape - math.log(lam)

        # batches of one block, of several and of a partial last block
        for n in (10_000, *BLOCK_EDGES):
            rng, ref = np.random.default_rng(13), np.random.default_rng(13)
            got = catalog.make_gamma(gamma, lam).log_sampler(t, n, rng)
            want = allocating(ref, n)
            assert got.tobytes() == want.tobytes(), n
            assert rng.bit_generator.state == ref.bit_generator.state, n

    @pytest.mark.parametrize(
        "a",
        [1e-3, 0.01, 0.05, 0.2, catalog.SMALL_SHAPE - 1e-3, catalog.SMALL_SHAPE + 1e-3, 0.9],
    )
    def test_log_sampler_law(self, a):
        # P(log G <= q) = e^{aq} 1F1(a; a+1; -e^q) / Gamma(a+1), which
        # does not underflow however small a is; the 1F1 factor is
        # gammainc's series once e^q is a normal float and 1 to double
        # precision below that
        def cdf(q):
            q = np.asarray(q, dtype=float)
            tiny = np.exp(a * q - gammaln(a + 1.0))
            return np.where(q > -700.0, gammainc(a, np.exp(np.maximum(q, -700.0))), tiny)

        n = 1_000_000
        rng = CountingRng(np.random.default_rng(int(1e6 * a)))
        log_g = catalog.make_gamma(1.0, 1.0).log_sampler(a, n, rng)
        assert not np.isneginf(log_g).any() and np.isfinite(log_g).all()
        emp = EmpiricalDistribution.from_values(log_g)
        assert ks_distance(emp, cdf) <= ks_critical_value(n, 0.01)
        if a < catalog.SMALL_SHAPE:
            # candidates drawn for n acceptances at rate r: mean n/r, sd sqrt(n(1-r))/r
            w = a / (math.e * (1.0 - a))
            r = math.gamma(a + 1.0) / (1.0 + w)
            assert abs(rng.uniforms - n / r) <= 4.0 * math.sqrt(n * (1.0 - r)) / r

    def test_small_shape_memory_is_the_output_alone(self, traced_peak):
        n = 1_000_000
        model = catalog.make_gamma(1.0, 1.0)
        for a in (0.01, catalog.SMALL_SHAPE - 1e-3):
            peak = traced_peak(lambda: model.log_sampler(a, n, np.random.default_rng(14)))
            assert peak <= 8 * n + 2 * 2**20, a

    @pytest.mark.parametrize("gamma,lam", [(1.0, 1.0), (0.5, 3.0), (2.0, 0.2), (0.01, 7.0)])
    def test_inverse_tail_matches_allocating_newton(self, gamma, lam):
        # the Newton iteration with a fresh array at every step, as it was
        # before the steps ran in buffers
        def allocating(y):
            target = np.asarray(y, dtype=float) / gamma
            z = np.where(target > 1.0, np.exp(-target - 0.57721566490153286), 1.0)
            big = target <= 1.0
            z[big] = np.maximum(-np.log(np.maximum(target[big], 1e-300)), 1e-12)
            u = np.log(z)
            idx, u_act, t_act = np.arange(u.size), u, target
            for _ in range(60):
                ez = np.exp(u_act)
                step = np.clip((sc.exp1(ez) - t_act) / np.exp(-ez), -2.0, 2.0)
                u_act = u_act + step
                moving = ~(np.abs(step) < 1e-14)
                if not moving.all():
                    u[idx] = u_act
                    idx, u_act, t_act = idx[moving], u_act[moving], t_act[moving]
                    if not idx.size:
                        break
            u[idx] = u_act
            return np.exp(u) / lam

        tail = catalog.make_gamma(gamma, lam).tail
        nu_eps = float(tail.tail(1e-12))
        y = np.random.default_rng(16).random(3 * BLOCK + 7) * nu_eps
        y[:6] = (nu_eps, 0.0, 5e-324, 1e300, np.inf, np.nan)
        with np.errstate(all="ignore"):
            got, want = tail.inverse_tail(y), allocating(y)
        assert got.tobytes() == want.tobytes()

    def test_inverse_tail_block_memory(self, traced_peak):
        # the Newton steps run in buffers allocated once per call (5.3 MiB for
        # one block when every step allocated its own arrays)
        tail = catalog.make_gamma(1.0, 1.0).tail
        y = np.random.default_rng(15).random(BLOCK) * float(tail.tail(1e-6))
        assert traced_peak(lambda: tail.inverse_tail(y)) <= 4 * 2**20

    def test_tail_is_exponential_integral_by_quadrature(self):
        model = catalog.make_gamma(1.5, 2.0)
        for x in (0.05, 0.5, 2.0):
            oracle, _ = quad(lambda u: 1.5 * math.exp(-2.0 * u) / u, x, np.inf, limit=200)
            assert float(model.tail.tail(x)) == pytest.approx(oracle, rel=1e-9)


class TestStable:
    def test_phi_power_form(self):
        st = catalog.make_stable(1.0, 0.5)
        assert st.phi.eval(4.0) == pytest.approx(2.0, rel=1e-12)
        assert catalog.make_stable(2.0, 0.3).phi.eval(0.0) == 0.0

    def test_rejects_bad_index(self):
        with pytest.raises(InvalidParameterError):
            catalog.make_stable(1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            catalog.make_stable(1.0, 0.0)

    @pytest.mark.parametrize("n", BLOCK_EDGES)
    def test_log_sampler_matches_allocating_form(self, n):
        # the expressions the sampler used before it worked on its output in blocks
        def allocating(a, alpha, t, rng):
            ratio = (1.0 - alpha) / alpha
            v = rng.random(n)
            v = np.where(v == 0.0, 2.0**-53, v)
            w = rng.exponential(size=n)
            w = np.maximum(w, 5e-324)
            log_s = (
                np.log(np.sin(alpha * np.pi * v))
                + ratio * np.log(np.sin((1.0 - alpha) * np.pi * v))
                - np.log(np.sin(np.pi * v)) / alpha
                - ratio * np.log(w)
            )
            return np.log(a * t) / alpha + log_s

        for a, alpha, t in [(1.0, 0.5, 0.01), (2.0, 0.3, 1.0), (0.5, 0.9, 0.2)]:
            got = catalog.make_stable(a, alpha).log_sampler(t, n, np.random.default_rng(14))
            want = allocating(a, alpha, t, np.random.default_rng(14))
            assert got.tobytes() == want.tobytes(), (a, alpha, t)

    def test_sampler_matches_laplace_transform(self):
        # E exp(-Y_1) = exp(-1) for a = 1, alpha = 1/2
        st = catalog.make_stable(1.0, 0.5)
        rng = np.random.default_rng(5)
        y = np.exp(st.log_sampler(1.0, 1_000_000, rng))
        vals = np.exp(-y)
        stderr = vals.std(ddof=1) / math.sqrt(y.size)
        assert abs(vals.mean() - math.exp(-1.0)) <= 3.0 * stderr

    def test_sampler_matches_levy_half_cdf(self):
        # alpha = 1/2 marginal is the Levy law with CDF erfc(1/(2 sqrt(x)))
        st = catalog.make_stable(1.0, 0.5)
        rng = np.random.default_rng(6)
        y = np.exp(st.log_sampler(1.0, 100_000, rng))
        emp = EmpiricalDistribution.from_values(y)
        stat = ks_distance(
            emp, lambda x: erfc(1.0 / (2.0 * np.sqrt(np.maximum(np.asarray(x, dtype=float), 1e-300))))
        )
        assert stat <= ks_critical_value(100_000, 0.01)

    def test_inverse_moment_identity(self):
        # E[S**-1] = Gamma(1 + 1/alpha) / Gamma(2) = 2 at alpha = 1/2
        st = catalog.make_stable(1.0, 0.5)
        rng = np.random.default_rng(7)
        inv = np.exp(-st.log_sampler(1.0, 500_000, rng))
        stderr = inv.std(ddof=1) / math.sqrt(inv.size)
        assert abs(inv.mean() - 2.0) <= 4.0 * stderr


class TestBessel:
    def test_phi_values(self):
        b = catalog.make_bessel()
        assert b.phi.eval(0.0) == 0.0
        assert b.phi.eval(0.25) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_phi_over_log_approaches_one(self):
        b = catalog.make_bessel()
        # ratio = 1 + log(2)/log(s) + o(1): inside 0.01 only for log s > 100*log 2
        ratios = [float(b.phi.eval_log(ell)) / ell for ell in (23.0, 46.0, 92.1)]
        assert ratios[0] > ratios[1] > ratios[2]
        assert abs(ratios[-1] - 1.0) < 0.01

    def test_density_positive_constant_at_origin(self):
        b = catalog.make_bessel()
        assert b.density1(1e-8) == pytest.approx(0.5, rel=1e-6)


class TestThorin:
    def test_uniform_phi_at_gamma(self):
        assert catalog.make_thorin_uniform(2.0).phi.eval(2.0) == pytest.approx(
            4.0 * math.log(2.0), rel=1e-12
        )

    def test_uniform_phi_continuous_at_zero(self):
        tu = catalog.make_thorin_uniform(1.0)
        assert tu.phi.eval(0.0) == 0.0
        assert 0.0 < tu.phi.eval(1e-12) < 1e-10

    def test_discrete_measure_is_add_of_gammas(self):
        # atoms (y_i, m_i): the independent sum of gamma(m_i, y_i) subordinators
        atoms = ((0.5, 0.7), (3.0, 1.6))
        model = transforms.add(*(catalog.make_gamma(m, y) for y, m in atoms))
        s = np.geomspace(1e-3, 1e8, 23)
        phi = sum(m * np.log1p(s / y) for y, m in atoms)
        np.testing.assert_allclose(model.phi.eval(s), phi, rtol=0, atol=1e-12)
        x = np.geomspace(1e-8, 10.0, 19)
        tail = sum(m * sc.exp1(x * y) for y, m in atoms)
        np.testing.assert_allclose(model.tail.tail(x), tail, rtol=1e-14)
        assert model.known_gamma == sum(m for _, m in atoms)


class TestDensityModels:
    def test_weibull_cdf_behaves_like_power_at_origin(self):
        w = catalog.make_weibull(2.0)
        x = 1e-4
        assert float(w.cdf1(x)) / x**2 == pytest.approx(1.0, abs=1e-6)

    def test_pareto_type_density_at_origin(self):
        assert catalog.make_pareto_type(1.0).density1(0.0) == pytest.approx(1.0)

    def test_half_cauchy_density_at_origin(self):
        assert catalog.make_half_cauchy().density1(0.0) == pytest.approx(2.0 / math.pi)

    def test_fdist_density_normalizes(self):
        m = catalog.make_fdist(1.5, 2.0)
        total, _ = quad(lambda x: float(m.density1(x)), 0.0, np.inf, limit=200)
        assert total == pytest.approx(1.0, rel=1e-8)

    def test_density_models_expose_no_exponent(self):
        for m in (catalog.make_weibull(2.0), catalog.make_pareto_type(1.0),
                  catalog.make_fdist(1.5, 2.0), catalog.make_half_cauchy()):
            assert m.phi is None and m.log_sampler is None


class TestLogPower:
    def test_tail_and_inverse(self):
        lp = catalog.make_log_power(2.0, 3)
        x = 1e-4
        assert float(lp.tail.tail(x)) == pytest.approx(2.0 * (-math.log(x)) ** 3, rel=1e-12)
        y = 50.0
        assert float(lp.tail.tail(lp.tail.inverse_tail(y))) == pytest.approx(y, rel=1e-12)

    def test_phi_quadrature_matches_moment_polynomial(self):
        lp = catalog.make_log_power(1.0, 3)
        # quadrature branch at s just below the asymptotic switch
        lo, hi = lp.phi.eval(1e6 / 1.001), lp.phi.eval(1e6 * 1.001)
        assert hi > lo
        assert (hi - lo) / hi < 1e-3

    def test_rejects_even_power(self):
        with pytest.raises(InvalidParameterError):
            catalog.make_log_power(1.0, 2)


class TestStableNef:
    def test_limit_cdf_endpoints(self):
        fam = catalog.make_stable_nef(1.0, 1.0)
        assert fam.limit_cdf(1.0) == 0.0
        assert fam.limit_cdf(1.0 + math.log(2.0)) == pytest.approx(0.5, rel=1e-12)

    def test_transform_close_to_limit_at_small_t(self):
        fam = catalog.make_stable_nef(1.0, 1.0)
        t = 1e-4
        u = 2.0
        dev = abs(fam.psi_t_log(t, math.log(u) / t) - (1.0 - fam.limit_cdf(u)))
        assert dev <= 1e-3

    def test_psi_monotone_in_u(self):
        fam = catalog.make_stable_nef(1.0, 1.0)
        u = np.geomspace(1e-3, 1e3, 30)
        psi = fam.psi_t_log(0.5, np.log(u))
        assert np.all(np.diff(psi) <= 0)
        assert np.all((psi > 0) & (psi <= 1.0))

    def test_theta_zero_rejected(self):
        with pytest.raises(InvalidParameterError):
            catalog.make_stable_nef(1.0, 0.0)


def test_build_model_unknown_name():
    with pytest.raises(InvalidParameterError):
        catalog.build_model("no_such_model")


@pytest.mark.parametrize(
    "model,described",
    [
        (catalog.make_gamma(lam=2.0, gamma=1.0), "gamma(gamma=1.0,lam=2.0)"),
        (catalog.make_stable(1.0, 0.5), "stable(a=1.0,alpha=0.5)"),
        (catalog.make_bessel(), "bessel"),
        (catalog.make_thorin_uniform(2.0), "thorin_uniform(gamma=2.0)"),
        (catalog.make_weibull(2), "weibull(gamma=2)"),
        (catalog.make_pareto_type(1.5), "pareto_type(a=1.5)"),
        (catalog.make_fdist(2.0, 3.0), "fdist(a=2.0,b=3.0)"),
        (catalog.make_half_cauchy(), "half_cauchy"),
        (catalog.make_dickman(1.0), "dickman(gamma=1.0)"),
        (catalog.make_log_power(0.1), "log_power(gamma=0.1,power=3)"),
        (catalog.make_stable_nef(1.0, 2.0), "stable_nef(a=1.0,theta=2.0)"),
    ],
)
def test_describe_names_the_declared_params(model, described):
    assert model.describe() == described


def test_catalog_lists_surfaces(all_known_gamma_models):
    for name in ("gamma", "dickman", "bessel"):
        assert name in catalog.CATALOG
    # each name is the one its factory declares
    assert all(factory.model_name == name for name, factory in catalog.CATALOG.items())
    assert set(catalog.CATALOG["gamma"].fields) == {"gamma", "lam"}
