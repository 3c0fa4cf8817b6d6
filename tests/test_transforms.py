"""Tilting, subordination, sums, drift: closed forms and index bookkeeping."""

import numpy as np
import pytest

from subordlab import catalog, criteria, transforms
from subordlab.core import LaplaceExponent, LevyTail, SubordinatorModel
from subordlab.errors import DegenerateModelError, InvalidParameterError, UnsupportedModelError


def custom_phi(fn, name):
    return SubordinatorModel(name=name, phi=LaplaceExponent(eval_log=fn))


SQRT_EXP = custom_phi(lambda ell: np.exp(0.5 * np.asarray(ell, dtype=float)), "sqrt")
LINEAR_PLUS_SQRT = custom_phi(
    lambda ell: 2.0 * np.exp(np.asarray(ell, dtype=float))
    + np.exp(0.5 * np.asarray(ell, dtype=float)),
    "2s+sqrt(s)",
)
IDENTITY = custom_phi(lambda ell: np.exp(np.asarray(ell, dtype=float)), "identity")
NULL = custom_phi(lambda ell: np.zeros_like(np.asarray(ell, dtype=float)), "null")


class TestTilt:
    def test_zero_is_identity(self, gamma11):
        assert transforms.tilt(gamma11, 0.0) is gamma11

    def test_gamma_tilt_is_rate_shift(self, gamma11):
        tilted = transforms.tilt(gamma11, 0.5)
        ref = catalog.make_gamma(1.0, 1.5)
        s = np.geomspace(1e-3, 1e8, 15)
        np.testing.assert_allclose(tilted.phi.eval(s), ref.phi.eval(s), rtol=1e-12, atol=1e-13)

    def test_dickman_tilt_preserves_index(self, dickman1):
        est = criteria.estimate_gamma_s5(transforms.tilt(dickman1, 1.0).phi)
        assert est.gamma_hat == pytest.approx(1.0, abs=0.02)

    def test_index_preserved_across_catalog(self, gamma11, dickman1):
        for model in (gamma11, dickman1, catalog.make_thorin_uniform(2.0)):
            base = criteria.estimate_gamma_s5(model.phi).gamma_hat
            for theta in (0.5, 2.0):
                tilted = criteria.estimate_gamma_s5(transforms.tilt(model, theta).phi).gamma_hat
                assert tilted == pytest.approx(base, abs=0.02), (model.name, theta)

    def test_tilt_composes_additively(self, gamma11):
        twice = transforms.tilt(transforms.tilt(gamma11, 0.5), 1.5)
        once = transforms.tilt(gamma11, 2.0)
        s = np.geomspace(1e-2, 1e6, 11)
        np.testing.assert_allclose(twice.phi.eval(s), once.phi.eval(s), rtol=0, atol=1e-10)

    def test_tilted_jump_density_and_tail(self, gamma11):
        import scipy.special as sc

        tilted = transforms.tilt(gamma11, 0.5)
        # exponent-level tilt matches the measure-level factor exp(-theta x)
        assert float(tilted.levy_density(0.7)) == pytest.approx(
            np.exp(-0.5 * 0.7) * float(gamma11.levy_density(0.7)), rel=1e-12
        )
        assert float(tilted.tail.tail(0.3)) == pytest.approx(float(sc.exp1(1.5 * 0.3)), rel=1e-9)

    def test_tilted_tail_on_s7_grid(self, gamma11):
        # the S7 grid reaches x = 1e-12, where the tilted density's peak sits
        # at the lower end of an infinite range
        import scipy.special as sc

        tail = transforms.tilt(gamma11, 0.5).tail
        x = np.exp(criteria._DEFAULT_LOG_X)
        np.testing.assert_allclose(tail.tail(x), sc.exp1(1.5 * x), rtol=1e-9, atol=0)
        est = criteria.estimate_gamma_s7(tail)
        oracle = criteria.estimate_gamma_s7(LevyTail(tail=lambda v: sc.exp1(1.5 * np.asarray(v))))
        assert est.verdict == oracle.verdict == "converged"
        assert est.gamma_hat == pytest.approx(oracle.gamma_hat, abs=1e-9)

    def test_negative_theta_rejected(self, gamma11):
        with pytest.raises(InvalidParameterError):
            transforms.tilt(gamma11, -0.1)

    def test_known_gamma_carries_over(self, dickman1):
        assert transforms.tilt(dickman1, 0.5).known_gamma == dickman1.known_gamma


class TestCompose:
    def test_outer_gamma_inner_stable(self, gamma21):
        stable = catalog.make_stable(1.0, 0.5)
        composed = transforms.compose_outer(gamma21, stable)
        assert composed.known_gamma == pytest.approx(1.0, abs=1e-6)
        est = criteria.estimate_gamma_s5(composed.phi)
        assert est.gamma_hat == pytest.approx(1.0, abs=0.02)

    def test_identity_inner_is_noop(self, gamma21):
        composed = transforms.compose_outer(gamma21, IDENTITY)
        s = np.geomspace(1e-2, 1e8, 11)
        np.testing.assert_allclose(composed.phi.eval(s), gamma21.phi.eval(s), rtol=0, atol=1e-10)
        ests = criteria.estimate_gamma_s5(composed.phi)
        assert ests.gamma_hat == pytest.approx(
            criteria.estimate_gamma_s5(gamma21.phi).gamma_hat, abs=1e-10
        )

    def test_inner_identity_clock(self, gamma11):
        # deterministic unit-rate clock leaves the process unchanged
        composed = transforms.compose_inner(IDENTITY, gamma11)
        s = np.geomspace(1e-2, 1e8, 11)
        np.testing.assert_allclose(composed.phi.eval(s), gamma11.phi.eval(s), rtol=0, atol=1e-10)
        assert composed.known_gamma == pytest.approx(1.0, abs=1e-6)

    def test_inner_with_linear_growth(self, gamma11):
        composed = transforms.compose_inner(LINEAR_PLUS_SQRT, gamma11)
        assert composed.known_gamma == pytest.approx(2.0, abs=0.02)
        est = criteria.estimate_gamma_s5(composed.phi, np.linspace(1e4, 1e6, 12))
        assert est.gamma_hat == pytest.approx(2.0, abs=0.02)

    def test_inner_with_sublinear_growth_loses_index(self, gamma11):
        composed = transforms.compose_inner(SQRT_EXP, gamma11)
        assert composed.known_gamma is None
        est = criteria.estimate_gamma_s5(composed.phi)
        assert est.verdict in ("degenerate", "diverged")

    def test_degenerate_operand_rejected(self, gamma11):
        with pytest.raises(DegenerateModelError):
            transforms.compose_outer(gamma11, NULL)


class TestAdd:
    def test_exponents_add(self, gamma11, gamma21):
        combined = transforms.add(gamma11, gamma21)
        ref = catalog.make_gamma(3.0, 1.0)
        s = np.geomspace(1e-2, 1e8, 11)
        np.testing.assert_allclose(combined.phi.eval(s), ref.phi.eval(s), rtol=1e-12)
        assert combined.known_gamma == 3.0
        est = criteria.estimate_gamma_s5(combined.phi)
        assert est.gamma_hat == pytest.approx(3.0, abs=0.02)

    def test_tails_add(self, gamma11, dickman1):
        combined = transforms.add(gamma11, dickman1)
        x = 0.2
        expected = float(gamma11.tail.tail(x)) + float(dickman1.tail.tail(x))
        assert float(combined.tail.tail(x)) == pytest.approx(expected, rel=1e-12)

    def test_dickman_plus_bessel_index(self, dickman1):
        combined = transforms.add(dickman1, catalog.make_bessel())
        est = criteria.estimate_gamma_s5(combined.phi)
        assert est.gamma_hat == pytest.approx(2.0, abs=0.05)

    def test_null_operand_rejected(self, gamma11):
        with pytest.raises(DegenerateModelError):
            transforms.add(gamma11, NULL)

    def test_summed_sampler_distribution(self, gamma11, gamma21):
        # gamma(1,1) + gamma(2,1) must sample as gamma(3,1)
        from scipy.special import gammainc

        from subordlab.montecarlo import (
            EmpiricalDistribution,
            ks_critical_value,
            ks_distance,
        )
        from subordlab.simulate import substream

        combined = transforms.add(gamma11, gamma21)
        samples = np.exp(combined.log_sampler(1.0, 100_000, substream(61, 0)))
        emp = EmpiricalDistribution.from_values(samples)
        stat = ks_distance(emp, lambda x: gammainc(3.0, np.asarray(x, dtype=float)))
        assert stat <= ks_critical_value(100_000, 0.01)


class TestDrift:
    def test_exponent_gains_linear_term(self, gamma11):
        drifted = transforms.add_drift(gamma11, 2.0)
        s = 5.0
        assert float(drifted.phi.eval(s)) == pytest.approx(
            float(gamma11.phi.eval(s)) + 2.0 * s, rel=1e-12
        )

    def test_estimator_diverges(self, gamma11):
        est = criteria.estimate_gamma_s5(transforms.add_drift(gamma11, 1.0).phi)
        assert est.verdict == "diverged"

    def test_index_cleared_and_flagged(self, gamma11):
        drifted = transforms.add_drift(gamma11, 1.0)
        assert drifted.known_gamma is None

    def test_nonpositive_rate_rejected(self, gamma11):
        with pytest.raises(InvalidParameterError):
            transforms.add_drift(gamma11, 0.0)

    def test_drifted_sampler_shifts_by_ct(self, gamma11):
        from subordlab.simulate import substream

        drifted = transforms.add_drift(gamma11, 2.0)
        base = np.exp(gamma11.log_sampler(0.5, 100, substream(71, 0)))
        shifted = np.exp(drifted.log_sampler(0.5, 100, substream(71, 0)))
        np.testing.assert_allclose(shifted, base + 1.0, rtol=1e-12)

    def test_requires_exponent(self):
        with pytest.raises(UnsupportedModelError):
            transforms.add_drift(catalog.make_weibull(1.0), 1.0)
