"""Estimators of the limit index and the inequality checks."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from subordlab import catalog, criteria, montecarlo
from subordlab.core import (
    GRID_TIMES, NOT_NULL, TIME_FLOOR, TIMES, LaplaceExponent, LevyTail, SubordinatorModel,
    pareto_cdf,
)
from subordlab.dickman import make_dickman
from subordlab.errors import InvalidParameterError, NumericalFailure

# L as a function of log s
NEG_LOG = lambda ly: -ly
NEG_LOG_CUBED = lambda ly: (-ly) ** 3


class TestS5:
    def test_gamma_process(self, gamma21):
        grid = np.linspace(4.6, 27.6, 12)
        est = criteria.estimate_gamma_s5(gamma21.phi, grid)
        assert est.verdict == "converged"
        assert est.gamma_hat == pytest.approx(2.0, abs=0.01)

    def test_bessel(self):
        est = criteria.estimate_gamma_s5(catalog.make_bessel().phi)
        assert est.gamma_hat == pytest.approx(1.0, abs=0.01)

    def test_stable_diverges(self):
        est = criteria.estimate_gamma_s5(catalog.make_stable(1.0, 0.5).phi)
        assert est.verdict == "diverged"
        assert not np.isfinite(est.gamma_hat)

    def test_degenerate_model(self):
        null = LaplaceExponent(eval_log=lambda ell: np.zeros_like(np.asarray(ell, dtype=float)))
        est = criteria.estimate_gamma_s5(null)
        assert est.verdict == "degenerate"

    def test_grid_preconditions(self, gamma11):
        with pytest.raises(InvalidParameterError):
            criteria.estimate_gamma_s5(gamma11.phi, np.linspace(1.0, 5.0, 12))
        with pytest.raises(InvalidParameterError):
            criteria.estimate_gamma_s5(gamma11.phi, np.linspace(5.0, 25.0, 4))

    def test_invariant_under_constant_shift(self, gamma11):
        # ratios differ by c/log s, which the affine extrapolation kills
        base = criteria.estimate_gamma_s5(gamma11.phi)
        shifted_phi = LaplaceExponent(
            eval_log=lambda ell: np.asarray(gamma11.phi.eval_log(ell), dtype=float) + 4.2
        )
        shifted = criteria.estimate_gamma_s5(shifted_phi)
        assert shifted.gamma_hat == pytest.approx(base.gamma_hat, abs=1e-10)


class TestS6:
    def test_weibull(self):
        est = criteria.estimate_gamma_s6(catalog.make_weibull(2.0).cdf1)
        assert est.gamma_hat == pytest.approx(2.0, abs=0.01)

    def test_gamma_marginal(self, gamma11):
        est = criteria.estimate_gamma_s6(gamma11.cdf1)
        assert est.gamma_hat == pytest.approx(1.0, abs=0.01)

    def test_degenerate_point_mass(self):
        est = criteria.estimate_gamma_s6(lambda x: np.ones_like(np.asarray(x, dtype=float)))
        assert est.verdict == "degenerate"

    def test_partial_underflow_warns_and_shrinks(self):
        steep = catalog.make_weibull(40.0)  # F(1e-12) = 1e-480 underflows
        with pytest.warns(UserWarning):
            est = criteria.estimate_gamma_s6(steep.cdf1)
        assert est.verdict == "converged"
        assert est.gamma_hat == pytest.approx(40.0, rel=0.01, abs=0.0)

    def test_full_underflow_fails(self):
        zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        with pytest.raises(NumericalFailure):
            criteria.estimate_gamma_s6(zero)

    def test_underflow_to_one_point_fails(self):
        # F(e^-25) = 1e-434 underflows, which left the one point log x = -0.5
        # and a fit that read gamma_hat 8.0, converged
        with pytest.raises(NumericalFailure, match="all but 1 of the grid's 2 points") as exc:
            criteria.estimate_gamma_s6(catalog.make_weibull(40.0).cdf1, [-0.5, -25.0])
        assert exc.value.op == "estimate_gamma_s6"


class TestS7:
    def test_dickman_ratios_exactly_constant(self):
        est = criteria.estimate_gamma_s7(make_dickman(3.0).tail)
        assert est.gamma_hat == pytest.approx(3.0, abs=1e-12)
        assert np.allclose(est.ratios, 3.0)

    def test_thorin_uniform(self):
        est = criteria.estimate_gamma_s7(catalog.make_thorin_uniform(2.0).tail)
        assert est.gamma_hat == pytest.approx(2.0, abs=0.02)

    def test_gamma_tail_vs_quadrature_oracle(self):
        model = catalog.make_gamma(1.5, 1.0)
        grid = np.linspace(np.log(1e-2), np.log(1e-12), 12)

        def oracle_tail(x):
            x_arr = np.atleast_1d(np.asarray(x, dtype=float))
            return np.array(
                [quad(lambda u: 1.5 * math.exp(-u) / u, v, 750.0, limit=400)[0] for v in x_arr]
            )

        est = criteria.estimate_gamma_s7(model.tail, grid)
        oracle = criteria.estimate_gamma_s7(LevyTail(tail=oracle_tail), grid)
        assert est.gamma_hat == pytest.approx(1.5, abs=0.02)
        assert est.gamma_hat == pytest.approx(oracle.gamma_hat, abs=1e-6)


@pytest.mark.parametrize("criterion", ["S6", "S7", "S8", "GL"])
def test_one_point_grid_refused(criterion):
    # one point leaves the affine fit in 1/log x underdetermined
    with pytest.raises(InvalidParameterError, match=r"^need >= 2 decreasing"):
        criteria.log_grid(criterion, [-25.0])
    assert criteria.log_grid(criterion, [-25.0, -30.0]).size == 2


class TestS8:
    def test_gamma_density(self, gamma21):
        est = criteria.estimate_gamma_s8(gamma21.density1)
        assert est.gamma_hat == pytest.approx(2.0, abs=0.01)

    def test_positive_density_limit_group(self):
        # densities with positive finite limits at 0 all land on index 1
        for model in (catalog.make_pareto_type(2.0), catalog.make_half_cauchy(),
                      catalog.make_bessel()):
            est = criteria.estimate_gamma_s8(model.density1)
            assert est.gamma_hat == pytest.approx(1.0, abs=0.01), model.name

    def test_small_gamma_shifted_ratio(self):
        est = criteria.estimate_gamma_s8(catalog.make_gamma(0.5, 1.0).density1)
        assert est.gamma_hat == pytest.approx(0.5, abs=0.01)


class TestCrossAgreement:
    def test_all_applicable_estimators_agree(self, all_known_gamma_models):
        for model, expected in all_known_gamma_models:
            ests = criteria.estimate_all(model)
            values = [e.gamma_hat for e in ests.values() if e.verdict == "converged"]
            assert values, model.name
            for a in values:
                for b in values:
                    assert abs(a - b) <= 0.05, (model.name, values)
                assert abs(a - expected) <= 0.02, (model.name, values)


class TestS2:
    def test_gamma_model_against_pareto_target(self, gamma11):
        result = criteria.check_s2(gamma11, lambda u: pareto_cdf(1.0, u))
        assert result["statistic"] <= 1e-2
        deviations = result["deviations"]
        assert np.all(np.diff(deviations) <= np.abs(deviations[:-1]) * 0.1 + 1e-15)

    def test_bessel_against_pareto_target(self):
        result = criteria.check_s2(
            catalog.make_bessel(), lambda u: pareto_cdf(1.0, u), t_grid=[0.01, 0.001]
        )
        assert result["statistic"] <= 1e-2

    def test_below_support_is_trivial(self, gamma11):
        result = criteria.check_s2(
            gamma11, lambda u: pareto_cdf(1.0, u), u_grid=[0.2, 0.5, 0.9]
        )
        assert result["statistic"] <= 1e-6

    def test_target_hitting_one_rejected(self, gamma11):
        with pytest.raises(InvalidParameterError):
            criteria.check_s2(gamma11, lambda u: np.ones_like(np.asarray(u, dtype=float)))

    def test_degenerate_model_rejected(self):
        null = SubordinatorModel(name="null", phi=LaplaceExponent(
            eval_log=lambda ell: np.zeros_like(np.asarray(ell, dtype=float))))
        with pytest.raises(InvalidParameterError) as exc:
            criteria.check_s2(null, lambda u: pareto_cdf(1.0, u))
        assert str(exc.value) == f"model must be {NOT_NULL.requirement}, got null"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("grid", ["t_grid", "u_grid"])
    def test_grid_value_not_finite_and_positive_rejected(self, grid, bad):
        # NaN passed, and the deviation read NaN
        grids = {"t_grid": [0.01], "u_grid": [2.0], grid: [bad, 0.5]}
        rule = GRID_TIMES if grid == "t_grid" else TIMES
        message = f"{grid} must be {rule.requirement}, got "
        with pytest.raises(InvalidParameterError, match=f"^{message}"):
            criteria.grid_deviations(lambda t, ell: ell, lambda u: 0.0 * u, **grids)
        with pytest.raises(InvalidParameterError, match=f"^{message}"):
            montecarlo.check_family_limit(catalog.make_stable_nef(1.0, 1.0), **grids)

    def test_grid_times_down_to_the_floor(self, gamma11):
        # below it, log(u)/t overflowed and the statistic read inf
        law = lambda u: pareto_cdf(1.0, u)
        u_grid = [1e-300, 1.5, 1e15]
        result = criteria.check_s2(gamma11, law, t_grid=[TIME_FLOOR], u_grid=u_grid)
        assert np.all(np.isfinite(result["deviations"]))
        with pytest.raises(InvalidParameterError, match="^t_grid must be"):
            criteria.check_s2(gamma11, law, t_grid=[TIME_FLOOR / 2.0], u_grid=u_grid)

    @pytest.mark.parametrize("u_grid", [[math.inf], [math.nan, 2.0]])
    def test_u_grid_checked_before_the_limit_cdf_and_named_as_given(self, gamma11, u_grid):
        # [inf] raised "u grid hits F* = 1", and [nan, 2.0] was echoed as array([nan,  2.])
        def unread(u):
            raise AssertionError("the limit CDF was evaluated on an unchecked grid")

        message = f"u_grid must be a non-empty list of finite numbers > 0, got {u_grid!r}"
        with pytest.raises(InvalidParameterError) as exc:
            criteria.check_s2(gamma11, unread, u_grid=u_grid)
        assert str(exc.value) == message
        with pytest.raises(InvalidParameterError) as exc:
            montecarlo.check_family_limit(catalog.make_stable_nef(1.0, 1.0), u_grid=u_grid)
        assert str(exc.value) == message


class TestGeneralized:
    def test_neg_log_reduces_to_s5(self, gamma11):
        est = criteria.estimate_gamma_general(gamma11.phi, NEG_LOG)
        assert est.verdict == "converged"
        assert est.gamma_hat == pytest.approx(1.0, abs=0.01)

    def test_cubed_log_on_matching_tail(self):
        model = catalog.make_log_power(1.0, 3)
        est = criteria.estimate_gamma_general(model.phi, NEG_LOG_CUBED)
        assert est.gamma_hat == pytest.approx(1.0, abs=0.05)

    def test_cubed_log_on_gamma_degenerates(self, gamma11):
        est = criteria.estimate_gamma_general(gamma11.phi, NEG_LOG_CUBED)
        assert est.verdict == "degenerate"

    def test_dispatch_needs_an_L(self, gamma11):
        # the estimator itself would fail on a missing L with a TypeError
        with pytest.raises(InvalidParameterError, match="GL needs an L"):
            criteria.estimate_gamma(gamma11, "GL")

    def test_nonmonotone_L_rejected(self, gamma11):
        wiggle = lambda ly: -ly * (1.0 + 0.5 * np.sin(ly * 40.0))
        with pytest.raises(InvalidParameterError):
            criteria.estimate_gamma_general(gamma11.phi, wiggle)


class TestSandwich:
    def test_gamma_ol_and_ol2_clean(self, gamma11):
        z = np.geomspace(0.1, 10.0, 12)
        s = np.geomspace(1.0, 1e4, 12)
        assert criteria.check_sandwich_ol(gamma11.cdf1, gamma11.phi, z, s) == []
        z2 = np.geomspace(0.5, 5.0, 10)
        x2 = np.geomspace(1e-3, 1.0, 12)
        assert criteria.check_sandwich_ol2(gamma11.cdf1, gamma11.phi, z2, x2) == []

    def test_weibull_via_quadrature_transform(self):
        w = catalog.make_weibull(1.0)
        assert criteria.check_sandwich_ol(w.cdf1, None) == []
        assert criteria.check_sandwich_ol2(w.cdf1, None) == []

    def test_upper_bound_trivial_for_small_z(self, gamma11):
        # as z -> 0 the upper bound tends to 1 and cannot bind
        violations = criteria.check_sandwich_ol(
            gamma11.cdf1, gamma11.phi, z_grid=[1e-3], s_grid=[1.0, 10.0]
        )
        assert violations == []

    def test_large_z_pinch(self, gamma11):
        # at z = 30 both bounds collapse onto F(z/s) within exp(-30)
        z = 30.0
        s = 100.0
        f = float(gamma11.cdf1(z / s))
        lower = f * math.exp(-z)
        upper = f * (1.0 - math.exp(-z)) + math.exp(-z)
        assert upper - f <= 2e-13
        assert criteria.check_sandwich_ol(gamma11.cdf1, gamma11.phi, [z], [s]) == []
        assert lower <= math.exp(-float(gamma11.phi.eval(s))) <= upper + 1e-9

    def test_ol2_small_z_guarded(self, gamma11):
        with pytest.raises(InvalidParameterError):
            criteria.check_sandwich_ol2(gamma11.cdf1, gamma11.phi, z_grid=[1e-4])

    @pytest.mark.parametrize("which", ["ol", "ol2"])
    def test_nan_tol_refused(self, gamma11, which):
        # a CDF stuck at 1/2 breaks the bounds, but no comparison with a NaN tol holds
        check = getattr(criteria, f"check_sandwich_{which}")
        stuck = lambda x: np.full(np.shape(x), 0.5)
        assert check(stuck, gamma11.phi)
        with pytest.raises(InvalidParameterError, match=r"^tol must be a finite number >= 0"):
            check(stuck, gamma11.phi, tol=math.nan)

    def test_violation_detected_for_wrong_pair(self, gamma11):
        # pairing the gamma CDF with a mismatched exponent must trip the check
        wrong_phi = catalog.make_gamma(3.0, 1.0).phi
        violations = criteria.check_sandwich_ol(gamma11.cdf1, wrong_phi)
        assert violations


class TestLimitEstimateContract:
    def test_gamma_hat_finite_iff_converged(self, all_known_gamma_models):
        models = [m for m, _ in all_known_gamma_models] + [catalog.make_stable(1.0, 0.5)]
        for model in models:
            for est in criteria.estimate_all(model).values():
                assert (est.verdict == "converged") == bool(np.isfinite(est.gamma_hat))
                assert est.ratios.shape == est.grid.shape

    def test_serialization_roundtrip(self, gamma11):
        est = criteria.estimate_gamma_s5(gamma11.phi)
        d = est.to_dict()
        assert d["criterion"] == "S5"
        assert d["verdict"] == "converged"
        assert isinstance(d["ratios"], list)
