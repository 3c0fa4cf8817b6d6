"""Core types, the integral routine, and the surfaces checked against quadrature oracles."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, special
from scipy.integrate import quad

from subordlab import catalog, transforms
from subordlab.core import (
    ExponentialLaw,
    LaplaceExponent,
    ParetoLaw,
    integral,
    lst_from_cdf,
    pareto_cdf,
    pareto_quantile,
)
from subordlab.dickman import EULER, make_dickman
from subordlab.errors import InvalidParameterError, NumericalFailure
from test_contract import models
from test_oracles import phi_from_levy, phi_from_tail, quad_bound


def exp1_oracle(z):
    """E1 by power series (small z) and continued fraction (large z).

    Independent of scipy; used to cross-check quadrature results.
    """
    if z <= 0:
        raise ValueError("need z > 0")
    if z <= 1.0:
        total, term = 0.0, 1.0
        for k in range(1, 60):
            term *= -z / k
            total += term / k
        return -EULER - math.log(z) - total
    # Lentz continued fraction for exp(z) E1(z)
    b = z + 1.0
    c = 1e308
    d = 1.0 / b
    h = d
    for i in range(1, 200):
        a = -(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-z)


def test_exp1_oracle_sanity():
    import scipy.special as sc

    for z in [0.01, 0.3, 1.0, 2.5, 10.0, 50.0]:
        assert exp1_oracle(z) == pytest.approx(float(sc.exp1(z)), rel=1e-12, abs=0.0)


class TestParetoLaw:
    def test_cdf_below_support(self):
        assert pareto_cdf(3.0, 0.5) == 0.0

    def test_cdf_left_endpoint(self):
        assert pareto_cdf(1.7, 1.0) == 0.0

    def test_cdf_direct_value(self):
        assert pareto_cdf(2.0, 2.0) == pytest.approx(0.75, abs=1e-15)

    def test_cdf_rejects_bad_gamma(self):
        with pytest.raises(InvalidParameterError):
            pareto_cdf(0.0, 2.0)

    def test_quantile_left_endpoint(self):
        assert pareto_quantile(1.0, 0.0) == 1.0

    def test_quantile_median(self):
        assert pareto_quantile(1.0, 0.5) == pytest.approx(2.0, abs=1e-12)

    def test_quantile_inverts_cdf_example(self):
        assert pareto_quantile(2.0, 0.75) == pytest.approx(2.0, abs=1e-12)

    def test_quantile_rejects_p_one(self):
        with pytest.raises(InvalidParameterError):
            pareto_quantile(1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            pareto_quantile(1.0, -0.1)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_quantile_cdf_roundtrip(self, data):
        # the roundtrip is well-posed while 1 - p is resolvable in floats,
        # gamma * log(x) <= 9: x in [1, 1e6] is drawn inside that domain
        gamma = data.draw(st.floats(0.05, 20.0), label="gamma")
        x = math.exp(data.draw(st.floats(0.0, min(math.log(1e6), 9.0 / gamma)), label="log_x"))
        assert pareto_quantile(gamma, pareto_cdf(gamma, x)) == pytest.approx(x, rel=1e-10, abs=0.0)

    @given(
        g1=st.floats(0.1, 5.0),
        g2=st.floats(0.1, 5.0),
        x=st.floats(1.0, 100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_min_of_paretos_is_pareto_of_summed_index(self, g1, g2, x):
        # algebraic identity: survival functions multiply
        assume((g1 + g2) * math.log(x) <= 25.0)
        lhs = (1.0 - pareto_cdf(g1, x)) * (1.0 - pareto_cdf(g2, x))
        rhs = 1.0 - pareto_cdf(g1 + g2, x)
        # both sides round at float-eps absolutely once the survival is tiny
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=5e-15)

    @given(gamma=st.floats(0.2, 8.0), n=st.integers(1, 12), x=st.floats(1.0, 40.0))
    @settings(max_examples=60, deadline=None)
    def test_min_stability_power_form(self, gamma, n, x):
        assume(n * gamma * math.log(x) <= 25.0)
        surv = 1.0 - pareto_cdf(gamma, x)
        assert surv**n == pytest.approx(1.0 - pareto_cdf(n * gamma, x), rel=1e-9, abs=5e-15)

    def test_law_object_sampling_matches_quantiles(self):
        law = ParetoLaw(2.0)
        rng = np.random.default_rng(0)
        samples = law.sample(200_000, rng)
        assert samples.min() >= 1.0
        # analytic median
        assert np.median(samples) == pytest.approx(law.quantile(0.5), rel=5e-3, abs=0.0)


CDF_POINTS = [-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 1e308, np.inf, np.nan]


def allocating_pareto_cdf(gamma, x):
    """pareto_cdf as it was before the in-place rewrite."""
    x_arr = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore"):
        out = np.where(x_arr >= 1.0, -np.expm1(-gamma * np.log(np.maximum(x_arr, 1.0))), 0.0)
    out = np.where(np.isposinf(x_arr), 1.0, out)
    return out if out.ndim else float(out)


def allocating_exponential_cdf(gamma, x):
    """ExponentialLaw.cdf as it was before the in-place rewrite."""
    x_arr = np.asarray(x, dtype=float)
    out = np.where(x_arr >= 0.0, -np.expm1(-gamma * np.minimum(x_arr, np.inf)), 0.0)
    out = np.where(np.isposinf(x_arr), 1.0, out)
    return out if out.ndim else float(out)


NEG_ZERO = CDF_POINTS.index(0.0)  # == also matches -0.0, the first zero


class TestCdfKernelsBitwise:
    @pytest.mark.parametrize("gamma", [0.3, 1.0, 2.5])
    def test_pareto(self, gamma):
        self.check(lambda x: pareto_cdf(gamma, x), lambda x: allocating_pareto_cdf(gamma, x), True)

    @pytest.mark.parametrize("gamma", [0.3, 1.0, 2.5])
    def test_exponential(self, gamma):
        # the zero returned at x = -0.0 was -0.0; fmax may return either zero on
        # a tie (numpy's SIMD and scalar loops differ), so only its value is pinned
        law = ExponentialLaw(gamma)
        with np.errstate(over="ignore"):  # -gamma * 1e308, in both forms
            self.check(law.cdf, lambda x: allocating_exponential_cdf(gamma, x), False)

    @staticmethod
    def check(new, old, neg_zero_sign):
        x = np.concatenate([CDF_POINTS, np.random.default_rng(3).lognormal(0.0, 3.0, 1000)])
        got, want = new(x), old(x)
        np.testing.assert_array_equal(got, want)
        keep = np.ones(x.size, dtype=bool)
        keep[NEG_ZERO] = neg_zero_sign
        assert got[keep].tobytes() == want[keep].tobytes()
        for k, point in enumerate(CDF_POINTS):
            got, want = new(point), old(point)
            assert got.dtype == np.float64 and got.shape == () and got == want
            if neg_zero_sign or k != NEG_ZERO:
                assert math.copysign(1.0, got) == math.copysign(1.0, want)


class TestExponentialLaw:
    def test_cdf_and_quantile(self):
        law = ExponentialLaw(2.0)
        assert law.cdf(0.0) == 0.0
        assert law.cdf(np.inf) == 1.0
        assert law.cdf(1.0) == pytest.approx(1.0 - math.exp(-2.0), abs=1e-15)
        assert law.quantile(0.5) == pytest.approx(math.log(2.0) / 2.0, rel=1e-12, abs=0.0)


class TestPhiFromLevy:
    def test_dickman_large_s_exponential_integral_identity(self):
        # Phi(s) = log s + euler + E1(s); the oracle E1 is series/CF based
        dens = lambda x: 1.0 / x
        for s in [10.0, 1e3, 1e6]:
            val = phi_from_levy(dens, s, upper=1.0)
            expected = math.log(s) + EULER + exp1_oracle(s)
            assert val == pytest.approx(expected, rel=1e-9, abs=0.0)

    def test_dickman_phi_minus_log_tends_to_euler(self):
        dens = lambda x: 1.0 / x
        drift = [phi_from_levy(dens, s, upper=1.0) - math.log(s) for s in (1e2, 1e4, 1e8)]
        assert abs(drift[-1] - EULER) < 1e-6

    def test_gamma_closed_form(self):
        dens = lambda x: math.exp(-x) / x
        assert phi_from_levy(dens, math.e - 1.0) == pytest.approx(1.0, rel=1e-9, abs=0.0)


class TestPhiFromTail:
    def test_small_s_continuity(self, dickman1):
        vals = [phi_from_tail(dickman1.tail, s) for s in (1e-2, 1e-4, 1e-6)]
        assert vals[0] > vals[1] > vals[2] > 0
        assert vals[2] < 1e-5

    def test_dickman_cross_oracle_agreement(self):
        model = make_dickman(2.0)
        dens = lambda x: 2.0 / x
        s = math.e
        assert phi_from_tail(model.tail, s) == pytest.approx(
            phi_from_levy(dens, s, upper=1.0), rel=1e-6, abs=0.0
        )

    def test_divergent_tail_fails(self):
        # a tail blowing up like 1/x near 0 is not integrable against exp(-x)
        from subordlab.core import LevyTail

        bad = LevyTail(tail=lambda x: 1.0 / np.asarray(x, dtype=float))
        with pytest.raises(NumericalFailure):
            phi_from_tail(bad, 1.0)

    def test_thorin_uniform_closed_form(self):
        for g in (1.0, 2.0):
            model = catalog.make_thorin_uniform(g)
            assert phi_from_tail(model.tail, g) == pytest.approx(2.0 * g * math.log(2.0),
                                                                 rel=1e-8, abs=0.0)


class TestIntegral:
    def test_pieces_sum_in_order(self):
        assert integral(math.exp, [0.0, 1.0, 2.0], op="t") == pytest.approx(
            math.exp(2.0) - 1.0, rel=1e-14, abs=0.0)
        assert integral(lambda x: math.exp(-x), [0.0, np.inf], op="t") == pytest.approx(
            1.0, rel=1e-14, abs=0.0)

    def test_divergent_integral_names_op(self):
        with pytest.raises(NumericalFailure) as info:
            integral(lambda x: 1.0 / x, [0.0, 1.0], op="divergent")
        assert info.value.op == "divergent" and info.value.achieved > 0

    @pytest.mark.parametrize(
        "op,call",
        [
            ("phi_from_levy", lambda: phi_from_levy(lambda x: 1.0 / x, 10.0, upper=1.0)),
            ("phi_from_tail", lambda: phi_from_tail(make_dickman(2.0).tail, math.e)),
            ("lst_from_cdf", lambda: lst_from_cdf(catalog.make_gamma(1.0, 1.0).cdf1, 1.0)),
            ("tilted_tail",
             lambda: transforms.tilt(catalog.make_gamma(1.0, 1.0), 0.5).tail.tail(0.1)),
            ("log_power_phi", lambda: catalog.make_log_power(0.1, 3).phi.eval_log(1.0)),
        ],
    )
    def test_error_past_tolerance_names_op(self, loose_quad, op, call):
        with pytest.raises(NumericalFailure) as info:
            call()
        assert info.value.op == op and info.value.achieved >= 1.0

    def test_only_core_binds_scipy_integrate(self):
        # and only catalog and dickman bind scipy.special, each as sc
        import subordlab.cli  # noqa: F401  (loads every subordlab module)

        loaded = {name: mod for name, mod in sys.modules.items()
                  if name == "subordlab" or name.startswith("subordlab.")}
        assert "subordlab.core" in loaded and len(loaded) > 5
        for lib, binders in ((integrate, {"subordlab.core": ["integrate"]}),
                             (special, {"subordlab.catalog": ["sc"], "subordlab.dickman": ["sc"]})):
            # the module itself, or any function it defines
            names = {id(value) for value in vars(lib).values() if callable(value)} | {id(lib)}
            for name, mod in loaded.items():
                bound = [key for key, value in vars(mod).items() if id(value) in names]
                assert bound == binders.get(name, []), (lib.__name__, name)


class TestLstFromCdf:
    def test_point_mass_at_zero(self):
        degenerate = lambda x: np.ones_like(np.asarray(x, dtype=float))
        assert lst_from_cdf(degenerate, 3.7) == pytest.approx(1.0, abs=1e-10)

    def test_gamma_exponential_case(self, gamma11):
        assert lst_from_cdf(gamma11.cdf1, 1.0) == pytest.approx(0.5, rel=1e-8, abs=0.0)

    def test_weibull_one_is_exponential(self):
        w = catalog.make_weibull(1.0)
        assert lst_from_cdf(w.cdf1, 1.0) == pytest.approx(0.5, rel=1e-8, abs=0.0)

    def test_rejects_huge_rate(self, gamma11):
        with pytest.raises(InvalidParameterError):
            lst_from_cdf(gamma11.cdf1, 1e7)


class TestLaplaceExponentInvariants:
    def test_invariants_hold_for_every_catalog_phi(self, all_known_gamma_models, log_s_grid):
        for model, _ in all_known_gamma_models:
            if model.phi is None:
                continue
            phi = model.phi
            assert abs(phi.eval(0.0)) <= 1e-12, model.name
            vals = phi.eval_log(log_s_grid)
            assert np.all(np.diff(vals) >= -1e-12), f"{model.name} not nondecreasing"
            # midpoint concavity on the s-grid
            s = np.exp(log_s_grid)
            mid = phi.eval((s[:-1] + s[1:]) / 2.0)
            assert np.all(mid >= (vals[:-1] + vals[1:]) / 2.0 - 1e-9), model.name

    def test_eval_log_agrees_with_eval(self, all_known_gamma_models, log_s_grid):
        for model, _ in all_known_gamma_models:
            if model.phi is None:
                continue
            s = np.exp(log_s_grid)
            a = model.phi.eval(s)
            b = model.phi.eval_log(log_s_grid)
            np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_negative_argument_rejected(self, gamma11):
        with pytest.raises(InvalidParameterError):
            gamma11.phi.eval(-1.0)

    @pytest.mark.parametrize("s", [math.nan, [1.0, math.nan]], ids=["scalar", "array"])
    def test_nan_argument_rejected(self, gamma11, s):
        # NaN read as s = 0, and eval returned 0
        with pytest.raises(InvalidParameterError):
            gamma11.phi.eval(s)


class TestLevyTailInvariants:
    def test_tail_nonincreasing_and_vanishing(self, all_known_gamma_models):
        x = np.geomspace(1e-9, 0.999999, 60)
        for model, _ in all_known_gamma_models:
            if model.tail is None:
                continue
            vals = np.asarray(model.tail.tail(x), dtype=float)
            assert np.all(np.diff(vals) <= 1e-12), model.name
            if np.isfinite(model.tail.support_upper):
                edge = model.tail.tail(model.tail.support_upper)
                assert abs(float(edge)) <= 1e-12

    def test_integrated_tail_finite_near_zero(self, all_known_gamma_models):
        # quadrature proxy for integrability of x d nu near 0
        for model, _ in all_known_gamma_models:
            if model.tail is None:
                continue
            val, _ = quad(lambda u: float(model.tail.tail(u)), 0.0, 1.0, limit=200)
            assert np.isfinite(val) and val > 0, model.name

    def test_inverse_tail_roundtrip(self, all_known_gamma_models):
        for model, _ in all_known_gamma_models:
            tail = model.tail
            if tail is None or tail.inverse_tail is None:
                continue
            hi = float(tail.tail(1e-8))
            y = np.geomspace(hi * 1e-6, hi * 0.999, 40)
            x = np.asarray(tail.inverse_tail(y), dtype=float)
            back = np.asarray(tail.tail(x), dtype=float)
            np.testing.assert_allclose(back, y, rtol=1e-8)


S_GRID = (1e-2, 1.0, 1e2, 1e4, 1e6)
# inside every jump support (dickman's and log_power's end at 1)
X_GRID = (0.05, 0.5, 0.95)


def _upper(model):
    return model.tail.support_upper if model.tail is not None else np.inf


def _tail_integral(model, x):
    upper = _upper(model)
    return integral(model.levy_density, [x, 1.0, upper], op="tail_oracle")


# pair -> (the surfaces it reads, (point, surface value, its oracle) at each point).
# A tilted tail runs a quadrature per point, so phi~tail, which integrates it,
# takes two rates (a tilted model's rate costs about 0.5 s); phi~levy_density
# spans the grid
SURFACE_PAIRS = {
    "phi~tail": (("phi", "tail"), lambda m: [
        (s, float(m.phi.eval(s)), phi_from_tail(m.tail, s)) for s in S_GRID[:2]]),
    "phi~levy_density": (("phi", "levy_density"), lambda m: [
        (s, float(m.phi.eval(s)), phi_from_levy(m.levy_density, s, upper=_upper(m)))
        for s in S_GRID]),
    "tail~levy_density": (("tail", "levy_density"), lambda m: [
        (x, float(m.tail.tail(x)), _tail_integral(m, x)) for x in X_GRID]),
    "exp(-phi)~lst(cdf1)": (("phi", "cdf1"), lambda m: [
        (s, math.exp(-float(m.phi.eval(s))), lst_from_cdf(m.cdf1, s))
        for s in (1e-2, 1.0, 1e2, 1e4)]),
    "cdf1~density1": (("cdf1", "density1"), lambda m: [
        (x, float(m.cdf1(x)), integral(m.density1, [0.0, x], op="cdf_oracle"))
        for x in (0.1, 1.0, 10.0)]),
}
# a call of each surface, to see whether it runs a quadrature of its own
SURFACE_CALLS = {"phi": lambda m: m.phi.eval_log(0.5), "tail": lambda m: m.tail.tail(0.5),
                 "levy_density": lambda m: m.levy_density(0.5), "cdf1": lambda m: m.cdf1(0.5),
                 "density1": lambda m: m.density1(0.5)}


def _surface_pairs():
    for label, model in models():
        for pair, (surfaces, compare) in SURFACE_PAIRS.items():
            if all(getattr(model, surface) is not None for surface in surfaces):
                yield pytest.param(model, surfaces, compare, id=f"{label}:{pair}")


class TestSubordinatorModelInvariants:
    @pytest.mark.parametrize("model,surfaces,compare", _surface_pairs())
    def test_surfaces_agree_with_their_oracles(self, monkeypatch, model, surfaces, compare):
        # each pair of surfaces that determine each other, one side by quadrature,
        # within integral's bound on that quadrature; twice that when a surface
        # runs one of its own (log_power's exponent, a tilted tail)
        quads = []
        real = integrate.quad
        monkeypatch.setattr(integrate, "quad", lambda *a, **k: quads.append(1) or real(*a, **k))
        for surface in surfaces:
            SURFACE_CALLS[surface](model)
        nesting = 2 if quads else 1
        for point, got, oracle in compare(model):
            assert abs(got - oracle) <= quad_bound(oracle, nesting), (point, got, oracle)

    def test_phi_matches_tail_representation(self, all_known_gamma_models):
        s_grid = np.geomspace(1e-2, 1e8, 11)
        for model, _ in all_known_gamma_models:
            if model.phi is None or model.tail is None:
                continue
            for s in s_grid:
                direct = float(model.phi.eval(s))
                via_tail = phi_from_tail(model.tail, s)
                assert via_tail == pytest.approx(direct, rel=1e-6, abs=0.0), (model.name, s)

    def test_lst_from_cdf_matches_exponent(self, gamma11):
        for s in (0.5, 1.0, 10.0, 1e3):
            assert lst_from_cdf(gamma11.cdf1, s) == pytest.approx(
                math.exp(-float(gamma11.phi.eval(s))), rel=1e-6, abs=0.0
            )

    def test_sandwich_bound_cross_type(self, all_known_gamma_models):
        # F(z/s)e^-z <= exp(-Phi(s)) <= F(z/s)(1-e^-z) + e^-z
        z_grid = np.geomspace(0.1, 10.0, 8)
        s_grid = np.geomspace(1.0, 1e4, 8)
        for model, _ in all_known_gamma_models:
            if model.phi is None or model.cdf1 is None:
                continue
            psi = np.exp(-np.asarray(model.phi.eval(s_grid), dtype=float))
            for z in z_grid:
                f_vals = np.asarray(model.cdf1(z / s_grid), dtype=float)
                assert np.all(psi >= f_vals * math.exp(-z) - 1e-9)
                assert np.all(psi <= f_vals * (1.0 - math.exp(-z)) + math.exp(-z) + 1e-9)


def test_degenerate_phi_accepted_by_constructor():
    null = LaplaceExponent(eval_log=lambda ell: np.zeros_like(np.asarray(ell, dtype=float)))
    assert null.eval(5.0) == 0.0
