"""Dickman machinery: the rho series, density, samplers, and their agreement."""

import math
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import subordlab
from subordlab import dickman
from subordlab.core import BLOCK
from subordlab.dickman import (
    EULER,
    MAX_RECURSION_DEPTH,
    RECURSION_REL_BIAS,
    RHO_INTERVALS,
    DickmanFunction,
    dickman_density,
    dickman_density_norm,
    dickman_rho,
    make_dickman,
    recursion_depth,
    recursion_mean_bias,
    sample_dickman_recursion,
)
from subordlab.errors import InvalidParameterError
from subordlab.montecarlo import two_sample_ks, two_sample_ks_critical_value
from subordlab.simulate import sample_marginal, substream
from test_oracles import phi_from_levy


def linear_depth_search(theta):
    """recursion_depth without its ceiling: the plain linear search."""
    bound = RECURSION_REL_BIAS * theta
    depth = 1
    while recursion_mean_bias(theta, depth) > bound:
        depth += 1
    return depth


def naive_recursion(gamma, depth, rng, n):
    """The allocating form of the recursion: term by term over the whole batch,
    one fresh array per operation, the sum formed relative to the first term."""
    first = np.log1p(-rng.random(n)) / gamma
    rest, prod = np.zeros(n), np.ones(n)
    for _ in range(depth - 1):
        prod = prod * (1.0 - rng.random(n)) ** (1.0 / gamma)
        rest = rest + prod
    return np.log1p(rest) + first


def logaddexp_recursion(gamma, depth, rng, n):
    """The recursion summed in log space, one logaddexp a term: a reference form."""
    acc, log_prod = np.full(n, -np.inf), np.zeros(n)
    for _ in range(depth):
        log_prod = log_prod + np.log1p(-rng.random(n)) / gamma
        acc = np.logaddexp(acc, log_prod)
    return acc


def pending_half_word(rng, pending):
    """rng, holding a pending 32-bit half-word when pending; double draws leave it be."""
    if pending:
        rng.integers(0, 2**32, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
    return rng


def ceiling_theta():
    """Largest theta (to 1e-9 relative) whose depth is within MAX_RECURSION_DEPTH."""
    lo, hi = 1.0, 1000.0
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if linear_depth_search(mid) <= MAX_RECURSION_DEPTH else (lo, mid)
    return lo


class TestRho:
    def test_flat_on_unit_interval(self):
        assert dickman_rho(0.5) == 1.0
        assert dickman_rho(0.0) == 1.0
        assert dickman_rho(1.0) == 1.0

    def test_first_interval_closed_form(self):
        # rho(z) = 1 - log(z) on [1, 2], by one step of the delay recursion
        z = np.linspace(1.0, 2.0, 1001)
        np.testing.assert_allclose(dickman_rho(z), 1.0 - np.log(z), rtol=1e-14, atol=0)

    def test_value_at_two(self):
        assert dickman_rho(2.0) == pytest.approx(1.0 - math.log(2.0), rel=1e-14, abs=0.0)

    def test_against_published_values(self):
        # high-precision reference values for the Dickman function (60-digit series)
        assert dickman_rho(3.0) == pytest.approx(4.8608388291131567e-2, rel=1e-12, abs=0.0)
        assert dickman_rho(5.0) == pytest.approx(3.5472470045603973e-4, rel=1e-12, abs=0.0)
        assert dickman_rho(10.0) == pytest.approx(2.7701718377259590e-11, rel=1e-12, abs=0.0)

    def test_monotone_and_positive_over_table(self):
        table = dickman_rho(np.linspace(1.0, 40.0, 100_001))
        assert np.all(table > 0)
        assert np.all(np.diff(table) <= 0)

    def test_out_of_range(self):
        assert math.isfinite(dickman_rho(40.0)) and dickman_rho(40.0) > 0
        with pytest.raises(InvalidParameterError):
            dickman_rho(40.001)
        with pytest.raises(InvalidParameterError):
            dickman_rho(-1.0)
        with pytest.raises(InvalidParameterError):
            dickman_rho(float("nan"))

    def test_continuous_at_every_knot(self):
        # the series of [k-1, k] at its right end against the series of [k, k+1] at its left
        b = dickman._table().b
        for k in range(2, RHO_INTERVALS):
            left = np.polynomial.polynomial.polyval(0.5, b[k - 1])
            right = np.polynomial.polynomial.polyval(-0.5, b[k])
            assert right == pytest.approx(left, rel=1e-13, abs=0.0), k

    def test_integral_identity_on_every_interval(self):
        # (k+1) rho(k+1) = integral of rho over [k, k+1]; rho is analytic inside each
        # interval, so 20-point Gauss-Legendre integrates it to rounding
        nodes, weights = np.polynomial.legendre.leggauss(20)
        for k in range(1, RHO_INTERVALS):
            integral = 0.5 * weights @ dickman_rho(k + 0.5 + 0.5 * nodes)
            assert integral == pytest.approx(
                (k + 1) * dickman_rho(k + 1.0), rel=1e-13, abs=0.0), k

    def test_integrates_to_exp_euler(self):
        nodes, weights = np.polynomial.legendre.leggauss(20)
        total = 1.0 + sum(0.5 * weights @ dickman_rho(k + 0.5 + 0.5 * nodes)
                          for k in range(1, RHO_INTERVALS))
        assert total == pytest.approx(math.exp(EULER), rel=1e-14, abs=0.0)
        assert dickman_density_norm() == pytest.approx(1.0, rel=1e-14, abs=0.0)

    def test_table_built_once_under_concurrent_calls(self, monkeypatch):
        table = dickman._table()
        builds = []

        def slow_build(cls):
            builds.append(threading.get_ident())
            time.sleep(0.05)  # hold the build open while the other thread arrives
            return table

        monkeypatch.setattr(dickman, "_default_table", None)
        monkeypatch.setattr(DickmanFunction, "build", classmethod(slow_build))
        barrier = threading.Barrier(2)
        values = []

        def call():
            barrier.wait(timeout=5)
            values.append(dickman_rho(2.0))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call) for _ in range(2)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert len(builds) == 1
        assert values == [table(2.0)] * 2


class TestDensity:
    def test_constant_below_one(self):
        assert dickman_density(0.5) == pytest.approx(math.exp(-EULER), rel=1e-12, abs=0.0)
        assert dickman_density_norm(1) == pytest.approx(math.exp(-EULER), rel=1e-15, abs=0.0)

    def test_normalizes_to_one(self):
        assert dickman_density_norm(40) == pytest.approx(1.0, abs=1e-6)

    def test_nonincreasing_beyond_one(self):
        x = np.linspace(1.0, 10.0, 200)
        f = dickman_density(x)
        assert np.all(np.diff(f) <= 0)


class TestRecursionSampler:
    def test_single_term_arithmetic(self):
        # depth 1, gamma = 1/2: the sample is log((1 - U)**(1/gamma)) = log1p(-U)/gamma
        rng = substream(8, 0)
        copy = np.random.Generator(np.random.PCG64())
        copy.bit_generator.state = rng.bit_generator.state
        out = sample_dickman_recursion(0.5, 1, rng, 3)
        np.testing.assert_array_equal(out, np.log1p(-copy.random(3)) / 0.5)
        # the caller's generator moved past exactly those three uniforms
        assert rng.bit_generator.state == copy.bit_generator.state

    def test_mean_gamma_one(self):
        rng = substream(101, 0)
        samples = np.exp(sample_dickman_recursion(1.0, 60, rng, 1_000_000))
        stderr = samples.std(ddof=1) / 1000.0
        assert abs(samples.mean() - 1.0) <= 3.0 * stderr

    def test_mean_gamma_two(self):
        rng = substream(102, 0)
        samples = np.exp(sample_dickman_recursion(2.0, 80, rng, 1_000_000))
        stderr = samples.std(ddof=1) / 1000.0
        assert abs(samples.mean() - 2.0) <= 3.0 * stderr

    def test_truncation_bias_formula(self):
        # geometric tail: sum over i > d of (gamma/(gamma+1))**i
        gamma, depth = 1.5, 7
        r = gamma / (gamma + 1.0)
        brute = sum(r**i for i in range(depth + 1, 400))
        assert recursion_mean_bias(gamma, depth) == pytest.approx(brute, rel=1e-12, abs=0.0)
        assert recursion_mean_bias(4.0, recursion_depth(4.0)) <= 1e-12 * 4.0

    # 1e-13: one term already holds the bias to 1e-12 * theta
    @pytest.mark.parametrize("theta", [1e-13, 0.001, 0.01, 0.2, 1.0, 2.0, 4.0])
    def test_recursion_depth_is_minimal(self, theta):
        depth = recursion_depth(theta)
        assert depth >= 1
        assert recursion_mean_bias(theta, depth) <= RECURSION_REL_BIAS * theta
        if depth > 1:
            assert recursion_mean_bias(theta, depth - 1) > RECURSION_REL_BIAS * theta

    def test_recursion_depth_values(self):
        thetas = (2.0, 1.0, 0.2, 0.1, 0.05, 0.01)
        assert [recursion_depth(th) for th in thetas] == [69, 40, 16, 12, 10, 6]

    @pytest.mark.parametrize("theta", [0.0, -1.0, math.inf, math.nan])
    def test_recursion_depth_rejects_bad_theta(self, theta):
        with pytest.raises(InvalidParameterError):
            recursion_depth(theta)

    def test_recursion_depth_unchanged_up_to_the_ceiling(self):
        top = ceiling_theta()
        assert 300.0 < top < 400.0
        assert linear_depth_search(top) == MAX_RECURSION_DEPTH
        for theta in np.concatenate([np.geomspace(1e-6, top, 150), [top]]):
            assert recursion_depth(theta) == linear_depth_search(theta)
        past = np.nextafter(top * (1.0 + 1e-8), math.inf)
        assert linear_depth_search(past) == MAX_RECURSION_DEPTH + 1
        with pytest.raises(InvalidParameterError, match="recursion terms"):
            recursion_depth(past)

    def test_huge_theta_rejected_at_once(self):
        # the uncapped search would run for hours here
        t0 = time.perf_counter()
        for theta in (1e4, 1e9, 1e300):
            with pytest.raises(InvalidParameterError):
                recursion_depth(theta)
        assert time.perf_counter() - t0 < 5.0

    def test_model_past_the_ceiling_raises_before_drawing(self):
        m = make_dickman(1e4)  # t * gamma = 1e4 at t = 1
        rng = substream(3, 0)
        before = rng.bit_generator.state
        with pytest.raises(InvalidParameterError):
            m.log_sampler(1.0, 10, rng)
        assert rng.bit_generator.state == before
        with pytest.raises(InvalidParameterError):
            sample_marginal(m, 1.0, 10, substream(3, 0))
        with pytest.raises(InvalidParameterError):
            sample_dickman_recursion(1.0, MAX_RECURSION_DEPTH + 1, substream(3, 0), 10)

    # the boolean puts a pending 32-bit half-word in the caller's generator
    @pytest.mark.parametrize("pending", [False, True])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 3.0])
    def test_in_place_kernel_matches_naive_reference(self, gamma, pending):
        # n = 1, part of one block, and three blocks plus a partial one
        depth = 25
        for n in (1, 5000, 3 * BLOCK + 7):
            rng = pending_half_word(substream(41, 0), pending)
            acc = naive_recursion(gamma, depth, rng, n)
            caller = pending_half_word(substream(41, 0), pending)
            out = sample_dickman_recursion(gamma, depth, caller, n)
            np.testing.assert_array_equal(out, acc)
            # the caller's generator is left where the term-by-term loop leaves it
            assert caller.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("pending", [False, True])
    @pytest.mark.parametrize("gamma", [0.5, 2.0])
    def test_bits_do_not_depend_on_the_chunks(self, monkeypatch, gamma, pending):
        # 1, 2 and 3 chunks over three blocks plus a partial one, so the last
        # chunk ends in a partial block; the pool is gone when the call returns
        depth, n = 25, 3 * BLOCK + 7
        rng = pending_half_word(substream(43, 0), pending)
        acc = naive_recursion(gamma, depth, rng, n)
        for workers in (1, 2, 3):
            monkeypatch.setattr(dickman, "_usable_cpus", lambda: workers)
            caller = pending_half_word(substream(43, 0), pending)
            threads = threading.active_count()
            out = sample_dickman_recursion(gamma, depth, caller, n)
            assert threading.active_count() == threads
            np.testing.assert_array_equal(out, acc)
            assert caller.bit_generator.state == rng.bit_generator.state

    def test_one_chunk_starts_no_thread(self, monkeypatch):
        # the pool starts a thread only for a chunk it is given: one usable CPU
        # runs every block on the calling thread
        def start(thread):
            raise AssertionError("a thread started")

        monkeypatch.setattr(dickman, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(threading.Thread, "start", start)
        n = 3 * BLOCK + 7
        np.testing.assert_array_equal(sample_dickman_recursion(2.0, 25, substream(44, 0), n),
                                      naive_recursion(2.0, 25, substream(44, 0), n))

    def test_concurrent_calls_match_their_serial_results(self, monkeypatch):
        # two experiments drawing at once, as under --threads 2, each on its own generator
        monkeypatch.setattr(dickman, "_usable_cpus", lambda: 2)
        depth, n = 25, 3 * BLOCK + 7
        streams = [(2.0, 44), (0.5, 45)]
        serial = []
        for gamma, seed in streams:
            rng = substream(seed, 0)
            out = sample_dickman_recursion(gamma, depth, rng, n)
            serial.append((out, rng.bit_generator.state))
        threads = threading.active_count()
        barrier = threading.Barrier(len(streams))
        results = [None] * len(streams)

        def call(i, gamma, seed):
            rng = substream(seed, 0)
            barrier.wait(timeout=5)
            out = sample_dickman_recursion(gamma, depth, rng, n)
            results[i] = (out, rng.bit_generator.state)

        workers = [threading.Thread(target=call, args=(i, *s)) for i, s in enumerate(streams)]
        for th in workers:
            th.start()
        for th in workers:
            th.join(timeout=30)
        assert not any(th.is_alive() for th in workers)
        assert threading.active_count() == threads
        for (out, state), (ref, ref_state) in zip(results, serial):
            np.testing.assert_array_equal(out, ref)
            assert state == ref_state

    def test_caller_generator_keeps_its_32_bit_buffer(self):
        # a pending 32-bit half-word survives the call, as it does the loop
        rng, ref = substream(42, 0), substream(42, 0)
        for g in (rng, ref):
            g.integers(0, 2**32, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
        out = sample_dickman_recursion(2.0, 7, rng, 100)
        for _ in range(7):
            ref.random(100)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.integers(0, 2**32, dtype=np.uint32) == ref.integers(0, 2**32, dtype=np.uint32)
        assert out.shape == (100,)

    @pytest.mark.parametrize("theta", [1e-3, 0.01, 0.2, 1.0, 2.0])
    def test_agrees_with_logaddexp_reference(self, theta):
        # each of the depth terms of either form carries a few roundings, each
        # relative to a partial sum of at most |log S| + 1 in log space
        depth, n = recursion_depth(theta), 20_000
        ref = logaddexp_recursion(theta, depth, substream(7, 0), n)
        out = sample_dickman_recursion(theta, depth, substream(7, 0), n)
        tol = 4 * depth * np.finfo(float).eps * (1.0 + np.abs(ref))
        assert np.all(np.abs(out - ref) <= tol)

    @pytest.mark.parametrize("theta", [0.01, 0.2, 1.0, 2.0])
    def test_law_below_one(self, theta):
        # P(X <= x) = exp(-euler*theta) x**theta / Gamma(1 + theta) on [0, 1]
        n = 400_000
        log_x = sample_dickman_recursion(theta, recursion_depth(theta), substream(17, 0), n)
        for x in (0.5, 1.0):
            p = math.exp(-EULER * theta) * x**theta / math.gamma(1.0 + theta)
            z = (np.count_nonzero(log_x <= math.log(x)) / n - p) / math.sqrt(p * (1.0 - p) / n)
            assert abs(z) <= 4.0, (x, z)

    def test_distributional_fixed_point(self):
        # U**(1/gamma) (X + 1) has the law of X
        gamma, n = 1.0, 100_000
        x = np.exp(sample_dickman_recursion(gamma, 60, substream(301, 0), n))
        x_prime = np.exp(sample_dickman_recursion(gamma, 60, substream(301, 1), n))
        u = substream(301, 2).random(n)
        transformed = u ** (1.0 / gamma) * (x_prime + 1.0)
        assert two_sample_ks(x, transformed) <= two_sample_ks_critical_value(n, n, 0.01)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            sample_dickman_recursion(0.0, 10, substream(0, 0), 1)
        with pytest.raises(InvalidParameterError):
            sample_dickman_recursion(1.0, 0, substream(0, 0), 1)


class TestModel:
    def test_tail_edge_values(self):
        m = make_dickman(1.0)
        assert float(m.tail.tail(1.0)) == 0.0
        m2 = make_dickman(2.0)
        assert float(m2.tail.tail(0.1)) == pytest.approx(2.0 * math.log(10.0), rel=1e-12, abs=0.0)

    def test_tail_over_log_is_exactly_gamma(self):
        m = make_dickman(2.0)
        x = 1e-6
        assert float(m.tail.tail(x)) / (-math.log(x)) == pytest.approx(2.0, rel=1e-14, abs=0.0)

    def test_inverse_tail_closed_form(self):
        m = make_dickman(3.0)
        y = 4.5
        assert float(m.tail.inverse_tail(y)) == pytest.approx(math.exp(-1.5), rel=1e-12, abs=0.0)

    def test_phi_drifts_to_euler_times_gamma(self):
        # Phi(s) - gamma*log(s) -> gamma*euler, checked against quadrature
        m = make_dickman(1.0)
        s = 1e8
        assert float(m.phi.eval(s)) - math.log(s) == pytest.approx(EULER, abs=1e-4)
        oracle = phi_from_levy(lambda x: 1.0 / x, s, upper=1.0)
        assert float(m.phi.eval(s)) == pytest.approx(oracle, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("s", [1e-14, 1e-20])
    def test_phi_below_log_s_minus_30_against_quadrature(self, s):
        # there the exponent is its series, gamma*s*(1 - s/4 + s**2/18)
        m = make_dickman(2.0)
        oracle = phi_from_levy(m.levy_density, s, upper=1.0)
        assert float(m.phi.eval(s)) == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_samplers_and_cp_agree(self, dense_cp):
        n = 100_000
        m = make_dickman(1.0)
        rec = np.exp(m.log_sampler(1.0, n, substream(55, 0)))
        cp = dense_cp(m.tail, 1e-6, 1.0, substream(55, 1), n)
        assert two_sample_ks(rec, cp) <= two_sample_ks_critical_value(n, n, 0.01)

    @pytest.mark.parametrize("gamma,t", [(1.0, 1.0), (2.0, 1.0), (1.0, 0.01), (3.0, 0.05)])
    def test_samplers_run_depth_from_theta(self, gamma, t):
        # the sampler draws n uniforms per term: the generator ends n * depth doubles on
        n = 10
        m = make_dickman(gamma)
        rng = substream(9, 0)
        want = substream(9, 0)
        want.bit_generator.advance(n * recursion_depth(t * gamma))
        m.log_sampler(t, n, rng)
        assert rng.bit_generator.state == want.bit_generator.state

    def test_package_import_leaves_interpolation_unloaded(self):
        # rho, the density and the density norm are series sums: no spline module loads
        code = (
            "import math, sys, subordlab.cli\n"
            "from subordlab.dickman import dickman_density, dickman_rho\n"
            "assert abs(dickman_rho(2.0) - (1.0 - math.log(2.0))) <= 1e-14\n"
            "assert dickman_density(3.0) > 0\n"
            "entry = {'kind': 'dickman_density_norm', 'params': {'z_max': 40}}\n"
            "[checked] = subordlab.cli.validate_config({'experiments': [entry]})\n"
            "assert subordlab.cli.run_experiment(checked, 0, None, 0)['pass']\n"
            "assert 'scipy.interpolate' not in sys.modules\n"
        )
        src = os.path.dirname(os.path.dirname(subordlab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_density_only_for_unit_gamma(self):
        assert make_dickman(1.0).density1 is not None
        assert make_dickman(2.0).density1 is None

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(InvalidParameterError):
            make_dickman(0.0)
