"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines
as they complete.  Monte Carlo pieces are seeded, so the whole module is
deterministic; elapsed times are printed for information only.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from subordlab import catalog, cli, criteria, montecarlo as mc, transforms
from subordlab.dickman import (
    dickman_density_norm,
    dickman_rho,
    recursion_depth,
    sample_dickman_recursion,
)
from subordlab.simulate import sample_marginal, substream, to_neg_t_power

N_MC = 100_000
SEED = 20121


def _emit(label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {label}: {detail}", flush=True)
    assert ok, f"{label}: {detail}"


def test_criterion_01_index_recovery(all_known_gamma_models):
    t0 = time.time()
    worst = 0.0
    for model, expected in all_known_gamma_models:
        estimates = criteria.estimate_all(model)
        converged = {c: e for c, e in estimates.items() if e.verdict == "converged"}
        assert converged, f"{model.name}: no applicable estimator converged"
        for crit, est in converged.items():
            err = abs(est.gamma_hat - expected)
            worst = max(worst, err)
            assert err <= 0.02, (model.name, crit, est.gamma_hat, expected)
    _emit(
        "criterion 1 (index recovery S5-S8)",
        True,
        f"12 models, worst |gamma_hat - gamma| = {worst:.2e}, {time.time()-t0:.1f}s",
    )


def test_criterion_02_equivalence_suite(all_known_gamma_models):
    t0 = time.time()
    worst = 0.0
    for model, _ in all_known_gamma_models:
        values = [
            e.gamma_hat
            for e in criteria.estimate_all(model).values()
            if e.verdict == "converged"
        ]
        spread = max(abs(a - b) for a in values for b in values)
        worst = max(worst, spread)
        assert spread <= 0.05, (model.name, values)
    _emit(
        "criterion 2 (pairwise equivalence)",
        True,
        f"worst pairwise spread = {worst:.2e}, {time.time()-t0:.1f}s",
    )


def test_criterion_03_sandwich_inequalities(gamma11):
    t0 = time.time()
    weibull = catalog.make_weibull(1.0)
    z_ol = np.geomspace(0.1, 10.0, 12)
    s_ol = np.geomspace(1.0, 1e4, 12)
    z_ol2 = np.geomspace(0.5, 5.0, 10)
    x_ol2 = np.geomspace(1e-3, 1.0, 12)
    violations = []
    violations += criteria.check_sandwich_ol(gamma11.cdf1, gamma11.phi, z_ol, s_ol)
    violations += criteria.check_sandwich_ol2(gamma11.cdf1, gamma11.phi, z_ol2, x_ol2)
    violations += criteria.check_sandwich_ol(weibull.cdf1, None, z_ol, s_ol)
    violations += criteria.check_sandwich_ol2(weibull.cdf1, None, z_ol2, x_ol2)
    _emit(
        "criterion 3 (sandwich inequalities)",
        not violations,
        f"{len(violations)} violations beyond 1e-9, {time.time()-t0:.1f}s",
    )


def test_criterion_04_pareto_monte_carlo(gamma11, dickman1):
    t0 = time.time()
    t_list = (0.2, 0.1, 0.05, 0.01)
    floor = mc.ks_critical_value(N_MC, 0.01)
    details = []
    for model, bound in ((gamma11, 0.05), (dickman1, 0.07)):
        reports = mc.experiment_pareto_limit(model, t_list, N_MC, SEED)
        ks = [r.ks_statistic for r in reports]
        assert ks[-1] <= bound, (model.name, ks)
        # nonincreasing trend, 20% slack, above the sampling resolution
        assert all(ks[i + 1] <= ks[i] * 1.2 + floor for i in range(len(ks) - 1)), (model.name, ks)
        control = mc.experiment_pareto_limit(
            model, (0.01,), N_MC, SEED, gamma=2.0 * model.known_gamma
        )[0].ks_statistic
        assert control >= 3.0 * ks[-1], (model.name, control, ks[-1])
        details.append(f"{model.name}: ks={ks[-1]:.4f} (<= {bound}), control x{control/ks[-1]:.0f}")
    _emit("criterion 4 (Pareto Monte Carlo)", True, "; ".join(details) + f", {time.time()-t0:.1f}s")


def test_criterion_05_dickman(dickman1, dense_cp):
    t0 = time.time()
    rho_err = abs(dickman_rho(2.0) - (1.0 - math.log(2.0)))
    assert rho_err <= 1e-8
    # off the knots too: next to z = 1 a spline through the kink was off by 8.5e-5
    near_one_err = abs(dickman_rho(1.0004) - 0.9996000799786731)
    assert near_one_err <= 1e-12
    norm = dickman_density_norm(40)
    assert abs(norm - 1.0) <= 1e-6
    for gamma, stream in ((1.0, 0), (2.0, 1)):
        samples = np.exp(sample_dickman_recursion(
            gamma, recursion_depth(gamma), substream(SEED, stream), 1_000_000
        ))
        stderr = samples.std(ddof=1) / 1000.0
        assert abs(samples.mean() - gamma) <= 3.0 * stderr, gamma
    rec = np.exp(sample_dickman_recursion(1.0, 60, substream(SEED, 2), N_MC))
    cp = dense_cp(dickman1.tail, 1e-6, 1.0, substream(SEED, 3), N_MC)
    two = mc.two_sample_ks(rec, cp)
    crit = mc.two_sample_ks_critical_value(N_MC, N_MC, 0.01)
    assert two <= crit
    _emit(
        "criterion 5 (Dickman machinery)",
        True,
        f"rho(2) err={rho_err:.1e}, rho(1.0004) err={near_one_err:.1e}, "
        f"norm err={abs(norm-1):.1e}, "
        f"two-sampler ks={two:.4f} (<= {crit:.4f}), {time.time()-t0:.1f}s",
    )


def test_criterion_06_transform_algebra(gamma11, gamma21, dickman1):
    t0 = time.time()
    for model in (gamma11, dickman1):
        for theta in (0.5, 2.0):
            est = criteria.estimate_gamma_s5(transforms.tilt(model, theta).phi)
            assert est.gamma_hat == pytest.approx(model.known_gamma, abs=0.02), (model.name, theta)
    composed = transforms.compose_outer(gamma21, catalog.make_stable(1.0, 0.5))
    est = criteria.estimate_gamma_s5(composed.phi)
    assert est.gamma_hat == pytest.approx(1.0, abs=0.02)
    combined = transforms.add(gamma11, gamma21)
    est_sum = criteria.estimate_gamma_s5(combined.phi)
    assert est_sum.gamma_hat == pytest.approx(3.0, abs=0.02)
    ks_sum = mc.experiment_pareto_limit(combined, (0.01,), N_MC, SEED)[0].ks_statistic
    assert ks_sum <= 0.07
    drift = mc.experiment_drift(gamma11, 1.0, t=1e-3, n=N_MC, seed=SEED, window=0.05)
    assert drift.fraction_within >= 0.99
    _emit(
        "criterion 6 (transform algebra)",
        True,
        f"tilt/compose/add indices ok, sum ks={ks_sum:.4f}, "
        f"drift mass={drift.fraction_within:.4f}, {time.time()-t0:.1f}s",
    )


def test_criterion_07_family_limit():
    t0 = time.time()
    fam = catalog.make_stable_nef(1.0, 1.0)
    report = mc.check_family_limit(fam, t_grid=[1e-2, 1e-3, 1e-4])
    _emit(
        "criterion 7 (non-power family limit)",
        report.final <= 1e-3,
        f"max deviation at t=1e-4: {report.final:.2e} (<= 1e-3), {time.time()-t0:.1f}s",
    )


def test_criterion_08_generalized_L():
    t0 = time.time()
    gamma = 0.1
    model = catalog.make_log_power(gamma, 3)
    cube = lambda ly: (-ly) ** 3  # L takes log x
    est = criteria.estimate_gamma_general(model.phi, cube)
    assert est.verdict == "converged"
    assert abs(est.gamma_hat - gamma) <= 0.05
    report = mc.experiment_general_limit(
        model, cube, gamma, (0.01,), N_MC, SEED, cutoff=1e-8
    )[0]
    _emit(
        "criterion 8 (generalized slowly varying L)",
        report.ks_statistic <= 0.1,
        f"gamma_hat={est.gamma_hat:.4f} (target {gamma}), "
        f"ks={report.ks_statistic:.4f} (<= 0.1), {time.time()-t0:.1f}s",
    )


def test_criterion_09_mixture_and_support(gamma11):
    t0 = time.time()
    report, jump = mc.experiment_mixture(gamma11, q=0.3, t=1e-3, n=N_MC, seed=SEED)
    assert report.ks_statistic <= 0.07
    assert abs(jump - 0.7) <= 0.01
    log_s = sample_marginal(gamma11, 0.01, N_MC, substream(SEED, 9))
    values, n_inf = to_neg_t_power(log_s, 0.01)
    emp = mc.EmpiricalDistribution.from_values(values, n_inf)
    fraction = mc.support_check(emp, 0.1)
    _emit(
        "criterion 9 (mixture atom and support)",
        fraction <= 0.01,
        f"mixture ks={report.ks_statistic:.4f}, jump={jump:.4f} (target 0.7), "
        f"support fraction={fraction:.5f} (<= 0.01), {time.time()-t0:.1f}s",
    )


def test_criterion_10_ergodic_functional(dickman1):
    t0 = time.time()
    ramp = lambda x: np.minimum(1.0, np.maximum(0.0, (np.asarray(x, dtype=float) - 0.5) * 4.0))
    est = mc.estimate_ergodic_functional(dickman1, ramp, 0.5, t=1e-3, n=10_000_000, seed=SEED)
    target, _ = quad(lambda x: min(1.0, max(0.0, (x - 0.5) * 4.0)) / x, 0.5, 1.0)
    rel = abs(est.value - target) / target
    _emit(
        "criterion 10 (small-time ergodic functional)",
        rel <= 0.05,
        f"estimate={est.value:.5f} vs integral {target:.5f}, rel err={rel:.3%}, "
        f"{time.time()-t0:.1f}s",
    )


def test_criterion_11_determinism(tmp_path):
    t0 = time.time()
    config = cli.default_acceptance_config()
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    code1, _ = cli.run(config, out_dir=str(out1))
    # concurrent experiments, each making its own generators, agree bit for bit
    code2, _ = cli.run(config, out_dir=str(out2), threads=2)
    assert code1 == 0 and code2 == 0
    with open(out1 / "report.json") as fh:
        r1 = json.load(fh)
    with open(out2 / "report.json") as fh:
        r2 = json.load(fh)
    r1.pop("timestamp")
    r2.pop("timestamp")
    identical = json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    _emit(
        "criterion 11 (rerun determinism)",
        identical and r1["all_pass"],
        f"full config rerun at 2 threads byte-identical modulo timestamp, "
        f"all_pass={r1['all_pass']}, "
        f"{time.time()-t0:.1f}s",
    )
