"""CLI: config schema, exit codes, reports, CSV curves, determinism."""

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import special as sc

from subordlab import catalog, cli, core, criteria, dickman, montecarlo, simulate

GAMMA = {"name": "gamma", "params": {"gamma": 1.0, "lam": 1.0}}
STABLE = {"name": "stable", "params": {"a": 1.0, "alpha": 0.5}}
DICKMAN_1E5 = {"name": "dickman", "params": {"gamma": 1e5}}
# an exponent below 1e-15 at s = 1 and 100: the null subordinator
NULL_GAMMA = {"name": "gamma", "params": {"gamma": 1e-300, "lam": 1.0}}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def load_report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


class TestSchema:
    def test_empty_experiment_list_passes(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 1, "experiments": []})
        code, report = cli.run(cfg, out_dir=str(tmp_path))
        assert code == 0
        assert report["all_pass"] is True
        assert report["results"] == []

    def test_unknown_model_exits_two(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"experiments": [{"kind": "criterion", "model": {"name": "gama"}}]},
        )
        code = cli.main(["--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert "experiments[0].model.name" in capsys.readouterr().err

    def test_unknown_kind_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"experiments": [{"kind": "wat"}]})
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 2
        assert "experiments[0].kind" in capsys.readouterr().err

    def test_malformed_json_exits_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["--config", str(path), "--out", str(tmp_path)]) == 2

    def test_missing_experiments_field(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 3})
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 2

    def test_bad_transform_field(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"experiments": [{"kind": "criterion",
                              "model": {"transform": "warp", "of": {"name": "gamma"}}}]},
        )
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 2
        assert "transform" in capsys.readouterr().err


class TestParameterValidation:
    @pytest.mark.parametrize("kind", ["recursion_mean", "two_sampler_ks"])
    @pytest.mark.parametrize(
        "field,value",
        [("gamma", 0), ("gamma", -1), ("gamma", "two"), ("n", 0), ("n", 2.5)],
    )
    def test_bad_dickman_parameter_exits_two(self, tmp_path, capsys, kind, field, value):
        params = {"gamma": 1.0, "n": 1000, field: value}
        cfg = write_config(tmp_path, {"experiments": [{"kind": kind, "params": params}]})
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"experiments[0].params.{field}" in capsys.readouterr().err

    def test_missing_recursion_gamma_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"experiments": [{"kind": "recursion_mean", "params": {}}]})
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 2
        assert "experiments[0].params.gamma" in capsys.readouterr().err

    def test_rho_read_past_its_table_exits_two_naming_params(self, tmp_path, capsys):
        # S8 reads rho where the grid sends it, here past z = 40: a refusal raised while
        # the entry runs names its params, which hold the grid
        entry = {"kind": "criterion", "model": {"name": "dickman", "params": {"gamma": 1.0}},
                 "params": {"criterion": "S8", "grid": [4.0, -5.0, -21.0]}}
        cfg = write_config(tmp_path, {"experiments": [entry]})
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error at experiments[0].params: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "model",
        [
            {"name": "stable", "params": {"a": 1.0, "alpha": 0.5}},  # sampler, no jump density
            {"name": "weibull", "params": {"gamma": 1.0}},  # neither sampler nor jump density
            # jump density, but no sampler and no inverse tail
            {"transform": "tilt", "theta": 0.5, "of": {"name": "dickman", "params": {"gamma": 1.0}}},
        ],
    )
    def test_ergodic_unsupported_model_exits_two_before_sampling(
        self, tmp_path, capsys, monkeypatch, model
    ):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the model was checked")

        monkeypatch.setattr(montecarlo, "estimate_ergodic_functional", no_sampling)
        cfg = write_config(
            tmp_path,
            {"experiments": [{"kind": "ergodic", "model": model, "params": {"n": 1000}}]},
        )
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 2
        assert "experiments[0].model" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry,field",
        [
            ({"kind": "pareto_limit", "model": GAMMA, "params": {"t_list": [-0.1]}}, "t_list"),
            ({"kind": "pareto_limit", "model": GAMMA, "params": {"n": 0}}, "n"),
            ({"kind": "min_rule", "model": GAMMA, "model2": GAMMA, "params": {"n": "x"}}, "n"),
            ({"kind": "two_sampler_ks", "params": {"cutoff": 0}}, "cutoff"),
            (
                {"kind": "general_limit",
                 "model": {"name": "log_power", "params": {"gamma": 0.1, "power": 3}},
                 "params": {"L": "neg_log_cubed", "gamma": 0.1, "cutoff": 2.0}},
                "cutoff",
            ),
            ({"kind": "dickman_rho", "params": {}, "assertions": {"expected": 1.0}}, "z"),
        ],
    )
    def test_bad_sampling_parameter_exits_two(self, tmp_path, capsys, entry, field):
        cfg = write_config(tmp_path, {"experiments": [entry]})
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"experiments[0].params.{field}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,value", [("t", 0), ("t", "0.1"), ("t_list", []), ("cutoff", 1.0), ("n", 2.5)]
    )
    def test_every_entry_checked_before_any_samples(
        self, tmp_path, capsys, monkeypatch, field, value
    ):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before every entry was checked")

        monkeypatch.setattr(cli, "sample_marginal", no_sampling)
        monkeypatch.setattr(montecarlo, "sample_marginal", no_sampling)
        bad = {"kind": "pareto_limit" if field == "t_list" else "drift", "model": GAMMA,
               "params": {field: value}}
        good = {"kind": "support", "model": GAMMA, "params": {"n": 10}}
        cfg = write_config(tmp_path, {"experiments": [good, bad]})
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"experiments[1].params.{field}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry,path",
        [
            ({"kind": "affine", "model": GAMMA, "params": {"a": 2.0}}, "params.b"),
            ({"kind": "affine", "model": GAMMA, "params": {"a": 1.0, "b": 4.0}}, "params.a"),
            (
                {"kind": "general_limit",
                 "model": {"name": "log_power", "params": {"gamma": 0.1, "power": 3}},
                 "params": {"L": "neg_log_cubed"}},
                "params.gamma",
            ),
            ({"kind": "mixture", "model": GAMMA, "params": {"q": 2.0}}, "params.q"),
            ({"kind": "mixture", "model": GAMMA, "params": {}}, "params.q"),
            ({"kind": "drift", "model": GAMMA, "params": {"c": 0}}, "params.c"),
            ({"kind": "support", "model": GAMMA, "params": {"delta": 2.0}}, "params.delta"),
            ({"kind": "pareto_limit", "model": GAMMA, "params": {"gamma": -1.0}}, "params.gamma"),
            # model-dependent: no known index, no surface for the criterion
            (
                {"kind": "pareto_limit", "model": {"name": "stable", "params": {"a": 1.0, "alpha": 0.5}},
                 "params": {"t_list": [0.01], "n": 1000}},
                "params.gamma",
            ),
            (
                {"kind": "affine", "model": {"name": "stable", "params": {"a": 1.0, "alpha": 0.5}},
                 "params": {"a": 2.0, "b": 4.0}},
                "model",
            ),
            (
                {"kind": "min_rule", "model": GAMMA,
                 "model2": {"name": "stable", "params": {"a": 1.0, "alpha": 0.5}}},
                "model2",
            ),
            (
                {"kind": "criterion", "model": {"name": "weibull", "params": {"gamma": 2.0}},
                 "params": {"criterion": "S5"}},
                "model",
            ),
            (
                {"kind": "criterion", "model": GAMMA, "params": {"criterion": "S9"}},
                "params.criterion",
            ),
        ],
    )
    def test_malformed_experiment_exits_two_before_sampling(
        self, tmp_path, capsys, monkeypatch, entry, path
    ):
        # each of these exited 1 with a traceback before its fields were checked
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the entry was checked")

        monkeypatch.setattr(cli, "sample_marginal", no_sampling)
        monkeypatch.setattr(montecarlo, "sample_marginal", no_sampling)
        cfg = write_config(tmp_path, {"experiments": [entry]})
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"experiments[0].{path}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry,target",
        [
            ({"kind": "pareto_limit", "params": {"t_list": [0.01], "n": 100}}, "Pareto(gamma=2)"),
            ({"kind": "min_rule", "model2": GAMMA, "params": {"n": 100}}, "Pareto(gamma=3)"),
            ({"kind": "mixture", "params": {"q": 0.3, "n": 100}}, "mixture(q=0.3,Pareto(2))"),
        ],
    )
    def test_log_power_at_power_one_has_a_known_index(self, tmp_path, entry, target):
        # its tail is Dickman's: it exited 2, "not given, and model must be a
        # model with a known index"
        model = {"name": "log_power", "params": {"gamma": 2.0, "power": 1}}
        cfg = write_config(tmp_path, {"experiments": [{**entry, "model": model}]})
        code, report = cli.run(cfg, out_dir=str(tmp_path))
        assert code == 0 and report["results"][0]["target"] == target

    @pytest.mark.parametrize("kind", ["recursion_mean", "two_sampler_ks"])
    def test_huge_recursion_gamma_exits_two_at_once(self, tmp_path, capsys, kind):
        # the recursion depth for gamma 1e9 is past MAX_RECURSION_DEPTH
        good = {"kind": "recursion_mean", "params": {"gamma": 1.0, "n": 100}}
        bad = {"kind": kind, "params": {"gamma": 1e9, "n": 1}}
        cfg = write_config(tmp_path, {"experiments": [good, bad]})
        t0 = time.perf_counter()
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 2
        assert time.perf_counter() - t0 < 5.0
        assert "experiments[1].params.gamma" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "criterion,grid",
        [("S5", [30.0]), ("S5", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), ("S7", [-1.0, -5.0]),
         ("S6", [-30.0, -10.0]), ("GL", [-30.0, -10.0]), ("GL", [2.0, 1.0])],
    )
    def test_bad_criterion_grid_exits_two_before_sampling(
        self, tmp_path, capsys, monkeypatch, criterion, grid
    ):
        # the grid was checked only when its entry ran, after the earlier ones
        # had sampled, and the error named experiments[i].params
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before every entry was checked")

        monkeypatch.setattr(cli, "sample_marginal", no_sampling)
        monkeypatch.setattr(montecarlo, "sample_marginal", no_sampling)
        good = {"kind": "support", "model": GAMMA, "params": {"n": 10}}
        bad = {"kind": "criterion", "model": GAMMA,
               "params": {"criterion": criterion, "grid": grid, "L": "neg_log"}}
        cfg = write_config(tmp_path, {"experiments": [good, bad]})
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 2
        # refused by its criterion, a one-point grid too, not by the grid's list rule
        assert f"experiments[1].params.grid: criterion {criterion}: " in capsys.readouterr().err

    @pytest.mark.parametrize("gamma,n", [(1.0, 100), (0.01, 10_000)])
    def test_recursion_mean_runs_at_its_bound(self, tmp_path, gamma, n):
        entry = {"kind": "recursion_mean", "params": {"gamma": gamma, "n": n}}
        cfg = write_config(tmp_path, {"experiments": [entry]})
        code, report = cli.run(cfg, out_dir=str(tmp_path))
        assert code in (0, 1) and report["results"][0]["n"] == n

    @pytest.mark.parametrize(
        "entry,path",
        [
            ({"kind": "s2", "model": STABLE}, "params.gamma"),  # no known index
            ({"kind": "s2", "model": STABLE, "params": {"gamma": -1.0}}, "params.gamma"),
            ({"kind": "s2", "model": {"name": "weibull", "params": {"gamma": 2.0}}}, "model"),
            ({"kind": "sandwich", "model": STABLE}, "model"),  # no cdf1
            ({"kind": "sandwich", "model": STABLE, "params": {"which": "ol2"}}, "model"),
        ],
    )
    def test_check_on_a_model_without_its_surface_exits_two(
        self, tmp_path, capsys, monkeypatch, entry, path
    ):
        # each exited 1 with a TypeError traceback on a None index or surface
        def no_work(*args, **kwargs):
            raise AssertionError("the check ran before the model was checked")

        for name in ("check_s2", "check_sandwich_ol", "check_sandwich_ol2"):
            monkeypatch.setattr(criteria, name, no_work)
        cfg = write_config(tmp_path, {"experiments": [entry]})
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"experiments[0].{path}" in capsys.readouterr().err

    def test_s2_takes_an_explicit_gamma(self, tmp_path):
        # stable has no Pareto limit, so the check runs and fails its assertion
        entry = {"kind": "s2", "model": STABLE, "params": {"gamma": 0.5}}
        code, report = cli.run(write_config(tmp_path, {"experiments": [entry]}), str(tmp_path))
        assert code == 1 and report["results"][0]["statistic"] > 1e-2

    @pytest.mark.parametrize(
        "entry,path",
        [
            # t*gamma = 1000 needs more than MAX_RECURSION_DEPTH terms
            ({"kind": "pareto_limit", "model": DICKMAN_1E5, "params": {"t_list": [0.01]}},
             "params.t_list"),
            ({"kind": "pareto_limit", "model": DICKMAN_1E5,
              "params": {"t_list": [0.01, 1e-4], "gamma": 1.0}}, "params.t_list"),
            ({"kind": "support", "model": {"transform": "drift", "c": 1.0, "of": DICKMAN_1E5},
              "params": {"t": 0.01}}, "params.t"),
            ({"kind": "min_rule", "model": GAMMA,
              "model2": {"transform": "add", "of": [GAMMA, DICKMAN_1E5]}}, "params.t"),
            # neither an exact sampler nor an invertible tail
            ({"kind": "support", "model": {"name": "weibull", "params": {"gamma": 2.0}}}, "model"),
            ({"kind": "product_rule", "model": GAMMA,
              "model2": {"transform": "tilt", "theta": 0.5, "of": GAMMA}}, "model2"),
        ],
    )
    def test_model_that_cannot_draw_at_its_times_exits_two_before_sampling(
        self, tmp_path, capsys, monkeypatch, entry, path
    ):
        # each exited 1 with a traceback: InvalidParameterError from
        # recursion_depth, or from sample_marginal on a tail with no inverse
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the recursion depth was checked")

        monkeypatch.setattr(cli, "sample_marginal", no_sampling)
        monkeypatch.setattr(montecarlo, "sample_marginal", no_sampling)
        cfg = write_config(tmp_path, {"experiments": [entry]})
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"experiments[0].{path}" in capsys.readouterr().err

    def test_dickman_ceiling_spares_cutoff_cp_draws(self, tmp_path):
        # the ergodic estimate draws a bare Dickman model by cutoff compound
        # Poisson, which has no depth ceiling
        entry = {"kind": "ergodic", "model": DICKMAN_1E5, "params": {"t": 0.01, "n": 1000}}
        code, report = cli.run(write_config(tmp_path, {"experiments": [entry]}), str(tmp_path))
        assert code in (0, 1) and report["results"][0]["n"] == 1000

    @pytest.mark.parametrize("lam", [1.0, 1e-3])
    def test_ergodic_target_runs_to_the_support_end(self, tmp_path, lam):
        # ramp * gamma e^{-lam x} / x over [1/2, inf): the ramp's piece in
        # closed form, plus E1(3 lam / 4) past 3/4; cut at 100, lam = 1e-3 read 4.985
        entry = {"kind": "ergodic", "model": {"name": "gamma", "params": {"gamma": 1.0, "lam": lam}},
                 "params": {"n": 1000}}
        code, report = cli.run(write_config(tmp_path, {"experiments": [entry]}), str(tmp_path))
        ramp = 4.0 * ((np.exp(-lam / 2) - np.exp(-0.75 * lam)) / lam
                      - 0.5 * (sc.exp1(lam / 2) - sc.exp1(0.75 * lam)))
        assert code in (0, 1)
        assert report["results"][0]["target"] == pytest.approx(ramp + sc.exp1(0.75 * lam),
                                                               rel=1e-9, abs=0.0)

    def test_ergodic_cutoff_must_sit_below_delta0(self, tmp_path, capsys):
        # ramp's delta0 is 0.5: a cutoff there is refused too
        for cutoff in (0.6, 0.5):
            entry = {"kind": "ergodic", "model": GAMMA, "params": {"n": 10, "cutoff": cutoff}}
            cfg = write_config(tmp_path, {"experiments": [entry]})
            assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 2
            assert "experiments[0].params.cutoff" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry,path",
        [
            # ran on and exited 1
            pytest.param({"kind": "criterion",
                          "model": {"name": "dickman", "params": {"gamma": float("inf")}}},
                         "model.params.gamma", id="dickman-gamma-inf"),
            pytest.param({"kind": "criterion",
                          "model": {"name": "dickman", "params": {"gamma": float("nan")}}},
                         "model.params.gamma", id="dickman-gamma-nan"),
            # exited 0: phi.eval(NaN) reads 0
            pytest.param({"kind": "criterion",
                          "model": {"transform": "tilt", "theta": float("nan"), "of": GAMMA}},
                         "model.theta", id="tilt-theta-nan"),
            pytest.param({"kind": "criterion",
                          "model": {"transform": "drift", "c": float("nan"), "of": GAMMA}},
                         "model.c", id="drift-c-nan"),
            pytest.param({"kind": "criterion",
                          "model": {"transform": "drift", "c": float("inf"), "of": GAMMA}},
                         "model.c", id="drift-c-inf"),
            # exited 1
            pytest.param({"kind": "family_limit", "family": {
                              "name": "stable_nef", "params": {"a": 1.0, "theta": float("inf")}}},
                         "family.params.theta", id="stable_nef-theta-inf"),
            # accepted as power=1 and described as power=True
            pytest.param({"kind": "criterion",
                          "model": {"name": "log_power", "params": {"gamma": 0.1, "power": True}}},
                         "model.params.power", id="log_power-power-true"),
            # exited 2 with Python's "'float' object cannot be interpreted as an integer"
            pytest.param({"kind": "criterion",
                          "model": {"name": "log_power", "params": {"gamma": 0.1, "power": 3.0}}},
                         "model.params.power", id="log_power-power-float"),
        ],
    )
    def test_model_expression_number_must_be_finite(self, tmp_path, capsys, entry, path):
        cfg = write_config(tmp_path, {"experiments": [entry]})
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error at experiments[0].{path}:") and "Traceback" not in err
        assert "interpreted" not in err

    @pytest.mark.parametrize(
        "t,n",
        [
            (1e6, 1_000),  # 6.25e8 jumps per path: one path's jumps would take 5 GB
            (3.2e4, 101),  # 2e7 jumps per path, under that ceiling, but 2.02e9 in all
        ],
    )
    def test_cutoff_cp_past_its_ceiling_exits_two_before_drawing(
        self, tmp_path, capsys, monkeypatch, t, n
    ):
        def no_jumps(*args):
            raise AssertionError("drew jumps past a work ceiling")

        monkeypatch.setattr(simulate, "_jump_sums", no_jumps)
        entry = {"kind": "general_limit", "model": {"name": "log_power", "params": {"gamma": 0.1}},
                 "params": {"L": "neg_log_cubed", "gamma": 0.1, "t_list": [t], "n": n,
                            "cutoff": 1e-8}}
        cfg = write_config(tmp_path, {"experiments": [entry]})
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error at experiments[0].params:") and "past the ceiling" in err


    @pytest.mark.parametrize(
        "model,path,message",
        [
            # a number field is checked at its own path, as a leaf's params are
            ({"transform": "tilt", "theta": -1.0, "of": GAMMA}, "model.theta",
             "must be a finite number >= 0, got -1.0"),
            ({"transform": "add", "of": [{"transform": "drift", "c": 0, "of": GAMMA}, GAMMA]},
             "model.of[0].c", "must be a finite number > 0, got 0"),
            ({"transform": "add", "of": [{"name": "dickman", "params": {"gamma": 1.0}},
                                         {"name": "weibull", "params": {"gamma": 2.0}}]},
             "model", "m2 must be a model with phi that is not the null subordinator"),
        ],
    )
    def test_transform_error_exits_two(self, tmp_path, capsys, model, path, message):
        # each exited 1 with a traceback: the transform's own error escaped
        cfg = write_config(tmp_path, {"experiments": [{"kind": "criterion", "model": model}]})
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error at experiments[0].{path}:") and message in err

    @pytest.mark.parametrize(
        "entry",
        [
            # the null check of compose_outer, at build
            {"kind": "criterion", "model": {"transform": "compose_outer", "outer": NULL_GAMMA,
                                            "inner": STABLE}},
            # the null rule check_s2 declares, checked before any entry runs
            {"kind": "s2", "model": NULL_GAMMA},
        ],
    )
    def test_null_subordinator_exits_two(self, tmp_path, capsys, entry):
        # each exited 1 with a traceback: DegenerateModelError escaped
        cfg = write_config(tmp_path, {"experiments": [entry]})
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error at experiments[0].model:") and "null subordinator" in err
        assert "Traceback" not in err


FIRST = {"kind": "pareto_limit", "model": GAMMA, "params": {"t_list": [0.1], "n": 10}}


def assert_exits_two_at(tmp_path, capsys, sampler_calls, entry, path):
    """A config of a good first entry and this one exits 2 naming path, before any draw."""
    cfg = write_config(tmp_path, {"experiments": [FIRST, entry]})
    assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error at experiments[1].{path}:"), err
    assert sampler_calls == []
    return err[0]


# a valid value of each required field, so that a test can make any one other field bad
VALID_REQUIRED = {"a": 2.0, "b": 4.0, "q": 0.3, "gamma": 1.0, "z": 2.0,
                  "expected_gamma": 1.0, "expected": 0.3}


# a valid value of each model and family parameter
VALID_PARAMS = {"gamma": 1.0, "lam": 1.0, "a": 1.0, "alpha": 0.5, "b": 1.0, "theta": 1.0,
                "power": 3}
# the entry key of a catalog model and of a family, with a kind that builds it
LEAVES = {"model": ("criterion", catalog.CATALOG), "family": ("family_limit", catalog.FAMILIES)}


def model_parameters():
    for key, (_, factories) in LEAVES.items():
        for name, factory in factories.items():
            for arg in factory.fields:
                yield key, name, arg


def table_fields():
    for kind, spec in cli.KINDS.items():
        for group in ("params", "assertions"):
            for field in getattr(spec, group):
                yield kind, group, field


class TestExperimentTable:
    @pytest.mark.parametrize(
        "entry,path",
        [
            ({"kind": "drift", "model": GAMMA, "params": {"window": "x"}}, "params.window"),
            ({"kind": "dickman_density_norm", "params": {"z_max": "a"}}, "params.z_max"),
            ({"kind": "pareto_limit", "model": GAMMA, "assertions": {"ks_max": "x"}},
             "assertions.ks_max"),
            ({"kind": "criterion", "model": GAMMA, "params": {"grid": "x"}}, "params.grid"),
            ({"kind": "sandwich", "model": GAMMA, "params": {"tol": "x"}}, "params.tol"),
            ({"kind": "pareto_limit", "model": GAMMA, "assertions": [1]}, "assertions"),
            ({"kind": "criteria_recovery", "model": GAMMA, "assertions": {"tol": 0.02}},
             "assertions.expected_gamma"),
            ({"kind": "dickman_rho", "params": {"z": 2.0}}, "assertions.expected"),
            ({"kind": "support", "model": GAMMA, "seed": "abc"}, "seed"),
            # these were checked only when the entry ran, after earlier entries sampled
            ({"kind": "general_limit",
              "model": {"name": "log_power", "params": {"gamma": 0.1, "power": 3}},
              "params": {"gamma": 0.1, "L": "neg_loglog"}}, "params.L"),
            ({"kind": "criterion", "model": GAMMA, "params": {"criterion": "S9"}},
             "params.criterion"),
            ({"kind": "sandwich", "model": GAMMA, "params": {"which": "ol3"}}, "params.which"),
            ({"kind": "ergodic", "model": GAMMA, "params": {"functional": "step"}},
             "params.functional"),
            ({"kind": "family_limit", "family": {"name": "stable"}}, "family.name"),
            # JSON's Infinity passed every numeric check
            ({"kind": "support", "model": GAMMA, "params": {"t": float("inf")}}, "params.t"),
            ({"kind": "pareto_limit", "model": GAMMA, "params": {"t_list": [0.1, float("inf")]}},
             "params.t_list"),
            ({"kind": "affine", "model": GAMMA, "params": {"a": float("inf"), "b": 4.0}},
             "params.a"),
            ({"kind": "pareto_limit", "model": GAMMA, "assertions": {"ks_max": float("inf")}},
             "assertions.ks_max"),
            ({"kind": "dickman_rho", "params": {"z": 2.0}, "assertions": {"expected": float("inf")}},
             "assertions.expected"),
            ({"kind": "s2", "model": GAMMA, "params": {"t_grid": [0.01, float("inf")]}},
             "params.t_grid"),
            # JSON's true passed every number rule: the report read "model":
            # "gamma(gamma=True,lam=1)" and "threshold": true
            ({"kind": "pareto_limit",
              "model": {"name": "gamma", "params": {"gamma": True, "lam": 1}}},
             "model.params.gamma"),
            ({"kind": "pareto_limit", "model": GAMMA, "assertions": {"ks_max": True}},
             "assertions.ks_max"),
            ({"kind": "support", "model": GAMMA, "seed": True}, "seed"),
            ({"kind": "dickman_density_norm", "params": {"z_max": True}}, "params.z_max"),
            # these sampled, then exited 1 with a traceback
            ({"kind": "two_sampler_ks", "assertions": {"level": 0.02}}, "assertions.level"),
            ({"kind": "s2", "model": GAMMA, "params": {"t_grid": []}}, "params.t_grid"),
            ({"kind": "s2", "model": GAMMA, "params": {"u_grid": []}}, "params.u_grid"),
            ({"kind": "family_limit", "params": {"t_grid": []}}, "params.t_grid"),
            ({"kind": "family_limit", "params": {"u_grid": []}}, "params.u_grid"),
            # these exited 2 naming only params, after the earlier entries sampled
            ({"kind": "s2", "model": GAMMA, "params": {"t_grid": [-1.0]}}, "params.t_grid"),
            ({"kind": "s2", "model": GAMMA, "params": {"u_grid": [2.0, 0.0]}}, "params.u_grid"),
            ({"kind": "family_limit", "params": {"u_grid": [2.0, -1.0]}}, "params.u_grid"),
            # each repeat was drawn, but ks_by_t holds one statistic per time
            ({"kind": "pareto_limit", "model": GAMMA, "params": {"t_list": [0.1, 0.05, 0.1]}},
             "params.t_list"),
            ({"kind": "general_limit", "model": GAMMA,
              "params": {"t_list": [0.1, 0.05, 0.1], "gamma": 1.0}}, "params.t_list"),
            # the ddof=1 standard deviation divided by n - 1 = 0: a NaN stderr in
            # report.json, or a traceback under -W error::RuntimeWarning
            ({"kind": "recursion_mean", "params": {"gamma": 1.0, "n": 1}}, "params.n"),
            ({"kind": "ergodic", "model": GAMMA, "params": {"n": 1}}, "params.n"),
            # gamma * n < 1: each drew and failed its gate; at the first two every
            # path's exp underflowed, so the mean and its stderr read 0.0
            ({"kind": "recursion_mean", "params": {"gamma": 1e-12, "n": 1000}}, "params.gamma"),
            ({"kind": "recursion_mean", "params": {"gamma": 1e-300, "n": 1000}}, "params.gamma"),
            ({"kind": "recursion_mean", "params": {"gamma": 9e-7}}, "params.gamma"),
            # increasing times: the statistic was the largest time's KS and the trend
            # read the list backwards, so the order decided the verdict
            ({"kind": "pareto_limit", "model": GAMMA,
              "params": {"t_list": [0.01, 0.05, 0.1, 0.2]}}, "params.t_list"),
            ({"kind": "general_limit", "model": GAMMA,
              "params": {"t_list": [0.01, 0.1], "gamma": 1.0}}, "params.t_list"),
            # shapes and grid times below the floors of float64: log(u)/a or log(u)/t
            # overflowed, so each exited 3 blaming the exact sampler, passed on a batch
            # of -inf draws, wrote "statistic": Infinity or failed at a meaningless
            # deviation, or ended in a traceback under -W error::RuntimeWarning
            ({"kind": "pareto_limit",
              "model": {"name": "gamma", "params": {"gamma": 1e-20, "lam": 1.0}},
              "params": {"t_list": [1e-290]}}, "params.t_list"),
            ({"kind": "pareto_limit", "model": {"name": "dickman", "params": {"gamma": 1.0}},
              "params": {"t_list": [1e-320]}}, "params.t_list"),
            ({"kind": "drift", "model": GAMMA, "params": {"t": 1e-320}}, "params.t"),
            ({"kind": "drift", "model": {"name": "stable", "params": {"a": 1e-300, "alpha": 0.5}},
              "params": {"t": 1e-30}}, "params.t"),
            ({"kind": "two_sampler_ks", "params": {"gamma": 1e-310}}, "params.gamma"),
            ({"kind": "s2", "model": GAMMA, "params": {"t_grid": [0.01, 1e-320]}}, "params.t_grid"),
            ({"kind": "family_limit", "params": {"t_grid": [1e-320]}}, "params.t_grid"),
            # a one-point grid leaves the affine fit underdetermined: lstsq's minimum-norm
            # fit read S7 0.97535 and S6 0.99840 on gamma(1, 1), and S7 passed at tol 0.05
            *[({"kind": "criterion", "model": GAMMA, "params": {"criterion": c, "grid": [-25.0]}},
               "params.grid") for c in ("S6", "S7", "S8")],
            ({"kind": "criterion", "model": GAMMA, "params": {"criterion": "GL", "grid": [-30.0]}},
             "params.grid"),
            # gamma * n = 99: it drew, but below 100 its 3-sigma gate failed on
            # several times its level of seeds
            ({"kind": "recursion_mean", "params": {"gamma": 1.0, "n": 99}}, "params.gamma"),
        ],
    )
    def test_malformed_field_exits_two_before_any_draw(
        self, tmp_path, capsys, sampler_calls, entry, path
    ):
        # each exited 1 with a traceback, or only after the first entry sampled
        assert_exits_two_at(tmp_path, capsys, sampler_calls, entry, path)

    @pytest.mark.parametrize("kind,group,field", list(table_fields()))
    def test_every_table_field_is_checked(self, tmp_path, capsys, sampler_calls, kind, group, field):
        spec = cli.KINDS[kind]
        entry = {"kind": kind, "params": {}, "assertions": {}}
        for g in ("params", "assertions"):
            for f, (default, _) in getattr(spec, g).items():
                if default is cli.REQUIRED:
                    entry[g][f] = VALID_REQUIRED[f]
        entry[group][field] = "x"
        assert_exits_two_at(tmp_path, capsys, sampler_calls, entry, f"{group}.{field}")

    @pytest.mark.parametrize("key,name,arg", list(model_parameters()))
    def test_every_model_parameter_is_checked(
        self, tmp_path, capsys, sampler_calls, key, name, arg
    ):
        kind, factories = LEAVES[key]
        params = {a: VALID_PARAMS[a] for a in factories[name].fields}
        entry = {"kind": kind, key: {"name": name, "params": {**params, arg: "x"}}}
        assert_exits_two_at(tmp_path, capsys, sampler_calls, entry, f"{key}.params.{arg}")

    # a default is checked and cast as a given value is, so a default its own rule
    # refuses would make every entry that leaves the field out exit 2
    @pytest.mark.parametrize("kind,group,field", list(table_fields()))
    def test_every_table_default_passes_its_rule(self, kind, group, field):
        default, check = getattr(cli.KINDS[kind], group)[field]
        assert default is None or default is cli.REQUIRED or check.passes(default)

    @pytest.mark.parametrize("key,name,arg", list(model_parameters()))
    def test_every_model_default_passes_its_rule(self, key, name, arg):
        default, check = LEAVES[key][1][name].fields[arg]
        assert default is None or default is cli.REQUIRED or check.passes(default)

    def test_a_default_name_is_cast_to_what_it_names(self):
        (_, _, general, _), (_, _, ergodic, _) = cli.validate_config({"experiments": [
            {"kind": "general_limit", "model": GAMMA, "params": {"gamma": 1.0}},
            {"kind": "ergodic", "model": GAMMA}]})
        assert general["L"] is np.negative
        assert ergodic["functional"] == cli.FUNCTIONALS["ramp"]

    @pytest.mark.parametrize(
        "key,name,params,message",
        [
            # each exited 2 at .params in Python's words: "make_gamma() got an
            # unexpected keyword argument 'foo'", "make_gamma() missing 1 required
            # positional argument: 'lam'", "... argument after ** must be a mapping,
            # not list"; a null param was refused as "gamma must be ..., got None"
            ("model", "gamma", {"gamma": 1.0, "lam": 1.0, "foo": 1.0},
             "params.foo: unknown field; known: ['gamma', 'lam']"),
            ("model", "gamma", {"gamma": 1.0}, "params.lam: must be a finite number > 0, got nothing"),
            ("model", "gamma", [1, 2], "params: must be an object"),
            ("model", "gamma", {"gamma": None, "lam": 1.0},
             "params.gamma: must be a finite number > 0, got nothing"),
            ("family", "stable_nef", {"a": 1.0, "theta": 1.0, "foo": 1.0},
             "params.foo: unknown field; known: ['a', 'theta']"),
            ("family", "stable_nef", {"a": 1.0},
             "params.theta: must be a finite number > 0, got nothing"),
            ("family", "stable_nef", [1, 2], "params: must be an object"),
            ("family", "stable_nef", {"a": None, "theta": 1.0},
             "params.a: must be a finite number > 0, got nothing"),
        ],
        ids=[f"{key}-{probe}" for key in ("model", "family")
             for probe in ("unknown", "missing", "list", "null")],
    )
    def test_malformed_model_params_exit_two_naming_the_param(
        self, tmp_path, capsys, sampler_calls, key, name, params, message
    ):
        entry = {"kind": LEAVES[key][0], key: {"name": name, "params": params}}
        path = f"{key}.{message.split(':')[0]}"
        err = assert_exits_two_at(tmp_path, capsys, sampler_calls, entry, path)
        assert err == f"config error at experiments[1].{key}.{message}"
        for python in ("unexpected keyword", "required positional", "argument after"):
            assert python not in err

    def test_family_left_out_is_the_stable_nef_at_a_1_theta_1(self):
        [(_, _, _, models)] = cli.validate_config({"experiments": [{"kind": "family_limit"}]})
        assert (models["family"].name, models["family"].params) == (
            "stable_nef", {"a": 1.0, "theta": 1.0})

    @pytest.mark.parametrize("entry,group,field", [
        ({"kind": "support", "model": GAMMA, "assertions": {"max_fraction": 1}},
         "assertions", "max_fraction"),
        ({"kind": "support", "model": GAMMA, "assertions": {"max_fraction": 0}},
         "assertions", "max_fraction"),
        ({"kind": "dickman_rho", "params": {"z": 0}, "assertions": {"expected": 1.0}},
         "params", "z"),
        ({"kind": "dickman_rho", "params": {"z": 40}, "assertions": {"expected": 0.0}},
         "params", "z"),
    ])
    def test_closed_interval_ends_are_accepted(self, entry, group, field):
        # UNIT is [0, 1] and Z is [0, 40]: each end is a value of the field
        [(_, _, values, _)] = cli.validate_config({"experiments": [entry]})
        assert values[field] == entry[group][field]

    def test_null_model_param_takes_its_default(self):
        model = {"name": "log_power", "params": {"gamma": 0.1, "power": None}}
        [(_, _, _, models)] = cli.validate_config(
            {"experiments": [{"kind": "criterion", "model": model}]})
        assert models["model"].describe() == "log_power(gamma=0.1,power=3)"

    @pytest.mark.parametrize(
        "entry,path",
        [
            ({"kind": "pareto_limit", "model": GAMMA, "assertions": {"ks_mx": 0.01}},
             "assertions.ks_mx"),
            ({"kind": "pareto_limit", "model": GAMMA, "assertion": {"ks_max": 0.01}},
             "assertion"),
            ({"kind": "mixture", "model": GAMMA, "params": {"q": 0.3, "jump_tol": 0.01}},
             "params.jump_tol"),
            # only pareto_limit exports a curve
            ({"kind": "support", "model": GAMMA, "csv": "curve.csv"}, "csv"),
            ({"kind": "dickman_rho", "model": GAMMA, "params": {"z": 2.0},
              "assertions": {"expected": 0.3}}, "model"),
            # inside a model expression: a transform key, a leaf key, a family key
            ({"kind": "criterion", "model": {"transform": "tilt", "theta": 0.5, "thta": 2.0,
                                             "of": {"name": "bessel", "parms": {"x": 1}}}},
             "model.thta"),
            ({"kind": "criterion", "model": {"transform": "tilt", "theta": 0.5,
                                             "of": {"name": "bessel", "parms": {"x": 1}}}},
             "model.of.parms"),
            ({"kind": "support", "model": {"transform": "add", "of": [GAMMA, {**GAMMA, "lam": 2.0}]}},
             "model.of[1].lam"),
            ({"kind": "family_limit", "family": {"name": "stable_nef", "parms": {}}},
             "family.parms"),
            # the recursion runs at recursion_depth(gamma), the fewest terms that hold
            # its mean bias to RECURSION_REL_BIAS * gamma: a depth is no field of it
            ({"kind": "recursion_mean", "params": {"gamma": 1.0, "n": 1000, "depth": 40}},
             "params.depth"),
        ],
    )
    def test_unknown_key_exits_two(self, tmp_path, capsys, sampler_calls, entry, path):
        # a misspelt assertion used to drop its gate silently
        assert_exits_two_at(tmp_path, capsys, sampler_calls, entry, path)

    @pytest.mark.parametrize("seed", ["abc", 1.5, -1])
    def test_malformed_run_seed_exits_two(self, tmp_path, capsys, seed):
        # each exited 1 with a traceback
        cfg = write_config(tmp_path, {"seed": seed, "experiments": []})
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error at seed:")

    def test_transform_parameter_of_wrong_type_exits_two(self, tmp_path, capsys):
        model = {"transform": "tilt", "theta": "x", "of": GAMMA}
        cfg = write_config(tmp_path, {"experiments": [{"kind": "criterion", "model": model}]})
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error at experiments[0].model.theta:")

    @pytest.mark.parametrize(
        "params,field",
        [({"a": 1.0}, "theta"), ({"a": 1.0, "theta": 1.0, "b": 2.0}, "b"),
         ({"a": 1.0, "theta": -1.0}, "theta")],
        ids=["params0", "params1", "params2"],
    )
    def test_family_params_rejected_by_the_family_exit_two(self, tmp_path, capsys, params, field):
        entry = {"kind": "family_limit", "family": {"name": "stable_nef", "params": params}}
        cfg = write_config(tmp_path, {"experiments": [entry]})
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error at experiments[0].family.params.{field}:"), err

    def test_list_derives_kinds_from_the_table(self):
        listed = cli.list_catalog()
        kinds = listed["experiment_kinds"]
        assert list(kinds) == list(cli.KINDS)
        assert listed["criteria"] == list(cli.CRITERIA)
        assert kinds["pareto_limit"]["params"]["n"] == {
            "default": montecarlo.DEFAULT_N, "requirement": "an integer in [1, 2**53]"}
        assert kinds["mixture"]["params"]["q"]["default"] == "required"
        assert kinds["pareto_limit"]["csv"] is True and kinds["support"]["csv"] is False
        assert kinds["min_rule"]["models"] == ["model", "model2"]
        assert "model: a model with cdf1" in kinds["sandwich"]["requires"]
        # one gate of each side: at most, at least, a distance to a target, categorical
        assert kinds["support"]["gates"] == [
            {"name": "max_fraction", "statistic": "statistic", "side": "<=",
             "threshold": "max_fraction"}]
        assert kinds["drift"]["gates"] == [
            {"name": "min_fraction", "statistic": "statistic", "side": ">=",
             "threshold": "min_fraction"}]
        assert kinds["dickman_rho"]["gates"] == [
            {"name": "tol", "statistic": "statistic", "side": "|statistic - expected| <=",
             "threshold": "tol"}]
        assert kinds["criterion"]["gates"][2] == {
            "name": "verdict", "statistic": "verdict", "side": "== threshold",
            "threshold": "verdict"}
        assert kinds["sandwich"]["gates"][0]["threshold"] == 0
        assert kinds["criterion"]["assertions"]["tol"]["default"] == 0.02
        assert "params.gamma: gamma * n >= 100" in kinds["recursion_mean"]["requires"]
        for kind in ("recursion_mean", "ergodic"):
            assert kinds[kind]["params"]["n"]["requirement"] == "an integer in [2, 2**53]"


# one small entry of each kind: a small-n entry of the kinds below (s2 has no
# bundled entry), and of every other kind its first bundled entry, at its own
# index and seed
SMALL_ENTRIES = {
    "min_rule": {"kind": "min_rule", "model": GAMMA,
                 "model2": {"name": "gamma", "params": {"gamma": 0.5, "lam": 2.0}},
                 "params": {"t": 0.01, "n": 2000}, "assertions": {"ks_max": 0.1}},
    "product_rule": {"kind": "product_rule", "model": GAMMA,
                     "model2": {"name": "gamma", "params": {"gamma": 2.0, "lam": 1.0}},
                     "params": {"t": 0.01, "n": 2000}, "assertions": {"ks_max": 0.1}},
    "affine": {"kind": "affine", "model": GAMMA,
               "params": {"a": 2.0, "b": 32.0, "t": 0.05, "n": 2000},
               "assertions": {"ks_max": 0.1}},
    "drift": {"kind": "drift", "model": GAMMA,
              "params": {"c": 2.0, "t": 0.001, "n": 2000}, "assertions": {"min_fraction": 0.9}},
    "support": {"kind": "support", "model": {"name": "gamma", "params": {"gamma": 2.0, "lam": 1.0}},
                "params": {"t": 0.01, "n": 2000}, "assertions": {"max_fraction": 0.05}},
    "s2": {"kind": "s2", "model": GAMMA},
}


def one_entry_per_kind():
    """kind -> (entry, seed, index): SMALL_ENTRIES, else the kind's first bundled entry."""
    found = {kind: (entry, 0, 0) for kind, entry in SMALL_ENTRIES.items()}
    for path in (cli.default_acceptance_config(),
                 os.path.join(os.path.dirname(__file__), "..", "perfbench", "configs",
                              "mc-sweep.json")):
        with open(path) as fh:
            config = json.load(fh)
        for index, entry in enumerate(config["experiments"]):
            found.setdefault(entry["kind"], (entry, config["seed"], index))
    return found


ENTRIES = one_entry_per_kind()


class TestGates:
    def test_every_kind_has_an_entry(self):
        assert sorted(ENTRIES) == sorted(cli.KINDS)

    @pytest.mark.parametrize("kind", list(cli.KINDS))
    def test_pass_is_every_declared_margin_at_least_zero(self, monkeypatch, kind):
        spec = cli.KINDS[kind]
        returned = []

        def recorded(*args, _handler=spec.handler):
            returned.append(_handler(*args))
            return returned[-1]

        monkeypatch.setitem(cli.KINDS, kind, spec._replace(handler=recorded))
        entry, seed, index = ENTRIES[kind]
        [checked] = cli.validate_config({"experiments": [entry]})
        result = cli.run_experiment(checked, seed, None, index)
        margins = cli.margins(checked, result)
        assert result["pass"] is all(m >= 0 for m in margins.values())
        # the bundled entries pass at their config seed, and the small ones with room to spare
        assert result["pass"] is True, margins
        assert margins, "no gate applied"
        assert len(returned) == 1 and "pass" not in returned[0]
        assert result["threshold"] == returned[0].get("threshold", spec.gates[0].bound(checked[2]))

    @pytest.mark.parametrize("ks,slack,holds", [
        ([0.10, 0.105], 0.1, True),
        ([0.10, 0.105], 0.0, False),
        ([0.10, 0.1009], 0.0, False),
        # each time against the one before it, not against an earlier one
        ([0.10, 0.05, 0.09], 0.0, False),
    ])
    def test_trend_reads_each_time_against_the_one_before(self, ks, slack, holds):
        # at n = 1e12 the noise floor c(1%)/sqrt(n) is 1.6e-6, below every gap here
        assert cli._trend(dict(zip((0.4, 0.2, 0.1), ks)), slack, {"n": 10**12}) is holds

    @pytest.mark.parametrize("kind", list(cli.KINDS))
    def test_every_assertion_field_is_read_by_a_gate(self, kind):
        spec = cli.KINDS[kind]
        read = {field for gate in spec.gates for field in (gate.threshold, *gate.side.fields)}
        assert set(spec.assertions) <= read
        assert len({gate.name for gate in spec.gates}) == len(spec.gates)
        for gate in spec.gates:
            assert isinstance(gate.threshold, (int, float)) or gate.threshold in spec.assertions

    def test_null_threshold_skips_its_gate(self):
        entry = {"kind": "pareto_limit", "model": GAMMA, "params": {"t_list": [0.1], "n": 10}}
        [checked] = cli.validate_config({"experiments": [entry]})
        assert cli.margins(checked, {"statistic": 0.5, "ks_by_t": {"0.1": 0.5}}) == {}
        entry["assertions"] = {"ks_min": 0.7}
        [checked] = cli.validate_config({"experiments": [entry]})
        assert cli.margins(checked, {"statistic": 0.5, "ks_by_t": {"0.1": 0.5}}) == {
            "ks_min": pytest.approx(-0.2)}

    @pytest.mark.parametrize(
        "kind,assertions,result,expected",
        [
            # a null statistic: no criterion converged
            ("criteria_recovery", {"expected_gamma": 1.0}, {"statistic": None, "estimates": {}},
             {"tol": -math.inf}),
            ("criteria_recovery", {"expected_gamma": 1.0, "tol": 0.1},
             {"statistic": 0.05, "estimates": {"S5": 1.05, "S6": 0.98}},
             {"tol": pytest.approx(0.05)}),
            ("criterion", {"expected_gamma": 1.0, "verdict": "converged"},
             {"gamma_hat": None, "verdict": "diverged"},
             {"gamma": -math.inf, "converged": -math.inf, "verdict": -math.inf}),
            ("criterion", {"verdict": "degenerate"}, {"gamma_hat": None, "verdict": "degenerate"},
             {"verdict": 0.0}),
            ("mixture", {"jump_tol": 0.01}, {"statistic": 0.5, "jump_at_one": 0.695},
             {"jump": pytest.approx(0.005)}),
            ("recursion_mean", {}, {"statistic": 1.1, "target": 1.0, "stderr": 0.01},
             {"sigma_mult": pytest.approx(-0.07)}),
            ("ergodic", {"rel_tol": 0.05}, {"statistic": 1.1, "target": 1.0},
             {"rel_tol": pytest.approx(-0.05)}),
            ("two_sampler_ks", {}, {"statistic": 0.005, "threshold": 0.007},
             {"level": pytest.approx(0.002)}),
        ],
    )
    def test_margin_of_each_side(self, kind, assertions, result, expected):
        entry = {**ENTRIES[kind][0], "assertions": assertions}
        if kind == "mixture":
            entry["params"] = {**entry["params"], "q": 0.3}
        if kind == "recursion_mean":
            entry["params"] = {"gamma": 1.0}
        [checked] = cli.validate_config({"experiments": [entry]})
        assert cli.margins(checked, result) == expected


class TestRamp:
    def test_matches_allocating_form(self):
        ramp, _ = cli.FUNCTIONALS["ramp"]
        old = lambda x: np.minimum(1.0, np.maximum(0.0, (np.asarray(x, dtype=float) - 0.5) * 4.0))
        points = [-np.inf, -1.0, 0.0, 0.5, 0.6, 0.75, 0.8, 1.0, 10.0, np.inf, np.nan]
        x = np.concatenate([points, np.random.default_rng(5).random(1000)])
        assert ramp(x).tobytes() == old(x).tobytes()
        for point in points:
            got, want = ramp(point), old(point)
            assert got.dtype == np.float64 and got.shape == () and got.tobytes() == want.tobytes()


class TestList:
    def test_list_flag_prints_inventory(self, capsys):
        assert cli.main(["--list"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        for name in ("gamma", "dickman", "bessel"):
            assert name in payload["models"]
        assert "tilt" in payload["transforms"]
        assert payload["criteria"] == ["S5", "S6", "S7", "S8", "GL"]

    def test_inventory_is_stable(self):
        assert cli.list_catalog() == cli.list_catalog()

    @pytest.mark.parametrize(
        "config",
        [cli.default_acceptance_config(),
         os.path.join(os.path.dirname(__file__), "..", "perfbench", "configs", "mc-sweep.json")],
    )
    def test_every_kind_a_config_runs_is_listed(self, config):
        with open(config) as fh:
            kinds = {entry["kind"] for entry in json.load(fh)["experiments"]}
        assert kinds <= set(cli.list_catalog()["experiment_kinds"])

    @pytest.mark.parametrize("kind, group, field, default", [
        ("support", "params", "t", 0.01),
        ("family_limit", "assertions", "max_dev", 1e-3),
        ("two_sampler_ks", "params", "gamma", 1.0),
    ])
    def test_listed_default(self, kind, group, field, default):
        # what an entry that leaves the field out runs with
        listed = cli.list_catalog()["experiment_kinds"][kind][group][field]
        assert listed["default"] == default

    def test_every_listed_kind_is_run(self):
        # each entry is malformed for its kind, so it fails fast, but never
        # as an unknown kind
        listed = cli.list_catalog()["experiment_kinds"]
        assert len(set(listed)) == len(listed)
        with pytest.raises(cli.SchemaError) as exc:
            cli.validate_config({"experiments": [{"kind": "wat"}]})
        assert exc.value.path == "experiments[0].kind"
        for kind in listed:
            entry = {"kind": kind, "model": {"name": "nope"}, "family": {"name": "nope"},
                     "params": {"n": 0, "z": -1.0, "z_max": 0}}
            try:
                cli.validate_config({"experiments": [entry]})
            except cli.SchemaError as err:
                assert err.path != "experiments[0].kind", kind


class TestRun:
    def test_small_run_produces_report_and_csv(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "seed": 5,
                "experiments": [
                    {
                        "kind": "pareto_limit",
                        "model": {"name": "gamma", "params": {"gamma": 1.0, "lam": 1.0}},
                        "params": {"t_list": [0.05], "n": 5000},
                        "assertions": {"ks_max": 0.1},
                        "csv": "curve.csv",
                    },
                    {
                        "kind": "criterion",
                        "model": {"name": "bessel"},
                        "params": {"criterion": "S5"},
                        "assertions": {"expected_gamma": 1.0, "tol": 0.02},
                    },
                ],
            },
        )
        code = cli.main(["--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        report = load_report(tmp_path)
        assert report["all_pass"] is True
        assert report["results"][0]["experiment"] == "pareto_limit"
        assert {"experiment", "model", "params", "t", "n", "statistic", "threshold", "pass"} <= set(
            report["results"][0]
        )
        curve = (tmp_path / "curve.csv").read_text().splitlines()
        assert curve[0] == "x,ecdf,target"
        assert len(curve) == 5001

    def test_pareto_curve_is_written_from_the_final_batch(self, tmp_path, sampler_calls):
        # one draw per t, and the curve is the last t's batch: the bytes of the
        # ECDF of that t's substream, the one the final statistic was computed on
        t_list, n, seed = [0.1, 0.05], 5000, 5
        entry = {"kind": "pareto_limit", "model": GAMMA, "params": {"t_list": t_list, "n": n},
                 "csv": "curve.csv"}
        code, report = cli.run(write_config(tmp_path, {"seed": seed, "experiments": [entry]}),
                               out_dir=str(tmp_path))
        assert code == 0
        assert len(sampler_calls) == len(t_list)
        model = catalog.build_model("gamma", GAMMA["params"])
        last = simulate.substream(seed * 1_000_003, len(t_list) - 1)
        log_s = simulate.sample_marginal(model, t_list[-1], n, last)
        values, n_inf = simulate.to_neg_t_power(log_s, t_list[-1])
        emp = montecarlo.EmpiricalDistribution.from_values(values, n_inf)
        montecarlo.export_curve(emp, montecarlo.ParetoLaw(1.0).cdf, tmp_path / "replay.csv")
        assert (tmp_path / "curve.csv").read_bytes() == (tmp_path / "replay.csv").read_bytes()
        ks = montecarlo.ks_distance(emp, montecarlo.ParetoLaw(1.0).cdf)
        assert report["results"][0]["statistic"] == ks

    def test_failed_assertion_exits_one(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "seed": 5,
                "experiments": [
                    {
                        "kind": "criterion",
                        "model": {"name": "bessel"},
                        "params": {"criterion": "S5"},
                        "assertions": {"expected_gamma": 2.0, "tol": 0.02},
                    }
                ],
            },
        )
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 1
        assert load_report(tmp_path)["all_pass"] is False

    def test_fail_line_names_the_failing_gates(self, tmp_path, capsys):
        # ks_max and the trend hold; ks_min cannot
        entry = {"kind": "pareto_limit", "model": GAMMA, "params": {"t_list": [0.1, 0.05], "n": 2000},
                 "assertions": {"ks_max": 0.5, "ks_min": 0.9, "trend_slack": 0.2}}
        cfg = write_config(tmp_path, {"seed": 3, "experiments": [entry]})
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 1
        [line] = [row for row in capsys.readouterr().out.splitlines() if row.startswith("FAIL")]
        result = load_report(tmp_path)["results"][0]
        margin = result["statistic"] - 0.9
        assert line.endswith(f"  failed: ks_min (margin {margin:.4g})"), line
        assert "ks_max" not in line and "trend" not in line
        assert not any(key in result for key in ("margins", "failed", "ks_min"))

    def test_criterion_tol_defaults_to_the_listed_value(self, tmp_path):
        entry = {"kind": "criterion", "model": {"name": "bessel"},
                 "assertions": {"expected_gamma": 1.0}}
        code, report = cli.run(write_config(tmp_path, {"experiments": [entry]}),
                               out_dir=str(tmp_path))
        assert code == 0 and report["results"][0]["threshold"] == 0.02

    def test_reports_byte_identical_modulo_timestamp(self, tmp_path):
        payload = {
            "seed": 7,
            "experiments": [
                {
                    "kind": "pareto_limit",
                    "model": {"name": "gamma", "params": {"gamma": 1.0, "lam": 1.0}},
                    "params": {"t_list": [0.1, 0.05], "n": 20000},
                    "assertions": {"ks_max": 0.2},
                },
                {
                    "kind": "mixture",
                    "model": {"name": "gamma", "params": {"gamma": 1.0, "lam": 1.0}},
                    "params": {"q": 0.3, "t": 0.001, "n": 20000},
                    "assertions": {"ks_max": 0.1},
                },
            ],
        }
        cfg = write_config(tmp_path, payload)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.main(["--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["--config", cfg, "--out", str(out2)]) == 0
        r1, r2 = load_report(out1), load_report(out2)
        assert r1.pop("timestamp") != r2.pop("timestamp") or True
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_threads_do_not_change_results(self, tmp_path):
        payload = {
            "seed": 7,
            "experiments": [
                {
                    "kind": "criterion",
                    "model": {"name": "dickman", "params": {"gamma": float(g)}},
                    "params": {"criterion": "S7"},
                    "assertions": {"expected_gamma": float(g), "tol": 0.02},
                }
                for g in (1, 2, 3)
            ],
        }
        cfg = write_config(tmp_path, payload)
        out1, out2 = tmp_path / "t1", tmp_path / "t4"
        assert cli.main(["--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
        assert cli.main(["--config", cfg, "--out", str(out2), "--threads", "4"]) == 0
        r1, r2 = load_report(out1), load_report(out2)
        r1.pop("timestamp"), r2.pop("timestamp")
        assert r1 == r2

    def test_two_threads_that_load_scipy_at_once_report_as_one(self, tmp_path):
        # scipy's submodules load at their first use, so in a fresh interpreter the
        # first two entries run on two threads while scipy.special and scipy.integrate load
        weibull = {"name": "weibull", "params": {"gamma": 1.0}}
        entries = [{"kind": "criteria_recovery",
                    "model": {"name": "gamma", "params": {"gamma": g, "lam": 1.0}},
                    "assertions": {"expected_gamma": g, "tol": 0.02}} for g in (1.0, 2.0)]
        entries += [{"kind": "sandwich", "model": weibull, "params": {"which": which}}
                    for which in ("ol", "ol2")]
        cfg = write_config(tmp_path, {"seed": 3, "experiments": entries})
        code = (
            "import json, sys, subordlab.cli as cli\n"
            "cfg, out, threads = sys.argv[1:]\n"
            "with open(cfg) as fh:\n"
            "    cli.validate_config(json.load(fh))\n"
            "assert not {'scipy.integrate', 'scipy.special'} & set(sys.modules)\n"
            "sys.exit(cli.main(['--config', cfg, '--out', out, '--threads', threads]))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        reports = []
        for threads in ("2", "1"):
            out = tmp_path / f"t{threads}"
            proc = subprocess.run([sys.executable, "-c", code, cfg, str(out), threads], env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert "Traceback" not in proc.stderr
            reports.append(load_report(out))
            reports[-1].pop("timestamp")
        assert reports[0] == reports[1]

    def test_seed_resolution_order(self, tmp_path):
        cfg_no_seed = write_config(tmp_path, {"experiments": []}, "noseed.json")
        _, report = cli.run(cfg_no_seed, out_dir=str(tmp_path))
        assert report["seed"] == 0
        _, report = cli.run(cfg_no_seed, out_dir=str(tmp_path), seed=123)
        assert report["seed"] == 123
        cfg_seeded = write_config(tmp_path, {"seed": 55, "experiments": []}, "seeded.json")
        _, report = cli.run(cfg_seeded, out_dir=str(tmp_path))
        assert report["seed"] == 55

    def test_console_entry_point(self, tmp_path):
        cfg = write_config(tmp_path, {"experiments": []})
        proc = subprocess.run(
            [sys.executable, "-m", "subordlab.cli", "--config", cfg, "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "all_pass=True" in proc.stdout

    def test_two_sampler_ks_at_a_vanishing_gamma(self, tmp_path):
        # every cutoff path is void at this gamma, so the recursion's finite logs
        # far below log(cutoff) must be censored there too, or KS reads 1.0
        entry = {"kind": "two_sampler_ks", "params": {"gamma": 1e-300, "n": 1000}}
        cfg = write_config(tmp_path, {"seed": 1, "experiments": [entry]})
        code, report = cli.run(cfg, out_dir=str(tmp_path))
        assert code == 0, report["results"][0]

    def test_two_sampler_ks_reads_its_two_draws(self):
        # the recursion on stream 0, censored below the cutoff, against the cutoff
        # compound-Poisson draw at t = 1 on stream 1, both as logs
        n, gamma, cutoff = 10_000, 1.0, 1e-6
        values = {"gamma": gamma, "n": n, "cutoff": cutoff, "level": 0.01}
        result = cli._two_sampler_ks(values, {}, 5)
        rec = dickman.sample_dickman_recursion(
            gamma, dickman.recursion_depth(gamma), simulate.substream(5, 0), n)
        rec[rec < np.log(cutoff)] = -np.inf
        tail = catalog.build_model("dickman", {"gamma": gamma}).tail
        cp = simulate.sample_cutoff_cp(tail, cutoff, 1.0, simulate.substream(5, 1), n,
                                       out=np.empty(n))
        with np.errstate(divide="ignore"):
            log_cp = np.log(cp)
        assert result["statistic"] == montecarlo.two_sample_ks(rec, log_cp)

    def test_recursion_mean_matches_ndarray_statistics(self):
        n, gamma = 100_003, 2.0
        values = {"gamma": gamma, "n": n, "sigma_mult": 3.0}
        result = cli._recursion_mean(values, {}, 5)
        samples = np.exp(dickman.sample_dickman_recursion(
            gamma, dickman.recursion_depth(gamma), simulate.substream(5, 0), n))
        assert result["statistic"] == float(samples.mean())
        assert result["stderr"] == float(samples.std(ddof=1) / np.sqrt(n))


class TestFlagsAndOutputPaths:
    """Bad flags and output paths exit 2 naming the flag or field, with no traceback."""

    def test_neither_config_nor_list_exits_two(self, capsys):
        assert cli.main([]) == 2
        assert capsys.readouterr().err.strip().endswith("error: --config or --list required")

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_two(self, tmp_path, capsys, threads):
        # each exited 0 and ran one entry at a time
        cfg = write_config(tmp_path, {"experiments": [FIRST]})
        assert cli.main(["--config", cfg, "--out", str(tmp_path), "--threads", threads]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [
            f"config error at --threads: must be an integer in [1, 2**53], got {int(threads)}"]

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_out_that_cannot_be_a_directory_exits_two(self, tmp_path, capsys, sampler_calls, out):
        # an existing file exited 1 with a FileExistsError traceback
        (tmp_path / "file").write_text("")
        cfg = write_config(tmp_path, {"experiments": [FIRST]})
        assert cli.main(["--config", cfg, "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error at --out:"), err
        assert sampler_calls == []

    def test_out_that_cannot_be_written_exits_two_before_any_draw(
        self, tmp_path, capsys, sampler_calls, monkeypatch
    ):
        # a directory the process may not write into; a root process passes os.access anyway
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        cfg = write_config(tmp_path, {"experiments": [FIRST]})
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error at --out:"), err
        assert sampler_calls == []

    @pytest.mark.parametrize("taken", ["report.json", "curve.csv"])
    def test_output_file_that_cannot_be_written_exits_two(self, tmp_path, capsys, taken):
        # each exited 1 with an IsADirectoryError traceback
        out = tmp_path / "out"
        (out / taken).mkdir(parents=True)
        cfg = write_config(tmp_path, {"experiments": [{**FIRST, "csv": "curve.csv"}]})
        assert cli.main(["--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error at --out:") and taken in err[0], err

    @pytest.mark.parametrize("name", ["nodir/curve.csv", "../curve.csv", "/curve.csv", ".."])
    def test_csv_with_a_directory_part_exits_two(self, tmp_path, capsys, sampler_calls, name):
        # nodir/curve.csv exited 1 with a FileNotFoundError traceback, after the draw
        entry = {"kind": "pareto_limit", "model": GAMMA, "params": {"t_list": [0.1], "n": 10},
                 "csv": name}
        assert_exits_two_at(tmp_path, capsys, sampler_calls, entry, "csv")

    def test_csv_with_a_null_byte_exits_two(self, tmp_path, capsys, sampler_calls):
        # exited 1 with a ValueError traceback from open(), after the entry had drawn
        err = assert_exits_two_at(tmp_path, capsys, sampler_calls, {**FIRST, "csv": "a\u0000b.csv"},
                                  "csv")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "content", [b'{"experiments": [], "seed": "\xff"}', b"[" * 100_000 + b"]" * 100_000],
        ids=["not-utf8", "nested-past-the-recursion-limit"])
    def test_config_that_cannot_be_read_exits_two(self, tmp_path, capsys, content):
        # each exited 1 with a traceback: UnicodeDecodeError, and RecursionError from json.load
        path = tmp_path / "config.json"
        path.write_bytes(content)
        assert cli.main(["--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error at <file>: ") and "Traceback" not in err

    @pytest.mark.parametrize("n", [1e19, 1e30, 2**53 + 1])
    def test_count_past_two_to_the_53_exits_two_before_any_draw(
        self, tmp_path, capsys, sampler_calls, n
    ):
        # 1e19 and 1e30 exited 1 with "ValueError: Maximum allowed dimension exceeded"
        # from np.empty, which allocated nothing
        entry = {**FIRST, "params": {"t_list": [0.1], "n": n}}
        err = assert_exits_two_at(tmp_path, capsys, sampler_calls, entry, "params.n")
        assert "must be an integer in [1, 2**53]" in err and "Traceback" not in err
        assert core.COUNT.passes(2**53) and core.STD_COUNT.passes(2**53)


DICKMAN_RHO = {"kind": "dickman_rho", "params": {"z": 1.0}, "assertions": {"expected": 1.0}}


class TestFailedRunLeavesNoReport:
    """A run that exits 2 or 3 leaves no report.json in --out, not even an earlier run's."""

    @pytest.fixture
    def passed(self, tmp_path):
        """An --out that holds the report of a passing run, and nothing else."""
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"experiments": [DICKMAN_RHO]}, "pass.json")
        assert cli.main(["--config", cfg, "--out", str(out)]) == 0
        assert load_report(out)["all_pass"] is True
        assert os.listdir(out) == ["report.json"]
        return out

    @pytest.mark.parametrize("entry", [
        {**DICKMAN_RHO, "params": {"z": 99.0}},
        {"kind": "criterion", "model": {"name": "dickman", "params": {"gamma": 1.0}},
         "params": {"criterion": "S8", "grid": [4.0, -5.0, -21.0]}},
    ], ids=["refused-by-validation", "refused-while-running"])
    def test_exit_two(self, tmp_path, capsys, passed, entry):
        # each left the passing report in place
        cfg = write_config(tmp_path, {"experiments": [DICKMAN_RHO, entry]}, "fail.json")
        assert cli.main(["--config", cfg, "--out", str(passed)]) == 2
        assert "config error at experiments[1]" in capsys.readouterr().err
        assert os.listdir(passed) == []

    def test_exit_three(self, tmp_path, capsys, passed, loose_quad):
        # a NumericalFailure inside the second entry, after the first has run
        entry = {"kind": "ergodic", "model": GAMMA, "params": {"n": 1000}}
        cfg = write_config(tmp_path, {"experiments": [DICKMAN_RHO, entry]}, "fail.json")
        assert cli.main(["--config", cfg, "--out", str(passed)]) == 3
        assert "numerical failure in ergodic_target" in capsys.readouterr().err
        assert os.listdir(passed) == []

    def test_config_that_cannot_be_read(self, tmp_path, passed):
        assert cli.main(["--config", str(tmp_path / "missing.json"), "--out", str(passed)]) == 2
        assert os.listdir(passed) == []

    def test_report_cut_short_while_written(self, tmp_path, capsys, passed, monkeypatch):
        # the write fails after the report's first key, "all_pass", is out
        def dump_then_fail(obj, fh, **kwargs):
            fh.write('{\n  "all_pass": true,\n')
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(json, "dump", dump_then_fail)
        cfg = write_config(tmp_path, {"experiments": [DICKMAN_RHO]}, "pass.json")
        assert cli.main(["--config", cfg, "--out", str(passed)]) == 2
        assert capsys.readouterr().err.startswith("config error at --out:")
        assert os.listdir(passed) == []


def tilts(depth):
    """The text of a model expression of depth tilts over GAMMA."""
    return '{"transform": "tilt", "theta": 0.5, "of": ' * depth + json.dumps(GAMMA) + "}" * depth


class TestTransformExpressions:
    def test_expression_nested_past_its_bound_exits_two(self, tmp_path):
        # 980 tilts loaded, then raised RecursionError while the entry was built or run
        # (950 ran); in a child process, so that the test's own frames do not count
        cfg = tmp_path / "deep.json"
        cfg.write_text('{"experiments": [{"kind": "criterion", "model": ' + tilts(980) + "}]}")
        proc = subprocess.run(
            [sys.executable, "-m", "subordlab.cli", "--config", str(cfg), "--out", str(tmp_path)],
            capture_output=True, text=True)
        path = "experiments[0].model" + ".of" * cli.MAX_NESTING
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"config error at {path}: a model expression nests at most "
                                      f"{cli.MAX_NESTING} transforms")
        assert "Traceback" not in proc.stderr

    def test_expression_at_its_bound_builds(self):
        model = cli.build_model_expr(json.loads(tilts(cli.MAX_NESTING)))
        assert model.describe().count("tilt") == cli.MAX_NESTING

    def test_nested_expression_builds(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "seed": 2,
                "experiments": [
                    {
                        "kind": "criterion",
                        "model": {
                            "transform": "tilt",
                            "theta": 0.5,
                            "of": {
                                "transform": "add",
                                "of": [
                                    {"name": "gamma", "params": {"gamma": 1.0, "lam": 1.0}},
                                    {"name": "dickman", "params": {"gamma": 1.0}},
                                ],
                            },
                        },
                        "params": {"criterion": "S5"},
                        "assertions": {"expected_gamma": 2.0, "tol": 0.02},
                    }
                ],
            },
        )
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 0

    def test_criteria_recovery_on_tilted_gamma(self, tmp_path):
        # estimate_all runs S7 on the tilted tail down to x = 1e-12
        entry = {"kind": "criteria_recovery", "model": {"transform": "tilt", "theta": 0.5, "of": GAMMA},
                 "assertions": {"expected_gamma": 1.0, "tol": 0.02}}
        code, report = cli.run(write_config(tmp_path, {"experiments": [entry]}),
                               out_dir=str(tmp_path))
        assert code == 0 and report["all_pass"] is True
        assert sorted(report["results"][0]["estimates"]) == ["S5", "S7"]


# an entry of each kind that draws through sample_marginal, but for its model
EXACT_DRAW_ENTRIES = {
    "pareto_limit": {"params": {"t_list": [0.1], "n": 100, "gamma": 1.0}},
    "general_limit": {"params": {"gamma": 1.0, "t_list": [0.01], "n": 100}},
    "min_rule": {"model2": GAMMA, "params": {"n": 100}},
    "product_rule": {"model2": GAMMA, "params": {"n": 100}},
    "affine": {"params": {"a": 2.0, "b": 4.0, "n": 100}},
    "mixture": {"params": {"q": 0.3, "n": 100}},
    "drift": {"params": {"n": 100}},
    "support": {"params": {"n": 100}},
}
# the stub as the model, as a part of add, and under drift, which clears the
# known index that min_rule, product_rule, affine and mixture read
EXACT_DRAW_CASES = [
    *((kind, placement) for kind in EXACT_DRAW_ENTRIES for placement in ("leaf", "add")),
    *((kind, "drift") for kind in ("pareto_limit", "general_limit", "drift", "support")),
]


class TestNumericalFailureExit:
    def test_exit_three_names_failing_op(self, tmp_path, capsys):
        # a CDF that underflows to zero on the whole probe grid cannot be
        # extrapolated; the estimator reports a numerical failure
        cfg = write_config(
            tmp_path,
            {"experiments": [{
                "kind": "criterion",
                "model": {"name": "weibull", "params": {"gamma": 200.0}},
                "params": {"criterion": "S6"},
                "assertions": {"expected_gamma": 200.0},
            }]},
        )
        code = cli.main(["--config", cfg, "--out", str(tmp_path)])
        assert code == 3
        assert "estimate_gamma_s6" in capsys.readouterr().err

    def test_s6_grid_left_with_one_point_exits_three(self, tmp_path, capsys):
        # the underflow shrank the grid to log x = -0.5, and the one-point fit
        # read gamma_hat 8.0, converged: exit 0 at tol 100
        entry = {"kind": "criterion", "model": {"name": "weibull", "params": {"gamma": 40}},
                 "params": {"criterion": "S6", "grid": [-0.5, -25.0]},
                 "assertions": {"expected_gamma": 40, "tol": 100}}
        cfg = write_config(tmp_path, {"experiments": [entry]})
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 3
        assert "numerical failure in estimate_gamma_s6" in capsys.readouterr().err

    def test_ergodic_target_past_tolerance_exits_three(self, tmp_path, capsys, loose_quad):
        entry = {"kind": "ergodic", "model": GAMMA, "params": {"n": 1000}}
        cfg = write_config(tmp_path, {"experiments": [entry]})
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure in ergodic_target:"), err

    def test_ergodic_target_past_float_range_exits_three(self, tmp_path, capsys):
        # the target is about E1(0.75 lam) = 690, nearly all of it past 100, where
        # QAGI cannot meet the tolerance; cut at 100, it read 5.08 and gated against that
        model = {"name": "gamma", "params": {"gamma": 1.0, "lam": 1e-300}}
        entry = {"kind": "ergodic", "model": model, "params": {"n": 1000}}
        cfg = write_config(tmp_path, {"experiments": [entry]})
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure in ergodic_target:"), err

    def test_log_power_exponent_past_float_range_exits_three(self, tmp_path, capsys):
        # log s = log(u)/t reaches 2.2e199, whose cube ended in an OverflowError traceback
        model = {"name": "log_power", "params": {"gamma": 0.1, "power": 3}}
        entry = {"kind": "s2", "model": model, "params": {"gamma": 0.1, "t_grid": [1e-200]}}
        cfg = write_config(tmp_path, {"experiments": [entry]})
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure in log_power_phi:"), err

    @pytest.mark.parametrize("log_y", [-np.inf, np.inf, np.nan], ids=["y=0", "y=inf", "nan"])
    @pytest.mark.parametrize("kind,placement", EXACT_DRAW_CASES)
    def test_exact_sampler_at_infinity_exits_three(
        self, tmp_path, capsys, monkeypatch, kind, placement, log_y
    ):
        # an exact draw is checked where it is drawn, in every kind and in every
        # part of add and drift: at -inf, general_limit, min_rule, product_rule,
        # affine and drift exited 0, affine's logaddexp hiding the -inf
        stub = replace(catalog.make_gamma(1.0, 1.0),
                       log_sampler=lambda t, n, rng: np.full(n, log_y))
        monkeypatch.setitem(catalog.CATALOG, "stub", core.declares("stub")(lambda: stub))
        model = {"name": "stub"}
        if placement == "add":
            model = {"transform": "add", "of": [model, GAMMA]}
        elif placement == "drift":
            model = {"transform": "drift", "c": 1.0, "of": model}
        entry = {**EXACT_DRAW_ENTRIES[kind], "kind": kind, "model": model}
        cfg = write_config(tmp_path, {"experiments": [FIRST, entry]})
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure in experiments[1]:"), err
        assert "exact sampler of stub" in err[0]

    def test_batch_past_the_address_space_exits_three(self, tmp_path, capsys):
        # 10**15 floats (7.1 PiB) exceed any address space, so the allocation
        # fails before any memory is touched; it exited 1 with a traceback
        entry = {"kind": "support", "model": GAMMA, "params": {"n": 10**15}}
        cfg = write_config(tmp_path, {"experiments": [FIRST, entry]})
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure in experiments[1]:"), err


def test_bundled_acceptance_config_exists():
    path = cli.default_acceptance_config()
    assert os.path.exists(path)
    with open(path) as fh:
        payload = json.load(fh)
    assert payload["experiments"]


def test_readme_config_is_valid():
    root = os.path.join(os.path.dirname(__file__), "..")
    with open(os.path.join(root, "README.md")) as fh:
        config = json.loads(fh.read().split("```json\n", 1)[1].split("```", 1)[0])
    assert len(cli.validate_config(config)) == len(config["experiments"])


def test_readme_example_runs():
    # the README's python block, run as written: it fails when a name it uses goes
    root = os.path.join(os.path.dirname(__file__), "..")
    with open(os.path.join(root, "README.md")) as fh:
        code = fh.read().split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
