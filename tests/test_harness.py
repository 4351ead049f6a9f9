import argparse
import functools
import hashlib
import json
import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpkf import cli, harness, kalman, objectives, privacy, theory
from dpkf.cli import main as cli_main
from dpkf.disk import DiskConfig, FullFilterConfig
from dpkf.harness import (
    COMPARISON_HEADER,
    SWEEP_HEADER,
    TRACE_HEADER,
    ExperimentConfig,
    aggregate_comparison,
    compare_filters,
    comparison_noise_levels,
    emit_comparison,
    emit_sweep,
    emit_trace,
    read_trace_csv,
    resolve_optimizer,
    run_experiment,
    sweep_kappa_gamma,
)
from dpkf.objectives import EVAL_BLOCK, LinearRegression
from dpkf.privacy import PrivacyError, compose_and_convert, subsampled_curve
import reference_methods as ref
from test_golden import CALIBRATE_COMMANDS, CALIBRATE_GOLDEN, FULLKF, SMALL_FULLKF


def logistic_raw(**overrides):
    raw = {
        "seed": 1,
        "objective": {"kind": "logistic-regression", "n": 120, "p": 6},
        "algorithm": "disk",
        "optimizer": {
            "kappa": 0.7, "gamma": 0.5, "eta": 0.2, "clip": 1.0,
            "clip_variant": "automatic", "sigma_dp": 0.05,
        },
        "T": 25,
        "B": 24,
    }
    raw.update(overrides)
    return raw


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def test_config_requires_exactly_one_noise_source():
    with pytest.raises(ValueError, match="exactly one"):
        raw = logistic_raw(privacy={"epsilon": 2.0})
        ExperimentConfig.from_dict(raw)  # sigma_dp and a target together
    raw = logistic_raw()
    del raw["optimizer"]["sigma_dp"]
    with pytest.raises(ValueError, match="exactly one"):
        ExperimentConfig.from_dict(raw)  # neither


def test_config_rejects_privacy_target_for_noisy_gd():
    raw = logistic_raw(algorithm="noisy-gd", privacy={"epsilon": 2.0})
    del raw["optimizer"]["sigma_dp"]
    with pytest.raises(
        PrivacyError, match="^noisy-gd takes an explicit sigma_dp, not a privacy target$"
    ):
        ExperimentConfig.from_dict(raw)


def test_config_rejects_empty_seeds():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(logistic_raw(seeds=[]))


def target_raw(**privacy):
    raw = logistic_raw(privacy=privacy)
    del raw["optimizer"]["sigma_dp"]
    return raw


def optimizer_raw(**change):
    raw = logistic_raw()
    raw["optimizer"] = {**raw["optimizer"], **change}
    return raw


@pytest.mark.parametrize(
    "raw, error, match",
    [
        (target_raw(epsilon=math.nan), PrivacyError, "epsilon must be finite"),
        (target_raw(epsilon=math.inf), PrivacyError, "epsilon must be finite"),
        (target_raw(epsilon=-1.0), PrivacyError, "epsilon must be finite and > 0"),
        (target_raw(epsilon=2.0, delta=math.nan), PrivacyError, "delta must lie in"),
        (target_raw(epsilon=2.0, delta=math.inf), PrivacyError, "delta must lie in"),
        (logistic_raw(privacy={"delta": 1.5}), PrivacyError, "delta must lie in"),
        (logistic_raw(init_scale=math.nan), ValueError, "init_scale must be finite"),
        (logistic_raw(init_scale=math.inf), ValueError, "init_scale must be finite"),
        (logistic_raw(init_scale=0.0), ValueError, "init_scale must be finite and > 0"),
        (logistic_raw(init_scale=-1.0), ValueError, "init_scale must be finite and > 0"),
        (logistic_raw(objective={"kind": "mlp", "n": 60, "p": 4, "hiden": 8}),
         ValueError, r"objective 'mlp' has unknown keys \['hiden'\]"),
        (logistic_raw(objective={"kind": "logistic-regression", "n": 60, "p": 4,
                                 "noise_std": 0.1}),
         ValueError, r"unknown keys \['noise_std'\]"),
        (logistic_raw(objective={"kind": "quadratic", "dim": 3, "p": 3}),
         ValueError, r"unknown keys \['p'\]"),
        (logistic_raw(objective={"kind": "lasso", "n": 60, "p": 4}),
         ValueError, "unknown objective kind: 'lasso'"),
        (logistic_raw(objective={"n": 60, "p": 4}), ValueError, "unknown objective kind: None"),
        (target_raw(epsilon=2.0, detla=1e-3), ValueError,
         r"privacy has unknown keys \['detla'\]; allowed: \['delta', 'epsilon'\]"),
        (logistic_raw(init_sclae=2.0), ValueError, r"config has unknown keys \['init_sclae'\]"),
        ({k: v for k, v in logistic_raw().items() if k != "objective"}, TypeError,
         "missing 1 required positional argument: 'objective'"),
        (logistic_raw(objective={"kind": "quadratic", "dim": 3, "eigenvalues": [1.0, 2.0]}),
         ValueError, r"objective eigenvalues must hold dim = 3 values, got shape \(2,\)"),
        (logistic_raw(objective={"kind": "quadratic", "dim": 2, "x_star": [0.0, 1.0, 2.0]}),
         ValueError, r"objective x_star must hold dim = 2 values, got shape \(3,\)"),
        (logistic_raw(objective={"kind": "quadratic", "eigenvalues": [1.0, 2.0]}),
         ValueError, "objective 'quadratic' needs the key 'dim'"),
        (logistic_raw(objective={"kind": "logistic-regression", "n": 60.5, "p": 4}),
         ValueError, "objective n must be an integer >= 1, got 60.5"),
        (logistic_raw(objective={"kind": "mlp", "n": 60, "p": 4, "hidden": 2.5}),
         ValueError, "objective hidden must be an integer >= 1, got 2.5"),
        (logistic_raw(objective={"kind": "linear-regression", "n": 60, "p": "4"}),
         ValueError, "objective p must be an integer >= 1, got '4'"),
        (logistic_raw(objective={"kind": "quadratic", "dim": 0}),
         ValueError, "objective dim must be an integer >= 1, got 0"),
        (logistic_raw(optimizer={"base": "adam", "betas": [0.9], "sigma_dp": 0.05}),
         ValueError, r"betas must be two values in \[0, 1\), got \(0.9,\)"),
        (logistic_raw(optimizer={"base": "adam", "betas": [1.0, 0.999], "sigma_dp": 0.05}),
         ValueError, r"betas must be two values in \[0, 1\), got \(1.0, 0.999\)"),
        (dict(target_raw(epsilon=2.0), optimizer={"clip_variant": "none", "clip": None}),
         PrivacyError, "^disk takes an explicit sigma_dp, not a privacy target$"),
        (logistic_raw(objective={"kind": "quadratic", "dim": 2, "eigenvalues": [math.nan, 1.0]}),
         ValueError, r"^objective eigenvalues must be finite, got \[nan, 1.0\]$"),
        (logistic_raw(objective={"kind": "quadratic", "dim": 2, "x_star": [0.0, math.inf]}),
         ValueError, r"^objective x_star must be finite, got \[0.0, inf\]$"),
        (logistic_raw(objective={"kind": "quadratic", "dim": 2, "eigenvalues": [-1.0, 1.0]}),
         ValueError, r"^objective eigenvalues must be >= 0, got \[-1.0, 1.0\]$"),
        # a float setting takes an int or a float, never a bool; only clip,
        # epsilon and delta may be null
        (optimizer_raw(kappa=True), ValueError, "^kappa must be a number, got True$"),
        (optimizer_raw(gamma="x"), ValueError, "^gamma must be a number, got 'x'$"),
        (optimizer_raw(eta=None), ValueError, "^eta must be a number, got None$"),
        (optimizer_raw(clip=True), ValueError, "^clip must be a number, got True$"),
        (optimizer_raw(sigma_dp=True), ValueError, "^sigma_dp must be a number, got True$"),
        (optimizer_raw(eps_adam=True), ValueError, "^eps_adam must be a number, got True$"),
        (logistic_raw(algorithm="full-kf", full_filter={"gamma": None}),
         ValueError, "^gamma must be a number, got None$"),
        (logistic_raw(algorithm="full-kf", full_filter={"gamma": "x"}),
         ValueError, "^gamma must be a number, got 'x'$"),
        (logistic_raw(full_filter={"sigma_w_sq": True}),
         ValueError, "^sigma_w_sq must be a number, got True$"),
        (target_raw(epsilon=True), ValueError, "^epsilon must be a number, got True$"),
        (target_raw(epsilon=2.0, delta="0.1"), ValueError, "^delta must be a number, got '0.1'$"),
        (logistic_raw(init_scale=True), ValueError, "^init_scale must be a number, got True$"),
        (logistic_raw(sigma_sgd_sq=True), ValueError, "^sigma_sgd_sq must be a number, got True$"),
        # a section is a mapping of known keys, and two_point and outdir have one type
        (optimizer_raw(kapa=0.5), ValueError,
         r"^optimizer has unknown keys \['kapa'\]; allowed: \['base', 'betas', 'clip', "),
        (logistic_raw(optimizer=[0.5]), ValueError, r"^optimizer must be a mapping, got \[0.5\]$"),
        (logistic_raw(privacy=[2.0]), ValueError, r"^privacy must be a mapping, got \[2.0\]$"),
        (logistic_raw(full_filter=[]), ValueError, r"^full_filter must be a mapping, got \[\]$"),
        (logistic_raw(objective=5), ValueError, "^objective must be a mapping, got 5$"),
        (logistic_raw(objective=["mlp"]), ValueError, r"^objective must be a mapping, got \['mlp'\]$"),
        (optimizer_raw(two_point="false"), ValueError, "^two_point must be a bool, got 'false'$"),
        (logistic_raw(outdir=5), ValueError, "^outdir must be a string, got 5$"),
    ],
)
def test_config_rejects_bad_boundary_values(raw, error, match):
    with pytest.raises(error, match=match):
        ExperimentConfig.from_dict(raw)


def test_config_takes_ints_for_float_settings_and_null_where_allowed():
    raw = optimizer_raw(kappa=1, gamma=-1, eta=1, clip=None, clip_variant="none")
    raw.update(algorithm="full-kf", full_filter={"gamma": 2, "sigma_w_sq": 1}, init_scale=2,
               sigma_sgd_sq=0, privacy={"epsilon": None, "delta": None})
    cfg = ExperimentConfig.from_dict(raw)
    assert (cfg.optimizer.kappa, cfg.optimizer.clip, cfg.full_filter.gamma) == (1, None, 2)
    assert (cfg.epsilon_target, cfg.delta, cfg.init_scale) == (None, None, 2)


def test_config_reads_a_null_section_as_empty():
    cfg = ExperimentConfig.from_dict(dict(target_raw(epsilon=2.0), optimizer=None, full_filter=None))
    assert (cfg.optimizer, cfg.full_filter) == (DiskConfig(), FullFilterConfig())


def test_config_accepts_the_keys_bounds_reads():
    cfg = ExperimentConfig.from_dict(logistic_raw(f_star_steps=10, sigma_sgd_sq=0.1))
    assert (cfg.T, cfg.f_star_steps, cfg.sigma_sgd_sq) == (25, 10, 0.1)


def test_config_accepts_every_objective_key():
    for objective in (
        {"kind": "quadratic", "dim": 2, "eigenvalues": [1.0, 2.0], "x_star": [0.0, 1.0], "n": 4},
        {"kind": "linear-regression", "n": 8, "p": 2, "noise_std": 0.2},
        {"kind": "logistic-regression", "n": 8, "p": 2},
        {"kind": "mlp", "n": 8, "p": 2, "noise_std": 0.2, "hidden": 3},
    ):
        cfg = ExperimentConfig.from_dict(logistic_raw(objective=objective, B=4, T=2))
        assert len(run_experiment(cfg).records) == 2


@pytest.mark.parametrize("noise_std", [True, "x", None, math.nan, math.inf, -1.0])
def test_config_refuses_a_bad_noise_std(noise_std):
    objective = {"kind": "linear-regression", "n": 30, "p": 3, "noise_std": noise_std}
    message = f"objective noise_std must be a finite number >= 0, got {noise_std!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig.from_dict(logistic_raw(objective=objective))


def test_build_problem_makes_every_kind_through_make_objective(monkeypatch):
    problems = {
        "quadratic": {"kind": "quadratic", "dim": 2, "n": 8},
        "linear-regression": {"kind": "linear-regression", "n": 8, "p": 2},
        "logistic-regression": {"kind": "logistic-regression", "n": 8, "p": 2},
        "mlp": {"kind": "mlp", "n": 8, "p": 2, "hidden": 3},
    }
    assert set(problems) == set(harness.OBJECTIVE_KEYS)
    made = []

    def spy(kind, dim, **kwargs):
        made.append(kind)
        return objectives.make_objective(kind, dim, **kwargs)

    monkeypatch.setattr(harness, "make_objective", spy)
    for kind, problem in problems.items():
        obj, ds = harness.build_problem(problem, seed=0)
        assert made[-1] == kind
        assert type(obj) is type(objectives.make_objective(kind, 2, hidden=3))
        assert ds.n == 8
    assert made == list(problems)


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------


def test_trace_has_length_T_and_monotone_epsilon():
    cfg = ExperimentConfig.from_dict(logistic_raw())
    trace = run_experiment(cfg)
    assert len(trace.records) == cfg.T
    eps = [r.epsilon_spent for r in trace.records]
    assert all(b >= a for a, b in zip(eps, eps[1:]))
    assert all(math.isfinite(e) for e in eps)


def test_noise_free_descent_reduces_loss():
    raw = logistic_raw(
        objective={"kind": "quadratic", "dim": 5, "eigenvalues": [0.5, 0.8, 1.1, 1.4, 1.7]},
        optimizer={"kappa": 1.0, "gamma": 0.5, "eta": 0.5, "clip_variant": "none",
                   "clip": None, "sigma_dp": 0.0},
        B=1, T=40,
    )
    trace = run_experiment(ExperimentConfig.from_dict(raw))
    assert trace.final_loss < trace.loss0


def test_disk_kappa_one_reproduces_dpsgd_trace():
    raw = logistic_raw()
    raw["optimizer"]["kappa"] = 1.0
    t_disk = run_experiment(ExperimentConfig.from_dict(dict(raw, algorithm="disk")))
    t_dpsgd = run_experiment(ExperimentConfig.from_dict(dict(raw, algorithm="dpsgd")))
    assert all(a.loss == b.loss for a, b in zip(t_disk.records, t_dpsgd.records))
    assert all(
        a.filtered_grad_norm == b.filtered_grad_norm
        for a, b in zip(t_disk.records, t_dpsgd.records)
    )


def test_privacy_target_calibration_and_bookkeeping():
    raw = logistic_raw(privacy={"epsilon": 4.0})
    del raw["optimizer"]["sigma_dp"]
    cfg = ExperimentConfig.from_dict(raw)
    trace = run_experiment(cfg)
    assert trace.epsilon_total == pytest.approx(4.0, abs=1e-3)
    # reported spend equals an independent composition of the run parameters
    opt, delta, q = resolve_optimizer(cfg, 120)
    z = opt.sigma_dp * cfg.B / opt.clip
    direct = compose_and_convert(subsampled_curve(q, z), cfg.T, delta)
    assert abs(direct - trace.epsilon_total) <= 1e-9


@pytest.mark.parametrize("epsilon", [math.nan, math.inf])
def test_run_rejects_non_finite_privacy_target(epsilon):
    raw = logistic_raw(privacy={"epsilon": epsilon})
    del raw["optimizer"]["sigma_dp"]
    with pytest.raises(PrivacyError, match="epsilon must be finite"):
        ExperimentConfig.from_dict(raw)  # before any run starts


def test_normalized_clip_epsilon_uses_unit_sensitivity():
    # normalized clipping caps row norms at 1, so z = sigma_dp * B whatever C is
    raw = logistic_raw()
    raw["optimizer"].update(clip_variant="normalized", clip=0.1)
    cfg = ExperimentConfig.from_dict(raw)
    trace = run_experiment(cfg)
    opt, delta, q = resolve_optimizer(cfg, 120)
    z = raw["optimizer"]["sigma_dp"] * cfg.B
    direct = compose_and_convert(subsampled_curve(q, z), cfg.T, delta)
    assert abs(direct - trace.epsilon_total) <= 1e-9


def test_normalized_clip_target_calibrates_for_unit_sensitivity():
    raw = logistic_raw(privacy={"epsilon": 4.0})
    del raw["optimizer"]["sigma_dp"]
    raw["optimizer"].update(clip_variant="normalized", clip=0.1)
    cfg = ExperimentConfig.from_dict(raw)
    opt, delta, q = resolve_optimizer(cfg, 120)
    direct = compose_and_convert(subsampled_curve(q, opt.sigma_dp * cfg.B), cfg.T, delta)
    assert direct == pytest.approx(4.0, abs=1e-3)
    assert run_experiment(cfg).epsilon_total == pytest.approx(4.0, abs=1e-3)


def test_privacy_target_requires_clipping():
    raw = logistic_raw(privacy={"epsilon": 4.0})
    del raw["optimizer"]["sigma_dp"]
    raw["optimizer"]["clip_variant"] = "none"
    raw["optimizer"]["clip"] = None
    with pytest.raises(PrivacyError):
        run_experiment(ExperimentConfig.from_dict(raw))


def test_unclipped_run_reports_infinite_epsilon():
    raw = logistic_raw()
    raw["optimizer"].update(clip_variant="none", clip=None)
    trace = run_experiment(ExperimentConfig.from_dict(raw))
    assert math.isinf(trace.epsilon_total)


def test_full_filter_algorithm_runs():
    raw = logistic_raw(
        objective={"kind": "quadratic", "dim": 4, "eigenvalues": [0.5, 1.0, 1.5, 2.0]},
        algorithm="full-kf", B=1, T=15,
        optimizer={"eta": 0.3, "sigma_dp": 0.1, "clip": None, "clip_variant": "none"},
        full_filter={"sigma_w_sq": 0.5},
    )
    trace = run_experiment(ExperimentConfig.from_dict(raw))
    assert len(trace.records) == 15
    assert trace.final_loss < trace.loss0


def fullkf_raw(**optimizer):
    return logistic_raw(
        objective={"kind": "linear-regression", "n": 60, "p": 4},
        algorithm="full-kf", B=20, T=10,
        optimizer=dict(eta=0.05, clip=1.0, clip_variant="standard", **optimizer),
    )


def test_full_filter_noise_and_clip_come_from_optimizer():
    noisy = run_experiment(ExperimentConfig.from_dict(fullkf_raw(sigma_dp=0.5)))
    quiet = run_experiment(ExperimentConfig.from_dict(fullkf_raw(sigma_dp=0.0)))
    assert math.isfinite(noisy.epsilon_total)
    assert math.isinf(quiet.epsilon_total)
    assert [r.loss for r in noisy.records] != [r.loss for r in quiet.records]


def test_full_filter_section_may_repeat_matching_optimizer_keys():
    raw = fullkf_raw(sigma_dp=0.5)
    plain = run_experiment(ExperimentConfig.from_dict(raw))
    repeated = dict(raw, full_filter=dict(raw["optimizer"], sigma_w_sq=1.0))
    again = run_experiment(ExperimentConfig.from_dict(repeated))
    assert [r.loss for r in again.records] == [r.loss for r in plain.records]


@pytest.mark.parametrize(
    "key, value",
    [("eta", 0.1), ("clip", 2.0), ("clip_variant", "none"), ("sigma_dp", 0.1),
     ("base", "adam")],
)
def test_full_filter_section_rejects_disagreeing_optimizer_key(key, value):
    raw = fullkf_raw(sigma_dp=0.5)
    raw["full_filter"] = {key: value}
    with pytest.raises(ValueError, match=f"full_filter.{key}"):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize(
    "section, match",
    [
        ({"hessian_mode": "fd"}, r"full_filter has unknown keys \['hessian_mode'\]; allowed: \["),
        ({"sigma_w": 1.0, "gama": 0.1}, r"unknown keys \['gama', 'sigma_w'\]; allowed: .*'sigma_w_sq'"),
        ({"sigma_w_sq": 0.0, "sigma_v_sq": 0.0}, r"need sigma_w\^2 \+ sigma_v\^2 > 0"),
    ],
    ids=["hessian-mode", "misspelt", "zero-gain-denominator"],
)
def test_full_filter_section_rejected_when_the_config_is_built(section, match):
    raw = dict(fullkf_raw(sigma_dp=0.5), full_filter=section)
    with pytest.raises(ValueError, match=match):
        ExperimentConfig.from_dict(raw)


def test_full_kf_meets_a_privacy_target():
    raw = fullkf_raw()
    raw["privacy"] = {"epsilon": 3.0}
    trace = run_experiment(ExperimentConfig.from_dict(raw))
    assert trace.epsilon_total == pytest.approx(3.0, abs=1e-3)


def test_run_deterministic_per_seed():
    cfg = ExperimentConfig.from_dict(logistic_raw())
    a = run_experiment(replace(cfg, seeds=(3,)))
    b = run_experiment(replace(cfg, seeds=(3,)))
    c = run_experiment(replace(cfg, seeds=(4,)))
    assert [r.loss for r in a.records] == [r.loss for r in b.records]
    assert [r.loss for r in a.records] != [r.loss for r in c.records]


# ---------------------------------------------------------------------------
# filter comparison
# ---------------------------------------------------------------------------


def test_compare_filters_converge_together_without_noise():
    rows = compare_filters(noise_levels=[0.0], seeds=(0,), n=200, p=8, T=300)
    losses = {r.method: r.final_loss for r in rows}
    assert len(losses) == 3
    spread = max(losses.values()) - min(losses.values())
    assert spread <= 1e-6


def test_compare_filters_row_count_and_ordering():
    levels = comparison_noise_levels(objectives.gen_linear_regression(300, 10, 0.1, 0))[:3]
    rows = compare_filters(noise_levels=levels, seeds=(0,), n=300, p=10, T=150)
    assert len(rows) == len(levels) * 3
    agg = aggregate_comparison(rows)
    for lvl in levels:
        assert agg[(lvl, "noisy-kf")] <= agg[(lvl, "noisy-gd")]
        assert agg[(lvl, "noisy-kf")] <= agg[(lvl, "noisy-lp")]


def comparison_bytes(rows):
    return [(repr(r.sigma_dp), r.method, r.seed, r.final_loss.hex()) for r in rows]


@pytest.mark.parametrize("levels, seeds, p, kappa", [
    ([0.05, 0.5], (0, 1), 4, 0.6),
    ([0.05, 0.0, 0.3, 0.05, 0.0], (3,), 5, 0.6),  # duplicates and levels of 0
    ([0.01 * (i + 1) for i in range(EVAL_BLOCK + 3)], (0, 2), 6, 0.6),  # more than a block
    ([0.2 * (i + 1) for i in range(5)] + [0.0], (1,), 5, 0.6),  # k = p nonzero levels
    (None, (4, 5), 3, 0.6),  # the relative grid of the first seed
    ([0.0, 0.05, 0.5], (0, 1), 4, 1.0),  # every row at kappa 1 and a = 0
    ([0.3, 0.0, 0.05], (2,), 5, 0.25),  # a = -3 on the noisy-kf rows
    ([0.0, 0.05, 0.5], (0, 1, 2), 1, 0.6),  # three seeds at p = 1, a level of 0 among them
    ([0.0, 0.0], (0, 1), 4, 0.6),  # every level 0: every noise row -0.0
    ([-0.0, 0.05, 0.0], (1, 2), 1, 0.6),  # a level of -0.0, and 0.0 as its duplicate
], ids=["benchmark-levels", "duplicates-and-zeros", "past-a-block", "k-equals-p", "default",
        "kappa-1", "kappa-0.25", "three-seeds-p1", "all-zero", "minus-zero"])
def test_compare_filters_equals_the_per_run_oracle(levels, seeds, p, kappa):
    """Stepping every seed's methods and levels as one stack, on one draw of
    each (seed, level)'s noise, gives each row the bytes of its own run in the
    per-run loop, in its order; a duplicated level, levels of 0 and -0.0, and
    levels that are all 0 included."""
    got = compare_filters(noise_levels=levels, seeds=seeds, n=50, p=p, T=12, kappa=kappa)
    want = ref.compare_filters_reference(noise_levels=levels, seeds=seeds, n=50, p=p, T=12, kappa=kappa)
    assert comparison_bytes(got) == comparison_bytes(want)


def test_compare_filters_op_steps_each_seed_and_method_once_a_step(tmp_path, monkeypatch, capsys):
    """A compare-filters op steps each seed and method once a step: T steps,
    each one stack of every seed and method at every level, a level of 0
    included, and each level's noise rows taken once a seed. At the
    benchmark's levels that is a 12-row stack; with a level of 0 too, 18."""
    steps, draws = [], []
    real_step, real_blocks = harness.disk_step, harness.noise_blocks

    def counted_step(state, *args, **kwargs):
        steps.append(state.x.shape)
        return real_step(state, *args, **kwargs)

    def counted_blocks(rng, sigma, d, T):
        draws.append(sigma)
        return real_blocks(rng, sigma, d, T)

    monkeypatch.setattr(harness, "disk_step", counted_step)
    monkeypatch.setattr(harness, "noise_blocks", counted_blocks)
    for levels, rows in (([0.05, 0.5], 12), ([0.0, 0.05, 0.5], 18)):
        steps.clear()
        draws.clear()
        assert cli_main(["compare-filters", "--seeds", "4,5", "--noise-levels", ",".join(map(str, levels)),
                         "--n", "40", "--p", "3", "--T", "7", "--outdir", str(tmp_path)]) == 0
        assert steps == [(rows, 3)] * 7
        assert draws == levels * 2


def test_compare_filters_refuses_a_level_whose_noise_overflows():
    with pytest.raises(ValueError, match=r"^sigma = 1e\+308 overflows"):
        compare_filters(noise_levels=[0.1, 1e308], seeds=(0,), n=20, p=2, T=64)


def test_full_batch_linear_regression_steps_observe_from_gram_statistics(monkeypatch):
    """Unclipped full-batch linear-regression steps form no per-row
    coefficients; clipped full-batch and minibatch steps still do."""
    factored = LinearRegression.grad_factors

    def refuse(*args, **kwargs):
        raise AssertionError("a full-batch step formed per-row coefficients")

    monkeypatch.setattr(LinearRegression, "grad_factors", refuse)
    rows = compare_filters(noise_levels=[0.0, 0.1], seeds=(0, 1), n=30, p=3, T=5)
    assert len(rows) == 12 and all(math.isfinite(r.final_loss) for r in rows)
    raw = {
        "seed": 2, "objective": {"kind": "linear-regression", "n": 30, "p": 3},
        "algorithm": "noisy-gd", "optimizer": {"eta": 0.1, "sigma_dp": 0.1}, "T": 5, "B": 30,
    }
    clipped = {"clip": 1.0, "clip_variant": "standard", "sigma_dp": 0.1, "eta": 0.1}
    unclipped = dict(clipped, clip=None, clip_variant="none")
    # noisy-gd is full batch; disk at B = n is too
    for cfg in (raw, dict(raw, algorithm="disk", optimizer=unclipped)):
        assert math.isfinite(run_experiment(ExperimentConfig.from_dict(cfg)).final_loss)

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return factored(*args, **kwargs)

    monkeypatch.setattr(LinearRegression, "grad_factors", counted)
    for opt, algorithm, B in ((clipped, "disk", 30), (clipped, "noisy-kf", 10),
                              (clipped, "dpsgd", 10), (unclipped, "disk", 10)):
        calls.clear()
        run_experiment(ExperimentConfig.from_dict(dict(raw, algorithm=algorithm, optimizer=opt, B=B)))
        assert len(calls) == raw["T"], (algorithm, B)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def counted_sweep(monkeypatch, kappas, gammas, cfg):
    """The sweep's matrix and the (seed, kappa, gamma) of every run it
    stepped, a row of its seed's stack each."""
    runs = []
    trajectory = harness._trajectory

    def counted(cfg, opt, seed, problem, cells=None):
        runs.extend((seed, kappa, gamma) for kappa, gamma in cells or [(opt.kappa, opt.gamma)])
        return trajectory(cfg, opt, seed, problem, cells)

    monkeypatch.setattr(harness, "_trajectory", counted)
    return sweep_kappa_gamma(kappas, gammas, cfg), runs


def cell_by_cell(kappas, gammas, cfg):
    """The seed mean of ``run_experiment``'s final loss at every cell."""
    def cell(kappa, gamma):
        cell_cfg = replace(cfg, optimizer=replace(cfg.optimizer, kappa=kappa, gamma=gamma))
        return float(np.mean([run_experiment(replace(cell_cfg, seeds=(s,))).final_loss for s in cfg.seeds]))

    return [[cell(k, g) for g in gammas] for k in kappas]


def test_sweep_single_cell_equals_single_run():
    raw = logistic_raw(seeds=[2])
    cfg = ExperimentConfig.from_dict(raw)
    matrix = sweep_kappa_gamma([0.7], [0.5], cfg)
    assert len(matrix) == 1 and len(matrix[0]) == 1
    single = run_experiment(cfg)
    assert matrix[0][0] == pytest.approx(single.final_loss)


def test_sweep_kappa_one_row_matches_dpsgd_baseline():
    raw = logistic_raw(seeds=[1, 2])
    cfg = ExperimentConfig.from_dict(raw)
    matrix = sweep_kappa_gamma([0.5, 1.0], [0.5, 2.0], cfg)
    assert len(matrix) == 2 and len(matrix[0]) == 2
    dpsgd_cfg = ExperimentConfig.from_dict(dict(raw, algorithm="dpsgd"))
    baseline = np.mean([run_experiment(replace(dpsgd_cfg, seeds=(s,))).final_loss for s in (1, 2)])
    for j in range(2):  # gamma is not read at kappa = 1: DP-SGD bit for bit
        assert matrix[1][j] == float(baseline)


def test_sweep_with_privacy_target_equals_cell_by_cell_runs(monkeypatch):
    calls = []
    calibrate = harness.calibrate_noise_multiplier
    monkeypatch.setattr(
        harness, "calibrate_noise_multiplier", lambda *a: calls.append(a) or calibrate(*a)
    )
    raw = logistic_raw(seeds=[1, 2], privacy={"epsilon": 3.0}, T=8)
    del raw["optimizer"]["sigma_dp"]
    cfg = ExperimentConfig.from_dict(raw)
    kappas, gammas = [0.5, 1.0], [-1.0, 0.5]
    expected = cell_by_cell(kappas, gammas, cfg)
    calls.clear()
    assert sweep_kappa_gamma(kappas, gammas, cfg) == expected
    assert len(calls) == 1  # the cells share one calibration


def test_privacy_target_sweep_builds_terms_once_and_no_schedule(monkeypatch):
    builds, schedules = [], []

    class CountedTerms(privacy._BinomialTerms):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    schedule = harness.epsilon_schedule
    monkeypatch.setattr(privacy, "_BinomialTerms", CountedTerms)
    monkeypatch.setattr(
        harness, "epsilon_schedule", lambda *a: schedules.append(a) or schedule(*a)
    )
    raw = logistic_raw(seeds=[1, 2], privacy={"epsilon": 2.5}, T=5)
    del raw["optimizer"]["sigma_dp"]
    cfg = ExperimentConfig.from_dict(raw)
    privacy._binomial_terms.cache_clear()
    try:
        sweep_kappa_gamma([0.5, 1.0], [-1.0, 0.5], cfg)
        assert len(builds) == 1  # the calibration's
        assert schedules == []  # a sweep reports no epsilon
        run_experiment(cfg)
        assert len(schedules) == 1  # a run does, through the patched name
    finally:
        privacy._binomial_terms.cache_clear()


def test_sweep_evaluates_each_run_once_at_its_end(monkeypatch):
    """A 2 x 2 sweep over 2 seeds: each seed's 3 distinct runs are evaluated
    once, at their end, in one ``evaluate`` of the stack's 3 final states,
    with no per-step evaluation or epsilon schedule."""
    evals, schedules = [], []
    evaluate = objectives.TinyMLP.evaluate
    monkeypatch.setattr(
        objectives.TinyMLP, "evaluate", lambda *a: evals.append(a) or evaluate(*a)
    )
    schedule = harness.epsilon_schedule
    monkeypatch.setattr(
        harness, "epsilon_schedule", lambda *a: schedules.append(a) or schedule(*a)
    )
    raw = logistic_raw(objective={"kind": "mlp", "n": 60, "p": 4, "hidden": 5},
                       seeds=[1, 2], privacy={"epsilon": 2.0}, T=4)
    del raw["optimizer"]["sigma_dp"]
    sweep_kappa_gamma([0.5, 1.0], [-1.0, 0.5], ExperimentConfig.from_dict(raw))
    # 3 distinct runs (the kappa = 1 column is one), one block a seed
    assert (len(evals), len(schedules)) == (2, 0)
    assert [len(xs) for _, xs, *_ in evals] == [3, 3]


def test_sweep_builds_each_seed_problem_once(monkeypatch):
    calls = []
    build = harness.build_problem
    monkeypatch.setattr(
        harness, "build_problem", lambda *a, **k: calls.append(a[1]) or build(*a, **k)
    )
    cfg = ExperimentConfig.from_dict(
        logistic_raw(objective={"kind": "mlp", "n": 60, "p": 4, "hidden": 5},
                     seeds=[1, 2], T=6, B=20)
    )
    kappas, gammas = [0.5, 1.0], [-1.0, 0.5]
    matrix = sweep_kappa_gamma(kappas, gammas, cfg)
    assert calls == [1, 2]
    assert matrix == cell_by_cell(kappas, gammas, cfg)


SWEEP_KAPPAS, SWEEP_GAMMAS = [0.5, 1.0], [-1.0, 0.5, 2.0]
# Runs a seed over that grid: disk one a cell but one for the kappa = 1 column,
# noisy-lp one a kappa, and one in all where the preset or the gain schedule
# sets both kappa and gamma.
SWEEP_RUNS_PER_SEED = {"disk": 4, "noisy-lp": 2, "dpsgd": 1, "noisy-gd": 1, "full-kf": 1}


@pytest.mark.parametrize("algorithm", sorted(SWEEP_RUNS_PER_SEED))
def test_sweep_runs_each_distinct_trajectory_once(algorithm, monkeypatch):
    """Cells whose steps read the same (kappa, gamma) share one run a seed, and
    sharing changes no cell: each is the seed mean of its own runs."""
    raw = dict(FULLKF, seeds=[1, 2]) if algorithm == "full-kf" else logistic_raw(
        algorithm=algorithm, seeds=[1, 2], T=8)
    cfg = ExperimentConfig.from_dict(raw)
    matrix, runs = counted_sweep(monkeypatch, SWEEP_KAPPAS, SWEEP_GAMMAS, cfg)
    assert len(runs) == 2 * SWEEP_RUNS_PER_SEED[algorithm]
    assert matrix == cell_by_cell(SWEEP_KAPPAS, SWEEP_GAMMAS, cfg)


def test_repeated_grid_value_runs_once(monkeypatch):
    cfg = ExperimentConfig.from_dict(logistic_raw(seeds=[1], T=6))
    kappas, gammas = [0.5, 0.7, 0.5], [0.5, 0.5]
    matrix, runs = counted_sweep(monkeypatch, kappas, gammas, cfg)
    assert runs == [(1, 0.5, 0.5), (1, 0.7, 0.5)]
    assert matrix == cell_by_cell(kappas, gammas, cfg)


def quadratic_raw(**overrides):
    raw = {
        "seed": 1,
        "objective": {"kind": "quadratic", "dim": 4, "eigenvalues": [0.5, 1.0, 2.0, 4.0],
                      "x_star": [1.0, -1.0, 0.5, 0.0], "n": 20},
        "optimizer": {"kappa": 0.7, "gamma": 0.5, "eta": 0.1, "clip": 1.0,
                      "clip_variant": "standard", "sigma_dp": 0.05, "base": "momentum"},
        "T": 6,
        "B": 5,
    }
    raw.update(overrides)
    return raw


MLP_SWEEP = {
    "objective": {"kind": "mlp", "n": 60, "p": 4, "hidden": 5},
    "optimizer": {"kappa": 0.7, "gamma": 0.5, "eta": 0.05, "clip": 1.0,
                  "clip_variant": "standard", "base": "adam"},
    "privacy": {"epsilon": 4.0},
    "seeds": [3, 4],
    "T": 6,
    "B": 20,
}
LINREG_SWEEP = {
    "objective": {"kind": "linear-regression", "n": 60, "p": 3},
    "optimizer": {"kappa": 0.7, "gamma": 0.5, "eta": 0.1, "clip": 1.0,
                  "clip_variant": "standard", "sigma_dp": 0.03, "base": "sgd"},
    "seeds": [1, 2],
    "T": 6,
    "B": 12,
}
# a repeated kappa, the kappa = 1 column and a gamma read at one kappa only
ORACLE_KAPPAS, ORACLE_GAMMAS = [0.3, 1.0, 0.5, 0.3], [-1.0, 0.5, 2.0]


@pytest.mark.parametrize("raw, kappas", [
    (MLP_SWEEP, ORACLE_KAPPAS),
    (dict(MLP_SWEEP, optimizer=dict(MLP_SWEEP["optimizer"], clip_variant="automatic", base="adamw",
                                    weight_decay=0.01)), ORACLE_KAPPAS),
    (logistic_raw(seeds=[1, 2], T=8, optimizer=dict(logistic_raw()["optimizer"], base="momentum")),
     [0.2, 0.3, 0.5, 0.7, 1.0]),  # 13 distinct runs: more than an evaluation block
    (LINREG_SWEEP, ORACLE_KAPPAS),
    (dict(LINREG_SWEEP, B=60, optimizer=dict(LINREG_SWEEP["optimizer"], clip=None,
                                             clip_variant="none")), ORACLE_KAPPAS),
    (quadratic_raw(seeds=[1, 2]), ORACLE_KAPPAS),
    (logistic_raw(algorithm="noisy-lp", seeds=[1, 2], T=8), ORACLE_KAPPAS),
    (logistic_raw(algorithm="dpsgd", seeds=[1, 2], T=8), ORACLE_KAPPAS),
    (dict(FULLKF, seeds=[1, 2]), ORACLE_KAPPAS),
    (dict(LINREG_SWEEP, algorithm="noisy-gd", B=60,
          optimizer={"eta": 0.1, "sigma_dp": 0.02}), ORACLE_KAPPAS),
], ids=["mlp-standard-adam", "mlp-automatic-adamw", "logreg-momentum-past-a-block",
        "linreg-two-point-minibatch", "linreg-full-batch-gram", "quadratic", "noisy-lp", "dpsgd",
        "full-kf", "noisy-gd"])
def test_sweep_equals_the_per_run_oracle(raw, kappas):
    """Stepping a seed's distinct runs as one stack, on the seed's one
    minibatch stream and noise draw, gives every cell the bytes of the per-run
    loop: each run alone from a 1-D state, ending in ``full_loss``."""
    cfg = ExperimentConfig.from_dict(raw)
    got = sweep_kappa_gamma(kappas, ORACLE_GAMMAS, cfg)
    want = ref.sweep_reference(kappas, ORACLE_GAMMAS, cfg)
    assert [[v.hex() for v in row] for row in got] == [[v.hex() for v in row] for row in want]


def test_sweep_steps_each_seed_once_a_step(monkeypatch):
    """A sweep makes one ``disk_step`` a seed and step, on the stack of the
    seed's distinct runs, and draws one noise stream and one minibatch stream
    a seed."""
    steps, draws, streams = [], [], []
    real_step, real_rows, real_batches = harness.disk_step, harness.noise_rows, harness.minibatches

    def counted_step(state, *args, **kwargs):
        steps.append(state.x.shape)
        return real_step(state, *args, **kwargs)

    def counted_rows(rng, sigma, d, T):
        draws.append(T)
        return real_rows(rng, sigma, d, T)

    def counted_batches(n, B, seed):
        streams.append(seed)
        return real_batches(n, B, seed)

    monkeypatch.setattr(harness, "disk_step", counted_step)
    monkeypatch.setattr(harness, "noise_rows", counted_rows)
    monkeypatch.setattr(harness, "minibatches", counted_batches)
    cfg = ExperimentConfig.from_dict(MLP_SWEEP)
    sweep_kappa_gamma(SWEEP_KAPPAS, SWEEP_GAMMAS, cfg)
    dim = objectives.TinyMLP(4, hidden=5).dim
    # disk over the 2 x 3 grid: 4 distinct runs a seed (the kappa = 1 column is one)
    assert steps == [(4, dim)] * (2 * cfg.T)
    assert draws == [cfg.T] * 2 and streams == [3, 4]


def test_diverging_sweep_run_names_its_cell():
    """A run that diverges beside a finite one stops the sweep at the step
    where its own run alone stops, naming its row and its (kappa, gamma): at
    a step size far above 2/L, plain descent (kappa 1) overflows while the
    low-pass filter at kappa 0.05 is still finite."""
    raw = dict(LINREG_SWEEP, algorithm="noisy-lp", seeds=[1], T=400,
               optimizer=dict(LINREG_SWEEP["optimizer"], eta=20.0, clip=None, clip_variant="none"))
    cfg = ExperimentConfig.from_dict(raw)
    opt = resolve_optimizer(cfg, 60)[0]
    problem = harness.build_problem(cfg.objective, 1, cfg.B)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match=r"^step \d+: ") as alone:
            ref.run_alone(cfg, replace(opt, kappa=1.0), 1, problem)
        step = int(re.match(r"^step (\d+): ", str(alone.value)).group(1))
        low_pass = ref.run_alone(replace(cfg, T=step + 1), replace(opt, kappa=0.05), 1, problem)
        assert np.isfinite(low_pass.x).all()
        with pytest.raises(FloatingPointError, match=(
                rf"^step {step}: \d+ non-finite mean gradient components \(\d+ non-finite "
                r"per-sample gradient factors\) in row 1 of the stack, at kappa 1\.0 and gamma 0\.5$")):
            sweep_kappa_gamma([0.05, 1.0], [0.5], cfg)


def test_shared_sweep_cell_still_refuses_a_bad_value():
    """At kappa = 1 gamma is not read, yet gamma = 0 is still refused."""
    cfg = ExperimentConfig.from_dict(logistic_raw(algorithm="dpsgd", seeds=[1], T=3))
    with pytest.raises(ValueError, match="gamma must be nonzero"):
        sweep_kappa_gamma([1.0], [0.5, 0.0], cfg)
    with pytest.raises(ValueError, match=r"kappa must lie in \(0, 1\]"):
        sweep_kappa_gamma([1.0, 1.5], [0.5], cfg)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def test_emit_trace_is_byte_reproducible(tmp_path):
    cfg = ExperimentConfig.from_dict(logistic_raw())
    trace = run_experiment(cfg)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    p1 = emit_trace(trace, str(d1))
    p2 = emit_trace(run_experiment(cfg), str(d2))
    assert open(p1[0], "rb").read() == open(p2[0], "rb").read()
    assert open(p1[1], "rb").read() == open(p2[1], "rb").read()
    assert open(p1[0]).readline().strip() == TRACE_HEADER


def test_emit_trace_round_trips(tmp_path):
    cfg = ExperimentConfig.from_dict(logistic_raw())
    trace = run_experiment(cfg)
    paths = emit_trace(trace, str(tmp_path / "out"))
    back = read_trace_csv(paths[0])
    for a, b in zip(trace.records, back.records):
        assert a.loss == b.loss
        assert a.grad_norm == b.grad_norm
        assert a.epsilon_spent == b.epsilon_spent


def test_emit_creates_missing_directories(tmp_path):
    cfg = ExperimentConfig.from_dict(logistic_raw())
    trace = run_experiment(cfg)
    nested = tmp_path / "deep" / "nested" / "dir"
    paths = emit_trace(trace, str(nested))
    assert all(os.path.exists(p) for p in paths)


def test_emit_comparison_and_sweep_schemas(tmp_path):
    rows = compare_filters(noise_levels=[0.1], seeds=(0,), n=100, p=5, T=50)
    paths = emit_comparison(rows, str(tmp_path))
    lines = open(paths[0]).read().splitlines()
    assert lines[0] == COMPARISON_HEADER
    assert len(lines) == 1 + len(rows)

    raw = logistic_raw(seeds=[1])
    matrix = sweep_kappa_gamma([0.5, 1.0], [0.5], ExperimentConfig.from_dict(raw))
    spaths = emit_sweep([0.5, 1.0], [0.5], matrix, str(tmp_path))
    slines = open(spaths[0]).read().splitlines()
    assert slines[0] == SWEEP_HEADER
    assert len(slines) == 1 + 2 * 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def write_config(tmp_path, raw):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_cli_train_writes_outputs(tmp_path, capsys):
    raw = logistic_raw(outdir=str(tmp_path / "out"))
    rc = cli_main(["train", "--config", write_config(tmp_path, raw)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 1
    assert os.path.exists(payload["outputs"][0])


def test_cli_flag_overrides_config(tmp_path, capsys):
    raw = logistic_raw(outdir=str(tmp_path / "out"))
    cli_main(["train", "--config", write_config(tmp_path, raw), "--T", "5"])
    payload = json.loads(capsys.readouterr().out)
    trace = read_trace_csv(payload["outputs"][0])
    assert len(trace.records) == 5


def test_cli_env_seed_override(tmp_path, capsys, monkeypatch):
    raw = logistic_raw(outdir=str(tmp_path / "out"))
    monkeypatch.setenv("DISK_SEED", "77")
    cli_main(["train", "--config", write_config(tmp_path, raw)])
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 77


def test_cli_calibrate_reports_multiplier_and_breakdown(capsys):
    rc = cli_main([
        "calibrate", "--epsilon", "1.0", "--delta", "1e-5",
        "--sampling-rate", "0.01", "--steps", "1000",
        "--clip", "1.0", "--batch-size", "100",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["epsilon_spent"] <= 1.0 + 1e-6
    assert payload["sigma_dp"] == pytest.approx(payload["noise_multiplier"] / 100)
    assert len(payload["rdp_per_order"]) == 66


def test_cli_calibrate_sigma_dp_uses_clip_sensitivity(capsys):
    base = [
        "calibrate", "--epsilon", "2.0", "--delta", "1e-5", "--sampling-rate", "0.05",
        "--steps", "100", "--clip", "0.1", "--batch-size", "50",
    ]
    payloads = {}
    for variant in (None, "standard", "automatic", "normalized"):
        extra = [] if variant is None else ["--clip-variant", variant]
        assert cli_main([*base, *extra]) == 0
        payloads[variant] = json.loads(capsys.readouterr().out)
    z = payloads[None]["noise_multiplier"]
    assert payloads[None]["sigma_dp"] == z * 0.1 / 50
    for variant in ("standard", "automatic"):
        assert payloads[variant] == payloads[None]
    # normalized rows have norm <= 1 whatever C is: sigma_dp = z / B
    assert payloads["normalized"]["sigma_dp"] == z / 50
    with pytest.raises(SystemExit):
        cli_main([*base, "--clip-variant", "none"])


def test_cli_calibrate_refuses_a_step_count_with_no_finite_float():
    """A --steps past the largest float ends in the accountant's
    ``PrivacyError`` naming the count, as an infeasible 1e22 does, not in
    the ``OverflowError`` of ``steps * rdp``."""
    argv = ["calibrate", "--epsilon", "1", "--delta", "1e-5", "--sampling-rate", "0.01"]
    with pytest.raises(PrivacyError, match=r"^step count 10{400} has no finite float$"):
        cli_main([*argv, "--steps", "1" + "0" * 400])
    with pytest.raises(PrivacyError, match=r"^budget infeasible .* T=10{22},"):
        cli_main([*argv, "--steps", "1" + "0" * 22])


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--clip", "0"), ("--clip", "-1"), ("--clip", "nan"), ("--clip", "inf"),
        ("--batch-size", "0"), ("--batch-size", "-5"),
    ],
)
def test_cli_calibrate_rejects_bad_clip_and_batch_size(flag, value, capsys):
    argv = [
        "calibrate", "--epsilon", "1.0", "--delta", "1e-5", "--sampling-rate", "0.1",
        "--steps", "10", "--clip", "1.0", "--batch-size", "10",
    ]
    with pytest.raises(SystemExit) as exc:
        cli_main([*argv, flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {flag}:" in captured.err
    assert captured.out == ""


def test_cli_calibrate_rejects_batch_size_without_clip(capsys):
    argv = [
        "calibrate", "--epsilon", "1.0", "--delta", "1e-5", "--sampling-rate", "0.1",
        "--steps", "10", "--batch-size", "5",
    ]
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--batch-size" in captured.err and "--clip" in captured.err
    assert captured.out == ""


def test_cli_sweep_reads_negative_leading_lists(tmp_path, capsys):
    cfg = write_config(tmp_path, logistic_raw(T=3))
    outputs = []
    for gammas in (["--gammas", "-1.0,0.5"], ["--gammas=-1.0,0.5"]):
        outdir = str(tmp_path / f"out{len(outputs)}")
        rc = cli_main(
            ["sweep", "--config", cfg, "--kappas", "0.5", *gammas, "--outdir", outdir]
        )
        assert rc == 0
        with open(json.loads(capsys.readouterr().out)["outputs"][0]) as fh:
            outputs.append(fh.read())
    assert [ln.split(",")[:2] for ln in outputs[0].splitlines()[1:]] == [
        ["0.5", "-1.0"], ["0.5", "0.5"]
    ]
    assert outputs[0] == outputs[1]


def test_cli_kalman_demo_prints_csv(capsys):
    rc = cli_main(["kalman-demo", "--steps", "50", "--runs", "2", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "run,mse_raw,mse_kf"
    assert len(out) == 3


@pytest.mark.parametrize(
    "flag, value",
    [("--steps", "0"), ("--runs", "0"), ("--dim", "0"), ("--dim", "65")],
)
def test_cli_kalman_demo_rejects_bad_sizes(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["kalman-demo", "--steps", "5", "--runs", "2", flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {flag}:" in captured.err
    assert captured.out == ""


def test_cli_bounds_reports_constants(tmp_path, capsys):
    raw = {
        "seed": 0,
        "objective": {"kind": "quadratic", "dim": 4, "eigenvalues": [0.5, 1.0, 1.5, 2.0]},
        "optimizer": {"kappa": 0.3, "gamma": -1.0, "eta": 0.05, "sigma_dp": 0.1},
        "T": 500, "B": 1,
    }
    rc = cli_main(["bounds", "--config", write_config(tmp_path, raw)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["constants"]["L"] == pytest.approx(2.0)
    assert payload["parameter_report"]["valid"] is True
    assert payload["tuned"]["bound"] > 0


@pytest.mark.parametrize(
    "change, match",
    [
        ({"init_scale": -5.0}, "init_scale must be finite and > 0"),
        ({"optimizer": {"kappa": 2}}, r"kappa must lie in \(0, 1\]"),
        ({"optimizer": {"eta": math.nan}}, "eta must be finite"),
        ({"T": 0}, "need T >= 1 and B >= 1"),
        ({"B": 0}, "need T >= 1 and B >= 1"),
        ({"T": -5}, "need T >= 1 and B >= 1"),
        ({"f_star_step": 10}, r"config has unknown keys \['f_star_step'\]"),
        ({"algorithm": "bogus"}, "algorithm must be one of"),
        ({"privacy": {"epsilon": -1, "foo": 2}}, r"privacy has unknown keys \['foo'\]"),
        ({"full_filter": {"sigma_w_sq": -1}}, "noise variances must be >= 0"),
        ({"privacy": {"epsilon": 2.0}}, "set exactly one of"),
        ({"B": 31}, "batch size exceeds dataset size"),
        ({"f_star_steps": 2.5}, "f_star_steps must be an integer >= 1"),
        ({"sigma_sgd_sq": -0.1}, "sigma_sgd_sq must be finite and >= 0"),
        ({"seeds": [1.5]}, "need one seed or more, each an integer >= 0"),
        ({"seed": True}, "need one seed or more, each an integer >= 0"),
        ({"seed": -1}, "need one seed or more, each an integer >= 0"),
        ({"T": True}, r"need T >= 1 and B >= 1, integers; got T=True"),
        ({"T": 2.5}, r"need T >= 1 and B >= 1, integers; got T=2.5"),
        ({"B": 10.5}, r"need T >= 1 and B >= 1, integers; got T=20, B=10.5"),
        ({"B": "10"}, r"need T >= 1 and B >= 1, integers; got T=20, B='10'"),
        ({"f_star_steps": True}, "f_star_steps must be an integer >= 1"),
        ({"seeds": 5}, "seeds must be a list of integers, got 5"),
        ({"seeds": "12"}, "seeds must be a list of integers, got '12'"),
    ],
    ids=["negative-init-scale", "kappa-2", "nan-eta", "T-0", "B-0", "T-minus-5", "misspelled-key",
         "unknown-algorithm", "unknown-privacy-key", "negative-sigma-w", "epsilon-and-sigma",
         "B-above-n", "fractional-f-star-steps", "negative-sigma-sgd", "fractional-seeds",
         "bool-seed", "negative-seed", "bool-T", "fractional-T", "fractional-B", "string-B",
         "bool-f-star-steps", "number-seeds", "string-seeds"],
)
def test_cli_bounds_rejects_what_train_rejects(tmp_path, capsys, change, match):
    raw = {
        "seed": 0,
        "objective": {"kind": "linear-regression", "n": 30, "p": 3},
        "optimizer": {"eta": 0.05, "sigma_dp": 0.1},
        "T": 20,
        "B": 10,
        **change,
    }
    cfg = write_config(tmp_path, raw)
    for argv in (["train", "--config", cfg, "--outdir", str(tmp_path / "out")],
                 ["bounds", "--config", cfg]):
        with pytest.raises(ValueError, match=match):
            cli_main(argv)
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "out").exists()


def test_config_integers_admit_numpy_integers_only():
    """T, B and the seeds are integers: numpy integers pass, numpy floats do not."""
    problem = {"kind": "linear-regression", "n": 30, "p": 3}
    cfg = ExperimentConfig(problem, T=np.int64(5), B=np.int32(10), seeds=(np.uint8(3),))
    assert run_experiment(cfg).seed == 3
    for bad in ({"T": np.float64(5.0)}, {"B": np.float64(10.0)}, {"seeds": (np.float64(3.0),)}):
        with pytest.raises(ValueError, match="integer"):
            ExperimentConfig(problem, **bad)


CLI_SEED_CASES = [
    ("train", "--seed", "-1"),
    ("sweep", "--seed", "-1"),
    ("kalman-demo", "--seed", "-1"),
    ("compare-filters", "--seeds", "-1"),
    ("compare-filters", "--seeds", "0,-1"),
    ("compare-filters", "--seeds", "0,1.5"),
]


def small_command(tmp_path, command):
    """argv for a small run of ``command``."""
    if command in ("train", "sweep", "bounds"):
        raw = {"objective": {"kind": "linear-regression", "n": 30, "p": 3},
               "optimizer": {"sigma_dp": 0.1}, "T": 3, "B": 10, "outdir": str(tmp_path / "out")}
        return [command, "--config", write_config(tmp_path, raw)]
    if command == "kalman-demo":
        return [command, "--steps", "3", "--runs", "2"]
    if command == "calibrate":
        return [command, "--epsilon", "1", "--delta", "1e-5", "--sampling-rate", "0.1",
                "--steps", "10"]
    return [command, "--n", "20", "--p", "2", "--T", "3", "--noise-levels", "0.1",
            "--outdir", str(tmp_path / "out")]


def assert_flag_rejected(tmp_path, capsys, command, flag, value):
    """A small run of ``command`` with ``flag value`` exits 2 naming the flag,
    before it prints or writes anything."""
    with pytest.raises(SystemExit) as exc:
        cli_main([*small_command(tmp_path, command), flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {flag}:" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flag, value", CLI_SEED_CASES)
def test_cli_seed_flags_take_integers_from_zero(tmp_path, capsys, command, flag, value):
    assert_flag_rejected(tmp_path, capsys, command, flag, value)


CLI_SIZE_AND_LIST_CASES = [
    ("compare-filters", "--T", "0"),
    ("compare-filters", "--n", "0"),
    ("compare-filters", "--p", "0"),
    ("calibrate", "--steps", "0"),
    ("sweep", "--kappas", "0.5,y"),
    ("sweep", "--gammas", ""),
    ("sweep", "--kappas", "0.5,inf"),
    ("compare-filters", "--noise-levels", "0.1,nan"),
    ("compare-filters", "--noise-levels", "0.1,"),
    ("train", "--T", "0"),
    ("train", "--B", "0"),
    ("sweep", "--T", "0"),
    ("sweep", "--B", "0"),
]


@pytest.mark.parametrize("command, flag, value", CLI_SIZE_AND_LIST_CASES)
def test_cli_sizes_take_integers_from_one_and_lists_finite_numbers(
    tmp_path, capsys, command, flag, value
):
    assert_flag_rejected(tmp_path, capsys, command, flag, value)


CLI_RANGE_CASES = [
    ("calibrate", "--epsilon", "-1"),
    ("calibrate", "--epsilon", "0"),
    ("calibrate", "--epsilon", "inf"),
    ("calibrate", "--delta", "0"),
    ("calibrate", "--delta", "1"),
    ("calibrate", "--delta", "nan"),
    ("calibrate", "--sampling-rate", "0"),
    ("calibrate", "--sampling-rate", "2"),
    ("compare-filters", "--kappa", "0"),
    ("compare-filters", "--kappa", "1.5"),
    ("compare-filters", "--noise-levels", "0.1,-0.1"),
    ("compare-filters", "--noise-levels", "-0.5"),
    ("sweep", "--kappas", "0,0.5"),
    ("sweep", "--kappas", "0.5,1.5"),
    ("sweep", "--gammas", "0,0.5"),
    ("sweep", "--gammas", "0.5,-0.0"),
    ("train", "--eta", "0"),
    ("train", "--eta", "nan"),
    ("train", "--kappa", "0"),
    ("train", "--kappa", "1.5"),
    ("train", "--gamma", "0"),
    ("train", "--gamma", "-0.0"),
    ("sweep", "--eta", "0"),
    ("sweep", "--eta", "inf"),
]


@pytest.mark.parametrize("command, flag, value", CLI_RANGE_CASES)
def test_cli_float_flags_take_their_range(tmp_path, capsys, command, flag, value):
    assert_flag_rejected(tmp_path, capsys, command, flag, value)


def test_cli_float_flags_take_the_ends_of_their_range():
    args = cli.build_parser().parse_args(
        ["calibrate", "--epsilon", "1e-3", "--delta", "1e-300", "--sampling-rate", "1",
         "--steps", "1"]
    )
    assert (args.epsilon, args.delta, args.sampling_rate) == (1e-3, 1e-300, 1.0)
    args = cli.build_parser().parse_args(["compare-filters", "--kappa", "1", "--noise-levels", "0"])
    assert (args.kappa, args.noise_levels) == (1.0, [0.0])
    args = cli.build_parser().parse_args(
        ["sweep", "--config", "c.json", "--kappas", "1e-300,1", "--gammas=-1e-300,5"]
    )
    assert (args.kappas, args.gammas) == ([1e-300, 1.0], [-1e-300, 5.0])
    args = cli.build_parser().parse_args(
        ["train", "--config", "c.json", "--eta", "1e-300", "--kappa", "1", "--gamma=-1e-300"]
    )
    assert (args.eta, args.kappa, args.gamma) == (1e-300, 1.0, -1e-300)


# (command, flag) -> the argument type the flag had before ``cli._number``
OLD_FLAG_TYPES = {
    **{(c, "--seed"): ref._int_in(0) for c in ("train", "sweep", "kalman-demo")},
    **{(c, f): ref._int_in(1) for c in ("train", "sweep") for f in ("--T", "--B")},
    **{(c, "--eta"): ref.optimizer_flag("eta") for c in ("train", "sweep")},
    ("train", "--kappa"): ref.optimizer_flag("kappa"),
    ("train", "--gamma"): ref.optimizer_flag("gamma"),
    ("compare-filters", "--noise-levels"): ref._float_list(lambda v: v >= 0, "be >= 0"),
    ("compare-filters", "--seeds"): lambda s: tuple(map(ref._int_in(0), s.split(","))),
    **{("compare-filters", f): ref._int_in(1) for f in ("--n", "--p", "--T")},
    ("compare-filters", "--kappa"): ref._unit_float(hi_closed=True),
    ("sweep", "--kappas"): ref._float_list(lambda v: 0 < v <= 1, "lie in (0, 1]"),
    ("sweep", "--gammas"): ref._float_list(bool, "be nonzero"),
    ("calibrate", "--epsilon"): ref._positive_float,
    ("calibrate", "--delta"): ref._unit_float(hi_closed=False),
    ("calibrate", "--sampling-rate"): ref._unit_float(hi_closed=True),
    ("calibrate", "--steps"): ref._int_in(1),
    ("calibrate", "--clip"): ref._positive_float,
    ("calibrate", "--batch-size"): ref._int_in(1),
    ("kalman-demo", "--dim"): ref._int_in(1, kalman.MAX_STATE_DIM),
    **{("kalman-demo", f): ref._int_in(1) for f in ("--steps", "--runs")},
}


@functools.cache
def flag_types() -> dict:
    """(command, flag) -> the argument type of each typed flag of the parser."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        (command, action.option_strings[0]): action.type
        for command, parser in sub.choices.items() for action in parser._actions
        if action.type is not None
    }


def test_every_typed_flag_has_an_old_type():
    assert set(flag_types()) == set(OLD_FLAG_TYPES)


NUMBER_TEXT = st.one_of(
    st.sampled_from([
        "nan", "-nan", "inf", "-inf", "Infinity", "0", "-0", "+0", "0.0", "-0.0", "1", "1.0",
        "-1", "0.5", "64", "65", "1e-320", "-1e-320", "1e-300", "1e400", "1_000", ".5", "1.",
        "0x10", "x", "",
    ]),
    st.integers(-3, 70).map(str),
    st.integers(-(10**400), 10**400).map(str),
    st.integers(10**399, 10**400).map(str),  # 400 digits
    st.floats(0, 1).map(repr),
    st.floats(-2, 2).map(repr),
    st.floats().map(repr),
    st.text("0123456789.-+e_", max_size=6),
)
# surrounding whitespace; an empty entry comes from the text ""
ENTRY = st.builds(
    lambda pad, text, tail: pad + text + tail,
    st.sampled_from(["", "", " ", "\t"]), NUMBER_TEXT, st.sampled_from(["", "", " ", "\n"]),
)
FLAG_TEXT = st.one_of(
    ENTRY,
    st.lists(ENTRY, min_size=1, max_size=3).map(",".join),
    ENTRY.map(lambda text: text + ","),  # a trailing comma
)


def parse_or_refuse(parse, text):
    """What ``parse`` returns for ``text``, or ``ArgumentTypeError`` if it refuses it."""
    try:
        return parse(text)
    except argparse.ArgumentTypeError:
        return argparse.ArgumentTypeError


@pytest.mark.parametrize("command, flag", sorted(OLD_FLAG_TYPES))
@settings(max_examples=100, deadline=None)
@given(text=FLAG_TEXT)
@example(text="nan")
@example(text="-0.0")
@example(text="1e-320")
@example(text=" 1\n")
@example(text="0.5,,1")
@example(text="1,")
@example(text="1" + "0" * 399)
@example(text="-" + "1" * 400)
def test_number_flags_accept_what_their_old_types_accepted(command, flag, text):
    """Each flag's type accepts exactly the texts its old type accepted, and
    returns a value of the same type and repr: equal, sign of zero included."""
    old = parse_or_refuse(OLD_FLAG_TYPES[command, flag], text)
    new = parse_or_refuse(flag_types()[command, flag], text)
    assert (type(new), repr(new)) == (type(old), repr(old))


def test_cli_builds_its_parser_once():
    assert cli.build_parser() is cli.build_parser()


def test_cli_reused_parser_keeps_the_calibrate_bytes(tmp_path, capsys):
    """In one process, a failed parse and the other commands leave a
    calibrate golden command's report byte-identical."""

    def calibrate_hash() -> str:
        assert cli_main(["calibrate", *CALIBRATE_COMMANDS["calibrate-clip"]]) == 0
        return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

    assert calibrate_hash() == CALIBRATE_GOLDEN["calibrate-clip"]
    for command in ("compare-filters", "kalman-demo"):
        with pytest.raises(SystemExit) as exc:
            cli_main([*small_command(tmp_path, "calibrate"), "--delta", "1"])
        assert exc.value.code == 2
        assert calibrate_hash() == CALIBRATE_GOLDEN["calibrate-clip"]
        assert cli_main(small_command(tmp_path, command)) == 0
        capsys.readouterr()
        assert calibrate_hash() == CALIBRATE_GOLDEN["calibrate-clip"]


# sha256 of the stdout of ``dpkf [command] --help`` at 80 columns, taken with
# Python 3.11's argparse (another version may word or wrap help differently)
CLI_HELP = {
    "": "20a2c9692922dd72202b37d7df492b6fce2c248b1cd3a74028c3a6af31ada619",
    "train": "dacfe5e50fe04c587c0b2bf40973ae04ac57711efad31d74ed2fa033be96e68c",
    "compare-filters": "c587d8bbb8d926a20e2b15b2389a917008cc07ba9aad133a3cbd92406da82c37",
    "sweep": "ca37177266c4dcbe238036f6aaa3555504bf64a19e44ba59e6f57a3817350ccc",
    "calibrate": "1b242f3064ab43ed3565aaac1cc1afef591e5d332c22a76f18ba54dbea5d680c",
    "bounds": "708c12af6eef8d32bad78dc3f94816c6b111c0e957def85a80d88f30d93d5de8",
    "kalman-demo": "246c59dc0c4c957f9e5ef8b1c5be441951625ad7a8d72a9939a646abeed15414",
}


@pytest.mark.parametrize("command", sorted(CLI_HELP))
def test_cli_help_text_unchanged(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli_main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CLI_HELP[command]


@pytest.mark.parametrize("value", ["-1", "1.5", "seven"])
@pytest.mark.parametrize("command", ["train", "sweep", "bounds", "kalman-demo", "compare-filters"])
def test_cli_disk_seed_takes_an_integer_from_zero(tmp_path, capsys, monkeypatch, command, value):
    monkeypatch.setenv("DISK_SEED", value)
    with pytest.raises(ValueError, match=f"DISK_SEED must be an integer >= 0, got '{value}'"):
        cli_main(small_command(tmp_path, command))
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "out").exists()


def test_cli_bounds_evaluates_noisy_gd_at_its_full_batch(tmp_path, capsys):
    """noisy-gd steps on all n rows whatever B says: train writes the bytes of
    one trace and bounds of one bound, evaluated at B = n, for every B, the
    default B 50 above n 40 among them (a minibatch algorithm refuses that B,
    ``test_cli_bounds_rejects_what_train_rejects``)."""
    traces, reports = [], []
    for B in (10, 40, None):
        raw = {"seed": 3, "algorithm": "noisy-gd", "T": 8, "B": B, "sigma_sgd_sq": 0.5,
               "objective": {"kind": "linear-regression", "n": 40, "p": 3},
               "optimizer": {"sigma_dp": 0.02}, "outdir": str(tmp_path / f"out{B}")}
        if B is None:
            del raw["B"]
        path = write_config(tmp_path, raw)
        assert cli_main(["train", "--config", path]) == 0
        with open(json.loads(capsys.readouterr().out)["outputs"][0], "rb") as fh:
            traces.append(fh.read())
        assert cli_main(["bounds", "--config", path]) == 0
        reports.append(capsys.readouterr().out)
    assert ExperimentConfig.from_dict(raw).B > 40
    assert traces[0] == traces[1] == traces[2]
    assert reports[0] == reports[1] == reports[2]


def bounds_report(tmp_path, capsys, raw):
    assert cli_main(["bounds", "--config", write_config(tmp_path, raw)]) == 0
    report = json.loads(capsys.readouterr().out)
    c = report["constants"]
    pc = theory.ProblemConstants(L=c["L"], gap0=c["gap0"], grad0_sq=c["grad0_sq"], dim=c["dim"])
    return report, pc


def test_cli_bounds_evaluates_the_sigma_dp_train_calibrates(tmp_path, capsys):
    """A privacy target is bounded at the sigma_dp train adds: calibrated for
    q = B/n, delta = n^-1.1 and S = C, here recomputed from the accountant."""
    raw = logistic_raw(privacy={"epsilon": 4.0}, f_star_steps=50)
    del raw["optimizer"]["sigma_dp"]
    n, B, T = raw["objective"]["n"], raw["B"], raw["T"]
    delta = privacy.delta_convention(n)
    sigma = privacy.calibrate_noise_multiplier(4.0, delta, B / n, T) * 1.0 / B
    report, pc = bounds_report(tmp_path, capsys, raw)
    want = theory.convergence_bound(pc, 0.2, 0.7, 0.5, T, B, sigma)
    assert want.noise_floor > 0
    assert report["fixed_parameter_bound"] == {
        "total": want.total, "transient": want.transient, "noise_floor": want.noise_floor,
    }
    assert report["tuned"]["bound"] == theory.tuned_bound(pc, sigma, T)
    bound, horizon = theory.privacy_utility_bound(pc, n, 4.0, delta, 1.0)
    assert report["privacy_utility"] == {
        "epsilon": 4.0, "delta": delta, "sensitivity": 1.0,
        "bound": bound, "T_prescribed": horizon,
    }


def test_cli_bounds_evaluates_the_preset_train_runs(tmp_path, capsys):
    """dpsgd steps at kappa 1 whatever the optimizer section says."""
    raw = logistic_raw(algorithm="dpsgd", f_star_steps=50)
    report, pc = bounds_report(tmp_path, capsys, raw)
    assert report["parameter_report"]["kappa"] == 1.0
    want = theory.convergence_bound(pc, 0.2, 1.0, 0.5, raw["T"], raw["B"], 0.05)
    assert report["fixed_parameter_bound"]["total"] == want.total
    assert "privacy_utility" not in report


# ---------------------------------------------------------------------------
# Whole-dataset evaluation: one forward pass per state, blocks of EVAL_BLOCK
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "objective",
    [
        {"kind": "logistic-regression", "n": 120, "p": 6},
        {"kind": "linear-regression", "n": 120, "p": 6},
        {"kind": "mlp", "n": 120, "p": 3, "hidden": 4},
    ],
    ids=["logistic", "linear", "mlp"],
)
def test_whole_dataset_evaluation_takes_the_pair(objective, monkeypatch):
    """run_experiment and problem_constants_for (for kinds with an exact L)
    evaluate the whole dataset through ``Objective.evaluate`` alone."""
    from dpkf.theory import problem_constants_for

    cfg = ExperimentConfig.from_dict(logistic_raw(objective=objective, T=5, B=20))
    obj, ds = harness.build_problem(cfg.objective, 1, batch_floor=cfg.B)
    monkeypatch.setattr(harness, "build_problem", lambda *args, **kwargs: (obj, ds))
    want = run_experiment(cfg)
    x0 = obj.init_point(1)
    bounded = obj.smoothness(ds) is not None
    want_pc = problem_constants_for(obj, ds, x0, f_star=0.0) if bounded else None

    def guard(name):
        orig = getattr(type(obj), name)

        def method(self, x, X, y):
            assert X is not ds.X, f"{name} on the whole dataset"
            return orig(self, x, X, y)

        monkeypatch.setattr(type(obj), name, method)

    guard("mean_grad")
    got = run_experiment(cfg)
    assert got.csv_lines() == want.csv_lines()
    assert (got.loss0, got.grad0_norm) == (want.loss0, want.grad0_norm)
    if bounded:
        assert problem_constants_for(obj, ds, x0, f_star=0.0) == want_pc


@pytest.mark.parametrize(
    "objective",
    [{"kind": "logistic-regression", "n": 3000, "p": 50}, {"kind": "linear-regression", "n": 40, "p": 1}],
    ids=["logistic-wide", "linear-p1"],
)
def test_run_rows_do_not_depend_on_where_a_block_ends(objective):
    """Runs of T + 1 = 2, 7, 8, 9 and 17 states give the first rows of a longer
    run bit for bit, whether a state lands in a full or a padded block. A lone
    state (x_0 in ``bounds``) gives the run's gap0 and grad0 bits too."""
    from dpkf.theory import problem_constants_for

    raw = logistic_raw(objective=objective, T=20, B=20)
    obj, ds = harness.build_problem(raw["objective"], 1, batch_floor=20)
    longer = run_experiment(ExperimentConfig.from_dict(raw))
    for T in (1, 6, 7, 8, 16):
        trace = run_experiment(ExperimentConfig.from_dict(dict(raw, T=T)))
        assert (trace.loss0, trace.grad0_norm) == (longer.loss0, longer.grad0_norm)
        assert trace.csv_lines() == longer.csv_lines()[: T + 1]
    pc = problem_constants_for(obj, ds, obj.init_point(1), f_star=0.0)
    assert (pc.gap0, math.sqrt(pc.grad0_sq)) == (longer.loss0, longer.grad0_norm)


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize(
    "objective",
    [{"kind": "linear-regression", "n": 30, "p": 2}, {"kind": "quadratic", "dim": 3}],
    ids=["linear", "quadratic"],
)
def test_run_stops_at_a_state_whose_loss_overflows(objective):
    """Full-batch descent at eta = 1e40 / L grows the iterate about 1e40-fold a
    step, so the loss, quadratic in it, first overflows at x_4; no step before
    it overflows. T = 3 writes finite rows, T = 4 names step 4 instead of
    writing an inf row."""
    raw = {"seed": 2, "objective": objective, "algorithm": "noisy-gd",
           "optimizer": {"sigma_dp": 0.0}, "B": 1}
    obj, ds = harness.build_problem(objective, 2)
    raw["optimizer"]["eta"] = 1e40 / obj.smoothness(ds)
    trace = run_experiment(ExperimentConfig.from_dict(dict(raw, T=3)))
    assert all(math.isfinite(r.loss) and math.isfinite(r.grad_norm) for r in trace.records)
    with pytest.raises(FloatingPointError, match=r"^step 4: non-finite evaluation, loss inf"):
        run_experiment(ExperimentConfig.from_dict(dict(raw, T=4)))


def test_train_evaluation_holds_one_block_buffer(monkeypatch):
    """At the benchmark's n 5000, p 50, a run's evaluation allocates, above the
    run's entry level, one block's (EVAL_BLOCK, n) margins, which become its
    weights, and one state's forward-pass temporaries (the step's margins and
    weights at one state, measured alone), plus 64 KB for the block's
    (EVAL_BLOCK, d) arrays, states and records: less than a second buffer."""
    import tracemalloc

    raw = {"seed": 1, "objective": {"kind": "logistic-regression", "n": 5000, "p": 50},
           "algorithm": "noisy-gd", "optimizer": {"eta": 0.2, "sigma_dp": 0.01}, "T": 17, "B": 64}
    cfg = ExperimentConfig.from_dict(raw)
    obj, ds = harness.build_problem(cfg.objective, 1, batch_floor=cfg.B)
    monkeypatch.setattr(harness, "build_problem", lambda *args, **kwargs: (obj, ds))  # built before tracing
    run_experiment(cfg)  # numpy's own first-use allocations
    evaluate, peaks = type(obj).evaluate, []

    def traced(self, *args):
        tracemalloc.reset_peak()
        out = evaluate(self, *args)
        peaks.append(tracemalloc.get_traced_memory()[1] - entry)
        return out

    monkeypatch.setattr(type(obj), "evaluate", traced)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        run_experiment(cfg)
        tracemalloc.reset_peak()
        level = tracemalloc.get_traced_memory()[0]
        obj._coef(obj.init_point(1), ds.X, ds.y)
        one_state = tracemalloc.get_traced_memory()[1] - level
    finally:
        tracemalloc.stop()
    buffer = EVAL_BLOCK * ds.n * 8
    assert len(peaks) == 3  # 18 states: 8, 8 and a padded 2
    assert max(peaks) <= buffer + one_state + 64 * 1024 < 2 * buffer + one_state


def test_cli_runs_bundled_openblas_on_one_thread(monkeypatch, capsys):
    from dpkf import cli

    blas = objectives._openblas_threads()
    if blas is None:
        pytest.skip("numpy bundles no OpenBLAS")
    get, put = blas
    seen = []

    def command(args):
        seen.append(get())
        if args.steps == 2:
            raise RuntimeError("command failed")
        return 0

    monkeypatch.setattr(cli, "cmd_calibrate", command)
    argv = ["calibrate", "--epsilon", "1", "--delta", "1e-5", "--sampling-rate", "0.1"]
    before = get()
    try:
        put(2)
        assert cli.main([*argv, "--steps", "1"]) == 0
        assert get() == 2
        with pytest.raises(RuntimeError, match="command failed"):
            cli.main([*argv, "--steps", "2"])
        assert get() == 2
    finally:
        put(before)
    assert seen == [1, 1]


def test_run_at_two_blas_threads_gives_the_bytes_train_writes(tmp_path, capsys):
    """``run_experiment`` runs on one OpenBLAS thread whatever its caller set,
    and restores the caller's count: at n 5000 the evaluation's ``W @ X``
    has other bits at two threads than at one."""
    blas = objectives._openblas_threads()
    if blas is None:
        pytest.skip("numpy bundles no OpenBLAS")
    get, put = blas
    raw = {"seed": 3, "objective": {"kind": "logistic-regression", "n": 5000, "p": 50},
           "algorithm": "disk", "T": 20, "privacy": {"epsilon": 2.5},
           "outdir": str(tmp_path / "out")}
    assert cli_main(["train", "--config", write_config(tmp_path, raw)]) == 0
    with open(json.loads(capsys.readouterr().out)["outputs"][0]) as fh:
        written = fh.read()
    before = get()
    try:
        put(2)
        trace = run_experiment(ExperimentConfig.from_dict(raw))
        assert get() == 2
    finally:
        put(before)
    assert "\n".join(trace.csv_lines()) + "\n" == written


@pytest.mark.parametrize(
    "text, match",
    [
        ("", r":1: expected header"),
        ("\n\n", r":1: expected header"),
        ("step,loss\n1,0.5\n", r":1: expected header"),
        (TRACE_HEADER + "\n", r":1: header with no step rows"),
        (TRACE_HEADER + "\n1,0.5,0.1,0.2,inf\n2,0.4,0.1\n", r":3: bad trace row"),
        (TRACE_HEADER + "\n1,0.5,0.1,0.2,inf,7\n", r":2: bad trace row"),
        (TRACE_HEADER + "\n\n1,0.5,x,0.2,inf\n", r":3: bad trace row"),
    ],
    ids=["empty", "blank-lines", "wrong-header", "header-only", "short-row", "long-row",
         "non-number"],
)
def test_read_trace_csv_names_file_and_line_of_a_bad_trace(tmp_path, text, match):
    path = tmp_path / "trace.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"trace.csv{match}"):
        read_trace_csv(str(path))


def test_cli_bounds_rejects_a_header_only_trace(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text(TRACE_HEADER + "\n")
    raw = {"seed": 0, "objective": {"kind": "quadratic", "dim": 2},
           "optimizer": {"eta": 0.05, "sigma_dp": 0.1}}
    with pytest.raises(ValueError, match="header with no step rows"):
        cli_main(["bounds", "--config", write_config(tmp_path, raw), "--trace", str(trace)])


# ---------------------------------------------------------------------------
# The convergence bound's left side, the same in train and bounds
# ---------------------------------------------------------------------------


def test_mean_sq_grad_norm_sums_x0_to_x_t_minus_1():
    records = [harness.StepRecord(t, 0.0, g, 0.0, 0.0) for t, g in ((1, 2.0), (2, 3.0))]
    trace = harness.MetricsTrace(records, loss0=0.0, grad0_norm=1.0, seed=0)
    assert trace.mean_sq_grad_norm == (1.0 + 4.0) / 2


@pytest.mark.parametrize(
    "config",
    [
        {**{k: v for k, v in FULLKF.items() if k != "seed"}, "seeds": [5]},
        SMALL_FULLKF,
    ],
    ids=["seeds-list", "small-fullkf"],
)
def test_train_and_bounds_report_one_mean_sq_grad_norm(tmp_path, capsys, monkeypatch, config):
    monkeypatch.delenv("DISK_SEED", raising=False)
    cfg = write_config(tmp_path, config)
    outdir = tmp_path / "out"
    assert cli_main(["train", "--config", cfg, "--outdir", str(outdir)]) == 0
    train = json.loads(capsys.readouterr().out)["mean_sq_grad_norm"]
    assert cli_main(["bounds", "--config", cfg, "--trace", str(outdir / "trace.csv")]) == 0
    bounds = json.loads(capsys.readouterr().out)["empirical_mean_sq_grad_norm"]
    assert bounds == train  # x_0 evaluated in a padded block by both
