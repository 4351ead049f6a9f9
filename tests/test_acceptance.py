"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned here, not configurable.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from dpkf import seeding
from dpkf.disk import DiskConfig, DiskState, disk_step, dpsgd_step, noise_rows
from dpkf.harness import aggregate_comparison, compare_filters, comparison_noise_levels
from dpkf.kalman import (
    random_stable_system,
    scalar_fixed_point,
    scalar_gain_step,
    simulate_estimation,
)
from dpkf.objectives import (
    full_gradient,
    gen_classification,
    gen_linear_regression,
    make_objective,
)
from dpkf.privacy import (
    calibrate_noise_multiplier,
    compose_and_convert,
    delta_convention,
    subsampled_curve,
)
from dpkf.theory import ProblemConstants, tuned_bound, tuned_params
from reference_methods import (
    calibrate_gaussian,
    classical_gaussian_sigma,
    filter_min_eig,
    gaussian_privacy_profile,
    nag_step,
    per_sample_grad,
    per_sample_loss,
    sample_of,
    storm_step,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} [{name}]: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} [{name}]: PASS")


def test_01_dpsgd_reduction_bit_identical():
    with criterion(1, "kappa=1 equals plain DP-SGD bitwise"):
        start = time.monotonic()
        ds = gen_classification(200, 10, seed=0)
        obj = make_objective("logistic-regression", 10)
        cfg = DiskConfig(
            kappa=1.0, gamma=0.5, eta=0.2, clip=1.0, clip_variant="standard",
            sigma_dp=0.3, base="sgd",
        )
        rows_a = noise_rows(seeding.substream(0, seeding.DP_NOISE), cfg.sigma_dp, 10, 200)
        rows_b = noise_rows(seeding.substream(0, seeding.DP_NOISE), cfg.sigma_dp, 10, 200)
        sa = DiskState(x=np.zeros(10))
        sb = DiskState(x=np.zeros(10))
        batch = (ds.X[:50], ds.y[:50])
        for noise_a, noise_b in zip(rows_a, rows_b):
            sa = disk_step(sa, batch, obj, cfg, noise_a)
            sb = dpsgd_step(sb, batch, obj, cfg, noise_b)
            assert np.array_equal(sa.x, sb.x)  # exact equality, no tolerance
        assert time.monotonic() - start < 5.0


def test_02_lookahead_momentum_reduction():
    with criterion(2, "lookahead-momentum reduction, max |dev| <= 1e-10"):
        start = time.monotonic()
        ds = gen_classification(80, 6, seed=1)
        obj = make_objective("logistic-regression", 6)
        for kappa in (0.3, 0.5, 0.9):
            gamma = (1 - kappa) / kappa
            cfg = DiskConfig(
                kappa=kappa, gamma=gamma, eta=1.0, clip=None, clip_variant="none",
                sigma_dp=0.0, base="sgd", filter_init="zero",
            )
            state = DiskState(x=np.zeros(6))
            rng = seeding.substream(0, seeding.DP_NOISE)
            x_ref, m_ref = np.zeros(6), np.zeros(6)
            worst = 0.0
            for noise in noise_rows(rng, cfg.sigma_dp, 6, 100):
                state = disk_step(state, (ds.X, ds.y), obj, cfg, noise)
                x_ref, m_ref = nag_step(
                    x_ref, m_ref, mu=1 - kappa, eta=kappa, obj=obj, dataset=ds
                )
                worst = max(worst, float(np.abs(state.x - x_ref).max()))
            assert worst <= 1e-10
        assert time.monotonic() - start < 5.0


def test_03_variance_reduced_momentum_reduction():
    with criterion(3, "recursive-momentum reduction, max |dev| <= 1e-10"):
        ds = gen_classification(80, 6, seed=2)
        obj = make_objective("logistic-regression", 6)
        alpha, eta = 0.35, 0.15
        cfg = DiskConfig(
            kappa=alpha, gamma=-1.0, eta=eta, clip=None, clip_variant="none",
            sigma_dp=0.0, base="sgd", filter_init="zero",
        )
        idx = seeding.substream(5, seeding.SAMPLING).integers(0, ds.n, size=100)
        state = DiskState(x=np.zeros(6))
        rng = seeding.substream(0, seeding.DP_NOISE)
        x_ref, x_prev, m_ref = np.zeros(6), np.zeros(6), np.zeros(6)
        worst = 0.0
        for t, noise in enumerate(noise_rows(rng, cfg.sigma_dp, 6, 100)):
            i = int(idx[t])
            state = disk_step(state, (ds.X[[i]], ds.y[[i]]), obj, cfg, noise)
            x_new, m_ref = storm_step(
                x_ref, x_prev, m_ref, alpha=alpha, eta=eta, obj=obj, sample=sample_of(ds, i)
            )
            x_prev, x_ref = x_ref, x_new
            worst = max(worst, float(np.abs(state.x - x_ref).max()))
        assert worst <= 1e-10


def test_04_scalar_gain_fixed_point():
    with criterion(4, "scalar gain hits golden-ratio fixed point at rate c_k"):
        fp = scalar_fixed_point(0.0, 1.0, 1.0)
        p = 0.0
        ratios = []
        prev_err = None
        for _ in range(200):
            p, k = scalar_gain_step(p, 0.0, 1.0, 1.0)
            err = abs(k - fp.k_inf)
            if prev_err is not None and 1e-9 < err < 1e-3:
                ratios.append(err / prev_err)
            prev_err = err
        assert abs(k - 0.618034) <= 1e-6
        assert abs(fp.k_inf - 0.618034) <= 1e-6
        measured = float(np.median(ratios))
        assert abs(measured - fp.c_k) <= 0.05 * fp.c_k
        assert abs(fp.c_k - 0.1459) <= 2e-4


def test_05_filter_beats_raw_observations():
    with criterion(5, "filter MSE beats raw observations by >= 10%"):
        start = time.monotonic()
        sys = random_stable_system(3, seed=0)
        runs = simulate_estimation(sys, steps=10_000, runs=50, seed=0)
        for r in runs:
            assert r.mse_kf < 0.9 * r.mse_raw
        assert filter_min_eig(sys, 10_000) >= -1e-10
        assert time.monotonic() - start < 60.0


def test_06_filter_comparison_ordering():
    with criterion(6, "two-point filter has lowest loss at every noise level"):
        start = time.monotonic()
        levels = comparison_noise_levels(gen_linear_regression(1000, 20, 0.1, 0))
        rows = compare_filters(
            noise_levels=levels, seeds=(0, 1, 2, 3, 4), n=1000, p=20, T=400, kappa=0.5,
        )
        agg = aggregate_comparison(rows)
        for lvl in levels:
            kf = agg[(lvl, "noisy-kf")]
            assert kf <= agg[(lvl, "noisy-gd")]
            assert kf <= agg[(lvl, "noisy-lp")]
        assert time.monotonic() - start < 300.0


def test_07_tuned_parameters_meet_bound():
    with criterion(7, "tuned-rule bound holds empirically on 10/10 seeds"):
        start = time.monotonic()
        d = 10
        H = np.diag(np.linspace(0.5, 2.0, d))
        x0 = 0.7 * seeding.substream(42, seeding.INIT).standard_normal(d)
        pc = ProblemConstants(
            L=2.0,
            gap0=0.5 * float(x0 @ H @ x0),
            grad0_sq=float(np.sum((H @ x0) ** 2)),
            sigma_sgd_sq=0.0,
            dim=d,
        )
        sigma_dp = 0.1
        T = max(1000, math.ceil(tuned_params(pc, sigma_dp, 1000).T_min))
        tp = tuned_params(pc, sigma_dp, T)
        assert tp.T_ok
        rhs = tuned_bound(pc, sigma_dp, T)
        obj = make_objective("quadratic", d, H=H)
        ds = obj.placeholder_dataset(1)
        cfg = DiskConfig(
            kappa=tp.kappa, gamma=-1.0, eta=tp.eta, clip=None, clip_variant="none",
            sigma_dp=sigma_dp, base="sgd",
        )
        for seed in range(10):
            rng = seeding.substream(seed, seeding.DP_NOISE)
            state = DiskState(x=x0.copy())
            total = pc.grad0_sq
            for noise in noise_rows(rng, sigma_dp, d, T):
                state = disk_step(state, (ds.X, ds.y), obj, cfg, noise)
                g = H @ state.x
                total += float(g @ g)
            assert total / T <= rhs
        assert time.monotonic() - start < 60.0


def test_08_privacy_round_trip():
    with criterion(8, "noise-multiplier round trip within 1e-3, monotone"):
        N, q, T = 50_000, 0.01, 2000
        delta = delta_convention(N)
        sigmas = []
        for eps in (0.5, 1.0, 2.0, 4.0, 8.0):
            z = calibrate_noise_multiplier(eps, delta, q, T)
            back = compose_and_convert(subsampled_curve(q, z), T, delta)
            assert abs(back - eps) <= 1e-3
            sigmas.append(z)
        assert all(a > b for a, b in zip(sigmas, sigmas[1:]))


def test_09_gaussian_calibration_tight_and_analytic():
    with criterion(9, "Gaussian calibration tight, below classical rule"):
        for eps in (0.1, 1.0, 4.0):
            sigma = calibrate_gaussian(1.0, eps, 1e-6)
            resid = gaussian_privacy_profile(1.0, eps, sigma) - 1e-6
            assert resid <= 1e-8
            assert gaussian_privacy_profile(1.0, eps, sigma * (1 - 1e-6)) > 1e-6
            assert sigma < classical_gaussian_sigma(1.0, eps, 1e-6)


def test_10_gradient_correctness():
    with criterion(10, "analytic gradients match finite differences"):
        h = 1e-6
        kinds = ("quadratic", "linear-regression", "logistic-regression", "mlp")
        for kind in kinds:
            trials = 0
            for seed in range(4):
                rng = np.random.default_rng(900 + seed)
                if kind == "quadratic":
                    M = rng.standard_normal((4, 4))
                    obj = make_objective(kind, 4, H=M @ M.T / 4 + 0.1 * np.eye(4))
                    ds = obj.placeholder_dataset(6)
                elif kind == "logistic-regression":
                    obj = make_objective(kind, 4)
                    ds = gen_classification(6, 4, seed)
                else:
                    ds = gen_linear_regression(6, 4, 0.3, seed)
                    obj = make_objective(kind, 4)
                for _ in range(25):
                    x = rng.standard_normal(obj.dim)
                    sample = sample_of(ds, int(rng.integers(0, ds.n)))
                    g = per_sample_grad(obj, x, sample)
                    g_fd = np.zeros_like(x)
                    for i in range(len(x)):
                        e = np.zeros_like(x)
                        e[i] = h
                        g_fd[i] = (
                            per_sample_loss(obj, x + e, sample)
                            - per_sample_loss(obj, x - e, sample)
                        ) / (2 * h)
                    rel = np.linalg.norm(g - g_fd) / max(np.linalg.norm(g), 1e-8)
                    assert rel <= 1e-5
                    trials += 1
            assert trials == 100

        # curvature-action identity on quadratics, exact to 1e-10
        rng = np.random.default_rng(31)
        M = rng.standard_normal((5, 5))
        H = M @ M.T / 5
        obj = make_objective("quadratic", 5, H=H)
        ds = obj.placeholder_dataset(2)
        x, dvec = rng.standard_normal(5), rng.standard_normal(5)
        for gamma in (1.0, -2.0, 0.003):
            fd = (full_gradient(obj, x + gamma * dvec, ds) - full_gradient(obj, x, ds)) / gamma
            assert np.abs(fd - H @ dvec).max() <= 1e-10


def test_11_filter_noise_reduction():
    with criterion(11, "filtered-gradient variance at the stationary ratio"):
        d, sigma = 20, 0.1
        obj = make_objective("quadratic", d, H=np.zeros((d, d)))  # grad F == 0
        ds = obj.placeholder_dataset(1)
        for kappa in (0.3, 0.7):
            cfg = DiskConfig(
                kappa=kappa, gamma=0.5, eta=0.1, clip=None, clip_variant="none",
                sigma_dp=sigma,
            )
            filt_sq = []
            for seed in range(100):
                state = DiskState(x=np.zeros(d))
                rng = seeding.substream(seed, seeding.DP_NOISE)
                for noise in noise_rows(rng, sigma, d, 300):
                    state = disk_step(state, (ds.X, ds.y), obj, cfg, noise)
                filt_sq.append(float(state.g_filt @ state.g_filt))
            var_filtered = float(np.mean(filt_sq))
            var_raw = d * sigma**2  # E||w||^2 of the raw observation
            assert var_filtered <= 1.1 * (kappa / (2 - kappa)) * var_raw
            assert var_filtered < var_raw
