import contextlib
import itertools
import math
import warnings
from dataclasses import dataclass, field, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpkf import disk, harness, objectives, privacy, seeding
from dpkf.disk import (
    DiskConfig,
    FILTER_INITS,
    DiskState,
    FullFilterConfig,
    apply_base_update,
    disk_step,
    dpsgd_step,
    noise_rows,
)
from dpkf.kalman import (
    NumericalError,
    _symmetrize,
    scalar_fixed_point,
    scalar_gain_step,
)
from dpkf.objectives import (
    full_gradient,
    full_loss,
    gen_classification,
    gen_linear_regression,
    make_objective,
    minibatches,
    two_point_grads,
)
from dpkf.privacy import clip_batch, clip_sensitivity
from reference_methods import dpsgd_reference_step, nag_step, per_sample_grad, sample_of, storm_step


def rng_for(seed):
    return seeding.substream(seed, seeding.DP_NOISE)


def quadratic_problem(d=5, lo=0.5, hi=2.0):
    obj = make_objective("quadratic", d, H=np.diag(np.linspace(lo, hi, d)))
    return obj, obj.placeholder_dataset(4)


# ---------------------------------------------------------------------------
# base optimizer updates
# ---------------------------------------------------------------------------


def test_sgd_update():
    x, moments = apply_base_update(
        DiskConfig(eta=0.1), np.array([1.0, 2.0]), np.array([0.5, -1.0]), {}
    )
    assert np.allclose(x, [0.95, 2.1])


def test_momentum_accumulates():
    x = np.zeros(1)
    moments = {}
    g = np.array([1.0])
    cfg = DiskConfig(eta=0.1, base="momentum", momentum=0.9)
    x, moments = apply_base_update(cfg, x, g, moments)
    assert x[0] == pytest.approx(-0.1)
    x, moments = apply_base_update(cfg, x, g, moments)
    assert x[0] == pytest.approx(-0.1 - 0.19)


def test_adam_constant_gradient_approaches_sign_step():
    # After many identical gradients the bias-corrected ratio m/sqrt(v)
    # approaches sign(g), so |step| approaches eta.
    eta = 0.01
    g = np.array([3.0, -0.2])
    x = np.zeros(2)
    moments = {}
    cfg = DiskConfig(eta=eta, base="adam")
    for _ in range(500):
        x_prev = x
        x, moments = apply_base_update(cfg, x, g, moments)
    step = x - x_prev
    assert np.abs(np.abs(step) - eta).max() <= 1e-3 * eta


def test_adamw_pure_decay_with_zero_gradient():
    x = np.array([2.0, -4.0])
    cfg = DiskConfig(eta=0.1, base="adamw", weight_decay=0.5)
    out, _ = apply_base_update(cfg, x, np.zeros(2), {})
    assert np.allclose(out, (1 - 0.1 * 0.5) * x)


# ---------------------------------------------------------------------------
# plain DP-SGD
# ---------------------------------------------------------------------------


def test_dpsgd_is_gradient_descent_without_noise():
    obj, ds = quadratic_problem()
    L = obj.smoothness()
    cfg = DiskConfig(kappa=1.0, eta=1.0 / L, clip=None, clip_variant="none", sigma_dp=0.0)
    state = DiskState(x=np.ones(5))
    losses = [full_loss(obj, state.x, ds)]
    for noise in noise_rows(rng_for(0), cfg.sigma_dp, 5, 40):
        state = dpsgd_step(state, (ds.X, ds.y), obj, cfg, noise)
        losses.append(full_loss(obj, state.x, ds))
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_dpsgd_update_norm_bound():
    # Single-sample batch with tiny clip: ||x' - x|| <= eta (C + ||w||).
    ds = gen_classification(10, 4, seed=2)
    obj = make_objective("logistic-regression", 4)
    C, eta, sigma = 0.05, 0.3, 0.2
    cfg = DiskConfig(kappa=1.0, eta=eta, clip=C, clip_variant="standard", sigma_dp=sigma)
    for seed in range(10):
        (noise,) = noise_rows(rng_for(seed), sigma, 4, 1)
        # reproduce the noise by re-drawing from an identical stream
        w = sigma * rng_for(seed).standard_normal(4)
        state = DiskState(x=np.zeros(4))
        out = dpsgd_step(state, (ds.X[:1], ds.y[:1]), obj, cfg, noise)
        assert np.linalg.norm(out.x - state.x) <= eta * (C + np.linalg.norm(w)) + 1e-12


def test_disk_with_kappa_one_is_dpsgd_bitwise():
    ds = gen_classification(40, 6, seed=3)
    obj = make_objective("logistic-regression", 6)
    cfg = DiskConfig(kappa=1.0, gamma=0.5, eta=0.2, clip=1.0, clip_variant="standard", sigma_dp=0.4)
    rows_a, rows_b = (noise_rows(rng_for(7), cfg.sigma_dp, 6, 60) for _ in range(2))
    sa = DiskState(x=np.ones(6))
    sb = DiskState(x=np.ones(6))
    for noise_a, noise_b in zip(rows_a, rows_b):
        sa = disk_step(sa, (ds.X[:8], ds.y[:8]), obj, cfg, noise_a)
        sb = dpsgd_reference_step(sb, (ds.X[:8], ds.y[:8]), obj, cfg, noise_b)
        assert np.array_equal(sa.x, sb.x)


@pytest.mark.parametrize("base", ["momentum", "adam", "adamw"])
@pytest.mark.parametrize("clip", [{"clip": 1.0, "clip_variant": "standard"},
                                  {"clip": None, "clip_variant": "none"}], ids=["clipped", "unclipped"])
def test_dpsgd_step_is_the_reference_on_any_base(base, clip):
    """``dpsgd_step`` steps at kappa 1 on the sgd base whatever the config's
    kappa and base: every state has the bits of the written-out reference."""
    ds = gen_classification(40, 6, seed=3)
    obj = make_objective("logistic-regression", 6)
    cfg = DiskConfig(kappa=0.6, gamma=0.5, eta=0.2, sigma_dp=0.4, base=base,
                     weight_decay=0.1, **clip)
    rows_a, rows_b = (noise_rows(rng_for(7), cfg.sigma_dp, 6, 30) for _ in range(2))
    sa = sb = DiskState(x=np.ones(6))
    for t, (noise_a, noise_b) in enumerate(zip(rows_a, rows_b)):
        batch = ds.subset(np.arange(8 * (t % 5), 8 * (t % 5) + 8))
        sa = dpsgd_step(sa, batch, obj, cfg, noise_a)
        sb = dpsgd_reference_step(sb, batch, obj, cfg, noise_b)
        for name in ("x", "g_filt", "d_prev"):
            assert getattr(sa, name).tobytes() == getattr(sb, name).tobytes()
        assert (sa.moments, sa.t) == ({}, sb.t)


# ---------------------------------------------------------------------------
# reductions to reference methods
# ---------------------------------------------------------------------------


def test_nag_step_mu_zero_is_gradient_descent():
    ds = gen_linear_regression(20, 3, 0.1, seed=0)
    obj = make_objective("linear-regression", 3)
    x = np.ones(3)
    x1, m1 = nag_step(x, np.zeros(3), mu=0.0, eta=0.05, obj=obj, dataset=ds)
    assert np.allclose(x1, x - 0.05 * full_gradient(obj, x, ds), atol=1e-15)


def test_nag_step_hand_example():
    obj = make_objective("quadratic", 1, H=np.eye(1))
    ds = obj.placeholder_dataset(1)
    x1, m1 = nag_step(np.array([1.0]), np.array([0.0]), mu=0.5, eta=0.1, obj=obj, dataset=ds)
    assert m1[0] == pytest.approx(0.1)
    assert x1[0] == pytest.approx(0.9)


@pytest.mark.parametrize("kappa", [0.3, 0.5, 0.9])
def test_filtered_optimizer_matches_lookahead_momentum(kappa):
    # gamma = (1-kappa)/kappa makes the two-point weight on the anchor vanish;
    # with zero filter init and unit base step the iterates coincide with the
    # momentum method at mu = 1-kappa, eta = kappa.
    ds = gen_classification(60, 5, seed=3)
    obj = make_objective("logistic-regression", 5)
    gamma = (1 - kappa) / kappa
    cfg = DiskConfig(
        kappa=kappa, gamma=gamma, eta=1.0, clip=None, clip_variant="none",
        sigma_dp=0.0, base="sgd", filter_init="zero",
    )
    state = DiskState(x=np.zeros(5))
    x_ref = np.zeros(5)
    m_ref = np.zeros(5)
    for noise in noise_rows(rng_for(0), cfg.sigma_dp, 5, 100):
        state = disk_step(state, (ds.X, ds.y), obj, cfg, noise)
        x_ref, m_ref = nag_step(x_ref, m_ref, mu=1 - kappa, eta=kappa, obj=obj, dataset=ds)
        assert np.abs(state.x - x_ref).max() <= 1e-10


def test_storm_step_alpha_one_is_sgd():
    ds = gen_classification(10, 3, seed=1)
    obj = make_objective("logistic-regression", 3)
    x = np.ones(3)
    sample = sample_of(ds, 4)
    x1, m1 = storm_step(x, np.zeros(3), np.ones(3) * 9, alpha=1.0, eta=0.2, obj=obj, sample=sample)
    assert np.allclose(x1, x - 0.2 * per_sample_grad(obj, x, sample), atol=1e-14)


def test_storm_telescoping_identity():
    # With identical per-sample gradients (quadratic), an exact momentum stays
    # exact: m = grad(x_prev) implies m' = grad(x).
    obj, ds = quadratic_problem(4)
    x_prev = np.array([1.0, -1.0, 0.5, 2.0])
    x = np.array([0.3, 0.7, -0.2, 1.0])
    m = per_sample_grad(obj, x_prev, sample_of(ds, 0))
    _, m1 = storm_step(x, x_prev, m, alpha=0.3, eta=0.1, obj=obj, sample=sample_of(ds, 0))
    assert np.allclose(m1, per_sample_grad(obj, x, sample_of(ds, 0)), atol=1e-14)


@pytest.mark.parametrize("alpha", [0.2, 0.5])
def test_filtered_optimizer_matches_storm(alpha):
    # gamma = -1 turns the lookahead into the previous iterate, so single-
    # sample batches reproduce the recursive variance-reduced estimator.
    ds = gen_classification(60, 5, seed=3)
    obj = make_objective("logistic-regression", 5)
    eta = 0.15
    cfg = DiskConfig(
        kappa=alpha, gamma=-1.0, eta=eta, clip=None, clip_variant="none",
        sigma_dp=0.0, base="sgd", filter_init="zero",
    )
    idx = seeding.substream(11, seeding.SAMPLING).integers(0, ds.n, size=100)
    state = DiskState(x=np.zeros(5))
    x_ref = np.zeros(5)
    x_prev = np.zeros(5)
    m_ref = np.zeros(5)
    for t, noise in enumerate(noise_rows(rng_for(0), cfg.sigma_dp, 5, 100)):
        i = int(idx[t])
        state = disk_step(state, (ds.X[[i]], ds.y[[i]]), obj, cfg, noise)
        x_new, m_ref = storm_step(
            x_ref, x_prev, m_ref, alpha=alpha, eta=eta, obj=obj, sample=sample_of(ds, i)
        )
        x_prev, x_ref = x_ref, x_new
        assert np.abs(state.x - x_ref).max() <= 1e-10


# ---------------------------------------------------------------------------
# structural properties of the filtered step
# ---------------------------------------------------------------------------


def test_clipping_inactive_below_threshold():
    # When every combined per-sample gradient stays below C, standard clipping
    # is a no-op: same trajectory as clip "none" under a shared noise stream.
    ds = gen_classification(30, 4, seed=5)
    obj = make_objective("logistic-regression", 4)
    base = dict(kappa=0.6, gamma=0.8, eta=0.1, sigma_dp=0.05, base="sgd")
    cfg_clip = DiskConfig(clip=50.0, clip_variant="standard", **base)
    cfg_none = DiskConfig(clip=None, clip_variant="none", **base)
    sa, sb = DiskState(x=np.zeros(4)), DiskState(x=np.zeros(4))
    ra, rb = (noise_rows(rng_for(3), base["sigma_dp"], 4, 50) for _ in range(2))
    for noise_a, noise_b in zip(ra, rb):
        sa = disk_step(sa, (ds.X, ds.y), obj, cfg_clip, noise_a)
        sb = disk_step(sb, (ds.X, ds.y), obj, cfg_none, noise_b)
        assert np.abs(sa.x - sb.x).max() <= 1e-12


def test_minibatch_observation_is_unbiased():
    # Mean over every size-2 batch of N=6 equals the two-point combination of
    # full gradients (no clipping, no noise).
    ds = gen_classification(6, 3, seed=9)
    obj = make_objective("logistic-regression", 3)
    x = np.array([0.2, -0.4, 0.1])
    d_prev = np.array([0.05, 0.02, -0.03])
    kappa, gamma = 0.5, 0.7
    batch_means = []
    for idx in itertools.combinations(range(6), 2):
        G = two_point_grads(obj, x, d_prev, gamma, kappa, ds.X[list(idx)], ds.y[list(idx)])
        batch_means.append(G.mean(axis=0))
    avg = np.mean(batch_means, axis=0)
    a = (1 - kappa) / (kappa * gamma)
    expect = a * full_gradient(obj, x + gamma * d_prev, ds) + (1 - a) * full_gradient(obj, x, ds)
    assert np.abs(avg - expect).max() <= 1e-12


def test_trajectory_deterministic_per_seed():
    ds = gen_classification(20, 4, seed=0)
    obj = make_objective("logistic-regression", 4)
    cfg = DiskConfig(kappa=0.7, gamma=0.5, eta=0.2, clip=1.0, clip_variant="automatic", sigma_dp=0.3)

    def run(seed):
        state = DiskState(x=np.zeros(4))
        xs = []
        for noise in noise_rows(rng_for(seed), cfg.sigma_dp, 4, 30):
            state = disk_step(state, (ds.X, ds.y), obj, cfg, noise)
            xs.append(state.x.copy())
        return np.array(xs)

    assert np.array_equal(run(4), run(4))
    assert not np.array_equal(run(4), run(5))


def test_filter_variance_reduction_at_stationary_point():
    # Zero curvature keeps grad F identically zero, so the filtered gradient is
    # a pure exponential average of the injected noise: its variance settles at
    # kappa/(2-kappa) of the raw observation variance.
    d, sigma = 20, 0.1
    obj = make_objective("quadratic", d, H=np.zeros((d, d)))
    ds = obj.placeholder_dataset(1)
    kappa = 0.5
    cfg = DiskConfig(kappa=kappa, gamma=0.5, eta=0.1, clip=None, clip_variant="none", sigma_dp=sigma)
    filt_sq, raw_sq = [], []
    for seed in range(60):
        state = DiskState(x=np.zeros(d))
        for noise in noise_rows(rng_for(seed), sigma, d, 200):
            state = disk_step(state, (ds.X, ds.y), obj, cfg, noise)
        filt_sq.append(float(state.g_filt @ state.g_filt))
        raw_sq.append(d * sigma**2)
    ratio = np.mean(filt_sq) / np.mean(raw_sq)
    assert ratio <= 1.1 * kappa / (2 - kappa)
    assert np.mean(filt_sq) < np.mean(raw_sq)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("kind", ["linear-regression", "mlp"])
def test_non_finite_gradients_abort(kind):
    obj = make_objective(kind, 2, hidden=3)
    cfg = DiskConfig(kappa=1.0, eta=0.1, clip=None, clip_variant="none")
    state = DiskState(x=np.full(obj.dim, 1e308))
    X = np.array([[1e308, 1e308]])
    y = np.array([0.0])
    with pytest.raises(FloatingPointError, match="non-finite"):
        disk_step(state, (X, y), obj, cfg, None)
    # A NaN feature or an infinite target, clipped and unclipped, at one point
    # and at two; the message names the step.
    X = np.array([[1.0, 2.0], [3.0, -4.0], [0.5, 0.25]])
    y = np.array([0.5, -0.5, 1.0])
    nan_X, inf_y = X.copy(), y.copy()
    nan_X[1, 0] = np.nan
    inf_y[2] = np.inf
    configs = [
        cfg,
        DiskConfig(kappa=0.6, two_point=False, clip=None, clip_variant="none"),
        DiskConfig(kappa=0.6, clip=None, clip_variant="none"),  # unclipped two-point
        DiskConfig(kappa=1.0, clip=1.0, clip_variant="standard"),
        DiskConfig(kappa=0.6, clip=1.0, clip_variant="automatic"),
        DiskConfig(kappa=0.6, clip=1.0, clip_variant="normalized"),
    ]
    x0 = np.random.default_rng(1).standard_normal(obj.dim)
    for opt, batch in itertools.product(configs, [(nan_X, y), (X, inf_y)]):
        for step_fn in (disk_step, dpsgd_step):
            with pytest.raises(FloatingPointError, match=r"^step 7: \d+ non-finite"):
                step_fn(DiskState(x=x0, d_prev=0.1 * x0, t=7), batch, obj, opt, None)
    if kind != "linear-regression":
        return
    # Full batch from the Gram statistics: a step far above 2/L diverges, and
    # the steps stop at the one whose mean overflows instead of tracing NaNs;
    # a run stops before that, at the first state whose loss overflows.
    raw = {"seed": 3, "objective": {"kind": kind, "n": 30, "p": 2}, "algorithm": "noisy-gd",
           "optimizer": {"sigma_dp": 0.1}, "T": 5000, "B": 30}
    ds = harness.build_problem(raw["objective"], 3)[1]
    raw["optimizer"]["eta"] = 100.0 / obj.smoothness(ds)
    cfg = harness.ExperimentConfig.from_dict(raw)
    with pytest.raises(FloatingPointError, match=r"^step \d+: \d+ non-finite mean gradient"):
        for _ in harness._trajectory(cfg, harness.resolve_optimizer(cfg, ds.n)[0], 3, (obj, ds)):
            pass
    with pytest.raises(FloatingPointError, match=r"^step \d+: non-finite evaluation, loss inf"):
        harness.run_experiment(cfg, problem=(obj, ds))
    # an empty batch is refused before the dataset builds any statistics
    fresh = gen_linear_regression(30, 2, 0.1, seed=3)
    with pytest.raises(ValueError, match="batch must be non-empty"):
        disk_step(DiskState(x=x0), fresh.subset(np.arange(0)), obj, configs[0], None)
    assert "second_moment" not in vars(fresh) and "moment_xy" not in vars(fresh)


@pytest.mark.parametrize("variant", ["standard", "automatic", "normalized"])
@pytest.mark.parametrize("kind", ["linear-regression", "logistic-regression", "mlp"])
def test_a_nan_feature_reaches_the_named_error_without_a_warning(kind, variant):
    """A clipped row with a NaN factor entry is not rescaled (scaling its
    finite entries would overflow): the step raises the error naming the
    step, and numpy warns of nothing on the way."""
    obj, ds = single_point_problem(kind)
    X, y = ds.subset(np.arange(30))
    X = X.copy()
    X[7, 2] = np.nan
    x0 = obj.init_point(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kappa in (1.0, 0.6):
            cfg = DiskConfig(kappa=kappa, clip=1.0, clip_variant=variant)
            with pytest.raises(FloatingPointError, match=r"^step 7: \d+ non-finite"):
                disk_step(DiskState(x=x0, d_prev=0.1 * x0, t=7), (X, y), obj, cfg, None)
        G = np.array([[3.0, 4.0], [np.nan, 1e-170], [1e200, 0.0]])
        out = clip_batch(G, 0.5, variant)
    assert np.isnan(out[1]).any()
    assert np.array_equal(out[[0, 2]], clip_batch(G[[0, 2]], 0.5, variant))


# ---------------------------------------------------------------------------
# the privatised observation, against the per-sample and clipped matrices
# ---------------------------------------------------------------------------


def matrix_observe(G, cfg, rng):
    """Reference observation: average a clipped copy of G, then add the noise."""
    g = clip_batch(G, cfg.clip, cfg.clip_variant).mean(axis=0)
    if cfg.sigma_dp > 0:
        g = g + cfg.sigma_dp * rng.standard_normal(g.shape[0])
    return g


def matrix_rows(obj, x, batch, ahead=None, a=0.0):
    """Reference per-sample matrix: the rows at x, or a * ahead + (1 - a) * here."""
    here = obj.per_sample_grads(x, *batch)
    return here if ahead is None else a * obj.per_sample_grads(ahead, *batch) + (1.0 - a) * here


def row_norms(A):
    """||A_i|| for each row, scaled so that no square overflows."""
    top = np.abs(A).max(axis=1, keepdims=True)
    top[top == 0] = 1.0
    return top[:, 0] * np.linalg.norm(A / top, axis=1)


def summand_scale(obj, x, batch, ahead, a, cfg):
    """Mean over rows of the clip factor times |a| ||g_i(ahead)|| + |1 - a| ||g_i(x)||:
    the size of what the observation adds up, so the scale of its rounding,
    which a mean that cancels (rows of opposite signs, or the two points at
    a large a) does not show."""
    G = matrix_rows(obj, x, batch, ahead, a)
    norms = row_norms(G)
    factors = np.divide(row_norms(clip_batch(G, cfg.clip, cfg.clip_variant)), norms,
                        out=np.zeros_like(norms), where=norms > 0)
    here = row_norms(obj.per_sample_grads(x, *batch))
    if ahead is None:
        return float(np.mean(factors * here))
    return float(np.mean(factors * (abs(a) * row_norms(obj.per_sample_grads(ahead, *batch))
                                    + abs(1.0 - a) * here)))


KINDS = ["quadratic", "linear-regression", "logistic-regression", "mlp"]
HUGE_FEATURE, HUGE_TARGET = 1e200, 1e250


def observation_problem(kind, p, B, a, rng, zero=(), huge_x=(), huge_c=()):
    """An objective, a batch, x and the lookahead point (None when a is None).

    Rows in ``zero`` have a zero gradient (zero features; for the MLP at one
    point, a target equal to its output; for the quadratic, whose rows are all
    one vector H (x - x*), x = x* makes every row zero). Rows in ``huge_x``
    have features of 1e200, whose squared norm overflows; rows in ``huge_c`` a
    target of 1e250, so |c_i| ||x_i|| overflows when squared. For the
    quadratic either makes x of order 1e200. The linear models put the huge
    feature on a coordinate where x and the lookahead are 0, so c_i stays
    finite, and the logistic coefficient is bounded, so it takes no huge_c.
    """
    if kind == "quadratic":
        M = rng.standard_normal((p, p))
        obj = make_objective(kind, p, H=M @ M.T / p + 0.1 * np.eye(p))
    else:
        obj = make_objective(kind, p, hidden=int(rng.integers(1, 5)))
    X = rng.standard_normal((B, p))
    y = np.sign(rng.standard_normal(B)) if kind == "logistic-regression" else rng.standard_normal(B)
    x = rng.standard_normal(obj.dim)
    ahead = None if a is None else x + rng.standard_normal(obj.dim)
    if kind == "quadratic":
        if zero:
            x = obj.x_star.copy()
            ahead = None if a is None else x.copy()
        elif huge_x or huge_c:
            x = HUGE_FEATURE * x
            ahead = None if a is None else HUGE_FEATURE * ahead
        return obj, (obj.placeholder_dataset(B).X, np.zeros(B)), x, ahead
    for i in huge_x:
        if kind == "mlp":  # tanh saturates: d_pre_i = 0 times ||[x_i, 1]|| = inf
            X[i] = HUGE_FEATURE * rng.standard_normal(p)
        else:
            X[i] = 0.0
            X[i, 0] = HUGE_FEATURE
            x[0] = 0.0
            if ahead is not None:
                ahead[0] = 0.0
    if kind != "logistic-regression":
        y[list(set(huge_c) - set(huge_x))] = HUGE_TARGET  # both would overflow g_i itself
    for i in zero:
        X[i] = 0.0
        if kind == "mlp" and a is None:
            y[i] = obj._forward(x, X[i : i + 1])[1][0]
    return obj, (X, y), x, ahead


@st.composite
def observation_cases(draw):
    kind = draw(st.sampled_from(KINDS))
    p = draw(st.one_of(st.just(1), st.integers(2, 8)))
    B = draw(st.integers(1, 40))
    # None: one point; 1e4: a full-kf weight, k_t = 1/(t+1) ~ 1e-2 at gamma = 0.01
    a = draw(st.sampled_from([None, 0.3, -1.5, 1.0, 1e4]))
    rows = st.lists(st.integers(0, B - 1), max_size=2)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    obj, batch, x, ahead = observation_problem(
        kind, p, B, a, rng, zero=draw(rows), huge_x=draw(rows), huge_c=draw(rows)
    )
    return obj, batch, x, ahead, a


@settings(max_examples=400, deadline=None)
@given(
    case=observation_cases(),
    variant=st.sampled_from(disk.CLIP_VARIANTS),
    C=st.floats(1e-3, 1e3),
)
def test_factored_observation_matches_per_sample_matrix(case, variant, C):
    obj, batch, x, ahead, a = case
    cfg = DiskConfig(clip=C, clip_variant=variant, sigma_dp=0.0)
    got = disk._observe(obj, x, batch, cfg, None, 0, ahead, 0.0 if a is None else a)
    want = matrix_observe(matrix_rows(obj, x, batch, ahead, a), cfg, rng_for(0))
    assert row_norms((got - want)[None])[0] <= 1e-12 * summand_scale(obj, x, batch, ahead, a, cfg)


@st.composite
def gram_cases(draw):
    p = draw(st.one_of(st.just(1), st.integers(2, 8)))
    B = draw(st.integers(1, 40))
    a = draw(st.sampled_from([None, -1.0, 0.3, 1e4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = st.lists(st.integers(0, B - 1), max_size=2)
    huge_x = draw(st.one_of(st.just([]), rows))
    obj, batch, x, ahead = observation_problem(
        "linear-regression", p, B, a, rng, zero=draw(rows), huge_x=huge_x
    )
    return obj, batch, x, ahead, a, huge_x


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@settings(max_examples=300, deadline=None)
@given(case=gram_cases())
def test_gram_observation_matches_per_sample_matrix(case):
    """Unclipped over a whole linear-regression dataset, the observation is
    G z - b; it matches the per-sample mean to the scale of its summands. A
    1e200 feature overflows G, and the observation falls back to the rows."""
    obj, batch, x, ahead, a, huge_x = case
    cfg = DiskConfig(clip=None, clip_variant="none", sigma_dp=0.0)
    ds = objectives.Dataset(*batch)
    rows_path = mock.patch.object(type(obj), "grad_factors", side_effect=AssertionError("rows"))
    with contextlib.nullcontext() if huge_x else rows_path:
        got = disk._observe(obj, x, ds, cfg, None, 0, ahead, 0.0 if a is None else a)
    want = matrix_observe(matrix_rows(obj, x, batch, ahead, a), cfg, rng_for(0))
    assert row_norms((got - want)[None])[0] <= 1e-12 * summand_scale(obj, x, batch, ahead, a, cfg)


@pytest.mark.parametrize("kind, huge", [
    (kind, huge) for kind in KINDS for huge in ("huge_x", "huge_c")
    if (kind, huge) != ("logistic-regression", "huge_c")  # its coefficient is bounded by 1
] + [("linear-regression", "tiny")])
@pytest.mark.parametrize("variant", ["standard", "automatic", "normalized"])
@pytest.mark.parametrize("a", [None, 1e4], ids=["one-point", "two-point"])
def test_overflowing_row_clips_to_the_sensitivity(kind, huge, variant, a):
    """A lone row whose factored squared norm overflows clips to exactly the
    variant's sensitivity: its norm is above C. A tiny row, whose squared
    norm underflows, clips from its true norm, below C."""
    rows = {"huge_x" if huge == "tiny" else huge: [0]}
    obj, batch, x, ahead = observation_problem(kind, 3, 1, a, np.random.default_rng(7), **rows)
    if huge == "tiny":  # coefficient 3e-100 times features of norm 5e-70
        batch[0][0, 0], batch[1][0] = 5e-70, -3e-100
    a = 0.0 if a is None else a
    fac = obj.grad_factors(x, *batch, ahead, a)
    with np.errstate(over="ignore", invalid="ignore"):  # the MLP's huge_x is 0 * inf
        sq = sum(np.sum(c**2) * np.sum(f**2) for c, f in zip(fac.coefs, fac.feats))
    assert sq == 0.0 if huge == "tiny" else not np.isfinite(sq)
    C = 1e-3
    g = disk._observe(obj, x, batch, DiskConfig(clip=C, clip_variant=variant), None, 0, ahead, a)
    want = clip_sensitivity(variant, C)
    if huge == "tiny":
        norm = abs(fac.coefs[0][0, 0]) * 5e-70
        want = {"standard": norm, "automatic": C, "normalized": norm / C}[variant]
    assert row_norms(g[None])[0] == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("kind", KINDS)
def test_steps_form_no_per_sample_matrix(kind, monkeypatch):
    """Every step, clipped or not, at one point or two, works from the factors."""
    obj, ds = single_point_problem(kind)

    def refuse(*args, **kwargs):
        raise AssertionError("a step formed or clipped the per-sample matrix")

    monkeypatch.setattr(type(obj), "per_sample_grads", refuse)
    monkeypatch.setattr(objectives.GradFactors, "rows", refuse)
    monkeypatch.setattr(objectives, "two_point_grads", refuse)
    monkeypatch.setattr(privacy, "clip_batch", refuse)
    for clip in ({"clip": 1.0, "clip_variant": "standard"}, {"clip": None, "clip_variant": "none"}):
        for kappa in (1.0, 0.6):
            cfg = DiskConfig(kappa=kappa, eta=0.05, sigma_dp=0.1, **clip)
            gains = FullFilterConfig().gains()  # full-kf's (k_t, gamma), t = 1, 2, 3
            for step in (disk_step, dpsgd_step, lambda s, b, o, c, r: disk_step(
                    s, b, o, c, r, *next(gains))):
                state = DiskState(x=obj.init_point(1))
                for t in range(3):
                    (noise,) = noise_rows(rng_for(t), cfg.sigma_dp, obj.dim, 1)
                    state = step(state, ds.subset(np.arange(8 * t, 8 * t + 8)), obj, cfg, noise)
                assert np.isfinite(state.x).all()


@pytest.mark.parametrize("d", [1, 20, 2**15], ids=["d1", "d20", "d32768"])
def test_noise_rows_are_the_per_step_draws(d):
    """A run's noise rows, drawn in blocks, are the numbers of one
    ``standard_normal(d)`` a step, scaled: across block edges (64 rows, or
    4 at d = 2^15, where a block is capped near 1 MB), and the generator is
    left where the per-step draws leave it. At sigma 0 every row is None."""
    for T in (1, 63, 64, 65, 130) if d < 2**15 else (1, 4, 9):
        rng, per_step = rng_for(3), rng_for(3)
        rows = list(noise_rows(rng, 0.7, d, T))
        assert len(rows) == T
        for row in rows:
            assert row.tobytes() == (0.7 * per_step.standard_normal(d)).tobytes()
        assert rng.standard_normal() == per_step.standard_normal()
        assert list(noise_rows(rng_for(3), 0.0, d, T)) == [None] * T


@pytest.mark.parametrize("sigma_dp, noise, match", [
    (0.1, None, "needs a noise row, got None"),
    (0.0, np.zeros(4), "takes no noise row"),
    (0.1, np.zeros(3), r"shape \(4,\), got ndarray of shape \(3,\)"),
    (0.1, np.zeros((1, 4)), r"shape \(4,\), got ndarray of shape \(1, 4\)"),
    (0.1, [0.0] * 4, "got list"),
    (0.1, rng_for(0), "got Generator"),
], ids=["missing", "at-sigma-0", "short", "2d", "list", "generator"])
@pytest.mark.parametrize("step_fn", [disk_step, dpsgd_step])
def test_steps_refuse_a_missing_or_stray_noise_row(step_fn, sigma_dp, noise, match):
    """No step releases an un-noised mean: a missing row, a row at sigma_dp
    0, and a row that is not an array of x's shape (a stray ``Generator``
    among them) each raise before anything is observed."""
    obj, ds = quadratic_problem(4)
    cfg = DiskConfig(sigma_dp=sigma_dp)
    with mock.patch.object(type(obj), "grad_factors", side_effect=AssertionError("observed")):
        with pytest.raises(ValueError, match=f"^step 3: .*{match}"):
            step_fn(DiskState(x=np.ones(4), t=3), (ds.X, ds.y), obj, cfg, noise)


def test_finiteness_checks_raise_no_warning():
    """Under warnings as errors the observation decides as an entrywise test
    does. A whole-dataset mean with entries near 1e200, whose squares
    overflow, stays on the Gram path with its bits; a non-finite Gram
    statistic falls back to the factors, whose finite mean has entries near
    1e297; a non-finite factored mean raises the error naming the step."""
    obj = make_objective("linear-regression", 3)
    rng = np.random.default_rng(0)
    X, x = rng.standard_normal((30, 3)), rng.standard_normal(3)
    cfg = DiskConfig(kappa=1.0, eta=0.1, clip=None, clip_variant="none", sigma_dp=0.1)
    (noise,) = noise_rows(rng_for(2), cfg.sigma_dp, 3, 1)
    huge = objectives.Dataset(X, 1e200 * rng.standard_normal(30))
    X_big = X.copy()
    X_big[0, 0] = 1.5e154  # its square overflows G = X^T X / n, not c_0 x_0
    big = objectives.Dataset(X_big, rng.standard_normal(30))
    with np.errstate(over="ignore"):
        assert not np.isfinite(big.second_moment).all()
    x_big = np.array([1e-10, 0.5, -0.3])
    X_nan = X.copy()
    X_nan[1, 1] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = obj.dataset_mean_grad(huge, x) + noise
        assert np.abs(want).max() > 1e198
        with mock.patch.object(type(obj), "grad_factors", side_effect=AssertionError("rows")):
            got = disk_step(DiskState(x=x), huge, obj, cfg, noise)
        assert got.g_filt.tobytes() == want.tobytes()
        got = disk._observe(obj, x_big, big, cfg, noise, 0)
        want = obj.grad_factors(x_big, big.X, big.y).mean() + noise
        assert np.abs(want).max() > 1e296
        assert got.tobytes() == want.tobytes()
        with pytest.raises(FloatingPointError, match=r"^step 6: 3 non-finite mean gradient"):
            disk._observe(obj, x, (X_nan, huge.y / 1e200), cfg, noise, 6)


# ---------------------------------------------------------------------------
# Stacks: k runs stepped as the rows of one state
# ---------------------------------------------------------------------------


def stack_problem(p=5, seed=4):
    """A whole linear-regression dataset and p starting points, one a row."""
    obj = make_objective("linear-regression", p)
    return obj, gen_linear_regression(40, p, 0.1, seed=seed), 0.3 * rng_for(seed + 1).standard_normal((p, p))


def assert_rows_are_single_runs(stack, singles):
    for i, single in enumerate(singles):
        for name in ("x", "g_filt", "d_prev"):
            assert getattr(stack, name)[i].tobytes() == getattr(single, name).tobytes(), (name, i)
        assert stack.t == single.t


@pytest.mark.parametrize("filter_init", FILTER_INITS)
@pytest.mark.parametrize("method", harness.COMPARISON_METHODS)
@pytest.mark.parametrize("sigma_dp", [0.0, 0.2])
def test_stacked_step_is_each_row_stepped_alone(method, filter_init, sigma_dp):
    """k = p runs stepped as one stack (so ``G @ Z`` would be a wrong product of
    the right shape) keep each run's bytes: the observation's per-row
    products, and the ahead point, filter and base update elementwise."""
    obj, ds, xs = stack_problem()
    k, p = xs.shape
    cfg = replace(DiskConfig(kappa=0.6, gamma=-1.0, eta=0.2, clip=None, clip_variant="none",
                             sigma_dp=sigma_dp, filter_init=filter_init),
                  **harness.PRESETS[method].overrides)
    streams = [noise_rows(rng_for(10 + i), sigma_dp * (i + 1), p, 6) for i in range(k)]
    stack, singles = DiskState(x=xs.copy()), [DiskState(x=x.copy()) for x in xs]
    for rows in zip(*streams):
        noise = None if sigma_dp == 0 else np.array(rows)
        stack = disk_step(stack, ds, obj, cfg, noise)
        singles = [disk_step(s, ds, obj, cfg, row) for s, row in zip(singles, rows)]
    assert stack.x.shape == (k, p)
    assert_rows_are_single_runs(stack, singles)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_stack_whose_gram_mean_overflows_falls_back_row_by_row():
    """A 1.5e154 feature overflows G = X^T X / n but no row's factors: each
    row of the stack then observes from its factors, with the bytes of its
    run stepped alone, and a row whose factored mean is not finite raises the
    error naming the step."""
    obj, ds, xs = stack_problem(p=3)
    X_big = np.array(ds.X)
    X_big[0, 0] = 1.5e154
    big = objectives.Dataset(X_big, ds.y)
    # a step this short keeps x near its start, where the big row's gradient nears 1e307
    cfg = DiskConfig(kappa=0.5, gamma=-1.0, eta=1e-310, clip=None, clip_variant="none", sigma_dp=0.1)
    noise = 0.1 * rng_for(2).standard_normal(xs.shape)
    stack, singles = DiskState(x=xs.copy()), [DiskState(x=x.copy()) for x in xs]
    for _ in range(2):
        stack = disk_step(stack, big, obj, cfg, noise)
        singles = [disk_step(s, big, obj, cfg, row) for s, row in zip(singles, noise)]
    assert (~np.isfinite(obj.dataset_mean_grad(big, stack.x))).any(axis=1).all()
    assert np.isfinite(stack.g_filt).all()
    assert_rows_are_single_runs(stack, singles)
    xs[1] = 1e300  # its residual on the big row overflows
    with pytest.raises(FloatingPointError, match=r"^step 4: .*non-finite mean gradient"):
        disk._observe(obj, xs, big, cfg, noise, 4)


@pytest.mark.parametrize("kind, variant, whole", [
    ("linear-regression", "standard", True),  # clipped
    ("linear-regression", "automatic", True),
    ("linear-regression", "none", False),  # a minibatch
    ("logistic-regression", "none", True),  # no Gram statistics
    ("quadratic", "none", True),
    ("mlp", "none", True),
])
def test_stack_is_refused_off_the_gram_path(kind, variant, whole):
    """Only the unclipped Gram observation over a whole linear-regression
    dataset takes a stack; every other observation refuses it."""
    obj, ds = single_point_problem(kind)
    cfg = DiskConfig(clip=None if variant == "none" else 1.0, clip_variant=variant, sigma_dp=0.1)
    xs = np.zeros((2, obj.dim))
    batch = ds if whole else ds.subset(np.arange(10))
    with pytest.raises(ValueError, match=r"parameter vector must have shape \(\d+,\), got \(2, \d+\)"):
        disk_step(DiskState(x=xs), batch, obj, cfg, np.zeros(xs.shape))


def test_noise_rows_refuse_a_block_that_overflows():
    """A level whose draw overflows is refused by name, once a block and
    without a warning; a large level whose draws stay finite is not."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^sigma = 1e\+308 overflows: a drawn noise row"):
            list(noise_rows(rng_for(0), 1e308, 2, 64))
        rows = list(noise_rows(rng_for(0), 1e300, 2, 64))
    assert len(rows) == 64 and np.isfinite(rows).all()


def single_point_problem(kind):
    p = 4
    if kind == "quadratic":
        obj, _ = quadratic_problem(p)
        return obj, obj.placeholder_dataset(40)
    if kind == "logistic-regression":
        return make_objective(kind, p), gen_classification(40, p, seed=2)
    obj = make_objective(kind, p, hidden=5) if kind == "mlp" else make_objective(kind, p)
    return obj, gen_linear_regression(40, p, 0.1, seed=2)


def per_sample_step(state, batch, obj, cfg, rng):
    """Reference single-point step: it averages the per-sample matrix. The
    quadratic's rows are B copies of one shared row, whose mean is that row
    times the mean weight, 1: a mean over the copies would round at some B."""
    G = obj.per_sample_grads(state.x, *batch)
    if obj.kind == "quadratic":
        assert (G == G[0]).all()
        G = G[:1] * np.ones(len(G)).mean()
    g = matrix_observe(G, cfg, rng)
    prev = g if state.g_filt is None else state.g_filt
    g_filt = g if cfg.kappa == 1.0 else (1.0 - cfg.kappa) * prev + cfg.kappa * g
    x_new, moments = apply_base_update(cfg, state.x, g_filt, state.moments)
    return DiskState(x=x_new, g_filt=g_filt, d_prev=x_new - state.x, moments=moments, t=state.t + 1)


@pytest.mark.parametrize("kind", ["quadratic", "linear-regression", "logistic-regression", "mlp"])
@pytest.mark.parametrize("single", [{"kappa": 1.0}, {"kappa": 0.6, "two_point": False}],
                         ids=["kappa-1", "one-point"])
@pytest.mark.parametrize("B", [None, 8], ids=["full-batch", "minibatch"])
def test_unclipped_single_point_step_matches_per_sample_path_bitwise(kind, single, B, monkeypatch):
    obj, ds = single_point_problem(kind)
    cfg = DiskConfig(eta=0.05, clip=None, clip_variant="none", sigma_dp=0.3, base="momentum",
                     **single)
    sampler = np.random.default_rng(4)
    x0 = obj.init_point(1)
    a, b = DiskState(x=x0.copy()), DiskState(x=x0.copy())
    rb = rng_for(5)
    batches = [
        (ds.X, ds.y) if B is None else ds.subset(sampler.choice(ds.n, B, replace=False))
        for _ in range(6)
    ]
    for batch in batches:
        b = per_sample_step(b, batch, obj, cfg, rb)
    if kind != "quadratic":
        # every kind but the quadratic averages without the per-sample matrix
        monkeypatch.setattr(obj, "per_sample_grads", None)
    for batch, noise in zip(batches, noise_rows(rng_for(5), cfg.sigma_dp, obj.dim, len(batches))):
        a = disk_step(a, batch, obj, cfg, noise)
    for got, want in ((a.x, b.x), (a.g_filt, b.g_filt), (a.moments["buf"], b.moments["buf"])):
        assert got.tobytes() == want.tobytes()


def test_state_dimension_validation():
    with pytest.raises(ValueError, match="dimension"):
        DiskState(x=np.zeros(3), d_prev=np.zeros(4))
    with pytest.raises(ValueError, match="dimension"):
        DiskState(x=np.zeros(3), g_filt=np.zeros(2))


def test_config_validation():
    with pytest.raises(ValueError):
        DiskConfig(kappa=0.0)
    with pytest.raises(ValueError):
        DiskConfig(gamma=0.0)
    with pytest.raises(ValueError):
        DiskConfig(eta=-0.1)
    with pytest.raises(ValueError):
        DiskConfig(clip_variant="standard", clip=None)
    with pytest.raises(ValueError):
        DiskConfig(base="rmsprop")


# ---------------------------------------------------------------------------
# full-kf: the filtered step with the matrix filter's gain k_t
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "cls, kwargs, match",
    [
        (DiskConfig, {"eta": math.nan}, "eta"),
        (DiskConfig, {"eta": math.inf}, "eta"),
        (DiskConfig, {"gamma": math.inf}, "gamma"),
        (DiskConfig, {"gamma": -math.inf}, "gamma"),
        (DiskConfig, {"sigma_dp": math.inf}, "sigma_dp"),
        (DiskConfig, {"sigma_dp": math.nan}, "sigma_dp"),
        (DiskConfig, {"clip": math.inf}, "clip"),
        (DiskConfig, {"clip": math.nan}, "clip"),
        (DiskConfig, {"momentum": math.nan}, "momentum"),
        (DiskConfig, {"kappa": math.nan}, "kappa"),
        (DiskConfig, {"eps_adam": math.inf}, "eps_adam"),
        (DiskConfig, {"weight_decay": math.nan}, "weight_decay"),
        (DiskConfig, {"betas": (0.9, math.nan)}, "betas"),
        (FullFilterConfig, {"sigma_w_sq": 0.0}, "the gain divides by it"),
        (FullFilterConfig, {"sigma_w_sq": -1.0}, ">= 0"),
        (FullFilterConfig, {"sigma_h_sq": -0.5}, ">= 0"),
        (FullFilterConfig, {"sigma_v_sq": math.inf}, "sigma_v_sq"),
        (FullFilterConfig, {"sigma_w_sq": math.nan}, "sigma_w_sq"),
        (FullFilterConfig, {"gamma": math.inf}, "gamma"),
        (FullFilterConfig, {"gamma": 0.0}, "gamma"),
        (FullFilterConfig, {"sigma_w_sq": 0.4, "sigma_h_sq": 0.5}, "p would turn negative"),
        (DiskConfig, {"momentum": 1.0}, r"momentum must lie in \[0, 1\), got 1.0"),
        (DiskConfig, {"momentum": -0.1}, r"momentum must lie in \[0, 1\), got -0.1"),
        (DiskConfig, {"eps_adam": 0.0}, "eps_adam must be > 0"),
        (DiskConfig, {"weight_decay": -0.1}, "weight_decay must be >= 0"),
    ],
)
def test_config_rejects_bad_values(cls, kwargs, match):
    with pytest.raises(ValueError, match=match):
        cls(**kwargs)


def unclipped(eta, sigma_dp):
    """Observation, filter start and base update of the full-kf preset,
    without clipping."""
    return DiskConfig(
        eta=eta, sigma_dp=sigma_dp, clip=None, clip_variant="none", filter_init="zero"
    )


def kf_step(state, p, batch, obj, opt, cfg, rng):
    """One full-kf step: advance p with ``scalar_gain_step``, then take
    ``disk_step`` at (k_t, cfg.gamma) with a noise row drawn for this step
    alone. Returns the new state, p and k_t. A run starts at p = sigma_w^2."""
    p, k = scalar_gain_step(p, cfg.sigma_h_sq, cfg.sigma_v_sq, cfg.sigma_w_sq)
    noise = opt.sigma_dp * rng.standard_normal(state.x.shape[0]) if opt.sigma_dp > 0 else None
    return disk_step(state, batch, obj, opt, noise, k, cfg.gamma), p, k


def rel_err(a, b):
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def test_full_filter_covariance_trace_non_increasing():
    obj, ds = quadratic_problem(5)
    opt = unclipped(eta=0.2, sigma_dp=0.1)
    cfg = FullFilterConfig(sigma_w_sq=0.5, sigma_h_sq=0.0)
    st, p = DiskState(x=np.ones(5)), cfg.sigma_w_sq
    rng = rng_for(0)
    traces = []
    for _ in range(50):
        st, p, _ = kf_step(st, p, (ds.X, ds.y), obj, opt, cfg, rng)
        traces.append(p)  # trace(P) = d p
    assert all(b <= a + 1e-12 for a, b in zip(traces, traces[1:]))


def test_full_filter_tracks_gradient_when_observation_noise_vanishes():
    # sigma_w^2 -> 0 with a process-noise floor makes the gain ~1: the filter
    # trusts the (exact) observation and tracks the true gradient.
    obj, ds = quadratic_problem(5)
    opt = unclipped(eta=0.2, sigma_dp=0.0)
    cfg = FullFilterConfig(sigma_w_sq=1e-12, sigma_h_sq=0.0, sigma_v_sq=1e-6)
    st, p = DiskState(x=np.ones(5)), cfg.sigma_w_sq
    rng = rng_for(0)
    for t in range(20):
        x_at_observation = st.x.copy()
        st, p, _ = kf_step(st, p, (ds.X, ds.y), obj, opt, cfg, rng)
        err = np.abs(st.g_filt - full_gradient(obj, x_at_observation, ds)).max()
        assert err <= 1e-4


def test_full_filter_huge_observation_noise_keeps_prediction():
    obj, ds = quadratic_problem(3)
    opt = unclipped(eta=0.2, sigma_dp=0.0)
    cfg = FullFilterConfig(sigma_w_sq=1e12, sigma_h_sq=0.0)
    st = DiskState(x=np.ones(3), g_filt=np.array([0.5, 0.5, 0.5]))
    out, _, k = kf_step(st, 1e-6, (ds.X, ds.y), obj, opt, cfg, rng_for(0))
    # d_prev = 0 so the prediction equals the previous filtered gradient
    assert abs(k) <= 1e-10
    assert np.abs(out.g_filt - st.g_filt).max() <= 1e-10


def test_full_filter_runs_above_former_dimension_cap():
    # The scalar covariance has no cubic cost, so d = 65 (once rejected) runs.
    obj, ds = quadratic_problem(65)
    opt = unclipped(eta=0.2, sigma_dp=0.1)
    cfg = FullFilterConfig(sigma_w_sq=0.5, sigma_v_sq=0.1)
    st, p = DiskState(x=np.ones(65)), cfg.sigma_w_sq
    rng = rng_for(0)
    for _ in range(5):
        st, p, k = kf_step(st, p, (ds.X, ds.y), obj, opt, cfg, rng)
    assert st.x.shape == (65,) and np.isfinite(st.x).all()
    assert 0 < k < 1


@dataclass
class InlineGainState:
    x: np.ndarray
    g_filt: np.ndarray
    d_prev: np.ndarray
    p: float
    k: float | None = None
    moments: dict = field(default_factory=dict)
    t: int = 0


def inline_gain_filter_step(state, batch, obj, opt, cfg, rng):
    """The full-kf step before it became a gain schedule on the filtered step:
    its own observation at x, a finite-difference Hessian action from the
    unclipped batch gradients and an inline gain recursion. The reference for
    runs without clipping and noise, where the two are the same filter."""
    Xb, yb = batch
    x = state.x
    G = obj.per_sample_grads(x, Xb, yb)
    g_obs = matrix_observe(G, opt, rng)
    if not np.any(state.d_prev):
        h_action = np.zeros(x.shape[0])
    else:
        ahead = obj.mean_grad(x + cfg.gamma * state.d_prev, Xb, yb)
        h_action = (ahead - G.mean(axis=0)) / cfg.gamma
    g_pred = state.g_filt + h_action
    p_pred = state.p + (cfg.sigma_h_sq + cfg.sigma_v_sq)
    c = (p_pred + cfg.sigma_w_sq) - cfg.sigma_h_sq
    r = 1.0 / math.sqrt(c)
    k = (p_pred * r) * r
    g_filt = g_pred + k * (g_obs - g_pred)
    x_new, moments = apply_base_update(opt, x, g_filt, state.moments)
    return InlineGainState(
        x=x_new, g_filt=g_filt, d_prev=x_new - x, p=(1.0 - k) * p_pred, k=k,
        moments=moments, t=state.t + 1,
    )


FILTER_CONFIGS = {
    "default": FullFilterConfig(),
    "noisy": FullFilterConfig(sigma_w_sq=0.5, sigma_h_sq=0.1, sigma_v_sq=0.02, gamma=0.3),
    # sigma_w^2 = sigma_h^2: the gain is exactly 1
    "sigma_w_equals_sigma_h": FullFilterConfig(sigma_w_sq=0.5, sigma_h_sq=0.5, sigma_v_sq=0.5),
}


def regression_problem(kind):
    if kind == "logistic-regression":
        return make_objective(kind, 5), gen_classification(60, 5, seed=4), 0.5
    if kind == "linear-regression":
        return make_objective(kind, 5), gen_linear_regression(60, 5, 0.3, seed=4), 0.05
    return make_objective("mlp", 3, hidden=4), gen_linear_regression(60, 3, 0.3, seed=4), 0.05


@pytest.mark.parametrize("filter_name", sorted(FILTER_CONFIGS))
@pytest.mark.parametrize("kind", ["logistic-regression", "linear-regression", "mlp"])
def test_full_filter_matches_inline_gain_step_without_clipping_or_noise(kind, filter_name):
    """Without clipping and noise the gain schedule on the filtered step is
    the inline-gain filter; ``gains()`` yields ``scalar_gain_step``'s gain, exactly."""
    obj, ds, eta = regression_problem(kind)
    cfg = FILTER_CONFIGS[filter_name]
    opt = unclipped(eta=eta, sigma_dp=0.0)
    x0 = obj.init_point(4)
    st = DiskState(x=x0.copy())
    ref = InlineGainState(
        x=x0.copy(), g_filt=np.zeros_like(x0), d_prev=np.zeros_like(x0), p=cfg.sigma_w_sq
    )
    p, gains = cfg.sigma_w_sq, cfg.gains()
    for t in range(200):
        batch = (ds.X[t % 3 :: 3], ds.y[t % 3 :: 3])
        st, p, k = kf_step(st, p, batch, obj, opt, cfg, rng_for(0))
        ref = inline_gain_filter_step(ref, batch, obj, opt, cfg, rng_for(0))
        assert next(gains) == (k, cfg.gamma)
        assert abs(k - ref.k) <= 1e-14 * ref.k
        assert rel_err(st.x, ref.x) <= 1e-9
        assert rel_err(st.g_filt, ref.g_filt) <= 1e-9


def test_full_filter_moves_the_filter_by_at_most_the_clipped_sensitivity():
    """Replacing one row of the batch, however large, moves g_filt by at most
    k_t 2C/B: the gain uses no data and the two-point combination is clipped."""
    obj, ds, _ = regression_problem("linear-regression")
    C, B = 1.0, 10
    opt = DiskConfig(eta=0.05, clip=C, sigma_dp=0.0, filter_init="zero")
    cfg = FullFilterConfig(gamma=0.3)
    st, p = DiskState(x=obj.init_point(4)), cfg.sigma_w_sq
    for t in range(5):  # a nonzero displacement, filter and covariance
        st, p, _ = kf_step(st, p, (ds.X[t * B : (t + 1) * B], ds.y[t * B : (t + 1) * B]),
                           obj, opt, cfg, rng_for(0))
    Xb, yb = ds.X[50:60].copy(), ds.y[50:60].copy()
    Xn, yn = Xb.copy(), yb.copy()
    Xn[3] *= 1e6
    yn[3] *= -1e6  # the clipped row flips: the bound is met with equality
    a, _, k_a = kf_step(st, p, (Xb, yb), obj, opt, cfg, rng_for(0))
    b, _, k_b = kf_step(st, p, (Xn, yn), obj, opt, cfg, rng_for(0))
    assert k_a == k_b < 1
    bound = k_a * 2 * C / B
    assert 0.5 * bound < np.linalg.norm(a.g_filt - b.g_filt) <= bound * (1 + 1e-12)


# (sigma_h^2, sigma_v^2, sigma_w^2) with k_inf in (0, 1]: DiskConfig rejects kappa 0
STEADY_NOISE = [(0.0, 1.0, 1.0), (0.0, 0.25, 1.0), (0.1, 2.0, 1.0), (0.0, 1e-4, 1.0),
                (0.5, 0.5, 0.5), (0.3, 0.02, 0.5)]
STEADY_PROBLEMS = {
    "quadratic": {"kind": "quadratic", "dim": 4, "eigenvalues": [0.5, 1.0, 2.0, 4.0]},
    "linear-regression": {"kind": "linear-regression", "n": 36, "p": 5},
    "logistic-regression": {"kind": "logistic-regression", "n": 36, "p": 5},
    "mlp": {"kind": "mlp", "n": 36, "p": 3, "hidden": 4},
}


@pytest.mark.parametrize("noise", STEADY_NOISE, ids=str)
@pytest.mark.parametrize("variant", ["standard", "automatic", "normalized", "none"])
@pytest.mark.parametrize("kind", sorted(STEADY_PROBLEMS))
def test_full_filter_started_at_its_fixed_point_is_disk_at_k_inf(kind, variant, noise):
    """DiSK is the matrix filter's steady state: started at p_inf the gain
    recursion returns k_inf at every step, so full-kf is disk at kappa = k_inf,
    gamma = full_filter.gamma and a zero filter start, bit for bit. Every
    fifth step observes the whole dataset, the rest a minibatch."""
    sh, sv, sw = noise
    ff = FullFilterConfig(sigma_w_sq=sw, sigma_h_sq=sh, sigma_v_sq=sv, gamma=0.3)
    fp = scalar_fixed_point(sh, sv, sw)
    obj, ds = harness.build_problem(STEADY_PROBLEMS[kind], 3, batch_floor=12)
    opt = DiskConfig(eta=0.05, clip=None if variant == "none" else 1.0, clip_variant=variant,
                     sigma_dp=0.05, filter_init="zero")
    steady = replace(opt, kappa=fp.k_inf, gamma=ff.gamma)
    x0 = obj.init_point(3)
    kf, p = DiskState(x=x0.copy()), fp.p_inf
    dk = DiskState(x=x0.copy())
    kf_rng, batches = rng_for(5), minibatches(ds.n, 12, 5)
    for t, noise in enumerate(noise_rows(rng_for(5), steady.sigma_dp, obj.dim, 30)):
        batch = ds if t % 5 == 4 else ds.subset(next(batches))
        kf, p, k = kf_step(kf, p, batch, obj, opt, ff, kf_rng)
        dk = disk_step(dk, batch, obj, steady, noise)
        assert k == fp.k_inf  # p may sit an ulp off p_inf
        assert np.array_equal(kf.x, dk.x) and np.array_equal(kf.g_filt, dk.g_filt)


@dataclass
class MatrixFilterState:
    x: np.ndarray
    g_filt: np.ndarray
    d_prev: np.ndarray
    P: np.ndarray
    K: np.ndarray | None = None
    moments: dict = field(default_factory=dict)
    t: int = 0


def matrix_filter_step(state, batch, obj, opt, cfg, rng):
    """The filter step with d x d covariance and gain matrices and a Cholesky
    solve, the matrix filter that full-kf simplifies."""
    linalg = pytest.importorskip("scipy.linalg")
    Xb, yb = batch
    x = state.x
    d = x.shape[0]
    G = obj.per_sample_grads(x, Xb, yb)
    g_obs = matrix_observe(G, opt, rng)
    if not np.any(state.d_prev):
        h_action = np.zeros(d)
    else:
        ahead = obj.per_sample_grads(x + cfg.gamma * state.d_prev, Xb, yb).mean(axis=0)
        h_action = (ahead - G.mean(axis=0)) / cfg.gamma
    g_pred = state.g_filt + h_action
    I = np.eye(d)
    P_pred = state.P + (cfg.sigma_h_sq + cfg.sigma_v_sq) * I
    Sigma_H = _symmetrize(cfg.sigma_h_sq * I)
    M = _symmetrize(I @ (P_pred + 0.0 * I) @ I.T + cfg.sigma_w_sq * I - Sigma_H)
    eigs = np.linalg.eigvalsh(M)
    if eigs[0] <= 0:
        raise NumericalError(
            f"gain bracket: matrix not positive definite (min eigenvalue {eigs[0]:.6g})"
        )
    K = linalg.cho_solve(linalg.cho_factor(M), I @ P_pred).T
    g_filt = g_pred + K @ (g_obs - g_pred)
    P = _symmetrize((I - K) @ P_pred)
    x_new, moments = apply_base_update(opt, x, g_filt, state.moments)
    return MatrixFilterState(
        x=x_new, g_filt=g_filt, d_prev=x_new - x, P=P, K=K,
        moments=moments, t=state.t + 1,
    )


@pytest.mark.parametrize(
    "problem, cfg",
    [
        ("quadratic", FullFilterConfig(sigma_w_sq=0.5, sigma_h_sq=0.1, sigma_v_sq=0.02)),
        ("linear-regression", FullFilterConfig(sigma_w_sq=0.5, sigma_h_sq=0.1,
                                               sigma_v_sq=0.02, gamma=0.3)),
        # sigma_w^2 = sigma_h^2, the boundary: the gain is 1
        ("quadratic", FullFilterConfig(sigma_w_sq=0.5, sigma_h_sq=0.5, sigma_v_sq=0.5)),
    ],
    ids=["quadratic", "linear-regression", "sigma_w_equals_sigma_h"],
)
def test_full_filter_matches_matrix_filter(problem, cfg):
    d = 7
    if problem == "quadratic":
        obj, ds = quadratic_problem(d)
    else:
        ds = gen_linear_regression(40, d, 0.3, seed=2)
        obj = make_objective("linear-regression", d)
    opt = replace(unclipped(eta=0.1, sigma_dp=0.0), base="momentum")
    x0 = np.linspace(-1.0, 1.0, d)
    st, p = DiskState(x=x0.copy()), cfg.sigma_w_sq
    ref = MatrixFilterState(
        x=x0.copy(), g_filt=np.zeros(d), d_prev=np.zeros(d), P=cfg.sigma_w_sq * np.eye(d)
    )
    rng, rng_ref = rng_for(3), rng_for(3)
    for t in range(50):
        batch = (ds.X[t % 4 :: 4], ds.y[t % 4 :: 4])
        st, p, k = kf_step(st, p, batch, obj, opt, cfg, rng)
        ref = matrix_filter_step(ref, batch, obj, opt, cfg, rng_ref)
        assert rel_err(st.x, ref.x) <= 1e-9
        assert rel_err(st.g_filt, ref.g_filt) <= 1e-9
        assert rel_err(p * np.eye(d), ref.P) <= 1e-9 or p == 0.0
        assert rel_err(k * np.eye(d), ref.K) <= 1e-9
    if cfg.sigma_w_sq == cfg.sigma_h_sq:
        assert k == 1.0 and p == 0.0  # the observation is trusted fully


@pytest.mark.parametrize("step", ["disk", "dpsgd", "full_filter", "disk-unclipped", "dpsgd-unclipped"])
def test_steps_reject_empty_batch(step):
    obj, ds = quadratic_problem(3)
    empty = (ds.X[:0], ds.y[:0])
    opt = DiskConfig()
    if step.endswith("-unclipped"):
        # the path that averages with mean_grad and builds no per-sample matrix
        opt = DiskConfig(kappa=1.0, clip=None, clip_variant="none")
    with pytest.raises(ValueError, match="batch must be non-empty"):
        if step == "full_filter":
            cfg = FullFilterConfig()
            kf_step(DiskState(x=np.ones(3)), cfg.sigma_w_sq, empty, obj, opt, cfg, rng_for(0))
        else:
            step_fn = disk_step if step.startswith("disk") else dpsgd_step
            step_fn(DiskState(x=np.ones(3)), empty, obj, opt, None)
