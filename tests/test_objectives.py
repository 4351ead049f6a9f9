import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpkf import seeding
from dpkf.objectives import (
    _sigmoid_neg,
    EVAL_BLOCK,
    Dataset,
    MinibatchSampler,
    full_gradient,
    full_loss,
    gen_classification,
    gen_linear_regression,
    make_objective,
    two_point_grads,
)
from reference_methods import per_sample_grad, per_sample_loss, sample_of


def two_point_per_sample_grad(obj, x, d_prev, gamma, kappa, sample):
    """``two_point_grads`` on a one-row batch."""
    feature, target = sample
    feature = np.atleast_2d(np.asarray(feature, dtype=float))
    return two_point_grads(obj, x, d_prev, gamma, kappa, feature, np.array([target]))[0]

ALL_KINDS = ["quadratic", "linear-regression", "logistic-regression", "mlp"]


def build(kind, p, seed):
    """Objective plus a matching dataset and a random evaluation point."""
    rng = np.random.default_rng(seed)
    if kind == "quadratic":
        M = rng.standard_normal((p, p))
        obj = make_objective(kind, p, H=M @ M.T / p + 0.1 * np.eye(p))
        ds = obj.placeholder_dataset(8)
    elif kind == "logistic-regression":
        obj = make_objective(kind, p)
        ds = gen_classification(8, p, seed)
    else:
        ds = gen_linear_regression(8, p, 0.3, seed)
        obj = make_objective(kind, p)
    x = rng.standard_normal(obj.dim)
    return obj, ds, x


def fd_gradient(obj, x, sample, h=1e-6):
    """Central-difference oracle, one coordinate at a time."""
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (per_sample_loss(obj, x + e, sample) - per_sample_loss(obj, x - e, sample)) / (2 * h)
    return g


# ---------------------------------------------------------------------------
# data generation
# ---------------------------------------------------------------------------


def test_zero_noise_residuals_vanish():
    ds = gen_linear_regression(4, 2, 0.0, seed=11)
    residuals = ds.y - ds.X @ ds.theta_star
    assert np.all(residuals == 0.0)


def test_residual_std_matches_noise_level():
    # Monte-Carlo over 20 seeds: the sample std of 1000 residuals stays close
    # to the generating noise level.
    for seed in range(20):
        ds = gen_linear_regression(1000, 20, 0.1, seed)
        resid = ds.y - ds.X @ ds.theta_star
        assert 0.08 <= resid.std() <= 0.12


def test_generation_deterministic():
    a = gen_linear_regression(50, 5, 0.2, seed=7)
    b = gen_linear_regression(50, 5, 0.2, seed=7)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    c = gen_linear_regression(50, 5, 0.2, seed=8)
    assert not np.array_equal(a.X, c.X)


def test_generation_rejects_empty():
    with pytest.raises(ValueError):
        gen_linear_regression(0, 3, 0.1, seed=0)
    with pytest.raises(ValueError):
        gen_linear_regression(3, 0, 0.1, seed=0)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(X=np.array([[1.0, np.inf]]), y=np.array([0.0]))
    with pytest.raises(ValueError):
        Dataset(X=np.ones((3, 2)), y=np.ones(2))


@pytest.mark.parametrize("view", [False, True], ids=["own-array", "view"])
def test_dataset_statistics_cannot_go_stale(view):
    """The cached Gram statistics stay right: a Dataset's arrays can be neither
    reassigned nor written, and the caller's arrays stay writeable and apart."""
    rng = np.random.default_rng(3)
    X, y = rng.standard_normal((20, 3)), rng.standard_normal(20)
    if view:
        X, y = X[:, :], y[:]
    ds = Dataset(X=X, y=y)
    G, b = ds.second_moment, ds.moment_xy
    assert np.array_equal(G, X.T @ X / 20) and np.array_equal(b, X.T @ y / 20)
    for name in ("X", "y"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ds, name, np.zeros_like(getattr(ds, name)))
        with pytest.raises(ValueError, match="read-only"):
            getattr(ds, name)[0] = 7.0
    assert X.flags.writeable and y.flags.writeable
    X[0], y[0] = 7.0, 7.0  # the caller's arrays are not the dataset's
    assert not np.shares_memory(X, ds.X) and not np.shares_memory(y, ds.y)
    assert ds.second_moment is G and np.array_equal(G, ds.X.T @ ds.X / 20)


def test_dataset_keeps_a_read_only_array_that_owns_its_memory():
    """No array can write one that is read-only and owns its memory, as the
    generators hand over, so the dataset keeps it uncopied; its own view is not."""
    X, y = np.ones((4, 2)), np.zeros(4)
    X.flags.writeable = y.flags.writeable = False
    ds = Dataset(X=X, y=y)
    assert ds.X is X and ds.y is y
    assert Dataset(X=X[:, :], y=y).X is not X
    gen = gen_linear_regression(30, 3, 0.1, seed=2)
    assert gen.X.flags.owndata and not gen.X.flags.writeable


def test_dataset_builds_its_statistics_on_first_use():
    """A new dataset holds no statistics; the smoothness reads the same cached
    X^T X / n as the full-batch step, with the bits of the formula."""
    ds = gen_linear_regression(50, 4, 0.1, seed=1)
    assert "second_moment" not in vars(ds) and "moment_xy" not in vars(ds)
    obj = make_objective("linear-regression", 4)
    L = obj.smoothness(ds)
    assert L == float(np.linalg.eigvalsh(ds.X.T @ ds.X / ds.n)[-1])
    G = vars(ds)["second_moment"]
    obj.dataset_mean_grad(ds, np.zeros(4))
    assert ds.second_moment is G and "moment_xy" in vars(ds)
    assert obj.smoothness(ds) == L
    # only linear regression observes from the statistics
    for kind in ("quadratic", "logistic-regression", "mlp"):
        assert make_objective(kind, 4).dataset_mean_grad(ds, np.zeros(4)) is None


# ---------------------------------------------------------------------------
# per-sample gradients
# ---------------------------------------------------------------------------


def test_quadratic_identity_gradient():
    obj = make_objective("quadratic", 2, H=np.eye(2))
    g = per_sample_grad(obj, np.array([1.0, -2.0]), (np.zeros(1), 0.0))
    assert np.array_equal(g, np.array([1.0, -2.0]))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gradients_match_finite_differences(kind):
    # 100 random (x, sample) trials per objective kind against the
    # central-difference oracle with step 1e-6.
    trials_per_problem = 25
    for seed in range(4):
        obj, ds, _ = build(kind, 4, seed)
        rng = np.random.default_rng(1000 + seed)
        for _ in range(trials_per_problem):
            x = rng.standard_normal(obj.dim)
            i = rng.integers(0, ds.n)
            sample = sample_of(ds, i)
            g = per_sample_grad(obj, x, sample)
            g_fd = fd_gradient(obj, x, sample)
            denom = max(np.linalg.norm(g), 1e-8)
            assert np.linalg.norm(g - g_fd) / denom <= 1e-5


def test_interpolating_minimizer_has_zero_gradient():
    ds = gen_linear_regression(10, 3, 0.0, seed=2)
    obj = make_objective("linear-regression", 3)
    for i in range(ds.n):
        g = per_sample_grad(obj, ds.theta_star, sample_of(ds, i))
        assert np.linalg.norm(g) < 1e-12


def test_dimension_mismatch_rejected():
    obj = make_objective("linear-regression", 3)
    with pytest.raises(ValueError):
        per_sample_grad(obj, np.zeros(4), (np.zeros(3), 0.0))


# ---------------------------------------------------------------------------
# two-point combination
# ---------------------------------------------------------------------------


def test_two_point_kappa_one_is_plain_gradient():
    obj, ds, x = build("logistic-regression", 4, 0)
    sample = sample_of(ds, 0)
    d_prev = np.ones(4)
    for gamma in (0.5, -1.0, 3.0):
        g = two_point_per_sample_grad(obj, x, d_prev, gamma, 1.0, sample)
        assert np.array_equal(g, per_sample_grad(obj, x, sample))


def test_two_point_hand_example():
    # kappa=0.5, gamma=1 gives a=1: the combination is the lookahead gradient.
    obj = make_objective("quadratic", 2, H=np.eye(2))
    g = two_point_per_sample_grad(
        obj, np.zeros(2), np.array([2.0, 0.0]), 1.0, 0.5, (np.zeros(1), 0.0)
    )
    assert np.allclose(g, [2.0, 0.0], atol=1e-15)


def test_two_point_gamma_minus_one_identity():
    # a = -(1-kappa)/kappa, so the combination equals
    # (1/kappa) grad f(x) - ((1-kappa)/kappa) grad f(x - d_prev).
    obj, ds, x = build("logistic-regression", 4, 1)
    sample = sample_of(ds, 2)
    d_prev = 0.3 * np.ones(4)
    kappa = 0.4
    g = two_point_per_sample_grad(obj, x, d_prev, -1.0, kappa, sample)
    expect = (1 / kappa) * per_sample_grad(obj, x, sample) - (
        (1 - kappa) / kappa
    ) * per_sample_grad(obj, x - d_prev, sample)
    assert np.allclose(g, expect, atol=1e-12)


def test_two_point_rejects_gamma_zero():
    obj, ds, x = build("linear-regression", 3, 0)
    with pytest.raises(ValueError):
        two_point_per_sample_grad(obj, x, np.zeros(3), 0.0, 0.5, sample_of(ds, 0))


# ---------------------------------------------------------------------------
# full gradient / loss
# ---------------------------------------------------------------------------


def test_full_gradient_single_sample():
    ds = gen_linear_regression(1, 3, 0.1, seed=5)
    obj = make_objective("linear-regression", 3)
    x = np.array([0.1, -0.2, 0.3])
    assert np.allclose(full_gradient(obj, x, ds), per_sample_grad(obj, x, sample_of(ds, 0)), atol=1e-15)


def test_full_gradient_batched_vs_streamed():
    obj, ds, x = build("mlp", 4, 3)
    batched = full_gradient(obj, x, ds)
    streamed = np.zeros(obj.dim)
    for i in range(ds.n):
        streamed += per_sample_grad(obj, x, sample_of(ds, i))
    streamed /= ds.n
    assert np.abs(batched - streamed).max() <= 1e-12


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["linear-regression", "logistic-regression", "mlp"]),
    n=st.integers(1, 3000),
    p=st.one_of(st.just(1), st.integers(1, 60)),
    hidden=st.one_of(st.just(1), st.integers(1, 16)),
    log_scale=st.floats(-2.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="linear-regression", n=1000, p=1, hidden=1, log_scale=0.0, seed=0)
@example(kind="logistic-regression", n=7, p=1, hidden=1, log_scale=2.0, seed=1)
@example(kind="mlp", n=1000, p=1, hidden=1, log_scale=0.0, seed=2)
@example(kind="mlp", n=3000, p=60, hidden=16, log_scale=-1.0, seed=3)
def test_mean_grad_is_bitwise_per_sample_mean(kind, n, p, hidden, log_scale, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    if kind == "logistic-regression":
        y = np.where(rng.standard_normal(n) >= 0, 1.0, -1.0)
    else:
        y = rng.standard_normal(n)
    obj = make_objective(kind, p, hidden=hidden)
    # a wide range of scales reaches both sigmoid tails and tanh saturation
    x = 10.0**log_scale * rng.standard_normal(obj.dim)
    expected = obj.per_sample_grads(x, X, y).mean(axis=0)
    assert np.array_equal(obj.mean_grad(x, X, y), expected)


def _gamma(m: int) -> float:
    """Higham's gamma_m = m u / (1 - m u), u the unit roundoff of float64."""
    u = np.finfo(float).eps / 2
    return m * u / (1 - m * u)


def _evaluation_problem(kind, n, p, k, tail, seed):
    """An objective, a Dataset and k states; for logistic regression a zero row
    gives a margin of exactly 0 and the last row one of |m| > 40 at state 0."""
    rng = np.random.default_rng(seed)
    obj = make_objective(kind, p, hidden=4)
    xs = rng.standard_normal((k, obj.dim))
    X = rng.standard_normal((n, p))
    if kind == "logistic-regression":
        y = np.where(rng.standard_normal(n) >= 0, 1.0, -1.0)
        X[0] = 0.0
        x = xs[0]
        if n > 1 and x @ x > 0:
            X[-1] = tail * y[-1] * x / (x @ x)
    else:
        y = rng.standard_normal(n)
    return obj, Dataset(X=X, y=y), xs


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(ALL_KINDS),
    n=st.integers(1, 300),
    p=st.one_of(st.just(1), st.integers(1, 60)),
    k=st.integers(1, EVAL_BLOCK),
    tail=st.sampled_from([-90.0, -40.5, 40.5, 90.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="logistic-regression", n=3, p=1, k=1, tail=40.5, seed=0)
@example(kind="logistic-regression", n=300, p=60, k=8, tail=-90.0, seed=1)
@example(kind="mlp", n=1, p=1, k=3, tail=40.5, seed=2)
@example(kind="linear-regression", n=300, p=1, k=5, tail=40.5, seed=3)
def test_evaluate_keeps_loss_bits_and_sums_gradients_within_the_bound(kind, n, p, k, tail, seed):
    """Losses are ``==`` to ``full_loss``. The MLP's and the quadratic's
    gradients are ``==`` to ``mean_grad``; a linear model's are the same
    coefficients w summed by BLAS instead of in row order. Each of the two sums
    of n products, divided by n, lies within gamma_{n+1} sum_i |w_i x_ij| / n of
    the exact mean (Higham, Accuracy and Stability, eq. 3.5 and lemma 3.3),
    whatever the order, so they lie within twice that of each other."""
    obj, ds, xs = _evaluation_problem(kind, n, p, k, tail, seed)
    losses, grads = obj.evaluate(xs, ds.X, ds.y)
    assert losses.shape == (k,) and grads.shape == (k, obj.dim)
    for x, loss, g in zip(xs, losses, grads):
        assert loss == full_loss(obj, x, ds)
        want = full_gradient(obj, x, ds)
        if kind in ("mlp", "quadratic"):
            assert np.array_equal(g, want)
            continue
        # the computed sum of |w_i x_ij| is at least (1 - gamma_n) times the exact one
        sums = np.abs(obj._coef(x, ds.X, ds.y)) @ np.abs(ds.X) / (1 - _gamma(n))
        assert (np.abs(g - want) <= 2 * _gamma(n + 1) * sums / n).all()


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize(
    "n, p", [(5000, 50), (3000, 50), (500, 32), (1000, 20), (80, 5), (40, 1), (17, 1), (1, 3)]
)
def test_evaluate_row_bits_depend_on_the_state_alone(kind, n, p):
    """A state's loss and gradient have the same bits at every position of a
    block, in a partial block and alone; the linear models' product is padded
    to EVAL_BLOCK rows, where OpenBLAS computes every row alike."""
    obj, ds, xs = _evaluation_problem(kind, n, p, EVAL_BLOCK, 40.5, n + p)
    losses, grads = obj.evaluate(xs, ds.X, ds.y)
    W = np.full((EVAL_BLOCK, n), np.nan)  # a reused buffer's old rows must not leak in
    for shift in range(1, EVAL_BLOCK):
        got_l, got_g = obj.evaluate(np.roll(xs, shift, axis=0), ds.X, ds.y, W)
        assert np.array_equal(np.roll(got_l, -shift), losses)
        assert np.array_equal(np.roll(got_g, -shift, axis=0), grads)
    for k in range(1, EVAL_BLOCK):
        got_l, got_g = obj.evaluate(xs[:k], ds.X, ds.y, W)
        assert np.array_equal(got_l, losses[:k]) and np.array_equal(got_g, grads[:k])
    for i in range(EVAL_BLOCK):
        got_l, got_g = obj.evaluate(xs[i : i + 1], ds.X, ds.y)
        assert np.array_equal(got_l, losses[i : i + 1]) and np.array_equal(got_g, grads[i : i + 1])


@pytest.mark.parametrize("k", [0, EVAL_BLOCK + 1])
def test_evaluate_rejects_a_block_outside_one_to_eval_block(k):
    obj, ds, _ = build("logistic-regression", 3, 0)
    with pytest.raises(ValueError, match="states must have shape"):
        obj.evaluate(np.zeros((k, obj.dim)), ds.X, ds.y)


@pytest.mark.parametrize("in_dim, hidden", [(4, 0), (0, 3)])
def test_mlp_rejects_empty_layer(in_dim, hidden):
    # a zero-width layer leaves a single gradient column, whose mean numpy
    # sums pairwise, so ``mean_grad`` could not keep its bits
    with pytest.raises(ValueError, match="hidden >= 1 and in_dim >= 1"):
        make_objective("mlp", in_dim, hidden=hidden)


def masked_sigmoid_neg(margins):
    """sigmoid(-m) in the two-branch masked form ``_sigmoid_neg`` replaced."""
    s = np.empty_like(margins)
    pos = margins >= 0
    s[pos] = np.exp(-margins[pos]) / (1.0 + np.exp(-margins[pos]))
    s[~pos] = 1.0 / (1.0 + np.exp(margins[~pos]))
    return s


def test_sigmoid_neg_matches_masked_two_branch_form():
    edges = np.array([0.0, -0.0, 800.0, -800.0, np.nan, 1e-300, -1e-300, 36.7, -36.7])
    spread = np.random.default_rng(0).standard_normal(2000) * np.logspace(-3, 3, 2000)
    for m in (edges, spread):
        got, want = _sigmoid_neg(m, np.exp(-np.abs(m))), masked_sigmoid_neg(m)
        assert np.array_equal(got, want, equal_nan=True)
        real = ~np.isnan(want)  # a NaN's sign bit carries nothing
        assert np.array_equal(np.signbit(got[real]), np.signbit(want[real]))
    assert _sigmoid_neg(edges, np.exp(-np.abs(edges)))[:4].tolist() == [0.5, 0.5, 0.0, 1.0]


def logistic_losses(margins):
    """``LogisticRegression.per_sample_losses`` at the given margins (y = 1, x = 1)."""
    m = np.asarray(margins, dtype=float)
    return make_objective("logistic-regression", 1).per_sample_losses(np.ones(1), m[:, None], np.ones(len(m)))


def test_logistic_loss_edges():
    m = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 746.0, -746.0, 1e308, -1e308])
    got = logistic_losses(m)
    assert got[0] == got[1] == np.logaddexp(0.0, -0.0) == math.log(2.0)
    assert np.array_equal(got[2:], [0.0, np.inf, np.nan, 0.0, 746.0, 0.0, 1e308], equal_nan=True)
    with np.errstate(invalid="ignore"):  # logaddexp flags its NaN
        assert np.array_equal(got[2:], np.logaddexp(0.0, -m[2:]), equal_nan=True)


@settings(max_examples=300, deadline=None)
@given(m=st.floats(allow_nan=False, allow_infinity=False))
@example(m=4.157618328626281)  # 3 ulp from logaddexp: 1.57 ulp below the truth, it 1.43 above
@example(m=-0.4140064185649884)
@example(m=740.0)  # a subnormal loss
@example(m=5e-324)
def test_logistic_loss_matches_logaddexp_and_mpmath(m):
    """log1p(e) + max(-m, 0) with numpy's vector exp is within 3 ulp of
    ``logaddexp(0, -m)``, which calls libm's scalar exp, and within 1e-15 of
    the exact value (or two subnormal spacings, for a subnormal loss)."""
    got = logistic_losses([m])[0]
    want = np.logaddexp(0.0, -m)
    assert abs(got - want) <= 3 * math.ulp(want)
    with mpmath.workdps(40):
        exact = mpmath.log1p(mpmath.exp(-mpmath.mpf(m)))
        assert abs(mpmath.mpf(got) - exact) <= max(1e-15 * exact, 2.0**-1073)


def test_logistic_weights_keep_the_bits_of_the_two_branch_sigmoid():
    """The weights share exp(-|m|) with the loss and keep -y sigmoid(-m)'s bits,
    at one point and in the two-point combination."""
    rng = np.random.default_rng(5)
    n, p = 400, 6
    X = rng.standard_normal((n, p)) * np.logspace(-3, 3, n)[:, None]
    y = np.where(rng.standard_normal(n) >= 0, 1.0, -1.0)
    X[0] = 0.0
    obj = make_objective("logistic-regression", p)
    x, ahead, a = rng.standard_normal(p), rng.standard_normal(p), 0.3

    def weights(z):
        return -y * masked_sigmoid_neg(y * (X @ z))

    assert np.array_equal(obj.grad_factors(x, X, y).coefs[0][:, 0], weights(x))
    two = obj.grad_factors(x, X, y, ahead, a).coefs[0][:, 0]
    assert np.array_equal(two, a * weights(ahead) + (1.0 - a) * weights(x))


@pytest.mark.parametrize("kind", ["linear-regression", "logistic-regression", "mlp"])
def test_full_gradient_same_bits_for_fortran_ordered_features(kind):
    obj, ds, x = build(kind, 5, 4)
    rng = np.random.default_rng(4)
    X = rng.standard_normal((400, 5))
    y = np.sign(rng.standard_normal(400)) if kind == "logistic-regression" else X[:, 0]
    c_ds = Dataset(X=X, y=y)
    f_ds = Dataset(X=np.asfortranarray(X), y=y)
    assert f_ds.X.flags.c_contiguous
    assert np.array_equal(full_gradient(obj, x, f_ds), full_gradient(obj, x, c_ds))
    assert np.array_equal(
        full_gradient(obj, x, c_ds), obj.per_sample_grads(x, X, y).mean(axis=0)
    )


def test_gradient_zero_at_quadratic_minimizer():
    obj = make_objective("quadratic", 3, H=np.diag([1.0, 2.0, 3.0]), x_star=np.array([1.0, 1.0, -1.0]))
    ds = obj.placeholder_dataset(4)
    assert np.linalg.norm(full_gradient(obj, np.array([1.0, 1.0, -1.0]), ds)) == 0.0
    assert full_loss(obj, np.array([1.0, 1.0, -1.0]), ds) == 0.0


def test_hessian_action_finite_difference_identity():
    # For quadratics, (grad F(x + g d) - grad F(x)) / g equals H d exactly.
    rng = np.random.default_rng(0)
    M = rng.standard_normal((5, 5))
    H = M @ M.T / 5
    obj = make_objective("quadratic", 5, H=H)
    ds = obj.placeholder_dataset(2)
    x = rng.standard_normal(5)
    d = rng.standard_normal(5)
    for gamma in (1.0, -1.0, 0.01, 37.0):
        fd = (full_gradient(obj, x + gamma * d, ds) - full_gradient(obj, x, ds)) / gamma
        assert np.abs(fd - H @ d).max() <= 1e-10


def test_quadratic_smoothness_equals_power_iteration():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((6, 6))
    H = M @ M.T / 6
    obj = make_objective("quadratic", 6, H=H)
    # power-iteration oracle
    v = rng.standard_normal(6)
    for _ in range(10_000):
        v = H @ v
        v /= np.linalg.norm(v)
    lam = float(v @ H @ v)
    assert abs(obj.smoothness() - lam) <= 1e-8


# ---------------------------------------------------------------------------
# sampler
# ---------------------------------------------------------------------------


def test_sampler_epoch_covers_dataset():
    sampler = MinibatchSampler(n=12, batch_size=3, seed=0)
    batches = sampler.epoch_batches()
    assert len(batches) == 4
    union = np.sort(np.concatenate(batches))
    assert np.array_equal(union, np.arange(12))


def test_sampler_drops_partial_batch():
    sampler = MinibatchSampler(n=10, batch_size=3, seed=0)
    batches = sampler.epoch_batches()
    assert len(batches) == 3
    assert all(len(b) == 3 for b in batches)


def test_sampler_no_repeats_within_epoch():
    sampler = MinibatchSampler(n=20, batch_size=5, seed=3)
    seen = np.concatenate(sampler.epoch_batches())
    assert len(np.unique(seen)) == len(seen)


def test_sampler_deterministic():
    a = MinibatchSampler(n=30, batch_size=7, seed=9)
    b = MinibatchSampler(n=30, batch_size=7, seed=9)
    for _ in range(10):
        assert np.array_equal(a.next_batch(), b.next_batch())


def test_substreams_are_independent_and_stable():
    a = seeding.substream(0, seeding.DATA).standard_normal(4)
    b = seeding.substream(0, seeding.DP_NOISE).standard_normal(4)
    assert not np.array_equal(a, b)
    again = seeding.substream(0, seeding.DATA).standard_normal(4)
    assert np.array_equal(a, again)
