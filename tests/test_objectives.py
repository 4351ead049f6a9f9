import dataclasses
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpkf import harness, objectives, seeding
from dpkf.objectives import (
    _exp_neg_abs,
    _log1p_exp_neg,
    _sigmoid_neg,
    EVAL_BLOCK,
    EVAL_STATES,
    Dataset,
    GradFactors,
    full_gradient,
    full_loss,
    gen_classification,
    gen_linear_regression,
    make_objective,
    minibatches,
    two_point_grads,
)
from reference_methods import (
    logistic_evaluate,
    logistic_loss,
    logistic_sigmoid_neg,
    logistic_weights,
    per_sample_grad,
    per_sample_loss,
    sample_of,
)


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


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    B=st.integers(1, 70),
    k=st.integers(1, 16),
    m=st.integers(1, 25),
    weighted=st.booleans(),
    order=st.sampled_from("CF"),
    seed=st.integers(0, 2**32 - 1),
)
@example(B=70, k=1, m=1, weighted=True, order="C", seed=0)
@example(B=70, k=1, m=25, weighted=False, order="F", seed=1)
@example(B=33, k=16, m=2, weighted=True, order="F", seed=2)
def test_factored_mean_is_bitwise_dense_mean(B, k, m, weighted, order, seed):
    """A per-row block's mean, weights in (0, 1] or none, has the bits of the
    mean of the dense C-ordered rows, whether the features are C- or
    Fortran-ordered."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((B, k))
    f = rng.standard_normal((B, m))
    w = 1.0 - rng.random(B) if weighted else None
    wc = c if w is None else w[:, None] * c
    dense = (wc[:, :, None] * f[:, None, :]).reshape(B, -1).mean(axis=0)
    assert np.array_equal(GradFactors([c], [np.asarray(f, order=order)]).mean(w), dense)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 12),
    B=st.one_of(st.just(1), st.integers(1, 80)),
    h=st.one_of(st.just(1), st.integers(1, 20)),
    p=st.one_of(st.just(1), st.integers(1, 25)),
    weighted=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(k=3, B=64, h=16, p=21, weighted=False, seed=0)  # sweep-mlp's [X | 1] block
@example(k=3, B=64, h=16, p=21, weighted=True, seed=1)
@example(k=2, B=1, h=2, p=1, weighted=True, seed=2)
@example(k=5, B=40, h=1, p=7, weighted=False, seed=3)  # a GLM stack's one column
def test_stacked_factored_mean_is_each_rows_own_mean(k, B, h, p, weighted, seed):
    """A (k, B, h) stack of coefficients on shared (B, p) features: each run's
    mean, weights in (0, 1] or none, has the bytes of its own 2-D mean, with
    -0.0, huge (overflowing, then inf - inf) and tiny (subnormal) coefficients."""
    rng = np.random.default_rng(seed)
    scale = rng.choice([1.0, -0.0, 1e300, 1e-310], size=(k, B, h), p=[0.55, 0.15, 0.15, 0.15])
    c = rng.standard_normal((k, B, h)) * scale
    f = rng.standard_normal((B, p))
    w = 1.0 - rng.random((k, B)) if weighted else None
    with np.errstate(over="ignore", invalid="ignore"):
        got = GradFactors([c], [f]).mean(w)
        for i in range(k):
            own = GradFactors([c[i]], [f]).mean(None if w is None else w[i])
            assert got[i].tobytes() == own.tobytes()


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
@example(kind="logistic-regression", n=5000, p=50, k=EVAL_BLOCK, tail=40.5, seed=4)  # the benchmark's
@example(kind="logistic-regression", n=2, p=2, k=1, tail=90.0, seed=0)  # margins differ from X @ x
def test_evaluate_keeps_loss_bits_and_sums_gradients_within_the_bound(kind, n, p, k, tail, seed):
    """Losses are ``==`` to ``full_loss``. The MLP's and the quadratic's
    gradients are ``==`` to ``mean_grad``; a linear model's are ``mean_grad``'s
    coefficients w summed by BLAS instead of in row order. Each of the two sums
    of n products, divided by n, lies within gamma_{n+1} sum_i |w_i x_ij| / n of
    the exact mean (Higham, Accuracy and Stability, eq. 3.5 and lemma 3.3),
    whatever the order, so they lie within twice that of each other.
    Logistic regression's coefficients w' come from other margins than
    ``mean_grad``'s: each margin, a sum of p products, lies within
    gamma_p sum_j |a_ij x_j| of the exact one, so the two within
    delta_i = twice that. As |d ln sigmoid(-m) / dm| <= 1, w'_i lies within
    |w_i| (exp(delta_i) - 1) of w_i, plus the rounding of the two weights
    (exp within 1 ulp, then three roundings: 5u each, 12u with the second-order
    terms); the exact means then differ by at most sum_i |w'_i - w_i| |x_ij| / n."""
    obj, ds, xs = _evaluation_problem(kind, n, p, k, tail, seed)
    losses, grads = obj.evaluate(xs, ds.X, ds.y)
    assert losses.shape == (k,) and grads.shape == (k, obj.dim)
    u = np.finfo(float).eps / 2
    for x, loss, g in zip(xs, losses, grads):
        assert loss == full_loss(obj, x, ds)
        want = full_gradient(obj, x, ds)
        if kind in ("mlp", "quadratic"):
            assert np.array_equal(g, want)
            continue
        w = np.abs(obj._coef(x, ds.X, ds.y))
        dw = np.zeros(n)
        if kind == "logistic-regression":
            # the computed sum of |a_ij x_j| is at least (1 - gamma_p) times the exact one
            delta = 2 * _gamma(p) * (np.abs(ds.X) @ np.abs(x)) / (1 - _gamma(p))
            dw = w * (np.expm1(delta) + 12 * u)
        # the computed sum of |w_i x_ij| is at least (1 - gamma_n) times the exact one
        sums = (2 * _gamma(n + 1) * w + (1 + _gamma(n + 1)) * dw) @ np.abs(ds.X) / (1 - _gamma(n))
        assert (np.abs(g - want) <= sums / n).all()


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize(
    "n, p",
    [(5000, 50), (3000, 50), (500, 32), (300, 60), (500, 20), (64, 50), (1000, 20), (80, 5),
     (40, 1), (17, 1), (1, 3)],
)
def test_evaluate_row_bits_depend_on_the_state_alone(kind, n, p):
    """A state's loss and gradient have the same bits at every position of a
    call of EVAL_STATES, in a shorter call and alone; the linear models'
    margins take 8-row products and their gradients one product padded to a
    multiple of EVAL_BLOCK rows, where OpenBLAS computes every row alike."""
    obj, ds, xs = _evaluation_problem(kind, n, p, EVAL_STATES, 40.5, n + p)
    losses, grads = obj.evaluate(xs, ds.X, ds.y)
    for shift in range(1, EVAL_STATES):
        got_l, got_g = obj.evaluate(np.roll(xs, shift, axis=0), ds.X, ds.y)
        assert np.roll(got_l, -shift).tobytes() == losses.tobytes()
        assert np.roll(got_g, -shift, axis=0).tobytes() == grads.tobytes()
    for k in range(1, EVAL_STATES):
        got_l, got_g = obj.evaluate(xs[:k], ds.X, ds.y)
        assert got_l.tobytes() == losses[:k].tobytes() and got_g.tobytes() == grads[:k].tobytes()
    for i in range(EVAL_STATES):
        got_l, got_g = obj.evaluate(xs[i : i + 1], ds.X, ds.y)
        assert got_l.tobytes() == losses[i : i + 1].tobytes()
        assert got_g.tobytes() == grads[i : i + 1].tobytes()


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["linear-regression", "logistic-regression"]),
    n=st.integers(1, 400),
    p=st.one_of(st.just(1), st.integers(1, 64)),
    k=st.integers(1, 2 * EVAL_STATES + 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="logistic-regression", n=5000, p=50, k=2 * EVAL_STATES + 3, seed=0)  # the benchmark's
@example(kind="logistic-regression", n=500, p=32, k=2 * EVAL_STATES + 3, seed=1)
@example(kind="logistic-regression", n=300, p=60, k=2 * EVAL_STATES + 3, seed=2)
@example(kind="logistic-regression", n=64, p=50, k=2 * EVAL_STATES + 3, seed=3)
@example(kind="linear-regression", n=5000, p=50, k=2 * EVAL_STATES + 3, seed=4)
@example(kind="linear-regression", n=500, p=32, k=2 * EVAL_STATES + 3, seed=5)
@example(kind="linear-regression", n=300, p=60, k=2 * EVAL_STATES + 3, seed=6)
@example(kind="linear-regression", n=64, p=50, k=2 * EVAL_STATES + 3, seed=7)
def test_a_states_evaluation_bytes_do_not_depend_on_its_call(kind, n, p, k, seed):
    """Each of k states, 1 to 2 x EVAL_STATES + 3, has the loss and gradient
    bytes of the state evaluated alone, in the call as given and in the call
    shuffled, so at any position of a full or padded product."""
    obj, ds, xs = _evaluation_problem(kind, n, p, k, 40.5, seed)
    alone = [obj.evaluate(x[None], ds.X, ds.y) for x in xs]
    order = np.random.default_rng(seed).permutation(k)
    for perm in (np.arange(k), order):
        losses, grads = obj.evaluate(xs[perm], ds.X, ds.y)
        for row, i in enumerate(perm):
            assert losses[row : row + 1].tobytes() == alone[i][0].tobytes()
            assert grads[row : row + 1].tobytes() == alone[i][1].tobytes()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_evaluate_gradients_match_finite_differences_of_its_losses(kind):
    """Central differences of ``evaluate``'s whole-dataset losses, taken a block
    of states at a time with step 1e-6, match its gradients to 1e-7 relative
    (at most 8.5e-10 here): the loss a run reports agrees with its gradient."""
    obj, ds, xs = _evaluation_problem(kind, 200, 4, EVAL_BLOCK, 40.5, 11)
    _, grads = obj.evaluate(xs, ds.X, ds.y)
    h = 1e-6
    fd = np.empty_like(grads)
    for i in range(obj.dim):
        e = np.zeros(obj.dim)
        e[i] = h
        up, down = obj.evaluate(xs + e, ds.X, ds.y)[0], obj.evaluate(xs - e, ds.X, ds.y)[0]
        fd[:, i] = (up - down) / (2 * h)
    err = np.linalg.norm(fd - grads, axis=1)
    assert (err <= 1e-7 * np.maximum(np.linalg.norm(grads, axis=1), 1e-8)).all()


def test_evaluation_bits_do_not_depend_on_the_callers_blas_thread_count():
    """At n 5000, p 50, ``W @ X`` gives other bits at 2 OpenBLAS threads than
    at 1; ``evaluate`` holds one thread itself, so the logistic and linear
    blocks, and the logistic ``full_loss``, keep their bits whatever the caller
    set."""
    blas = objectives._openblas_threads()
    if blas is None:
        pytest.skip("numpy bundles no OpenBLAS")
    get, put = blas
    xs = np.random.default_rng(3).standard_normal((EVAL_STATES, 50)) / 4
    problems = [
        (make_objective("logistic-regression", 50), gen_classification(5000, 50, 3)),
        (make_objective("linear-regression", 50), gen_linear_regression(5000, 50, 0.3, 3)),
    ]
    before = get()
    seen = {}
    try:
        for threads in (1, 2):
            put(threads)
            seen[threads] = [obj.evaluate(xs, ds.X, ds.y) for obj, ds in problems]
            seen[threads].append([full_loss(problems[0][0], x, problems[0][1]) for x in xs])
            assert get() == threads  # the caller's count is restored
    finally:
        put(before)
    (l1, g1), (r1, h1), f1 = seen[1]
    (l2, g2), (r2, h2), f2 = seen[2]
    for one, two in ((l1, l2), (g1, g2), (r1, r2), (h1, h2)):
        assert one.tobytes() == two.tobytes()
    assert f1 == f2 and f1 == l1.tolist()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_evaluate_past_one_block_is_its_chunks(kind):
    """``evaluate`` takes any k >= 1 states: 2 x EVAL_STATES + 3 of them give
    the bytes of the same states evaluated in chunks of at most EVAL_STATES,
    EVAL_BLOCK + 1, EVAL_BLOCK, 3 and 1."""
    k = 2 * EVAL_STATES + 3
    obj, ds, xs = _evaluation_problem(kind, 300, 6, k, 40.5, 9)
    losses, grads = obj.evaluate(xs, ds.X, ds.y)
    assert losses.shape == (k,) and grads.shape == xs.shape
    for size in (EVAL_STATES, EVAL_BLOCK + 1, EVAL_BLOCK, 3, 1):
        chunks = [obj.evaluate(xs[i : i + size], ds.X, ds.y) for i in range(0, len(xs), size)]
        assert np.concatenate([c[0] for c in chunks]).tobytes() == losses.tobytes()
        assert np.concatenate([c[1] for c in chunks]).tobytes() == grads.tobytes()


def test_evaluate_rejects_no_states():
    obj, ds, _ = build("logistic-regression", 3, 0)
    with pytest.raises(ValueError, match=r"states must have shape \(k, 3\) with k >= 1, got \(0, 3\)"):
        obj.evaluate(np.zeros((0, obj.dim)), ds.X, ds.y)


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


def same_bits(got, want):
    """Equal values, NaN where NaN, and equal sign bits, +-0 included; a
    NaN's sign bit carries nothing."""
    real = ~np.isnan(want)
    return np.array_equal(got, want, equal_nan=True) and np.array_equal(
        np.signbit(got[real]), np.signbit(want[real])
    )


def test_sigmoid_neg_matches_masked_two_branch_form():
    edges = np.array([0.0, -0.0, 800.0, -800.0, np.nan, 1e-300, -1e-300, 36.7, -36.7])
    spread = np.random.default_rng(0).standard_normal(2000) * np.logspace(-3, 3, 2000)
    for m in (edges, spread):
        assert same_bits(_sigmoid_neg(m, np.exp(-np.abs(m))), masked_sigmoid_neg(m))
    assert _sigmoid_neg(edges, np.exp(-np.abs(edges)))[:4].tolist() == [0.5, 0.5, 0.0, 1.0]


def logistic_losses(margins):
    """The logistic loss ``evaluate`` averages, at the given margins."""
    m = np.asarray(margins, dtype=float)
    return _log1p_exp_neg(m, np.exp(-np.abs(m)))


def test_logistic_loss_edges():
    m = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 746.0, -746.0, 1e308, -1e308])
    got = logistic_losses(m)
    assert got[0] == got[1] == np.logaddexp(0.0, -0.0) == math.log(2.0)
    assert np.array_equal(got[2:], [0.0, np.inf, np.nan, 0.0, 746.0, 0.0, 1e308], equal_nan=True)
    with np.errstate(invalid="ignore"):  # logaddexp flags its NaN
        want = np.logaddexp(0.0, -m)
    assert np.array_equal(got, want, equal_nan=True)
    real = ~np.isnan(got)  # every real loss is +0 or above, as logaddexp's
    assert not np.signbit(got[real]).any() and not np.signbit(want[real]).any()


@settings(max_examples=300, deadline=None)
@given(m=st.floats(allow_nan=False, allow_infinity=False))
@example(m=4.157618328626281)  # 3 ulp from logaddexp: 1.57 ulp below the truth, it 1.43 above
@example(m=-0.4140064185649884)
@example(m=740.0)  # a subnormal loss
@example(m=5e-324)
def test_logistic_loss_matches_logaddexp_and_mpmath(m):
    """log1p(e) - min(m, 0), the bits of log1p(e) + max(-m, 0), with numpy's
    vector exp is within 3 ulp of ``logaddexp(0, -m)``, which calls libm's
    scalar exp, and within 1e-15 of the exact value (or two subnormal
    spacings, for a subnormal loss)."""
    got = logistic_losses([m])[0]
    want = np.logaddexp(0.0, -m)
    assert abs(got - want) <= 3 * math.ulp(want)
    with mpmath.workdps(40):
        exact = mpmath.log1p(mpmath.exp(-mpmath.mpf(m)))
        assert abs(mpmath.mpf(got) - exact) <= max(1e-15 * exact, 2.0**-1073)


EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 745.0, -745.0, 746.0, -746.0]


@settings(max_examples=300, deadline=None)
@given(
    m=st.lists(st.floats(), min_size=1, max_size=40),
    y=st.lists(st.floats(allow_nan=False), min_size=1, max_size=40),
)
@example(m=EDGES, y=[1.0, -1.0] * 5)
@example(m=EDGES * 2, y=[-1.0])  # 20 margins: numpy's vector loops as well as their tails
@example(m=[0.0], y=[1.0])
@example(m=[-0.0], y=[-1.0])
@example(m=[np.inf], y=[1.0])
@example(m=[-np.inf], y=[-1.0])
@example(m=[np.nan], y=[1.0])
@example(m=[5e-324], y=[1.0])
@example(m=[745.0], y=[-1.0])
@example(m=[-745.0], y=[1.0])
@example(m=[746.0], y=[1.0])
@example(m=[-746.0], y=[-1.0])
def test_logistic_helpers_keep_the_bits_of_their_first_formulas(m, y):
    """e, sigmoid(-m), the loss and the weights have the bits of the formulas
    they replaced (``reference_methods``) at every float margin, allocating,
    into a buffer, and written over the margins; as 0 <= e <= 1,
    max(e, m < 0) is where(m >= 0, e, 1), and -min(m, 0) is max(-m, 0)."""
    m = np.array(m)
    y = np.resize(np.array(y), len(m))
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 and overflow in the oracles too
        e = np.exp(-np.abs(m))
        oracles = [
            (lambda m, out=None: _exp_neg_abs(m, out), e),
            (lambda m, out=None: _sigmoid_neg(m, e, out), logistic_sigmoid_neg(m, e)),
            (lambda m, out=None: _log1p_exp_neg(m, e, out), logistic_loss(m, e)),
            (
                lambda m, out=None: objectives.LogisticRegression._weights(m, e, y, out),
                logistic_weights(m, e, y),
            ),
        ]
        for helper, want in oracles:
            assert same_bits(helper(m.copy()), want)
            buffer = np.full(len(m), 7.0)
            assert helper(m.copy(), buffer) is buffer and same_bits(buffer, want)
            over = m.copy()
            assert helper(over, over) is over and same_bits(over, want)


@pytest.mark.parametrize("k", [1, 5, EVAL_BLOCK, EVAL_BLOCK + 3, EVAL_STATES])
@pytest.mark.parametrize("n, p", [(5000, 50), (300, 60), (40, 1)])
def test_logistic_evaluate_keeps_the_bits_of_the_allocating_row_loop(n, p, k):
    """``evaluate``'s losses and gradients, from reused row buffers, are the
    bytes of the row loop that allocates each row's e, loss and weights
    (``reference_methods.logistic_evaluate``), margins of 0 and |m| > 40 included."""
    obj, ds, xs = _evaluation_problem("logistic-regression", n, p, k, -90.0, n + p + k)
    got, want = obj.evaluate(xs, ds.X, ds.y), logistic_evaluate(xs, ds.X, ds.y)
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


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


@pytest.mark.parametrize("n", [1, 7, 50, 100, 1000])
def test_quadratic_mean_grad_does_not_depend_on_the_placeholder_size(n):
    """Every sample has the gradient H (x - x*), so the mean over n samples is
    that vector at every n: the shared row times the mean weight, 1."""
    problem = {"kind": "quadratic", "dim": 4, "eigenvalues": [0.5, 1.0, 2.0, 4.0]}
    obj, ds = harness.build_problem(problem, 13, batch_floor=n)
    assert ds.n == n
    x0 = obj.init_point(13, 2.0)
    want = obj.H @ (x0 - obj.x_star)
    assert obj.mean_grad(x0, ds.X, ds.y).tobytes() == want.tobytes()
    _, (g,) = obj.evaluate([x0], ds.X, ds.y)
    assert g.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 7, 50, 100])
def test_quadratic_mean_loss_does_not_depend_on_the_placeholder_size(n):
    """Every sample has the loss 0.5 (x - x*)^T H (x - x*), so the mean over
    n samples is that value at every n; bounds-quadratic's problem."""
    problem = {"kind": "quadratic", "dim": 4, "eigenvalues": [0.5, 1.0, 2.0, 4.0]}
    obj, ds = harness.build_problem(problem, 13, batch_floor=n)
    assert ds.n == n
    x = obj.init_point(13, 2.0)
    r = x - obj.x_star
    want = 0.5 * float(r @ obj.H @ r)
    (loss,), _ = obj.evaluate([x], ds.X, ds.y)
    assert full_loss(obj, x, ds) == loss == want


@pytest.mark.parametrize(
    "given, match",
    [
        ({"x_star": [5.0]}, r"x_star must be 3 finite values, got \[5.0\]"),
        ({"x_star": np.ones((3, 1))}, "x_star must be 3 finite values"),
        ({"x_star": [0.0, np.inf, 0.0]}, "x_star must be 3 finite values"),
        ({"H": np.diag([1.0, np.inf, 1.0])}, "H must be finite"),
        ({"H": np.diag([1.0, np.nan, 1.0])}, "H must be finite"),
        ({"H": np.diag([-1.0, 1.0, 1.0])}, "H must be positive semidefinite, smallest eigenvalue -1$"),
    ],
    ids=["x_star-one-value", "x_star-column", "x_star-inf", "H-inf", "H-nan", "H-indefinite"],
)
def test_quadratic_refuses_a_misshapen_x_star_and_a_non_finite_H(given, match):
    """One x* value would broadcast to every coordinate, a NaN H would be
    called asymmetric, and an indefinite H is unbounded below; the library
    refuses them as the config check does."""
    with pytest.raises(ValueError, match=match):
        make_objective("quadratic", 3, **given)


def test_quadratic_psd_tolerance_scales_with_the_norm_of_H():
    """H passes while its smallest eigenvalue is at least -1e-12 max(1, ||H||):
    a rank-2 M M^T / 6 whose rounding gives eigenvalues down to -3e-10 at
    ||H|| about 1e6 passes, and -2e-12 is refused at ||H|| 1."""
    for seed in range(5):
        M = np.random.default_rng(seed).standard_normal((6, 2)) * 1e3
        assert np.linalg.eigvalsh(M @ M.T / 6)[0] < -1e-12
        make_objective("quadratic", 6, H=M @ M.T / 6)
    make_objective("quadratic", 2, H=np.diag([-0.5e-12, 1.0]))
    make_objective("quadratic", 2, H=np.diag([-0.5e-6, 1e6]))
    for H in (np.diag([-2e-12, 1.0]), np.diag([-2e-12, 0.5]), np.diag([-2e-6, 1e6])):
        with pytest.raises(ValueError, match="H must be positive semidefinite"):
            make_objective("quadratic", 2, H=H)


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


def first_batches(n, batch_size, seed, count):
    return list(itertools.islice(minibatches(n, batch_size, seed), count))


def test_sampler_epoch_covers_dataset():
    batches = first_batches(12, 3, 0, 8)
    for epoch in (batches[:4], batches[4:]):  # an epoch is 4 batches
        union = np.sort(np.concatenate(epoch))
        assert np.array_equal(union, np.arange(12))


def test_sampler_drops_partial_batch():
    batches = first_batches(10, 3, 0, 6)
    assert all(len(b) == 3 for b in batches)
    rng = seeding.substream(0, seeding.SAMPLING)
    for epoch in (batches[:3], batches[3:]):  # 3 batches, then the next permutation
        assert np.array_equal(np.concatenate(epoch), rng.permutation(10)[:9])


def test_sampler_no_repeats_within_epoch():
    seen = np.concatenate(first_batches(20, 5, 3, 4))
    assert len(np.unique(seen)) == len(seen)


def test_sampler_deterministic():
    a = minibatches(n=30, batch_size=7, seed=9)
    b = minibatches(n=30, batch_size=7, seed=9)
    for _ in range(10):
        assert np.array_equal(next(a), next(b))


@pytest.mark.parametrize("batch_size", [0, 4])
def test_sampler_rejects_batch_size_at_the_call(batch_size):
    with pytest.raises(ValueError, match="need 1 <= batch_size <= n"):
        minibatches(3, batch_size, 0)  # no next(): the check runs before the first batch


def test_substreams_are_independent_and_stable():
    a = seeding.substream(0, seeding.DATA).standard_normal(4)
    b = seeding.substream(0, seeding.DP_NOISE).standard_normal(4)
    assert not np.array_equal(a, b)
    again = seeding.substream(0, seeding.DATA).standard_normal(4)
    assert np.array_equal(a, again)
