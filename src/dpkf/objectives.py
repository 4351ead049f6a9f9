"""Differentiable test problems with hand-derived per-sample gradients.

Four objective kinds are supported: quadratic, linear regression, logistic
regression, and a tiny one-hidden-layer MLP. Gradients are analytic (no
autodiff); each kind is exercised against a finite-difference oracle in the
test suite. Per-sample evaluation is vectorised over the batch with a fixed
accumulation order, so results are bit-reproducible for a given seed.
``mean_grad`` averages the gradients without forming the per-sample matrix
and gives the same bits as ``per_sample_grads(...).mean(axis=0)``.

``loss_and_mean_grad`` shares one forward pass (residual, margins, or hidden
layer and residual) between the two and applies the same operations to it, so
it is ``==`` to ``(full_loss, mean_grad)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import seeding


@dataclass
class Dataset:
    """Feature matrix ``X`` (n x p) with scalar targets ``y`` (n,)."""

    X: np.ndarray
    y: np.ndarray
    theta_star: np.ndarray | None = None

    def __post_init__(self) -> None:
        # C order fixes the order in which rows are summed (see ``_row_mean``)
        self.X = np.ascontiguousarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.X.ndim != 2 or self.X.shape[0] < 1:
            raise ValueError("dataset needs at least one sample with shared dimension")
        if self.y.shape != (self.X.shape[0],):
            raise ValueError("targets must be one scalar per sample")
        if not (np.isfinite(self.X).all() and np.isfinite(self.y).all()):
            raise ValueError("dataset entries must be finite")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def subset(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.X[idx], self.y[idx]


def _with_ones(A: np.ndarray) -> np.ndarray:
    """[A | 1] as a new C-contiguous array; the ones column sums the weights."""
    out = np.ones((A.shape[0], A.shape[1] + 1))
    out[:, :-1] = A
    return out


def _row_mean(w: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``(w[:, None] * X).mean(axis=0)`` with the same bits, without the product.

    Both add the rows in order and divide by n once. einsum keeps that order
    while the columns of X are its inner loop, which needs X C-contiguous and
    at least two columns wide. A single column is contiguous, and there the
    mean itself sums with partial sums, so it is kept; the product is (n, 1).
    """
    if X.shape[1] == 1:
        return (w[:, None] * X).mean(axis=0)
    return np.einsum("i,ij->j", w, np.ascontiguousarray(X)) / len(X)


def _sigmoid_neg(m: np.ndarray) -> np.ndarray:
    """sigmoid(-m), stable on both tails, with one exp and one division.

    The two-branch form, exp(-m)/(1+exp(-m)) for m >= 0 and 1/(1+exp(m))
    otherwise, divides by 1 + exp(-|m|) in both, so this gives its bits.
    """
    e = np.exp(-np.abs(m))
    return np.where(m >= 0, e, 1.0) / (1.0 + e)


def gen_linear_regression(n: int, p: int, noise_std: float, seed: int) -> Dataset:
    """Synthetic regression data: y_i = <x_i, theta*> + noise_std * z_i.

    Features, label noise, and theta* are standard normal, all drawn from the
    ``data`` substream of ``seed``; the construction is deterministic per seed.
    """
    if n < 1 or p < 1:
        raise ValueError("need n >= 1 and p >= 1")
    if noise_std < 0:
        raise ValueError("noise_std must be >= 0")
    rng = seeding.substream(seed, seeding.DATA)
    theta_star = rng.standard_normal(p)
    X = rng.standard_normal((n, p))
    noise = rng.standard_normal(n)
    y = X @ theta_star + noise_std * noise
    return Dataset(X=X, y=y, theta_star=theta_star)


def gen_classification(n: int, p: int, seed: int) -> Dataset:
    """Linearly separable-ish binary labels in {-1, +1} from a random hyperplane."""
    if n < 1 or p < 1:
        raise ValueError("need n >= 1 and p >= 1")
    rng = seeding.substream(seed, seeding.DATA)
    theta_star = rng.standard_normal(p)
    X = rng.standard_normal((n, p))
    y = np.sign(X @ theta_star + 0.3 * rng.standard_normal(n))
    y[y == 0] = 1.0
    return Dataset(X=X, y=y, theta_star=theta_star)


class Objective:
    """Base class: per-sample losses/gradients, vectorised over a batch."""

    kind: str = ""
    dim: int = 0

    def per_sample_losses(self, x: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def per_sample_grads(self, x: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def mean_grad(self, x: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Mean of the per-sample gradients. An override skips the (n, d)
        matrix and keeps the bits of ``per_sample_grads(x, X, y).mean(axis=0)``
        for C-contiguous X."""
        return self.per_sample_grads(x, X, y).mean(axis=0)

    def loss_and_mean_grad(self, x, X, y) -> tuple[float, np.ndarray]:
        """``(float(per_sample_losses(...).mean()), mean_grad(...))``, the same
        bits; an override runs the forward pass once for both."""
        return float(self.per_sample_losses(x, X, y).mean()), self.mean_grad(x, X, y)

    def smoothness(self, dataset: Dataset | None = None) -> float | None:
        """Smoothness constant of the mean loss, when computable exactly."""
        return None

    def init_point(self, seed: int, scale: float = 1.0) -> np.ndarray:
        rng = seeding.substream(seed, seeding.INIT)
        return scale * rng.standard_normal(self.dim)

    def _check_dim(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"parameter vector must have shape ({self.dim},), got {x.shape}")
        return x


class Quadratic(Objective):
    """f(x; xi) = 0.5 (x - x*)^T H (x - x*) for every sample.

    Samples carry no information, so the stochastic-gradient variance is
    exactly zero; this is the workhorse for closed-form checks.
    """

    kind = "quadratic"

    def __init__(self, H: np.ndarray, x_star: np.ndarray | None = None):
        H = np.asarray(H, dtype=float)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError("H must be square")
        if not np.allclose(H, H.T, atol=1e-12):
            raise ValueError("H must be symmetric")
        self.H = H
        self.dim = H.shape[0]
        self.x_star = np.zeros(self.dim) if x_star is None else np.asarray(x_star, dtype=float)

    def per_sample_losses(self, x, X, y):
        x = self._check_dim(x)
        r = x - self.x_star
        val = 0.5 * float(r @ self.H @ r)
        return np.full(len(X), val)

    def per_sample_grads(self, x, X, y):
        x = self._check_dim(x)
        g = self.H @ (x - self.x_star)
        return np.tile(g, (len(X), 1))

    def smoothness(self, dataset=None):
        return float(np.linalg.eigvalsh(self.H)[-1])

    def f_star(self) -> float:
        return 0.0

    def placeholder_dataset(self, n: int = 1) -> Dataset:
        # Samples are ignored by the loss; the dataset only drives batching.
        return Dataset(X=np.zeros((n, 1)), y=np.zeros(n))


class LinearRegression(Objective):
    """Squared loss f(x; (a, y)) = 0.5 (<a, x> - y)^2."""

    kind = "linear-regression"

    def __init__(self, dim: int):
        self.dim = dim

    def _residual(self, x, X, y):
        return X @ self._check_dim(x) - y

    def per_sample_losses(self, x, X, y):
        return 0.5 * self._residual(x, X, y) ** 2

    def per_sample_grads(self, x, X, y):
        return self._residual(x, X, y)[:, None] * X

    def mean_grad(self, x, X, y):
        return _row_mean(self._residual(x, X, y), X)

    def loss_and_mean_grad(self, x, X, y):
        r = self._residual(x, X, y)
        return float((0.5 * r**2).mean()), _row_mean(r, X)

    def smoothness(self, dataset=None):
        if dataset is None:
            return None
        second_moment = dataset.X.T @ dataset.X / dataset.n
        return float(np.linalg.eigvalsh(second_moment)[-1])


class LogisticRegression(Objective):
    """Logistic loss with labels in {-1, +1}: f = log(1 + exp(-y <a, x>))."""

    kind = "logistic-regression"

    def __init__(self, dim: int):
        self.dim = dim

    def _margins(self, x, X, y):
        return y * (X @ self._check_dim(x))

    @staticmethod
    def _weights(m, y):
        """d loss_i / d <a_i, x> = -y_i sigmoid(-m_i), m_i = y_i <a_i, x>."""
        return -y * _sigmoid_neg(m)

    def per_sample_losses(self, x, X, y):
        return np.logaddexp(0.0, -self._margins(x, X, y))

    def per_sample_grads(self, x, X, y):
        return self._weights(self._margins(x, X, y), y)[:, None] * X

    def mean_grad(self, x, X, y):
        return _row_mean(self._weights(self._margins(x, X, y), y), X)

    def loss_and_mean_grad(self, x, X, y):
        m = self._margins(x, X, y)
        return float(np.logaddexp(0.0, -m).mean()), _row_mean(self._weights(m, y), X)

    def smoothness(self, dataset=None):
        if dataset is None:
            return None
        second_moment = dataset.X.T @ dataset.X / dataset.n
        return float(np.linalg.eigvalsh(second_moment)[-1]) / 4.0


class TinyMLP(Objective):
    """One hidden tanh layer (width 16 by default), squared loss on a scalar output.

    Parameters are packed flat as [W1 (h*p), b1 (h), w2 (h), b2 (1)]. Small
    enough (< 2000 parameters) to run in seconds yet genuinely non-convex.
    """

    kind = "mlp"

    def __init__(self, in_dim: int, hidden: int = 16):
        if hidden < 1 or in_dim < 1:
            raise ValueError("need hidden >= 1 and in_dim >= 1")
        if hidden * in_dim + 2 * hidden + 1 > 2000:
            raise ValueError("parameter budget is 2000; shrink in_dim or hidden")
        self.in_dim = in_dim
        self.hidden = hidden
        self.dim = hidden * in_dim + 2 * hidden + 1

    def _unpack(self, x: np.ndarray):
        h, p = self.hidden, self.in_dim
        W1 = x[: h * p].reshape(h, p)
        b1 = x[h * p : h * p + h]
        w2 = x[h * p + h : h * p + 2 * h]
        b2 = x[-1]
        return W1, b1, w2, b2

    def _forward(self, x, X):
        W1, b1, w2, b2 = self._unpack(x)
        hidden = np.tanh(X @ W1.T + b1)
        out = hidden @ w2 + b2
        return hidden, out

    def per_sample_losses(self, x, X, y):
        _, out = self._forward(self._check_dim(x), X)
        return 0.5 * (out - y) ** 2

    def _backprop(self, x, X, y):
        """Hidden activations, output residuals and pre-activation gradients."""
        hidden, out = self._forward(x, X)
        r = out - y
        w2 = self._unpack(x)[2]
        d_pre = (r[:, None] * w2[None, :]) * (1.0 - hidden**2)
        return hidden, r, d_pre

    def per_sample_grads(self, x, X, y):
        hidden, r, d_pre = self._backprop(self._check_dim(x), X, y)
        d_W1 = d_pre[:, :, None] * X[:, None, :]
        B = len(X)
        return np.concatenate(
            [d_W1.reshape(B, -1), d_pre, r[:, None] * hidden, r[:, None]], axis=1
        )

    @staticmethod
    def _mean_of_backprop(X, hidden, r, d_pre):
        # Row-ordered sums as in ``_row_mean``; the ones columns give the bias
        # sums and keep every einsum at least two columns wide.
        d_W1_b1 = np.einsum("ih,ip->hp", d_pre, _with_ones(X))
        d_w2_b2 = np.einsum("i,ih->h", r, _with_ones(hidden))
        return np.concatenate([d_W1_b1[:, :-1].ravel(), d_W1_b1[:, -1], d_w2_b2]) / len(X)

    def mean_grad(self, x, X, y):
        return self._mean_of_backprop(X, *self._backprop(self._check_dim(x), X, y))

    def loss_and_mean_grad(self, x, X, y):
        hidden, r, d_pre = self._backprop(self._check_dim(x), X, y)
        return float((0.5 * r**2).mean()), self._mean_of_backprop(X, hidden, r, d_pre)

    def init_point(self, seed: int, scale: float = 1.0) -> np.ndarray:
        rng = seeding.substream(seed, seeding.INIT)
        h, p = self.hidden, self.in_dim
        W1 = rng.standard_normal((h, p)) / np.sqrt(p)
        b1 = np.zeros(h)
        w2 = rng.standard_normal(h) / np.sqrt(h)
        b2 = np.zeros(1)
        return scale * np.concatenate([W1.ravel(), b1, w2, b2])


def make_objective(kind: str, dim: int, **kwargs) -> Objective:
    if kind == "quadratic":
        H = kwargs.get("H")
        if H is None:
            H = np.eye(dim)
        return Quadratic(H=H, x_star=kwargs.get("x_star"))
    if kind == "linear-regression":
        return LinearRegression(dim)
    if kind == "logistic-regression":
        return LogisticRegression(dim)
    if kind == "mlp":
        return TinyMLP(dim, hidden=kwargs.get("hidden", 16))
    raise ValueError(f"unknown objective kind: {kind!r}")


def two_point_grads(
    obj: Objective,
    x: np.ndarray,
    d_prev: np.ndarray,
    gamma: float,
    kappa: float,
    X: np.ndarray,
    y: np.ndarray,
) -> np.ndarray:
    """Per-sample combination a*grad(x + gamma*d_prev) + (1-a)*grad(x), a = (1-kappa)/(kappa*gamma).

    kappa = 1 collapses to the plain per-sample gradient and takes that exact
    code path (no second evaluation), so downstream reductions are bit-exact.
    """
    if gamma == 0:
        raise ValueError("gamma must be nonzero")
    if not 0 < kappa <= 1:
        raise ValueError("kappa must lie in (0, 1]")
    if kappa == 1.0:
        return obj.per_sample_grads(x, X, y)
    a = (1.0 - kappa) / (kappa * gamma)
    ahead = obj.per_sample_grads(x + gamma * d_prev, X, y)
    here = obj.per_sample_grads(x, X, y)
    return a * ahead + (1.0 - a) * here


def full_gradient(obj: Objective, x: np.ndarray, dataset: Dataset) -> np.ndarray:
    """Mean of per-sample gradients over the whole dataset."""
    return obj.mean_grad(x, dataset.X, dataset.y)


def full_loss(obj: Objective, x: np.ndarray, dataset: Dataset) -> float:
    return float(obj.per_sample_losses(x, dataset.X, dataset.y).mean())


@dataclass
class MinibatchSampler:
    """Without-replacement sampling with fixed batch size.

    Each epoch is a fresh permutation of {0..n-1} cut into floor(n/B) full
    batches; the partial tail batch is dropped. Deterministic per seed.
    """

    n: int
    batch_size: int
    seed: int
    _rng: np.random.Generator = field(init=False, repr=False)
    _queue: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 1 <= self.batch_size <= self.n:
            raise ValueError("need 1 <= batch_size <= n")
        self._rng = seeding.substream(self.seed, seeding.SAMPLING)
        self._queue = []

    def epoch_batches(self) -> list[np.ndarray]:
        perm = self._rng.permutation(self.n)
        full = (self.n // self.batch_size) * self.batch_size
        return [
            perm[i : i + self.batch_size] for i in range(0, full, self.batch_size)
        ]

    def next_batch(self) -> np.ndarray:
        if not self._queue:
            self._queue = self.epoch_batches()
        return self._queue.pop(0)
