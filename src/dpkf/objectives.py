"""Differentiable test problems with hand-derived per-sample gradients.

Four objective kinds are supported: quadratic, linear regression, logistic
regression, and a tiny one-hidden-layer MLP. Gradients are analytic (no
autodiff); each kind is exercised against a finite-difference oracle in the
test suite. Per-sample evaluation is vectorised over the batch with a fixed
accumulation order, so results are bit-reproducible for a given seed.
``grad_factors`` gives a batch's gradients without the (n, d) matrix, as
per-sample coefficients times features (``GradFactors``), two points combined
in the coefficients. A (k, d) stack of points gives factors with a leading run
axis, each run's with the bits of its point alone. ``mean_grad`` is the
factors' unit-weight mean, with the bits of ``per_sample_grads(...).mean(axis=0)``.
Over a whole ``Dataset``, linear regression's is G x - b (``dataset_mean_grad``,
G and b cached), and over a ``DatasetStack`` each row's own.

``evaluate`` is the one whole-dataset loss: the mean losses and gradients at
any number of states, under ``one_blas_thread``, each state's bits its own
whatever the others; ``full_loss`` is its loss at one state. The MLP's and the
quadratic's gradients are ``==`` to ``mean_grad``. The linear models take a
block's gradients from one zero-padded product ``W @ X / n``, which differs
from ``mean_grad`` in the order of the sum.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import itertools
import os
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from . import seeding

# States per ``evaluate`` block. OpenBLAS picks its kernel by the row count of
# the left factor, and a row's bits differ between 1-4 rows and 8 (n 5000,
# p 50); at 8 rows they are the same at every position. So the logistic
# margins ``XS @ X.T`` and the gradients ``W @ X`` always take 8 rows, zero
# past the states given, and a state's loss and gradient bits depend on the
# state alone. At large n ``W @ X`` also depends on the BLAS thread count
# (n 5000: other bits at 2 threads than at 1), so ``evaluate`` holds
# ``one_blas_thread``.
EVAL_BLOCK = 8


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS in ``numpy.libs``; None
    when numpy links another BLAS."""
    libdir = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)  # numpy has it loaded already
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's bundled OpenBLAS on one thread and restore
    the caller's count after it; nested blocks leave it at one. Does nothing
    when numpy links another BLAS. A run's bits then do not depend on the
    caller's thread count, and on these small matrices a second thread only
    busy-waits after the calls that wake it."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, put = blas
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


@dataclass(frozen=True)
class Dataset:
    """Features ``X`` (n x p) and targets ``y`` (n,), read-only so cached statistics
    cannot go stale; unpacks as ``X, y``, a step's whole-dataset batch."""

    X: np.ndarray
    y: np.ndarray
    theta_star: np.ndarray | None = None

    def __post_init__(self) -> None:
        # C order fixes the order in which rows are summed (see ``GradFactors.mean``)
        for name in ("X", "y"):  # read-only; an array the caller can write is copied
            a = getattr(self, name)
            arr = np.ascontiguousarray(a, dtype=float)
            if arr is a and (a.flags.writeable or not a.flags.owndata):
                arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
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

    def __iter__(self):
        return iter((self.X, self.y))

    # G = X^T X / n and b = X^T y / n, each built on first use
    @functools.cached_property
    def second_moment(self) -> np.ndarray:
        return self.X.T @ self.X / self.n

    @functools.cached_property
    def moment_xy(self) -> np.ndarray:
        return self.X.T @ self.y / self.n


@dataclass(frozen=True)
class DatasetStack:
    """The whole ``Dataset`` of each run of a (k, d) stack, ``datasets[i]``
    row i's: the Gram statistics stacked once, (k, p, p) and (k, p)."""

    datasets: tuple[Dataset, ...]

    @functools.cached_property
    def second_moment(self) -> np.ndarray:
        return np.stack([ds.second_moment for ds in self.datasets])

    @functools.cached_property
    def moment_xy(self) -> np.ndarray:
        return np.stack([ds.moment_xy for ds in self.datasets])


def _with_ones(A: np.ndarray) -> np.ndarray:
    """[A | 1] as a new C-contiguous array; the ones column sums the weights."""
    out = np.ones(A.shape[:-1] + (A.shape[-1] + 1,))
    out[..., :-1] = A
    return out


@dataclass
class GradFactors:
    """A batch's per-sample gradients, factored: block b of row i is the
    flattened coefs[b][..., i, :] (x) feats[b][..., i, :]. The leading axes
    are the run axis of a (k, d) stack of points, none for one point. A feats
    entry without them is shared by every run (the data), and one of one row
    by every row of its run. ``pack`` lays blocks out in the parameter order."""

    coefs: list[np.ndarray]
    feats: list[np.ndarray]
    pack: Callable = functools.partial(np.concatenate, axis=-1)

    def rows(self) -> np.ndarray:
        """The (..., B, d) matrix of the rows."""
        return self.pack([(c[..., None] * f[..., None, :]).reshape(*c.shape[:-1], -1)
                          for c, f in zip(self.coefs, self.feats)])

    def mean(self, weights: np.ndarray | None = None) -> np.ndarray:
        """Mean of each run's rows times ``weights`` (1 when None), with the
        bits of the dense rows' ``mean(axis=0)`` and without the rows: einsum
        adds them in order when the feature columns, C-contiguous and at least
        two, are its inner loop, with or without a run axis; one column is the
        dense product, whose mean sums pairwise. A shared row's mean is the row
        times the mean weight: a mean over its n copies would round at some n."""
        means = []
        for c, f in zip(self.coefs, self.feats):
            c = c if weights is None else weights[..., None] * c
            if f.shape[-2] < c.shape[-2]:
                means.append(f[..., 0, :] * c.mean(axis=-2))
            elif f.shape[-1] == 1:
                means.append((c * f).mean(axis=-2))
            else:
                m = np.einsum("...ik,...im->...km", c, np.ascontiguousarray(f))
                means.append(m.reshape(m.shape[:-2] + (-1,)) / c.shape[-2])
        return self.pack(means) if len(means) > 1 else means[0]


def _exp_neg_abs(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """e = exp(-|m|), in [0, 1], the one exp the logistic loss and weights
    share; ``out`` may be m."""
    e = np.abs(m, out=out)
    np.negative(e, out=e)
    return np.exp(e, out=e)


def _sigmoid_neg(m: np.ndarray, e: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sigmoid(-m), stable on both tails, from e = exp(-|m|) and one division;
    ``out`` may be m.

    The two-branch form, exp(-m)/(1+exp(-m)) for m >= 0 and 1/(1+exp(m))
    otherwise, divides where(m >= 0, e, 1) by 1 + exp(-|m|). As 0 <= e <= 1,
    that numerator is max(e, m < 0) for every m, +-0, +-inf and NaN included.
    """
    s = np.maximum(e, m < 0, out=out)
    s /= 1.0 + e
    return s


def _log1p_exp_neg(m: np.ndarray, e: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log(1 + exp(-m)) from e = exp(-|m|), as log1p(e) - min(m, 0); ``out``
    may be m.

    This is numpy's own ``logaddexp(0, -m)`` formula, log1p(e) + max(-m, 0),
    bit for bit, as negation is exact: m = 0 gives ln 2, the tails give 0 and
    -m, and NaN stays NaN. Only the exp differs, numpy's vector one here and
    libm's scalar one there, so the two agree to 3 ulp.
    """
    tail = np.minimum(m, 0.0)
    out = np.log1p(e, out=out)
    out -= tail
    return out


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
    X.flags.writeable = y.flags.writeable = False  # the Dataset keeps them uncopied
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
    X.flags.writeable = y.flags.writeable = False
    return Dataset(X=X, y=y, theta_star=theta_star)


class Objective:
    """Base class: per-sample gradients, vectorised over a batch, and the
    whole-dataset mean losses and gradients of ``evaluate``."""

    dim: int = 0

    def grad_factors(self, x, X, y, ahead=None, a: float = 0.0) -> GradFactors:
        """The per-sample gradients at x, or their two-point combination
        a * grad(ahead) + (1 - a) * grad(x), in factored form. A (k, d) stack
        x (and ahead) gives factors with a leading run axis, each run's with
        the bits of that point alone: the products are one BLAS call a run
        (``np.matmul`` over the run axis), the rest elementwise. ``a`` is a
        scalar or a (k, 1) column, and a row at a = 0 selects its factors at
        x, whatever its ahead point holds."""
        raise NotImplementedError

    def per_sample_grads(self, x: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The (n, d) matrix of per-sample gradients: the tests' reference."""
        return self.grad_factors(x, X, y).rows()

    def mean_grad(self, x: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Mean of the per-sample gradients, from their factors; the bits of
        ``per_sample_grads(x, X, y).mean(axis=0)`` for C-contiguous X, but for
        the quadratic, whose mean is its shared row."""
        return self.grad_factors(x, X, y).mean()

    @one_blas_thread()
    def evaluate(self, xs, X, y) -> tuple[np.ndarray, np.ndarray]:
        """Mean losses (k,) and mean gradients (k, d) at the k >= 1 rows of
        ``xs``; each state's bits do not depend on the others. Here each state
        runs its kind's ``_loss_and_mean_grad``; the linear models' override
        takes one product a block of ``EVAL_BLOCK`` states."""
        xs = self._check_states(xs)
        losses, grads = np.empty(len(xs)), np.empty(xs.shape)
        for i, x in enumerate(xs):
            losses[i], grads[i] = self._loss_and_mean_grad(x, X, y)
        return losses, grads

    def smoothness(self, dataset: Dataset | None = None) -> float | None:
        """Smoothness constant of the mean loss, when computable exactly."""
        return None

    def dataset_mean_grad(self, batch, x, ahead=None, a: float = 0.0):
        """``grad_factors(...).mean()`` from a whole ``Dataset``'s statistics, or
        None; the row of each point of a (k, d) stack, where the kind takes one."""
        return None

    def init_point(self, seed: int, scale: float = 1.0) -> np.ndarray:
        rng = seeding.substream(seed, seeding.INIT)
        return scale * rng.standard_normal(self.dim)

    def _check_states(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim or len(xs) < 1:
            raise ValueError(f"states must have shape (k, {self.dim}) with k >= 1, got {xs.shape}")
        return xs

    def _check_dim(self, x: np.ndarray) -> np.ndarray:
        """x as a float array of shape (dim,), or a (k, dim) stack of points."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise ValueError(f"parameter vector must have shape ({self.dim},) or (k, {self.dim}), "
                             f"got {x.shape}")
        return x


def _combine(a, here: np.ndarray, ahead: np.ndarray) -> np.ndarray:
    """a * ahead + (1 - a) * here, for a scalar or a (k, 1) column ``a`` over
    arrays with a leading run axis; a row at a = 0 is ``here`` itself (0 * inf
    is NaN, and -0.0 + 0.0 is 0.0)."""
    if not isinstance(a, np.ndarray):
        return a * ahead + (1.0 - a) * here
    a = np.reshape(a, (-1,) + (1,) * (here.ndim - 1))
    return np.where(a != 0, a * ahead + (1.0 - a) * here, here)


class Quadratic(Objective):
    """f(x; xi) = 0.5 (x - x*)^T H (x - x*) for every sample.

    Samples carry no information, so the stochastic-gradient variance is
    exactly zero; this is the workhorse for closed-form checks.
    """

    def __init__(self, H: np.ndarray, x_star: np.ndarray | None = None):
        H = np.asarray(H, dtype=float)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError("H must be square")
        if not np.isfinite(H).all():
            raise ValueError("H must be finite")
        if not np.allclose(H, H.T, atol=1e-12):
            raise ValueError("H must be symmetric")
        # an indefinite H is unbounded below; the tolerance, scaled to the
        # largest eigenvalue, keeps the rounding of a PSD product like M M^T / d
        eigs = np.linalg.eigvalsh(H)
        low, norm = eigs.min(initial=0.0), np.abs(eigs).max(initial=0.0)
        if low < -1e-12 * max(1.0, norm):
            raise ValueError(f"H must be positive semidefinite, smallest eigenvalue {low:g}")
        self.H = H
        self.dim = H.shape[0]
        x_star = np.zeros(self.dim) if x_star is None else np.asarray(x_star, dtype=float)
        if x_star.shape != (self.dim,) or not np.isfinite(x_star).all():
            raise ValueError(f"x_star must be {self.dim} finite values, got {x_star.tolist()}")
        self.x_star = x_star

    def _loss_and_mean_grad(self, x, X, y):
        # every sample's loss, as is: a mean over n copies of it rounds at some n
        r = self._check_dim(x) - self.x_star
        return 0.5 * float(r @ self.H @ r), self.mean_grad(x, X, y)

    def _grad(self, x):
        # H (x - x*) a row, one gemv each
        return np.matmul(self.H, (self._check_dim(x) - self.x_star)[..., None])[..., 0]

    def grad_factors(self, x, X, y, ahead=None, a=0.0):
        g = self._grad(x)
        if ahead is not None:
            g = _combine(a, g, self._grad(ahead))
        return GradFactors([np.ones(g.shape[:-1] + (len(X), 1))], [g[..., None, :]])

    def smoothness(self, dataset=None):
        return float(np.linalg.eigvalsh(self.H)[-1])

    def f_star(self, dataset: Dataset) -> float:
        return 0.0  # at x*, whatever the samples

    def placeholder_dataset(self, n: int = 1) -> Dataset:
        # Samples are ignored by the loss; the dataset only drives batching.
        return Dataset(X=np.zeros((n, 1)), y=np.zeros(n))


class _GeneralisedLinear(Objective):
    """A loss of <a, x>: the per-sample gradient is c_i a_i, with c_i the
    loss's derivative in <a_i, x>, and its smoothness ``curvature`` times
    the top eigenvalue of the second moment of a."""

    curvature = 1.0

    def __init__(self, dim: int):
        self.dim = dim

    def _coef(self, x, X, y):
        raise NotImplementedError

    def _block_coefs(self, xs, X, y):
        """The mean losses (k,) at the k states ``xs`` and their coefficients
        c, one state a row of a zero-padded (EVAL_BLOCK, n) block."""
        raise NotImplementedError

    @one_blas_thread()
    def evaluate(self, xs, X, y):
        """Each state's loss and coefficients, in a row of W; a block's
        gradients from one product (see ``EVAL_BLOCK``)."""
        xs = self._check_states(xs)
        losses, grads = np.empty(len(xs)), np.empty(xs.shape)
        for start in range(0, len(xs), EVAL_BLOCK):
            block = xs[start : start + EVAL_BLOCK]
            rows = slice(start, start + len(block))
            losses[rows], W = self._block_coefs(block, X, y)
            grads[rows] = (W @ X)[: len(block)] / len(X)
        return losses, grads

    def grad_factors(self, x, X, y, ahead=None, a=0.0):
        c = self._coef(x, X, y)
        if ahead is not None:
            c = _combine(a, c, self._coef(ahead, X, y))
        return GradFactors([c[..., None]], [X])

    def _margins(self, x, X):
        """<a_i, x> for each row of X, at a point or a row of each point of a
        stack: one gemv a point, with the bits of ``X @ x``."""
        return np.matmul(X, self._check_dim(x)[..., None])[..., 0]

    def smoothness(self, dataset=None):
        if dataset is None:
            return None
        return float(np.linalg.eigvalsh(dataset.second_moment)[-1]) * self.curvature


class LinearRegression(_GeneralisedLinear):
    """Squared loss f(x; (a, y)) = 0.5 (<a, x> - y)^2."""

    def _coef(self, x, X, y):
        return self._margins(x, X) - y

    def f_star(self, dataset: Dataset) -> float:
        """The exact minimum over ``dataset``: the loss at a least-squares solution."""
        x_star, *_ = np.linalg.lstsq(dataset.X, dataset.y, rcond=None)
        return full_loss(self, x_star, dataset)

    def dataset_mean_grad(self, batch, x, ahead=None, a=0.0):
        """G z - b, affine, so two points combine in z: one gemv a point of a
        (k, p) stack, with a ``DatasetStack``'s rows each on its own G and b.
        The weight ``a``, a scalar or a (k, 1) column, selects: a row at a = 0
        combines to x itself."""
        if isinstance(batch, (Dataset, DatasetStack)):
            # 0 * inf is NaN, and -0.0 + 0.0 is 0.0
            z = x if ahead is None else np.where(a != 0, x + a * (ahead - x), x)
            g = np.matmul(batch.second_moment, self._check_dim(z)[..., None])[..., 0]
            g -= batch.moment_xy
            return g

    def _block_coefs(self, xs, X, y):
        W = np.zeros((EVAL_BLOCK, len(X)))
        losses = np.empty(len(xs))
        for i, x in enumerate(xs):
            W[i] = r = self._coef(x, X, y)
            losses[i] = (0.5 * r**2).mean()
        return losses, W


class LogisticRegression(_GeneralisedLinear):
    """Logistic loss with labels in {-1, +1}: f = log(1 + exp(-y <a, x>))."""

    curvature = 0.25

    @staticmethod
    def _weights(m, e, y, out=None):
        """d loss_i / d <a_i, x> = -y_i sigmoid(-m_i), from e = exp(-|m_i|):
        sigmoid(-m) scaled by -y in place, the bits of -y * sigmoid(-m);
        ``out`` may be m."""
        w = _sigmoid_neg(m, e, out)
        w *= -y
        return w

    def _coef(self, x, X, y):
        m = y * self._margins(x, X)
        return self._weights(m, _exp_neg_abs(m), y, out=m)

    def _block_coefs(self, xs, X, y):
        # the margins y_i <a_i, x>, zero-padded to EVAL_BLOCK rows, from one
        # product whose rows OpenBLAS computes alike; each row gives its loss,
        # then is overwritten by its weights; one e and one loss row serve
        # every row
        XS = np.zeros((EVAL_BLOCK, X.shape[1]))
        XS[: len(xs)] = xs
        W = XS @ X.T
        W *= y
        losses, e, row = np.empty(len(xs)), np.empty(len(X)), np.empty(len(X))
        for i, m in enumerate(W[: len(xs)]):
            _exp_neg_abs(m, out=e)
            losses[i] = _log1p_exp_neg(m, e, out=row).mean()
            self._weights(m, e, y, out=m)
        return losses, W


class TinyMLP(Objective):
    """One hidden tanh layer (width 16 by default), squared loss on a scalar output.

    Parameters are packed flat as [W1 (h*p), b1 (h), w2 (h), b2 (1)]. Small
    enough (< 2000 parameters) to run in seconds yet genuinely non-convex.
    """

    def __init__(self, in_dim: int, hidden: int = 16):
        if hidden < 1 or in_dim < 1:
            raise ValueError("need hidden >= 1 and in_dim >= 1")
        if hidden * in_dim + 2 * hidden + 1 > 2000:
            raise ValueError("parameter budget is 2000; shrink in_dim or hidden")
        self.in_dim = in_dim
        self.hidden = hidden
        self.dim = hidden * in_dim + 2 * hidden + 1

    def _unpack(self, x: np.ndarray):
        """W1, b1, w2 and b2 of a point, or of each point of a stack (leading axis)."""
        h, p = self.hidden, self.in_dim
        W1 = x[..., : h * p].reshape(*x.shape[:-1], h, p)
        b1 = x[..., h * p : h * p + h]
        w2 = x[..., h * p + h : h * p + 2 * h]
        b2 = x[..., -1:]
        return W1, b1, w2, b2

    def _forward(self, x, X):
        # one gemm and one gemv a point, as for a point alone
        W1, b1, w2, b2 = self._unpack(x)
        hidden = np.tanh(np.matmul(X, W1.swapaxes(-1, -2)) + b1[..., None, :])
        out = np.matmul(hidden, w2[..., None])[..., 0] + b2
        return hidden, out

    def _backprop(self, x, X, y):
        """Hidden activations, output residuals and pre-activation gradients."""
        hidden, out = self._forward(x, X)
        r = out - y
        w2 = self._unpack(x)[2]
        d_pre = (r[..., None] * w2[..., None, :]) * (1.0 - hidden**2)
        return hidden, r, d_pre

    def grad_factors(self, x, X, y, ahead=None, a=0.0):
        # W1, b1 are d_pre (x) [x_i, 1]; w2, b2 are r [h_i, 1], kept dense as
        # h_i differs between the two points. The ones columns give the bias
        # sums and keep every einsum two columns wide.
        hidden, r, d_pre = self._backprop(self._check_dim(x), X, y)
        dense = r[..., None] * _with_ones(hidden)
        if ahead is not None:
            h_a, r_a, d_a = self._backprop(self._check_dim(ahead), X, y)
            d_pre = _combine(a, d_pre, d_a)
            dense = _combine(a, dense, r_a[..., None] * _with_ones(h_a))
        return GradFactors([d_pre, np.ones(r.shape + (1,))], [_with_ones(X), dense], self._pack)

    def _pack(self, blocks):
        # blocks of means, or of rows, with leading run and batch axes
        lead = blocks[1].shape[:-1]
        W1_b1 = blocks[0].reshape(*lead, self.hidden, self.in_dim + 1)
        return np.concatenate([W1_b1[..., :-1].reshape(*lead, -1), W1_b1[..., -1], blocks[1]], axis=-1)

    def _loss_and_mean_grad(self, x, X, y):
        fac = self.grad_factors(x, X, y)
        r = fac.feats[1][:, -1]  # the ones column of r [h_i, 1]
        return (0.5 * r**2).mean(), fac.mean()

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
    """Mean loss over the whole dataset: ``evaluate``'s at the one state x."""
    return float(obj.evaluate([x], dataset.X, dataset.y)[0][0])


def minibatches(n: int, batch_size: int, seed: int) -> Iterator[np.ndarray]:
    """An endless iterator of fixed-size batches, sampled without replacement.

    Each epoch is a fresh permutation of {0..n-1} from the ``SAMPLING`` substream,
    cut into floor(n/B) full batches; the partial tail batch is dropped. Deterministic per seed.
    """
    if not 1 <= batch_size <= n:
        raise ValueError("need 1 <= batch_size <= n")
    epochs = map(seeding.substream(seed, seeding.SAMPLING).permutation, itertools.repeat(n))
    full = (n // batch_size) * batch_size
    return (perm[i : i + batch_size] for perm in epochs for i in range(0, full, batch_size))
