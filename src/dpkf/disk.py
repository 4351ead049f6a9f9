"""The filtered DP optimizer ("disk") and its relatives.

One step: combine per-sample gradients at two points (x and a lookahead
x + gamma * d_prev), clip the combination, privatise the batch mean with
Gaussian noise, pass it through an exponential filter with weight kappa, and
feed the filtered gradient to ``apply_base_update`` (sgd, momentum, adam, adamw).
Every step observes through ``_observe`` and adds its Gaussian noise, an input
row from ``noise_rows``, one ``standard_normal(d)`` a step, drawn in blocks;
at sigma_dp = 0 the row is -0.0, and a missing or misshapen row is refused.
Clipped or on a minibatch the step clips and averages ``Objective.grad_factors``
and never forms the (B, d) matrix. Unclipped over a whole linear-regression
``Dataset`` it is G z - b from cached Gram statistics: O(p^2) a step, not O(np).
A (k, d) state steps k runs as rows, each with the bits of its run alone; rows
may differ in kappa, gamma, lookahead weight and step size, and on the Gram
path in dataset (``DatasetStack``).

Special cases implemented exactly:
  * kappa = 1 degenerates to plain DP-SGD (shared noise stream gives
    bit-identical trajectories); gamma is not read there (``reads_gamma``),
  * gamma = (1-kappa)/kappa with base step 1 and zero filter init matches the
    lookahead-momentum method (mu = 1-kappa, eta = kappa),
  * gamma = -1 with batch size 1 matches the recursive variance-reduced
    (STORM) estimator.

The matrix filter (full-kf) is this step with kappa = its gain k_t, which
``FullFilterConfig.gains`` yields (noise terms are multiples of I and E[C] = I,
so K_t = k_t I): its update (1 - k)(g_filt + h) + k g_obs, with the Hessian
action h = (g(x + gamma d) - g(x)) / gamma, is the two-point combination at
kappa = k. The gain uses no data, so the release is the same clipped mean.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .kalman import check_noise_levels, scalar_gain_step
from .objectives import Dataset, DatasetStack, Objective
from .privacy import clip_factored

CLIP_VARIANTS = ("standard", "automatic", "normalized", "none")
BASE_OPTIMIZERS = ("sgd", "momentum", "adam", "adamw")
FILTER_INITS = ("first_grad", "zero")
# Noise rows per ``standard_normal`` call in ``noise_rows``; fewer at large d,
# so that a block stays near 1 MB.
NOISE_BLOCK = 64
NOISE_BLOCK_BYTES = 1 << 20


def _require_finite(cfg) -> None:
    """Refuse a value of a config's float field (one annotated ``float``) that
    is not an int or a float (a bool, a string, None), or is NaN or infinite.
    Only a field annotated ``float | None`` may hold None."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if "float" not in str(f.type) or (value is None and "None" in str(f.type)):
            continue
        for v in value if isinstance(value, tuple) else (value,):
            # a float or an int takes no ABC check, which costs most of a config's build
            if type(v) is not float and type(v) is not int and (
                    isinstance(v, bool) or not isinstance(v, numbers.Real)):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
            if not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {value!r}")


@dataclass
class DiskConfig:
    kappa: float = 0.7
    gamma: float = 0.5
    eta: float = 0.1
    clip: float | None = 1.0
    sigma_dp: float = 0.0
    clip_variant: str = "standard"
    base: str = "sgd"
    momentum: float = 0.9
    betas: tuple[float, float] = (0.9, 0.999)
    eps_adam: float = 1e-8
    weight_decay: float = 0.0
    filter_init: str = "first_grad"
    two_point: bool = True  # False: evaluate only at x (low-pass baseline)

    def __post_init__(self) -> None:
        self.betas = tuple(self.betas)  # JSON gives a list
        _require_finite(self)
        if not 0 < self.kappa <= 1:
            raise ValueError("kappa must lie in (0, 1]")
        if self.gamma == 0:
            raise ValueError("gamma must be nonzero")
        if self.eta <= 0:
            raise ValueError("step size eta must be > 0")
        if self.sigma_dp < 0:
            raise ValueError("sigma_dp must be >= 0")
        if len(self.betas) != 2 or not all(0 <= b < 1 for b in self.betas):
            raise ValueError(f"betas must be two values in [0, 1), got {self.betas!r}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum!r}")
        if self.eps_adam <= 0:
            raise ValueError("eps_adam must be > 0")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.clip_variant not in CLIP_VARIANTS:
            raise ValueError(f"clip_variant must be one of {CLIP_VARIANTS}")
        if self.clip_variant != "none" and (self.clip is None or self.clip <= 0):
            raise ValueError("clip threshold must be > 0 when clipping is on")
        if self.base not in BASE_OPTIMIZERS:
            raise ValueError(f"base must be one of {BASE_OPTIMIZERS}")
        if self.filter_init not in FILTER_INITS:
            raise ValueError(f"filter_init must be one of {FILTER_INITS}")
        if not isinstance(self.two_point, bool):
            raise ValueError(f"two_point must be a bool, got {self.two_point!r}")


@dataclass
class DiskState:
    """Optimizer memory: iterate, previous filtered gradient and displacement,
    plus whatever moments the base optimizer keeps. ``x`` of shape (k, d) is a
    stack of k runs that share the step's config, each row a run with its own
    noise row and step parameters (see ``disk_step``)."""

    x: np.ndarray
    g_filt: np.ndarray | None = None  # None until the first step
    d_prev: np.ndarray = field(default=None)  # type: ignore[assignment]
    moments: dict = field(default_factory=dict)
    t: int = 0

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        if self.d_prev is None:
            self.d_prev = np.zeros_like(self.x)
        for name, vec in (("g_filt", self.g_filt), ("d_prev", self.d_prev)):
            if vec is not None and np.shape(vec) != self.x.shape:
                raise ValueError(f"{name} must share the parameter dimension")
        if self.t < 0:
            raise ValueError("step counter must be >= 0")

    @classmethod
    def _successor(cls, x, g_filt, d_prev, moments, t) -> "DiskState":
        """The state a step builds from a checked state's arrays, whose shapes
        it keeps: not checked again."""
        state = cls.__new__(cls)
        state.x, state.g_filt, state.d_prev, state.moments, state.t = x, g_filt, d_prev, moments, t
        return state


# ---------------------------------------------------------------------------
# Base optimizer update (x, g, moments) -> (x', moments')
# ---------------------------------------------------------------------------


def apply_base_update(cfg: DiskConfig, x, g, moments, eta=None):
    """The base optimizer's update on the filtered gradient g: (x', moments'),
    at step size ``eta``, ``cfg.eta`` when None, or a (k, 1) column, a row's each."""
    eta = cfg.eta if eta is None else eta
    if cfg.base == "sgd":
        return x - eta * g, moments
    if cfg.base == "momentum":
        buf = moments.get("buf")
        buf = g.copy() if buf is None else cfg.momentum * buf + g
        return x - eta * buf, {**moments, "buf": buf}
    b1, b2 = cfg.betas
    t = moments.get("t", 0) + 1
    m = b1 * moments.get("m", 0.0) + (1.0 - b1) * g
    v = b2 * moments.get("v", 0.0) + (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    step = eta * m_hat / (np.sqrt(v_hat) + cfg.eps_adam)
    x_new = x - step if cfg.base == "adam" else x - step - eta * cfg.weight_decay * x
    return x_new, {"m": m, "v": v, "t": t}


# ---------------------------------------------------------------------------
# Privatised gradient observation shared by the step functions
# ---------------------------------------------------------------------------


def noise_blocks(
    rng: np.random.Generator, sigma: float, d: int, T: int
) -> Iterator[np.ndarray]:
    """The noise rows of a T-step run, sigma * N(0, I_d) one a step, in blocks
    of at most ``NOISE_BLOCK`` rows: the same numbers as one
    ``rng.standard_normal(d)`` a step. At sigma = 0 the rows are -0.0, which
    adds nothing to any row, signed zeros included, and no number is drawn.
    A negative or non-finite sigma, or one whose drawn block overflows, is
    refused."""
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
    k = max(1, min(NOISE_BLOCK, NOISE_BLOCK_BYTES // (8 * d)))
    for start in range(0, T, k):
        shape = (min(k, T - start), d)
        if sigma == 0:
            yield np.full(shape, -0.0)
            continue
        with np.errstate(over="ignore"):
            block = sigma * rng.standard_normal(shape)
        if not _finite(block):
            raise ValueError(f"sigma = {sigma!r} overflows: a drawn noise row is not finite")
        yield block


def noise_rows(
    rng: np.random.Generator, sigma: float, d: int, T: int
) -> Iterator[np.ndarray]:
    """The T noise rows of a run, sigma * N(0, I_d) one a step, from
    ``noise_blocks``: rows of -0.0 at sigma 0, where no number is drawn."""
    return (row for block in noise_blocks(rng, sigma, d, T) for row in block)


def _check_noise(noise, x, t: int) -> None:
    """Refuse a noise row that is not an array of x's shape or, for a stack, of
    one of its rows, None included: no step may release an un-noised mean."""
    if not isinstance(noise, np.ndarray) or noise.shape not in (x.shape, x.shape[-1:]):
        shapes = " or ".join(map(str, dict.fromkeys((x.shape[-1:], x.shape))))
        got = repr(noise) if np.ndim(noise) == 0 else f"{type(noise).__name__} of shape {np.shape(noise)}"
        raise ValueError(f"step {t}: needs a noise row, got {got}; a row is an array of shape {shapes}")


def _finite(g: np.ndarray) -> bool:
    """Every entry of g finite: a finite sum of squares proves it in one call
    (``vdot`` raises no overflow warning); only an overflowing or NaN sum
    takes the entrywise test, so large finite entries still pass."""
    return math.isfinite(np.vdot(g, g)) or bool(np.isfinite(g).all())


def _factored_mean(obj: Objective, x, batch, cfg: DiskConfig, t: int, ahead, a,
                   kappa=None, gamma=None, rows=None):
    """The clipped mean of the per-sample gradients at x (or their two-point
    combination), a row for each run of a stack, from ``obj.grad_factors``; a
    non-finite mean raises ``FloatingPointError``, naming the step and, in a
    stack, the first bad row (``rows`` maps x's rows to the caller's) and its
    ``kappa`` and ``gamma``, scalars or the caller's columns, where given."""
    X, y = batch
    if len(X) == 0:
        raise ValueError("batch must be non-empty")
    fac = obj.grad_factors(x, X, y, ahead, a)
    weights = None
    if cfg.clip_variant != "none":
        fac.coefs, fac.feats, weights = clip_factored(fac.coefs, fac.feats, cfg.clip, cfg.clip_variant)
    g = fac.mean(weights)
    if not _finite(g):
        row, factors, where = g, fac.coefs + fac.feats, ""
        if g.ndim == 2:  # a stack: name its first bad row
            i = int(np.argmin(np.isfinite(g).all(axis=1)))
            row, factors = g[i], [v[i] if v.ndim == 3 else v for v in factors]
            i = i if rows is None else int(rows[i])
            where = f" in row {i} of the stack"
            if kappa is not None:
                k, gam = (float(v if np.ndim(v) == 0 else v[i, 0]) for v in (kappa, gamma))
                where += f", at kappa {k!r} and gamma {gam!r}"
        bad = sum(int(np.count_nonzero(~np.isfinite(v))) for v in factors)
        raise FloatingPointError(
            f"step {t}: {np.count_nonzero(~np.isfinite(row))} non-finite mean gradient "
            f"components ({bad} non-finite per-sample gradient factors){where}"
        )
    return g


def _observe(obj: Objective, x, batch, cfg: DiskConfig, noise, t: int, ahead=None, a=0.0,
             kappa=None, gamma=None):
    """The privatised observation: the per-sample gradients at x, or their
    combination a * grad(ahead) + (1 - a) * grad(x), clipped, averaged in row
    order, plus the noise row, all from ``obj.grad_factors``, or unclipped over
    a whole ``Dataset`` or ``DatasetStack`` from a finite
    ``obj.dataset_mean_grad``. Unclipped at x alone it is ``obj.mean_grad``. x
    may be a (k, d) stack of runs, ``a`` a (k, 1) column, and each row is its
    run's observation alone; a row whose Gram mean is not finite observes from
    its factors on its own dataset. Aborts on a bad noise row
    (``_check_noise``), an empty batch or a non-finite mean, which names the
    row's ``kappa`` and ``gamma`` where given. A ``DatasetStack`` is refused
    unless it has one dataset a row of x and the step is unclipped on Gram
    statistics."""
    _check_noise(noise, x, t)
    stacked = isinstance(batch, DatasetStack)
    if stacked and np.shape(x)[:-1] != (len(batch.datasets),):
        raise ValueError(f"step {t}: a DatasetStack of {len(batch.datasets)} datasets needs a "
                         f"state of as many rows, got shape {np.shape(x)}")
    g = obj.dataset_mean_grad(batch, x, ahead, a) if cfg.clip_variant == "none" else None
    if g is None and stacked:
        raise ValueError(f"step {t}: a DatasetStack takes an unclipped step on Gram statistics, "
                         f"got clip_variant {cfg.clip_variant!r} on {type(obj).__name__}")
    if g is None:
        g = _factored_mean(obj, x, batch, cfg, t, ahead, a, kappa, gamma)
    elif not _finite(g):  # statistics can overflow where rows do not
        rows, xs = np.atleast_2d(g, x)
        for i in np.flatnonzero(~np.isfinite(rows).all(axis=1)):
            row = slice(i, i + 1)
            data = batch.datasets[i] if stacked else batch
            rows[row] = _factored_mean(obj, xs[row], data, cfg, t,
                                       None if ahead is None else np.atleast_2d(ahead)[row],
                                       a[row] if isinstance(a, np.ndarray) else a, kappa, gamma, [i])
    return g + noise


def reads_gamma(cfg: DiskConfig, kappa: float) -> bool:
    """Whether a step at weight kappa reads its lookahead gamma: only a
    two-point step off kappa = 1 observes at x + gamma * d_prev. A sweep lets
    cells that differ only in an unread gamma share one run."""
    return cfg.two_point and kappa != 1.0


def lookahead_weight(cfg: DiskConfig, kappa: float, gamma: float) -> float:
    """The weight a of grad(x + gamma * d_prev) in a step's observation
    a * grad(ahead) + (1 - a) * grad(x): (1 - kappa) / (kappa * gamma) where
    the step reads gamma (``reads_gamma``), else 0, an observation at x alone."""
    return (1.0 - kappa) / (kappa * gamma) if reads_gamma(cfg, kappa) else 0.0


def disk_step(
    state: DiskState,
    batch: tuple[np.ndarray, np.ndarray] | Dataset | DatasetStack,
    obj: Objective,
    cfg: DiskConfig,
    noise: np.ndarray,
    kappa: float | np.ndarray | None = None,
    gamma: float | np.ndarray | None = None,
    a: float | np.ndarray | None = None,
    eta: float | np.ndarray | None = None,
) -> DiskState:
    """One filtered-optimizer step on a minibatch (Xb, yb) or a whole ``Dataset``,
    at weight ``kappa``, lookahead ``gamma`` and step size ``eta`` (``cfg``'s
    when None), observing with lookahead weight ``a`` (``lookahead_weight``
    when None). ``noise`` is the step's row of ``noise_rows``, added to the
    clipped mean; the step does not read ``cfg.sigma_dp``.

    A state whose ``x`` is a (k, d) stack steps k runs at once, each row with
    the bits of its run stepped alone; ``noise`` is then (k, d), a row per
    run, or one (d,) row that every run adds. The rows share a minibatch, or
    on the Gram path take a ``DatasetStack``, a dataset a row. They may differ
    in kappa, gamma, lookahead weight and step size, given as (k, 1) columns
    ``kappa``, ``gamma``, ``a`` (each row's config's ``lookahead_weight``) and
    ``eta``. Kappa and ``a`` select rather than multiply: a row at a = 0
    observes at x itself, and a row at kappa 1 takes g as its filtered
    gradient, whatever its ahead point or previous filter holds."""
    kappa = cfg.kappa if kappa is None else kappa
    gamma = cfg.gamma if gamma is None else gamma
    a = lookahead_weight(cfg, kappa, gamma) if a is None else a
    x = state.x
    ahead = x + gamma * state.d_prev if isinstance(a, np.ndarray) or a != 0 else None
    g = _observe(obj, x, batch, cfg, noise, state.t, ahead, a, kappa, gamma)

    if isinstance(kappa, np.ndarray) or kappa != 1.0:
        prev = state.g_filt
        if prev is None:
            prev = g if cfg.filter_init == "first_grad" else np.zeros_like(g)
        g_filt = (1.0 - kappa) * prev + kappa * g
        if isinstance(kappa, np.ndarray):
            np.copyto(g_filt, g, where=kappa == 1.0)
    else:
        g_filt = g

    x_new, moments = apply_base_update(cfg, x, g_filt, state.moments, eta)
    return DiskState._successor(x_new, g_filt, x_new - x, moments, state.t + 1)


def dpsgd_step(
    state: DiskState,
    batch: tuple[np.ndarray, np.ndarray] | Dataset,
    obj: Objective,
    cfg: DiskConfig,
    noise: np.ndarray,
) -> DiskState:
    """Plain DP-SGD: ``disk_step`` at kappa 1 on the sgd base, whatever ``cfg``
    sets them to."""
    return disk_step(state, batch, obj, replace(cfg, kappa=1.0, base="sgd"), noise)


# ---------------------------------------------------------------------------
# The matrix filter as a gain schedule on the filtered step
# ---------------------------------------------------------------------------


@dataclass
class FullFilterConfig:
    """Matrix-filter settings; the observation (clip, noise), the filter start
    and the base update (eta, base) come from the run's ``DiskConfig``."""

    sigma_w_sq: float = 1.0
    sigma_h_sq: float = 0.0
    sigma_v_sq: float = 0.0
    gamma: float = 0.01  # lookahead of the two-point Hessian action

    def __post_init__(self) -> None:
        _require_finite(self)
        check_noise_levels(self.sigma_h_sq, self.sigma_v_sq, self.sigma_w_sq)
        if self.sigma_w_sq + self.sigma_v_sq == 0:
            # the gain divides by p + sigma_w^2 + sigma_v^2, and p can reach 0
            raise ValueError("need sigma_w^2 + sigma_v^2 > 0 (the gain divides by it)")
        if self.gamma == 0:
            raise ValueError("gamma must be nonzero")

    def gains(self) -> Iterator[tuple[float, float]]:
        """Full-kf's schedule for ``disk_step``: (k_t, gamma) for t = 1, 2, ...,
        k_t from ``scalar_gain_step`` stepped on p from p_0 = sigma_w^2."""
        p = self.sigma_w_sq
        while True:
            p, k = scalar_gain_step(p, self.sigma_h_sq, self.sigma_v_sq, self.sigma_w_sq)
            yield k, self.gamma


# perfbench/tracing.py binds this name; it goes once that tracer skips a missing name.
full_filter_step = disk_step
