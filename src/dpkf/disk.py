"""The filtered DP optimizer ("disk") and its relatives.

One step: combine per-sample gradients at two points (x and a lookahead
x + gamma * d_prev), clip the combination, privatise the batch mean with
Gaussian noise, pass it through an exponential filter with weight kappa, and
feed the filtered gradient to a base optimizer (sgd, momentum, adam, adamw).
The mean sums clip factor times row in row order, with no clipped copy; an
unclipped step at x alone (kappa = 1 or ``two_point=False``) takes
``Objective.mean_grad`` and no per-sample matrix. Both keep the mean's bits.

Special cases implemented exactly:
  * kappa = 1 degenerates to plain DP-SGD (shared noise stream gives
    bit-identical trajectories),
  * gamma = (1-kappa)/kappa with base step 1 and zero filter init matches the
    lookahead-momentum method (mu = 1-kappa, eta = kappa),
  * gamma = -1 with batch size 1 matches the recursive variance-reduced
    (STORM) estimator.

``full_filter_step`` runs the filter with a covariance recursion and a
time-varying gain k_t instead of the fixed weight kappa, predicting with the
Hessian action on the last displacement. Its noise terms are multiples of I
and E[C] = I, so the matrix covariance P_t = p_t I and gain K_t = k_t I are
exactly scalars, and the step keeps them as scalars at any dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kalman import NumericalError
from .objectives import Objective, _row_mean, two_point_grads
from .privacy import clip_factors

CLIP_VARIANTS = ("standard", "automatic", "normalized", "none")
BASE_OPTIMIZERS = ("sgd", "momentum", "adam", "adamw")
FILTER_INITS = ("first_grad", "zero")
HESSIAN_MODES = ("fd", "exact")


def _require_finite(cfg) -> None:
    """Reject NaN and infinite values in a config's float fields."""
    for name, value in vars(cfg).items():
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {value!r}")


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
        if self.clip_variant not in CLIP_VARIANTS:
            raise ValueError(f"clip_variant must be one of {CLIP_VARIANTS}")
        if self.clip_variant != "none" and (self.clip is None or self.clip <= 0):
            raise ValueError("clip threshold must be > 0 when clipping is on")
        if self.base not in BASE_OPTIMIZERS:
            raise ValueError(f"base must be one of {BASE_OPTIMIZERS}")
        if self.filter_init not in FILTER_INITS:
            raise ValueError(f"filter_init must be one of {FILTER_INITS}")


@dataclass
class DiskState:
    """Optimizer memory: iterate, previous filtered gradient and displacement,
    plus whatever moments the base optimizer keeps."""

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


# ---------------------------------------------------------------------------
# Base optimizer updates (x, g, eta, moments) -> (x', moments')
# ---------------------------------------------------------------------------


def base_update_sgd(x, g, eta, moments):
    return x - eta * g, moments


def base_update_momentum(x, g, eta, moments, mu=0.9):
    buf = moments.get("buf")
    buf = g.copy() if buf is None else mu * buf + g
    return x - eta * buf, {**moments, "buf": buf}


def _adam_direction(g, eta, moments, betas, eps):
    b1, b2 = betas
    t = moments.get("t", 0) + 1
    m = moments.get("m", np.zeros_like(g))
    v = moments.get("v", np.zeros_like(g))
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    step = eta * m_hat / (np.sqrt(v_hat) + eps)
    return step, {"m": m, "v": v, "t": t}


def base_update_adam(x, g, eta, moments, betas=(0.9, 0.999), eps=1e-8):
    step, new = _adam_direction(g, eta, moments, betas, eps)
    return x - step, new


def base_update_adamw(x, g, eta, moments, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
    step, new = _adam_direction(g, eta, moments, betas, eps)
    return x - step - eta * weight_decay * x, new


def apply_base_update(cfg: DiskConfig, x, g, moments):
    if cfg.base == "sgd":
        return base_update_sgd(x, g, cfg.eta, moments)
    if cfg.base == "momentum":
        return base_update_momentum(x, g, cfg.eta, moments, mu=cfg.momentum)
    if cfg.base == "adam":
        return base_update_adam(x, g, cfg.eta, moments, betas=cfg.betas, eps=cfg.eps_adam)
    return base_update_adamw(
        x, g, cfg.eta, moments, betas=cfg.betas, eps=cfg.eps_adam,
        weight_decay=cfg.weight_decay,
    )


# ---------------------------------------------------------------------------
# Privatised gradient observation shared by the step functions
# ---------------------------------------------------------------------------


def _privatise(g: np.ndarray, cfg: DiskConfig, rng: np.random.Generator) -> np.ndarray:
    if cfg.sigma_dp > 0:
        g = g + cfg.sigma_dp * rng.standard_normal(g.shape[0])
    return g


def _observe(G: np.ndarray, cfg: DiskConfig, rng: np.random.Generator, t: int) -> np.ndarray:
    """Clip per-sample rows, average, add DP noise; abort on an empty batch
    or non-finite input. ``_row_mean`` of the clip factors (1 when unclipped)
    and the rows has the bits of ``clip_batch(G).mean(axis=0)`` for C-ordered G."""
    if len(G) == 0:
        raise ValueError("batch must be non-empty")
    if not np.isfinite(G).all():
        bad = int(np.count_nonzero(~np.isfinite(G)))
        raise FloatingPointError(
            f"step {t}: {bad} non-finite per-sample gradient components "
            f"(max |finite| entry {np.nanmax(np.abs(G[np.isfinite(G)]), initial=0.0):.3g})"
        )
    rows, factors = clip_factors(G, cfg.clip, cfg.clip_variant)
    return _privatise(_row_mean(np.ones(len(G)) if factors is None else factors, rows), cfg, rng)


def _observe_at(obj: Objective, x, batch, cfg: DiskConfig, rng, t: int) -> np.ndarray:
    """The observation at x alone. Unclipped, it is ``obj.mean_grad``; a
    non-finite gradient entry makes that in-order mean non-finite, so it is checked."""
    if cfg.clip_variant != "none" or len(batch[0]) == 0:  # _observe rejects an empty batch
        return _observe(obj.per_sample_grads(x, *batch), cfg, rng, t)
    g = obj.mean_grad(x, *batch)
    if not np.isfinite(g).all():
        bad = int(np.count_nonzero(~np.isfinite(g)))
        raise FloatingPointError(f"step {t}: {bad} non-finite mean gradient components")
    return _privatise(g, cfg, rng)


def disk_step(
    state: DiskState,
    batch: tuple[np.ndarray, np.ndarray],
    obj: Objective,
    cfg: DiskConfig,
    rng: np.random.Generator,
) -> DiskState:
    """One filtered-optimizer step on a minibatch (Xb, yb)."""
    x = state.x
    if cfg.two_point and cfg.kappa != 1.0:
        G = two_point_grads(obj, x, state.d_prev, cfg.gamma, cfg.kappa, *batch)
        g = _observe(G, cfg, rng, state.t)
    else:
        g = _observe_at(obj, x, batch, cfg, rng, state.t)

    if cfg.kappa == 1.0:
        g_filt = g
    elif state.g_filt is None:
        prev = g if cfg.filter_init == "first_grad" else np.zeros_like(g)
        g_filt = (1.0 - cfg.kappa) * prev + cfg.kappa * g
    else:
        g_filt = (1.0 - cfg.kappa) * state.g_filt + cfg.kappa * g

    x_new, moments = apply_base_update(cfg, x, g_filt, state.moments)
    return DiskState(
        x=x_new, g_filt=g_filt, d_prev=x_new - x, moments=moments, t=state.t + 1
    )


def dpsgd_step(
    state: DiskState,
    batch: tuple[np.ndarray, np.ndarray],
    obj: Objective,
    cfg: DiskConfig,
    rng: np.random.Generator,
) -> DiskState:
    """Plain DP-SGD: clip per-sample gradients, average, privatise, step."""
    g = _observe_at(obj, state.x, batch, cfg, rng, state.t)
    x_new = state.x - cfg.eta * g
    return DiskState(
        x=x_new, g_filt=g, d_prev=x_new - state.x, moments=state.moments, t=state.t + 1
    )


# ---------------------------------------------------------------------------
# Covariance-tracking filter (the matrix filter in scalar form)
# ---------------------------------------------------------------------------


@dataclass
class FullFilterConfig:
    """Matrix-filter settings; the observation (clip, noise) and the base
    update (eta, base) come from the run's ``DiskConfig``."""

    sigma_w_sq: float = 1.0
    sigma_h_sq: float = 0.0
    sigma_v_sq: float = 0.0
    gamma: float = 0.01  # finite-difference scale for the Hessian action
    hessian_mode: str = "fd"  # "exact" needs a quadratic objective

    def __post_init__(self) -> None:
        _require_finite(self)
        if min(self.sigma_w_sq, self.sigma_h_sq, self.sigma_v_sq) < 0:
            raise ValueError("noise variances must be >= 0")
        if self.sigma_w_sq < self.sigma_h_sq:
            # the gain would exceed 1 and the covariance p turn negative
            raise ValueError("need sigma_w^2 >= sigma_h^2 (p would turn negative)")
        if self.gamma == 0:
            raise ValueError("finite-difference gamma must be nonzero")
        if self.hessian_mode not in HESSIAN_MODES:
            raise ValueError(f"hessian_mode must be one of {HESSIAN_MODES}")


@dataclass
class FullFilterState:
    """Iterate and filter memory; the covariance is p I and the gain k I."""

    x: np.ndarray
    g_filt: np.ndarray
    d_prev: np.ndarray
    p: float
    k: float | None = None
    moments: dict = field(default_factory=dict)
    t: int = 0


def full_filter_init(x0: np.ndarray, cfg: FullFilterConfig) -> FullFilterState:
    """Filter memory starts at zero with covariance sigma_w^2 I."""
    x0 = np.asarray(x0, dtype=float)
    d = x0.shape[0]
    return FullFilterState(
        x=x0.copy(), g_filt=np.zeros(d), d_prev=np.zeros(d), p=cfg.sigma_w_sq
    )


def full_filter_step(
    state: FullFilterState,
    batch: tuple[np.ndarray, np.ndarray],
    obj: Objective,
    opt: DiskConfig,
    cfg: FullFilterConfig,
    rng: np.random.Generator,
) -> FullFilterState:
    """One step of the covariance-tracking filter over the base optimizer.

    The observation (clip, noise) and the base update follow ``opt``; its
    kappa and gamma are unused. The prediction moves the gradient estimate by
    the Hessian action on the last displacement (exact for quadratics,
    finite-difference otherwise); the correction applies the
    multiplicative-noise gain with E[C] = I and no observation-matrix
    covariance,

        K = P_pred (P_pred + sigma_w^2 I - sigma_h^2 I)^{-1},

    with P = p I, so K = k I. k is p_pred (1/sqrt(c)) (1/sqrt(c)), in the
    order the Cholesky solve of c I takes, which gives the matrix filter's
    bits; p_pred / c can differ in the last bit.
    """
    Xb, yb = batch
    x = state.x
    G = obj.per_sample_grads(x, Xb, yb)
    g_obs = _observe(G, opt, rng, state.t)

    if not np.any(state.d_prev):
        h_action = np.zeros(x.shape[0])
    elif cfg.hessian_mode == "exact":
        h_action = obj.hessian() @ state.d_prev  # type: ignore[attr-defined]
    else:
        ahead = obj.mean_grad(x + cfg.gamma * state.d_prev, Xb, yb)
        h_action = (ahead - G.mean(axis=0)) / cfg.gamma

    g_pred = state.g_filt + h_action
    p_pred = state.p + (cfg.sigma_h_sq + cfg.sigma_v_sq)
    c = (p_pred + cfg.sigma_w_sq) - cfg.sigma_h_sq
    if not c > 0:
        raise NumericalError(
            f"gain bracket: matrix not positive definite (min eigenvalue {c:.6g})"
        )
    r = 1.0 / math.sqrt(c)
    k = (p_pred * r) * r
    g_filt = g_pred + k * (g_obs - g_pred)

    x_new, moments = apply_base_update(opt, x, g_filt, state.moments)
    return FullFilterState(
        x=x_new, g_filt=g_filt, d_prev=x_new - x, p=(1.0 - k) * p_pred, k=k,
        moments=moments, t=state.t + 1,
    )
