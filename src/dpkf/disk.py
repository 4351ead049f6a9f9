"""The filtered DP optimizer ("disk") and its relatives.

One step: combine per-sample gradients at two points (x and a lookahead
x + gamma * d_prev), clip the combination, privatise the batch mean with
Gaussian noise, pass it through an exponential filter with weight kappa, and
feed the filtered gradient to a base optimizer (sgd, momentum, adam, adamw).
Every step observes through ``_observe``. Clipped or on a minibatch it never
forms the (B, d) matrix: ``Objective.grad_factors`` gives per-row coefficients
times shared features, two points combine in the coefficients, row norms come
from the factors (``privacy.clip_factored``) and weighted rows are summed in
order; unclipped at x alone that is ``mean_grad``, bit for bit. Unclipped over
a whole linear-regression ``Dataset`` it is G z - b from cached Gram statistics,
z the combined point: O(p^2) a step, not O(np); those runs moved in the last bits.

Special cases implemented exactly:
  * kappa = 1 degenerates to plain DP-SGD (shared noise stream gives
    bit-identical trajectories),
  * gamma = (1-kappa)/kappa with base step 1 and zero filter init matches the
    lookahead-momentum method (mu = 1-kappa, eta = kappa),
  * gamma = -1 with batch size 1 matches the recursive variance-reduced
    (STORM) estimator.

``full_filter_step`` is the same step with kappa replaced by the matrix
filter's gain k_t (its noise terms are multiples of I and E[C] = I, so
K_t = k_t I): its update (1 - k)(g_filt + h) + k g_obs, with the Hessian
action h = (g(x + gamma d) - g(x)) / gamma, is the two-point combination at
kappa = k. The gain uses no data, so the release is the same clipped mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kalman import ScalarGainState, scalar_gain_step
from .objectives import Dataset, Objective
from .privacy import clip_factored

CLIP_VARIANTS = ("standard", "automatic", "normalized", "none")
BASE_OPTIMIZERS = ("sgd", "momentum", "adam", "adamw")
FILTER_INITS = ("first_grad", "zero")


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
    gain: ScalarGainState | None = None  # full-kf's p_t and k_t; None before its first step

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


def _observe(obj: Objective, x, batch, cfg: DiskConfig, rng, t: int, ahead=None, a=0.0):
    """The privatised observation: the per-sample gradients at x, or their
    combination a * grad(ahead) + (1 - a) * grad(x), clipped, averaged in row
    order and noised, all from ``obj.grad_factors``, or unclipped over a whole
    ``Dataset`` from a finite ``obj.dataset_mean_grad``. Unclipped at x alone
    it is ``obj.mean_grad``. Aborts on an empty batch or a non-finite mean."""
    X, y = batch
    if len(X) == 0:
        raise ValueError("batch must be non-empty")
    g = obj.dataset_mean_grad(batch, x, ahead, a) if cfg.clip_variant == "none" else None
    if g is None or not np.isfinite(g).all():  # statistics can overflow where rows do not
        fac = obj.grad_factors(x, X, y, ahead, a)
        weights = None
        if cfg.clip_variant != "none":
            fac.coefs, weights = clip_factored(fac.coefs, fac.feats, cfg.clip, cfg.clip_variant)
        g = fac.mean(weights)
        if not np.isfinite(g).all():
            bad = sum(int(np.count_nonzero(~np.isfinite(v))) for v in fac.coefs + fac.feats)
            raise FloatingPointError(
                f"step {t}: {np.count_nonzero(~np.isfinite(g))} non-finite mean gradient "
                f"components ({bad} non-finite per-sample gradient factors)"
            )
    if cfg.sigma_dp > 0:
        g = g + cfg.sigma_dp * rng.standard_normal(g.shape[0])
    return g


def _filtered_step(state, batch, obj, cfg, rng, kappa: float, gamma: float) -> DiskState:
    """The step at weight ``kappa`` and lookahead ``gamma``, the rest from ``cfg``."""
    x = state.x
    if cfg.two_point and kappa != 1.0:
        a = (1.0 - kappa) / (kappa * gamma)
        g = _observe(obj, x, batch, cfg, rng, state.t, x + gamma * state.d_prev, a)
    else:
        g = _observe(obj, x, batch, cfg, rng, state.t)

    if kappa == 1.0:
        g_filt = g
    elif state.g_filt is None:
        prev = g if cfg.filter_init == "first_grad" else np.zeros_like(g)
        g_filt = (1.0 - kappa) * prev + kappa * g
    else:
        g_filt = (1.0 - kappa) * state.g_filt + kappa * g

    x_new, moments = apply_base_update(cfg, x, g_filt, state.moments)
    return DiskState(
        x=x_new, g_filt=g_filt, d_prev=x_new - x, moments=moments, t=state.t + 1
    )


def disk_step(
    state: DiskState,
    batch: tuple[np.ndarray, np.ndarray] | Dataset,
    obj: Objective,
    cfg: DiskConfig,
    rng: np.random.Generator,
) -> DiskState:
    """One filtered-optimizer step on a minibatch (Xb, yb) or a whole ``Dataset``."""
    return _filtered_step(state, batch, obj, cfg, rng, cfg.kappa, cfg.gamma)


def dpsgd_step(
    state: DiskState,
    batch: tuple[np.ndarray, np.ndarray] | Dataset,
    obj: Objective,
    cfg: DiskConfig,
    rng: np.random.Generator,
) -> DiskState:
    """Plain DP-SGD: clip per-sample gradients, average, privatise, step."""
    g = _observe(obj, state.x, batch, cfg, rng, state.t)
    x_new = state.x - cfg.eta * g
    return DiskState(
        x=x_new, g_filt=g, d_prev=x_new - state.x, moments=state.moments, t=state.t + 1
    )


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
        if min(self.sigma_w_sq, self.sigma_h_sq, self.sigma_v_sq) < 0:
            raise ValueError("noise variances must be >= 0")
        if self.sigma_w_sq < self.sigma_h_sq:
            # the gain would exceed 1 and the covariance p turn negative
            raise ValueError("need sigma_w^2 >= sigma_h^2 (p would turn negative)")
        if self.sigma_w_sq + self.sigma_v_sq == 0:
            # the gain divides by p + sigma_w^2 + sigma_v^2, and p can reach 0
            raise ValueError("need sigma_w^2 + sigma_v^2 > 0 (the gain divides by it)")
        if self.gamma == 0:
            raise ValueError("gamma must be nonzero")


def full_filter_step(
    state: DiskState,
    batch: tuple[np.ndarray, np.ndarray] | Dataset,
    obj: Objective,
    opt: DiskConfig,
    cfg: FullFilterConfig,
    rng: np.random.Generator,
) -> DiskState:
    """One full-kf step: advance the gain, then take the filtered step with
    kappa = k_t and gamma = ``cfg.gamma``; ``opt`` gives the rest (the full-kf
    preset starts the filter at zero). The gain recursion starts at
    p = sigma_w^2 when ``state.gain`` is None and is kept in ``state.gain``."""
    gain = state.gain
    if gain is None:  # k is computed from p, so the start k is never read
        gain = ScalarGainState(
            p=cfg.sigma_w_sq, k=0.0, sigma_h_sq=cfg.sigma_h_sq,
            sigma_v_sq=cfg.sigma_v_sq, sigma_w_sq=cfg.sigma_w_sq,
        )
    gain = scalar_gain_step(gain)
    out = _filtered_step(state, batch, obj, opt, rng, gain.k, cfg.gamma)
    out.gain = gain
    return out
