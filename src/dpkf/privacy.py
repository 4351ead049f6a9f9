"""Clipping operators, Gaussian-mechanism calibration, and an RDP accountant.

The accountant works at integer Renyi orders with the binomial-expansion
formula for the subsampled Gaussian mechanism, whose sigma-free terms are
built once per sampling rate, composes linearly over steps,
and converts to (epsilon, delta) by minimising over a fixed order grid.
Calibration routines invert these maps by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Integer orders 2..64 plus a high-order tail; covers desk-scale budgets.
DEFAULT_ORDERS: tuple[int, ...] = tuple(range(2, 65)) + (128, 256, 512)


class PrivacyError(ValueError):
    """Raised for invalid or infeasible privacy parameters."""


@dataclass(frozen=True)
class PrivacyBudget:
    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise PrivacyError(f"epsilon must be finite and > 0, got {self.epsilon!r}")
        if not 0 < self.delta < 1:
            raise PrivacyError("delta must lie in (0, 1)")


@dataclass(frozen=True)
class NoiseCalibration:
    """Per-step mechanism parameters: clip C, noise std, sampling rate, steps."""

    clip: float
    sigma_dp: float
    q: float
    steps: int

    def __post_init__(self) -> None:
        if self.clip <= 0:
            raise PrivacyError("clip threshold must be > 0")
        if self.sigma_dp < 0:
            raise PrivacyError("sigma_dp must be >= 0")
        if not 0 < self.q <= 1:
            raise PrivacyError("sampling rate must lie in (0, 1]")
        if self.steps < 1:
            raise PrivacyError("step count must be >= 1")


@dataclass
class RdpCurve:
    """Map from integer order alpha to the per-step RDP epsilon."""

    values: dict[int, float] = field(default_factory=dict)

    def orders(self) -> list[int]:
        return sorted(self.values)

    def __getitem__(self, alpha: int) -> float:
        return self.values[alpha]


# ---------------------------------------------------------------------------
# Clipping
# ---------------------------------------------------------------------------


def clip_factors(
    G: np.ndarray, C: float | None, variant: str
) -> tuple[np.ndarray, np.ndarray | None]:
    """Rows and per-row factors of a (B, d) matrix; ``clip_batch`` is their product.

    The factors are min{1, C/||g||} (standard), C/||g|| with 0 kept at 0
    (automatic), min{C/||g||, 1}/C (normalized), and None for "none". The rows
    are G, or a copy in which only rows whose squared norm overflows are rescaled.
    """
    if variant == "none":
        return G, None
    if C is None or C <= 0:
        raise PrivacyError("clip threshold must be > 0 for clipping variants")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(G, axis=1)
    cap = 1.0
    huge = np.isinf(norms)
    if huge.any():
        # The squared norm overflowed. Write such a row as 2^e u with its
        # largest entry of u in [1, 2) and clip u instead: the factor
        # 2^e min{1, C/||g||} is min{2^e, C/||u||}.
        e = np.frexp(np.abs(G[huge]).max(axis=1))[1] - 1
        G = G.copy()
        G[huge] = np.ldexp(G[huge], -e[:, None])
        norms[huge] = np.linalg.norm(G[huge], axis=1)
        cap = np.ones(len(G))
        cap[huge] = np.ldexp(1.0, e)
    safe = np.where(norms > 0, norms, 1.0)
    if variant == "standard":
        factors = np.minimum(cap, C / safe)
    elif variant == "automatic":
        factors = np.where(norms > 0, C / safe, 0.0)
    elif variant == "normalized":
        factors = np.minimum(C / safe, cap) / C
    else:
        raise PrivacyError(f"unknown clip variant: {variant!r}")
    return G, factors


def clip_batch(G: np.ndarray, C: float | None, variant: str) -> np.ndarray:
    """Row-wise clipping of a (B, d) per-sample gradient matrix."""
    rows, factors = clip_factors(G, C, variant)
    return rows if factors is None else rows * factors[:, None]


def clip_sensitivity(variant: str, C: float) -> float:
    """Largest row norm ``clip_batch`` can return: 1 for normalized, C otherwise.

    The batch mean then has add/remove sensitivity clip_sensitivity / B, so
    the accountant's noise multiplier is z = sigma_dp * B / clip_sensitivity.
    """
    if variant == "normalized":
        return 1.0
    if variant in ("standard", "automatic"):
        return C
    raise PrivacyError(f"clip variant {variant!r} has no bounded sensitivity")


# ---------------------------------------------------------------------------
# Gaussian mechanism (analytic calibration)
# ---------------------------------------------------------------------------


def _phi(t: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))


def gaussian_privacy_profile(sensitivity: float, epsilon: float, sigma: float) -> float:
    """Smallest delta for which N(0, sigma^2) noise on a sensitivity-Delta
    release is (epsilon, delta)-DP; decreasing in sigma."""
    r = sensitivity / sigma
    return _phi(r / 2.0 - epsilon / r) - math.exp(epsilon) * _phi(-r / 2.0 - epsilon / r)


def calibrate_gaussian(
    sensitivity: float, epsilon: float, delta: float, tol: float = 1e-9
) -> float:
    """Smallest sigma meeting the Gaussian-mechanism CDF condition, by bisection.

    Strictly tighter than the classical sqrt(2 ln(1.25/delta))/epsilon rule.
    """
    if sensitivity <= 0:
        raise PrivacyError("sensitivity must be > 0")
    PrivacyBudget(epsilon, delta)

    def feasible(sigma: float) -> bool:
        return gaussian_privacy_profile(sensitivity, epsilon, sigma) <= delta

    lo = 1e-12 * sensitivity
    hi = sensitivity  # grow until feasible
    while not feasible(hi):
        hi *= 2.0
        if hi > 1e12 * sensitivity:
            raise PrivacyError("failed to bracket sigma in Gaussian calibration")
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def classical_gaussian_sigma(sensitivity: float, epsilon: float, delta: float) -> float:
    """Textbook sqrt(2 ln(1.25/delta)) * Delta / epsilon reference value."""
    return math.sqrt(2.0 * math.log(1.25 / delta)) * sensitivity / epsilon


# ---------------------------------------------------------------------------
# RDP accountant
# ---------------------------------------------------------------------------


def rdp_gaussian(sigma: float, alpha: float) -> float:
    """RDP of the sensitivity-1 Gaussian mechanism: alpha / (2 sigma^2)."""
    if sigma <= 0:
        raise PrivacyError("sigma must be > 0")
    if alpha <= 1:
        raise PrivacyError("order alpha must exceed 1")
    return alpha / (2.0 * sigma * sigma)


# exp of anything below this is exactly 0.0 in double precision
_EXP_UNDERFLOW = -746.0


class _BinomialTerms:
    """The sigma-free part of the subsampled Gaussian's binomial expansion.

    At order alpha, term k (k = 0..alpha) of the log-sum is

        log C(alpha,k) + k log q + (alpha-k) log(1-q) + k (k-1) / (2 sigma^2)

    Everything but the last summand depends on (q, orders) alone and is built
    once, so a curve for one sigma costs a numpy pass plus an exact sum per
    order. Each value takes the IEEE operations of the term-by-term formula
    in the same order, so it has the same bits.
    """

    def __init__(self, q: float, orders: tuple[int, ...]) -> None:
        if not 0 < q <= 1:
            raise PrivacyError("sampling rate must lie in (0, 1]")
        if any(int(a) != a or a < 2 for a in orders):
            raise PrivacyError("order alpha must be an integer >= 2")
        self.q = q
        self.orders = tuple(orders)
        self.alphas = [int(a) for a in orders]
        if q == 1.0:
            return
        self.sizes = np.array([a + 1 for a in self.alphas])
        self.starts = np.cumsum(self.sizes) - self.sizes
        alpha = np.repeat(self.alphas, self.sizes)
        k = np.concatenate([np.arange(a + 1) for a in self.alphas])
        lgam = np.array([math.lgamma(n + 1) for n in range(max(self.alphas) + 1)])
        log_binom = lgam[alpha] - lgam[k] - lgam[alpha - k]
        self.pre = log_binom + k * math.log(q) + (alpha - k) * math.log1p(-q)
        self.kk1 = (k * (k - 1)).astype(float)

    def values(self, sigma: float) -> list[float]:
        """Per-step RDP at every order for noise multiplier sigma."""
        if sigma <= 0:
            raise PrivacyError("sigma must be > 0")
        if self.q == 1.0:  # the sum collapses to its k = alpha term
            return [rdp_gaussian(sigma, a) for a in self.alphas]
        terms = self.pre + self.kk1 * (1.0 / (2.0 * sigma * sigma))
        peaks = np.maximum.reduceat(terms, self.starts)
        shifted = terms - np.repeat(peaks, self.sizes)
        keep = ~(shifted < _EXP_UNDERFLOW)  # dropped terms add exactly 0.0
        kept = shifted[keep].tolist()
        ends = np.cumsum(np.add.reduceat(keep.astype(int), self.starts)).tolist()
        out, i = [], 0
        for alpha, m, j in zip(self.alphas, peaks.tolist(), ends):
            total = math.fsum(map(math.exp, kept[i:j]))
            out.append((m + math.log(total)) / (alpha - 1))
            i = j
        return out

    def curve(self, sigma: float) -> RdpCurve:
        return RdpCurve(dict(zip(self.orders, self.values(sigma))))


def rdp_subsampled(q: float, sigma: float, alpha: int) -> float:
    """RDP upper bound for the subsampled Gaussian mechanism at integer order.

    Binomial expansion over the subsampling mixture:

        eps(alpha) = log( sum_k C(alpha,k) (1-q)^(alpha-k) q^k
                          exp(k (k-1) / (2 sigma^2)) ) / (alpha - 1)

    At q = 1 the sum collapses to the k = alpha term and the value reduces
    exactly to ``rdp_gaussian``.
    """
    return _BinomialTerms(q, (alpha,)).values(sigma)[0]


def subsampled_curve(
    q: float, sigma: float, orders: tuple[int, ...] = DEFAULT_ORDERS
) -> RdpCurve:
    return _BinomialTerms(q, orders).curve(sigma)


def _conversion_penalty(steps: int, delta: float) -> float:
    if steps < 1:
        raise PrivacyError("step count must be >= 1")
    if not 0 < delta < 1:
        raise PrivacyError("delta must lie in (0, 1)")
    return math.log(1.0 / delta)


def compose_and_convert(curve: RdpCurve, steps: int, delta: float) -> float:
    """Compose ``steps`` mechanisms and convert to epsilon at the given delta.

    epsilon = min over orders of [steps * eps_rdp(alpha) + ln(1/delta)/(alpha-1)].
    """
    penalty = _conversion_penalty(steps, delta)
    return min(
        steps * eps + penalty / (alpha - 1) for alpha, eps in curve.values.items()
    )


def epsilon_schedule(curve: RdpCurve, steps: int, delta: float) -> list[float]:
    """``compose_and_convert(curve, t, delta)`` for t = 1..steps.

    One (steps x orders) minimum in numpy; it takes the same IEEE operations
    as the scalar form, so every entry has the same bits.
    """
    penalty = _conversion_penalty(steps, delta)
    eps = np.array(list(curve.values.values()))
    shift = np.array([penalty / (alpha - 1) for alpha in curve.values])
    t = np.arange(1, steps + 1, dtype=float)[:, None]
    return (t * eps + shift).min(axis=1).tolist()


def calibrate_noise_multiplier(
    eps_target: float,
    delta: float,
    q: float,
    steps: int,
    sigma_max: float = 1e3,
    tol: float = 1e-6,
) -> float:
    """Smallest noise multiplier whose composed epsilon meets the target.

    Bisection on sigma against the monotone accountant, with the binomial
    terms for q built once for every probe; the returned value
    round-trips through ``compose_and_convert`` to within 1e-3 of the target.
    Raises when the target is unreachable even at ``sigma_max``.
    """
    PrivacyBudget(eps_target, delta)
    terms = _BinomialTerms(q, DEFAULT_ORDERS)

    def spent(sigma: float) -> float:
        return compose_and_convert(terms.curve(sigma), steps, delta)

    if spent(sigma_max) > eps_target:
        raise PrivacyError(
            f"budget infeasible at sigma<={sigma_max:g}: epsilon target {eps_target:g} "
            f"is below the floor {spent(sigma_max):.6g} for q={q:g}, T={steps}, delta={delta:g}"
        )
    lo = 1e-4
    while spent(lo) <= eps_target:
        lo /= 2.0
        if lo < 1e-12:
            return lo
    hi = max(2.0 * lo, 1.0)
    while spent(hi) > eps_target:
        hi *= 2.0
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if spent(mid) <= eps_target:
            hi = mid
        else:
            lo = mid
    return hi


def delta_convention(N: int) -> float:
    """Dataset-size-based delta: N^{-1.1}; rejects N <= 1 (delta must be < 1)."""
    if N <= 1:
        raise PrivacyError("need N > 1 for a delta below one")
    return float(N) ** (-1.1)
