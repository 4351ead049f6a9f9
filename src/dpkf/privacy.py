"""Clipping operators and the subsampled-Gaussian RDP accountant.

The accountant works at integer Renyi orders with a cancellation-free form of
the subsampled Gaussian mechanism's binomial expansion, composes linearly over
steps, and converts to (epsilon, delta) by minimising over a fixed order grid.
It has one path: a numpy pass whose every value, composed spend included, is
rounded up to a certified upper bound at most 1e-9 relative above the exact
one. The sigma-free terms are built once per (sampling rate, orders) and
kept, read-only, in a small cache that lives as long as the process.
Calibration bisects on the same reported spend.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

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


# ---------------------------------------------------------------------------
# Clipping
# ---------------------------------------------------------------------------


def clip_rule(norms: np.ndarray, C: float | None, variant: str, cap=1.0) -> np.ndarray:
    """Per-row factors for rows of the given norms: min{cap, C/||g||}
    (standard), C/||g|| with 0 kept at 0 (automatic), min{C/||g||, cap}/C
    (normalized). ``cap`` is 1, or 2^e for a row clipped as 2^-e g."""
    if C is None or C <= 0:
        raise PrivacyError("clip threshold must be > 0 for clipping variants")
    safe = np.where(norms > 0, norms, 1.0)
    if variant == "standard":
        return np.minimum(cap, C / safe)
    if variant == "automatic":
        return np.where(norms > 0, C / safe, 0.0)
    if variant == "normalized":
        return np.minimum(C / safe, cap) / C
    raise PrivacyError(f"unknown clip variant: {variant!r}")


_TINY_NORM = 2.0**-511  # below it, a squared norm is subnormal or 0


def _top_exponent(A: np.ndarray) -> np.ndarray:
    """e with 2^e <= max |entry| < 2^(e+1), row by row; -2^16 for a zero row."""
    top = np.abs(A).max(axis=-1)
    return np.where(top > 0, np.frexp(top)[1] - 1, -(2**16))


def _row_sq(A: np.ndarray) -> np.ndarray:
    return np.einsum("...j,...j->...", A, A)


def _rows_in(f: np.ndarray, rows: tuple) -> tuple:
    """The index in f of each row of ``rows`` (a ``np.nonzero`` tuple): the
    row itself, or the one row f's batch shares."""
    return rows if f.shape[-2] > 1 else rows[:-1] + (np.zeros_like(rows[-1]),)


def clip_factored(
    coefs: list, feats: list, C: float | None, variant: str
) -> tuple[list, list, np.ndarray]:
    """Row-wise clipping of per-sample gradients in factored form, block b of
    row i being coefs[b][..., i, :] (x) feats[b][..., i, :]
    (``objectives.GradFactors``), the rows of every run of a stack at once:
    the coefs and feats, each row rescaled whose squared norm over- or
    underflows or has a factor whose own squared norm is subnormal or 0, and
    the factors, one a row of each run. A feature row shared by the runs is
    copied to each run before a rescale. The rows of a run that share one
    feature row (the quadratic's) are rescaled together, that row in place, so
    the factors keep their layout and the mean its order.
    """
    sq = [(_row_sq(c), _row_sq(f)) for c, f in zip(coefs, feats)]
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 of a zero block
        products = (sc * sf for sc, sf in sq)
        norms = np.sqrt(sum(products, next(products)))  # each >= +0: the bits of 0 + ...
    # A subnormal factor keeps few bits of its squared norm even where the
    # product is normal. A zero factor is rescued too: scaling by powers of
    # two leaves the products the mean sums with their bits.
    huge = ~np.isfinite(norms) | (norms < _TINY_NORM)
    for sc, sf in sq:
        huge |= (sc < _TINY_NORM**2) | (sf < _TINY_NORM**2)
    cap = 1.0
    if huge.any():
        # Clip u = 2^-e g_i, whose factor min{2^e, C/||u||} is g_i's, 2^e being
        # the largest top coefficient times top feature of a block (a zero
        # factor sets none, and a row with one in every block keeps e = 0). A
        # block's features are scaled by their own 2^-ef and its coefficients by
        # 2^(ef - e), so neither over- nor underflows.
        coefs = [c.copy() for c in coefs]
        feats = [np.array(np.broadcast_to(f, c.shape[:-2] + f.shape[-2:])) for c, f in zip(coefs, feats)]
        if any(f.shape[-2] == 1 for f in feats):
            huge |= huge.any(axis=-1, keepdims=True)
        # A row with a NaN or infinite entry has no scale to rescue (its finite
        # entries would overflow): the step's non-finite mean reports it.
        for a in coefs + feats:
            huge &= np.isfinite(a).all(axis=-1)
        rows = np.nonzero(huge)
        at = [_rows_in(f, rows) for f in feats]
        ef = [_top_exponent(f[i]) for f, i in zip(feats, at)]
        e = np.max([_top_exponent(c[rows]) + x for c, x in zip(coefs, ef)], axis=0)
        e[e < -(2**15)] = 0
        for c, f, x, i in zip(coefs, feats, ef, at):
            c[rows] = np.ldexp(c[rows], (x - e)[:, None])
            f[i] = np.ldexp(f[i], -x[:, None])
        norms[rows] = np.sqrt(sum(_row_sq(c[rows]) * _row_sq(f[i]) for c, f, i in zip(coefs, feats, at)))
        cap = np.ones(norms.shape)
        with np.errstate(over="ignore"):  # e above 1023: an infinite cap, none
            cap[rows] = np.ldexp(1.0, e)
    return coefs, feats, clip_rule(norms, C, variant, cap)


def clip_batch(G: np.ndarray, C: float | None, variant: str) -> np.ndarray:
    """Row-wise clipping of a (B, d) per-sample gradient matrix: ``clip_factored``
    on one block of unit coefficients and features G. G itself for "none"."""
    if variant == "none":
        return G
    (c,), (f,), w = clip_factored([np.ones((len(G), 1))], [G], C, variant)
    return (w[:, None] * c) * f


def clip_sensitivity(variant: str, C: float) -> float:
    """Largest norm of a row ``clip_factored`` clips: 1 for normalized, C otherwise.

    The batch mean then has add/remove sensitivity clip_sensitivity / B, so
    the accountant's noise multiplier is z = sigma_dp * B / clip_sensitivity.
    """
    if variant == "normalized":
        return 1.0
    if variant in ("standard", "automatic"):
        return C
    raise PrivacyError(f"clip variant {variant!r} has no bounded sensitivity")


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


# Relative error bound taken for each floating-point operation: 16 times the
# 1-ULP bound numpy's accuracy tests hold its float64 exp, log, expm1 and log1p to.
_U = 2.0**-48
# numpy's exp is slow on subnormal results (below e^-708); raising to this only adds
_EXP_FLOOR = -700.0


def _round_up(x, r):
    """x raised by a relative bound r on its rounding error, then by one ULP,
    which also covers a subnormal or underflowed x."""
    return np.nextafter(x * (1.0 + r), np.inf)


class _BinomialTerms:
    """The sigma-free part of the subsampled Gaussian's Renyi moment A.

    At integer order alpha, with c = 1 / (2 sigma^2) and binomial weights that
    sum to 1,

        A - 1 = sum_{k=2..alpha} C(alpha,k) q^k (1-q)^(alpha-k) expm1(k(k-1)c),

    a sum of positive terms, free of the cancellation that costs log A its
    digits at small q. Term k's log is pre_k + x_k + h_k, with x_k = k(k-1)c,
    h_k = log(-expm1(-x_k)) <= 0 and pre_k = log C(alpha,k) + k log q +
    (alpha-k) log1p(-q). A probe sums the terms in log space per order, giving
    L = log(A - 1), and the RDP is logaddexp(0, L) / (alpha - 1).

    Why it is an upper bound. Let u = 2^-48 (``_U``) bound the relative error
    of every operation. Counting them, each computed log term is within
    6u (1 + m_k + x_k - h_k) of its value, m_k = log C + k |log q| +
    (alpha-k) |log1p(-q)|, as a relative error e in x moves x + h by at most
    e (1 + x). Raised by 8u (1 + m_k + x_k - h_k), no term is below its value.
    Summing the n = alpha - 1 exps, each shifted by the order's peak and raised
    to at least e^-700, then the log give log(A - 1) <= L + (2n + 3 + log n) u
    + u |L|. logaddexp(0, L) moves by sigmoid(L) times that at most, and
    sigmoid(L) <= logaddexp(0, L), sigmoid(L) |L| <= (1 + max(0, -L))
    logaddexp(0, L). With logaddexp's own 3u and the division, the RDP is at
    most the computed one times 1 + 4u (n + 4 + max(0, -L)). The slack is
    below 1e-9 relative over q in [1e-5, 1], sigma in [0.5, 100] and the
    default orders.

    The sigma-free arrays (the raised pre_k, each term's k as a gather index,
    each order's error constant) are built once and are read-only, as one
    build (``_binomial_terms``) is shared by every caller.
    """

    def __init__(self, q: float, orders: tuple[int, ...]) -> None:
        if not 0 < q <= 1:
            raise PrivacyError("sampling rate must lie in (0, 1]")
        if any(int(a) != a or a < 2 for a in orders):
            raise PrivacyError("order alpha must be an integer >= 2")
        self.q = q
        self.orders = tuple(orders)
        self.alphas = tuple(int(a) for a in orders)
        if q == 1.0:
            return
        sizes = np.array([a - 1 for a in self.alphas])  # k = 2..alpha
        self.denoms = sizes.astype(float)
        self.starts = np.cumsum(sizes) - sizes
        self.order_of = np.repeat(np.arange(len(sizes)), sizes)
        k = np.concatenate([np.arange(2, a + 1) for a in self.alphas])
        alpha = np.repeat(self.alphas, sizes)
        # log C(alpha, k), each the log of an exact integer
        log_binom = np.array([math.log(math.comb(a, j)) for a in self.alphas for j in range(2, a + 1)])
        log_q, log_1mq = math.log(q), math.log1p(-q)
        pre = log_binom + k * log_q + (alpha - k) * log_1mq
        mag = log_binom - k * log_q - (alpha - k) * log_1mq
        self.pre = pre + 8 * _U * (1.0 + mag)
        self.k_of = k - 2
        ks = np.arange(2, max(self.alphas) + 1)
        self.kk1 = (ks * (ks - 1)).astype(float)
        self.sum_error = 4 * _U * (sizes + 4.0)
        for arr in (self.denoms, self.starts, self.order_of, self.pre, self.k_of,
                    self.kk1, self.sum_error):
            arr.flags.writeable = False

    def values(self, sigma: float) -> np.ndarray:
        """Upper bounds on the per-step RDP at every order for noise
        multiplier sigma; at q = 1, ``rdp_gaussian`` raised by its roundings."""
        if sigma <= 0:
            raise PrivacyError("sigma must be > 0")
        if self.q == 1.0:
            return _round_up(np.array([rdp_gaussian(sigma, a) for a in self.alphas]), 2 * _U)
        x = self.kk1 * (1.0 / (2.0 * sigma * sigma))
        h = np.log(-np.expm1(-x))
        t = self.pre + (x * (1.0 + 8 * _U) + h * (1.0 - 8 * _U))[self.k_of]
        peaks = np.maximum.reduceat(t, self.starts)
        exps = np.exp(np.maximum(t - peaks[self.order_of], _EXP_FLOOR))
        L = peaks + np.log(np.add.reduceat(exps, self.starts))
        r = self.sum_error - 4 * _U * np.minimum(L, 0.0)
        return _round_up(np.logaddexp(0.0, L) / self.denoms, r)


@functools.lru_cache(maxsize=16)
def _binomial_terms(q: float, orders: tuple[int, ...]) -> _BinomialTerms:
    """The build for (q, orders), kept across calls (about 70 KB at the
    default orders). Every accountant entry point builds through here, so
    calibration, schedules and curves at one sampling rate share one build."""
    return _BinomialTerms(q, orders)


def rdp_subsampled(q: float, sigma: float, alpha: int) -> float:
    """Upper bound on the RDP of the subsampled Gaussian mechanism at integer
    order alpha (Mironov, Talwar & Zhang, arXiv 1908.10530):

        eps(alpha) = log( sum_k C(alpha,k) (1-q)^(alpha-k) q^k
                          exp(k (k-1) / (2 sigma^2)) ) / (alpha - 1),

    evaluated by ``_BinomialTerms``' cancellation-free pass and rounded up.
    At q = 1 it is ``rdp_gaussian`` rounded up.
    """
    return float(_binomial_terms(q, (alpha,)).values(sigma)[0])


def subsampled_curve(q: float, sigma: float) -> dict[int, float]:
    terms = _binomial_terms(q, DEFAULT_ORDERS)
    return dict(zip(terms.orders, terms.values(sigma).tolist()))


def _order_shifts(orders, steps: int, delta: float) -> np.ndarray:
    """``ln(1/delta)/(alpha-1)`` per order."""
    if steps < 1:
        raise PrivacyError("step count must be >= 1")
    try:
        float(steps)  # ``steps * rdp`` takes its float
    except OverflowError:
        raise PrivacyError(f"step count {steps} has no finite float") from None
    if not 0 < delta < 1:
        raise PrivacyError("delta must lie in (0, 1)")
    return -math.log(delta) / np.array([alpha - 1 for alpha in orders], dtype=float)


def _spend(rdp: np.ndarray, steps, shifts: np.ndarray) -> np.ndarray:
    """``steps * rdp + shifts`` raised by its roundings (the shift's log and
    division, the product and the sum: positive terms, each within 3u)."""
    return _round_up(steps * rdp + shifts, 4 * _U)


def compose_and_convert(curve: dict[int, float], steps: int, delta: float) -> float:
    """Compose ``steps`` mechanisms and convert to epsilon at the given delta.

    epsilon = min over orders of [steps * eps_rdp(alpha) + ln(1/delta)/(alpha-1)],
    each order's value rounded up.
    """
    shifts = _order_shifts(curve, steps, delta)
    return float(_spend(np.array(list(curve.values())), steps, shifts).min())


def epsilon_schedule(curve: dict[int, float], steps: int, delta: float) -> list[float]:
    """``compose_and_convert(curve, t, delta)`` for t = 1..steps.

    One (steps x orders) minimum in numpy; it takes the same IEEE operations
    as the scalar form, so every entry has the same bits.
    """
    shifts = _order_shifts(curve, steps, delta)
    t = np.arange(1, steps + 1, dtype=float)[:, None]
    return _spend(np.array(list(curve.values())), t, shifts).min(axis=1).tolist()


def calibrate_noise_multiplier(
    eps_target: float, delta: float, q: float, steps: int, sigma_max: float = 1e3
) -> float:
    """Smallest noise multiplier whose composed epsilon meets the target.

    Bisection on sigma, with the binomial terms for q built once. Each probe
    evaluates the one accountant path, the certified upper bound that
    ``compose_and_convert(subsampled_curve(q, sigma), steps, delta)`` reports,
    with the same bits. So the returned multiplier's reported spend is at most
    the target, and within 1e-3 of it; the exact spend is below that and at
    most 1e-9 relative lower. Raises when the target is unreachable even at
    ``sigma_max``.
    """
    PrivacyBudget(eps_target, delta)
    terms = _binomial_terms(q, DEFAULT_ORDERS)
    shifts = _order_shifts(terms.orders, steps, delta)

    def spent(sigma: float) -> float:
        return _spend(terms.values(sigma), steps, shifts).min()

    if not spent(sigma_max) <= eps_target:
        raise PrivacyError(
            f"budget infeasible at sigma<={sigma_max:g}: epsilon target {eps_target:g} "
            f"is below the floor {spent(sigma_max):.6g} for q={q:g}, T={steps}, delta={delta:g}"
        )
    return _bisect(lambda sigma: spent(sigma) <= eps_target)


def _bisect(meets: Callable[[float], bool]) -> float:
    """Smallest sigma, to within 1e-6, for which ``meets`` holds; ``meets`` is
    monotone in sigma and holds at the upper end of the search."""
    lo = 1e-4
    while meets(lo):
        lo /= 2.0
        if lo < 1e-12:
            return 2.0 * lo  # the last sigma that met the target
    hi = max(2.0 * lo, 1.0)
    while not meets(hi):
        hi *= 2.0
    for _ in range(200):
        if hi - lo <= 1e-6:
            break
        mid = 0.5 * (lo + hi)
        if meets(mid):
            hi = mid
        else:
            lo = mid
    return hi


def delta_convention(N: int) -> float:
    """Dataset-size-based delta: N^{-1.1}; rejects N <= 1 (delta must be < 1)."""
    if N <= 1:
        raise PrivacyError("need N > 1 for a delta below one")
    return float(N) ** (-1.1)
