"""Clipping operators, Gaussian-mechanism calibration, and an RDP accountant.

The accountant works at integer Renyi orders with the binomial-expansion
formula for the subsampled Gaussian mechanism, composes linearly over steps,
and converts to (epsilon, delta) by minimising over a fixed order grid. The
sigma-free binomial terms are built once per (sampling rate, orders) and a
run's epsilon schedule once per (q, sigma, steps, delta); both are kept,
read-only, in small caches that live as long as the process. Calibration
routines invert these maps by bisection; a noise-multiplier probe is decided
by a numpy pass with a proven error margin, and by the exact sum only when
that margin does not decide it.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
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


def _top_exponent(A: np.ndarray) -> np.ndarray:
    """e with 2^e <= max |entry| < 2^(e+1), row by row; -2^16 for a zero row."""
    top = np.abs(A).max(axis=1)
    return np.where(top > 0, np.frexp(top)[1] - 1, -(2**16))


def clip_factors(
    G: np.ndarray, C: float | None, variant: str
) -> tuple[np.ndarray, np.ndarray | None]:
    """Rows and per-row ``clip_rule`` factors of a (B, d) matrix, None for
    "none"; ``clip_batch`` is their product. The rows are G, or a copy in
    which only rows whose squared norm overflows are rescaled.
    """
    if variant == "none":
        return G, None
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(G, axis=1)
    cap = 1.0
    huge = np.isinf(norms)
    if huge.any():
        # The squared norm overflowed. Write such a row as 2^e u with its
        # largest entry of u in [1, 2) and clip u instead: the factor
        # 2^e min{1, C/||g||} is min{2^e, C/||u||}.
        e = _top_exponent(G[huge])
        G = G.copy()
        G[huge] = np.ldexp(G[huge], -e[:, None])
        norms[huge] = np.linalg.norm(G[huge], axis=1)
        cap = np.ones(len(G))
        cap[huge] = np.ldexp(1.0, e)
    return G, clip_rule(norms, C, variant, cap)


def _row_sq(A: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", A, A)


def clip_factored(
    coefs: list, feats: list, C: float | None, variant: str
) -> tuple[list, np.ndarray]:
    """``clip_factors`` for per-sample gradients in factored form, block b of
    row i being coefs[b][i] (x) feats[b][i] (``objectives.GradFactors``): the
    coefs, with each row whose squared norm overflows rescaled, and the factors.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 of a zero block
        norms = np.sqrt(sum(_row_sq(c) * _row_sq(f) for c, f in zip(coefs, feats)))
    cap, huge = 1.0, np.flatnonzero(~np.isfinite(norms))
    if huge.size:
        # Clip u = 2^-e g_i as clip_factors does, 2^e being the largest top
        # coefficient times top feature of a block (e >= 0; a zero factor
        # sets none). Features are scaled by their own 2^-ef for the norm.
        cs = [c[huge] for c in coefs]
        fs = [np.broadcast_to(f, (len(c), f.shape[1]))[huge] for c, f in zip(coefs, feats)]
        ef = [_top_exponent(f) for f in fs]
        e = np.maximum(np.max([_top_exponent(c) + x for c, x in zip(cs, ef)], axis=0), 0)
        norms[huge] = np.sqrt(sum(_row_sq(np.ldexp(c, (x - e)[:, None]))
                                  * _row_sq(np.ldexp(f, -x[:, None])) for c, f, x in zip(cs, fs, ef)))
        coefs = [c.copy() for c in coefs]
        for c, part in zip(coefs, cs):
            c[huge] = np.ldexp(part, -e[:, None])
        cap = np.ones(len(norms))
        cap[huge] = np.ldexp(1.0, e)
    return coefs, clip_rule(norms, C, variant, cap)


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
# exp of anything above this is a normal double
_EXP_NORMAL = -700.0
# Relative error taken for each exp, log and rounding in ``composed``'s margin.
_OP_ERROR = 2.0**-44


class _BinomialTerms:
    """The sigma-free part of the subsampled Gaussian's binomial expansion.

    At order alpha, term k (k = 0..alpha) of the log-sum is

        log C(alpha,k) + k log q + (alpha-k) log(1-q) + k (k-1) / (2 sigma^2)

    Everything but the last summand depends on (q, orders) alone and is built
    once (see ``_binomial_terms``), so a curve for one sigma costs a numpy
    pass plus an exact sum per order. Each value takes the IEEE operations of
    the term-by-term formula in the same order, so it has the same bits. The
    arrays are read-only, as one build is shared by every caller.
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
        self.sizes = np.array([a + 1 for a in self.alphas])
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.denoms = np.array([a - 1 for a in self.alphas], dtype=float)
        alpha = np.repeat(self.alphas, self.sizes)
        k = np.concatenate([np.arange(a + 1) for a in self.alphas])
        lgam = np.array([math.lgamma(n + 1) for n in range(max(self.alphas) + 1)])
        log_binom = lgam[alpha] - lgam[k] - lgam[alpha - k]
        self.pre = log_binom + k * math.log(q) + (alpha - k) * math.log1p(-q)
        self.kk1 = (k * (k - 1)).astype(float)
        for arr in (self.sizes, self.starts, self.denoms, self.pre, self.kk1):
            arr.flags.writeable = False

    def _shifted(self, sigma: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-order peak term and every term minus its order's peak."""
        terms = self.pre + self.kk1 * (1.0 / (2.0 * sigma * sigma))
        peaks = np.maximum.reduceat(terms, self.starts)
        return peaks, terms - np.repeat(peaks, self.sizes)

    def values(self, sigma: float) -> list[float]:
        """Per-step RDP at every order for noise multiplier sigma."""
        if sigma <= 0:
            raise PrivacyError("sigma must be > 0")
        if self.q == 1.0:  # the sum collapses to its k = alpha term
            return [rdp_gaussian(sigma, a) for a in self.alphas]
        peaks, shifted = self._shifted(sigma)
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

    def composed(
        self, sigma: float, steps: int, shifts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Composed spend ``steps * rdp + shift`` at every order by one numpy
        pass, and a margin m per order that bounds its distance from the spend
        ``values`` gives; ``shifts`` are the orders' ``ln(1/delta)/(alpha-1)``.

        The pass takes the same shifted terms and peaks as ``values`` and
        replaces its exact sum by ``np.exp``, ``np.add.reduceat`` and
        ``np.log``. At q = 1 the spend is exact and m = 0.

        Why m bounds the error. Let u = 2^-44 (``_OP_ERROR``) bound the
        relative error of every exp, log and rounding on either path: 64
        times the 4-ULP bound of numpy's SIMD exp and log, 256 times libm's
        1 ULP. At order alpha both paths share the peak M and the n = alpha+1
        shifted terms s_k <= 0, one of them 0, so S = sum_k exp(s_k) lies in
        [1, n] and the exact value is r = (M + log S) / (alpha - 1).

        * Sum. Each exp is within u of its value, or within 2^-1074 if
          subnormal, and n such errors are far below u S, as S >= 1.
          ``values`` adds libm exps with the correctly rounded ``fsum`` and
          drops terms below -746, whose exps round to 0: it gets S (1 + t)
          with |t| <= 2.1 u. The pass raises terms below -700 to -700, which
          keeps numpy's exp off its slow subnormal path and adds at most
          n e^-700 to S, and adds the n positive exps in some order:
          |t| <= 1.01 n u.
        * Log. log(S (1 + t)) is within 1.01 |t| of log S, and the log's own
          rounding adds u log n.
        * Adding M, dividing by alpha - 1, multiplying by T and adding the
          shift (the same bits on both paths) each round by u times their
          result, and |M + log S| <= |M| + log n <= |M| + n.

        So each path's rdp lies within 3 u (n + |M|) / (alpha - 1) of r, and
        the two spends differ by at most 9 u [T (n + |M|) / (alpha - 1) + |v|],
        with v this pass's spend. The returned m takes 16 for 9; the rest
        covers the roundings in forming m and v +- m. The bound is absolute in
        M and n, not relative to v: at small q, M and log S nearly cancel, so
        v can be far smaller than the error of either summand.
        """
        if sigma <= 0:
            raise PrivacyError("sigma must be > 0")
        if self.q == 1.0:
            return steps * np.array(self.values(sigma)) + shifts, np.zeros(len(shifts))
        peaks, shifted = self._shifted(sigma)
        exps = np.exp(np.maximum(shifted, _EXP_NORMAL))
        rdp = (peaks + np.log(np.add.reduceat(exps, self.starts))) / self.denoms
        v = steps * rdp + shifts
        m = 16 * _OP_ERROR * (steps * (self.sizes + np.abs(peaks)) / self.denoms + np.abs(v))
        return v, m


@functools.lru_cache(maxsize=16)
def _binomial_terms(q: float, orders: tuple[int, ...]) -> _BinomialTerms:
    """The build for (q, orders), kept across calls (about 50 KB at the
    default orders). Every accountant entry point builds through here, so
    calibration, schedules and curves at one sampling rate share one build."""
    return _BinomialTerms(q, orders)


def rdp_subsampled(q: float, sigma: float, alpha: int) -> float:
    """RDP upper bound for the subsampled Gaussian mechanism at integer order.

    Binomial expansion over the subsampling mixture:

        eps(alpha) = log( sum_k C(alpha,k) (1-q)^(alpha-k) q^k
                          exp(k (k-1) / (2 sigma^2)) ) / (alpha - 1)

    At q = 1 the sum collapses to the k = alpha term and the value reduces
    exactly to ``rdp_gaussian``.
    """
    return _binomial_terms(q, (alpha,)).values(sigma)[0]


def subsampled_curve(
    q: float, sigma: float, orders: tuple[int, ...] = DEFAULT_ORDERS
) -> RdpCurve:
    return _binomial_terms(q, tuple(orders)).curve(sigma)


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


def _order_shifts(orders, steps: int, delta: float) -> np.ndarray:
    """``ln(1/delta)/(alpha-1)`` per order, as ``compose_and_convert`` forms it."""
    penalty = _conversion_penalty(steps, delta)
    return np.array([penalty / (alpha - 1) for alpha in orders])


def epsilon_schedule(curve: RdpCurve, steps: int, delta: float) -> list[float]:
    """``compose_and_convert(curve, t, delta)`` for t = 1..steps.

    One (steps x orders) minimum in numpy; it takes the same IEEE operations
    as the scalar form, so every entry has the same bits.
    """
    shift = _order_shifts(curve.values, steps, delta)
    eps = np.array(list(curve.values.values()))
    t = np.arange(1, steps + 1, dtype=float)[:, None]
    return (t * eps + shift).min(axis=1).tolist()


@functools.lru_cache(maxsize=4)
def spend_schedule(q: float, sigma: float, steps: int, delta: float) -> tuple[float, ...]:
    """Epsilon spent after 1..steps steps of the subsampled Gaussian mechanism:
    ``epsilon_schedule`` of ``subsampled_curve(q, sigma)``.

    Computed once per argument tuple and kept as a tuple, so the runs of a
    sweep, which share (q, sigma, steps, delta), share one schedule. The few
    entries kept bound the memory a long schedule holds.
    """
    return tuple(epsilon_schedule(subsampled_curve(q, sigma), steps, delta))


def _spend_test(
    terms: _BinomialTerms, steps: int, delta: float, target: float
) -> Callable[[float], bool]:
    """``sigma -> compose_and_convert(terms.curve(sigma), steps, delta) <= target``.

    A probe takes ``terms.composed``'s numpy spends v and margins m. Some
    order with v + m < target has an exact spend below the target: True.
    Every order with v - m > target has one above it: False. Only a probe
    with an order within its margin of the target runs the exact sum.
    """
    shifts = _order_shifts(terms.orders, steps, delta)

    def at_most(sigma: float) -> bool:
        v, m = terms.composed(sigma, steps, shifts)
        if (v + m < target).any():
            return True
        if (v - m > target).all():
            return False
        return compose_and_convert(terms.curve(sigma), steps, delta) <= target

    return at_most


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
    terms for q built once. Each probe only asks on which side of the target
    the spend falls, and one numpy pass with a proven error margin answers
    it unless the spend lies within that margin of the target; then the
    exact ``math.fsum`` spend decides (see ``_spend_test``). So every probe
    branches as the exact accountant does, and the result has its bits. The
    returned value is checked once against the exact spend, so the privacy
    guarantee does not rest on the margin, and it round-trips through
    ``compose_and_convert`` to within 1e-3 of the target. Raises when the
    target is unreachable even at ``sigma_max``.
    """
    PrivacyBudget(eps_target, delta)
    terms = _binomial_terms(q, DEFAULT_ORDERS)
    meets = _spend_test(terms, steps, delta, eps_target)

    def spent(sigma: float) -> float:
        return compose_and_convert(terms.curve(sigma), steps, delta)

    if not meets(sigma_max):
        raise PrivacyError(
            f"budget infeasible at sigma<={sigma_max:g}: epsilon target {eps_target:g} "
            f"is below the floor {spent(sigma_max):.6g} for q={q:g}, T={steps}, delta={delta:g}"
        )
    z = _bisect(meets, tol)
    spend = spent(z)
    if spend > eps_target:
        raise PrivacyError(
            f"calibration returned sigma={z!r}, whose exact epsilon {spend!r} "
            f"exceeds the target {eps_target!r}"
        )
    return z


def _bisect(meets: Callable[[float], bool], tol: float) -> float:
    """Smallest sigma, to within tol, for which ``meets`` holds; ``meets`` is
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
        if hi - lo <= tol:
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
