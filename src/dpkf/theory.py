"""Closed-form constants and worst-case bound evaluators for the filtered
DP optimizer, plus the tuned-parameter rule used by the acceptance tests.

Everything here evaluates final stated expressions; no proof machinery. Where
the source analysis states two inconsistent conditions (step-size rule with
and without the (1+kappa) numerator; clip threshold with and without the
1/gamma factor), the validator records both and enforces the stricter one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objectives import Dataset, Objective, full_gradient, full_loss


@dataclass(frozen=True)
class ProblemConstants:
    """Problem-level quantities entering the bounds; all nonnegative, L > 0."""

    L: float
    gap0: float  # F(x0) - F*
    grad0_sq: float  # ||grad F(x0)||^2
    sigma_sgd_sq: float = 0.0
    G: float | None = None
    dim: int = 1

    def __post_init__(self) -> None:
        if self.L <= 0:
            raise ValueError("smoothness L must be > 0")
        if min(self.gap0, self.grad0_sq, self.sigma_sgd_sq) < 0:
            raise ValueError("problem constants must be >= 0")
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")


@dataclass(frozen=True)
class BoundConstants:
    m_gamma: float
    m_one: float
    beta: float
    contraction: float  # filter-error contraction factor; beta needs it < 1


class ParameterConditionError(ValueError):
    """A step-size/filter-weight combination falls outside the valid region."""


def convergence_constants(
    eta: float, kappa: float, gamma: float, L: float
) -> BoundConstants:
    """Evaluate the bound constants (m_gamma, m_one, beta, contraction).

    Raises when the filter-error contraction fails (beta's denominator
    1 - (1-kappa)^2 (1 + 4 eta^2 L^2 + |1+gamma|(kappa + 2 eta^2 L^2 m_gamma))
    is not positive), i.e. kappa is too small for this eta.
    """
    if not 0 < kappa <= 1:
        raise ParameterConditionError("kappa must lie in (0, 1]")
    if gamma == 0:
        raise ParameterConditionError("gamma must be nonzero")
    if eta <= 0 or L <= 0:
        raise ParameterConditionError("need eta > 0 and L > 0")
    lead = abs(1.0 + gamma)
    m_gamma = 1.0 + 4.0 * (2.0 + 1.0 / kappa + lead) / gamma**2
    A = (1.0 - kappa) ** 2 * (
        1.0 + 4.0 * eta**2 * L**2 + lead * (kappa + 2.0 * eta**2 * L**2 * m_gamma)
    )
    denom = 1.0 - A
    if kappa == 1.0:
        beta = 0.0
    else:
        if denom <= 0:
            raise ParameterConditionError(
                f"kappa too small for this eta: contraction factor {A:.6g} >= 1"
            )
        beta = (eta * (1.0 - kappa) / 2.0 + eta**2 * L * A) / denom
    m_one = (1.0 + kappa - 2.0 * eta * L) - 4.0 * (beta + eta**2 * L) * (
        1.0 - kappa
    ) ** 2 * L**2 * eta * (2.0 + lead * m_gamma)
    return BoundConstants(m_gamma=m_gamma, m_one=m_one, beta=beta, contraction=A)


def parameter_report(eta: float, kappa: float, gamma: float, L: float) -> dict:
    """Validity flags for a parameter setting, naming each condition.

    Two step-size ceilings are recorded: the looser one carries a (1+kappa)
    numerator, the stricter one does not; ``eta_valid`` enforces the stricter.
    The two clip-threshold multipliers (with and without the 1/gamma factor)
    are both reported; callers wanting a guarantee should satisfy the larger.
    """
    report: dict = {"eta": eta, "kappa": kappa, "gamma": gamma, "L": L}
    try:
        consts = convergence_constants(eta, kappa, gamma, L)
    except ParameterConditionError as exc:
        report.update(valid=False, reason=str(exc))
        return report
    lead = abs(1.0 + gamma)
    A = consts.contraction
    brake = 2.0 * L * (
        1.0 + 2.0 * (1.0 - kappa) ** 2 * consts.beta * L * (2.0 + lead * consts.m_gamma)
    )
    eta_max_loose = (1.0 + kappa) / brake
    eta_max_strict = 1.0 / brake
    # Two stated clip-threshold multipliers (with and without the 1/gamma
    # factor); they agree only at gamma = 1. Both are surfaced verbatim and
    # the enforced value is the stricter (larger) of the two.
    clip_mult_plain = 1.0 + 2.0 * (1.0 - kappa) / kappa
    clip_mult_gamma = 1.0 + 2.0 * (1.0 - kappa) / (kappa * gamma)
    report.update(
        m_gamma=consts.m_gamma,
        m_one=consts.m_one,
        beta=consts.beta,
        contraction=A,
        kappa_condition=A < 1.0,
        eta_max_loose=eta_max_loose,
        eta_max_strict=eta_max_strict,
        eta_condition_loose=eta < eta_max_loose,
        eta_condition_strict=eta < eta_max_strict,
        m_one_positive=consts.m_one > 0,
        clip_multiplier=max(clip_mult_plain, clip_mult_gamma),
        clip_multiplier_plain=clip_mult_plain,
        clip_multiplier_lookahead=clip_mult_gamma,
        valid=A < 1.0 and eta < eta_max_strict and consts.m_one > 0,
    )
    return report


@dataclass(frozen=True)
class Thm2Bound:
    total: float
    transient: float  # vanishes like 1/T
    noise_floor: float


def convergence_bound(
    pc: ProblemConstants,
    eta: float,
    kappa: float,
    gamma: float,
    T: int,
    B: int,
    sigma_dp: float,
) -> Thm2Bound:
    """Worst-case bound on the running average of ||grad F||^2:

        2 (gap0 + beta ||grad F(x0)||^2) / (m_one eta T)
        + 2 (beta + eta^2 L) kappa^2 / (m_one eta)
          * ( (2 + |1+gamma|) sigma_sgd^2 / B + d sigma_dp^2 )
    """
    consts = convergence_constants(eta, kappa, gamma, pc.L)
    if consts.m_one <= 0:
        raise ParameterConditionError("m_one must be positive for a valid bound")
    transient = 2.0 * (pc.gap0 + consts.beta * pc.grad0_sq) / (consts.m_one * eta * T)
    lead = abs(1.0 + gamma)
    noise = (
        2.0
        * (consts.beta + eta**2 * pc.L)
        * kappa**2
        / (consts.m_one * eta)
        * ((2.0 + lead) * pc.sigma_sgd_sq / B + pc.dim * sigma_dp**2)
    )
    return Thm2Bound(total=transient + noise, transient=transient, noise_floor=noise)


@dataclass(frozen=True)
class TunedParams:
    eta: float
    beta: float
    kappa: float
    m_kappa: float
    B_min: int
    T_min: float
    T_ok: bool


def curvature_ratio(pc: ProblemConstants) -> float:
    """m_kappa = ||grad F(x0)||^2 / (2 L (F(x0) - F*)), at most 1 by smoothness."""
    if pc.gap0 <= 0:
        raise ValueError("need a positive initial optimality gap")
    return pc.grad0_sq / (2.0 * pc.L * pc.gap0)


def tuned_params(pc: ProblemConstants, sigma_dp: float, T: int) -> TunedParams:
    """Parameter rule for the gamma = -1 configuration.

    Evaluates the step-size min-rule, kappa = m_kappa L eta, the beta value,
    the minimum batch size, and the minimum horizon; flags T below it. beta is
    ``convergence_constants``' at gamma = -1, where the |1+gamma| terms vanish.
    """
    if sigma_dp <= 0:
        raise ValueError("the tuned rule needs sigma_dp > 0")
    m_kappa = curvature_ratio(pc)
    L, d = pc.L, pc.dim
    eta = min(
        1.0 / (L * (2.0 + 4.0 / m_kappa - m_kappa)),
        (1.0 / (m_kappa * L))
        * math.sqrt(
            (2.0 * m_kappa * L * pc.gap0 + pc.grad0_sq) / (2.0 * T * d * sigma_dp**2)
        ),
    )
    kappa = min(m_kappa * L * eta, 1.0)
    beta = convergence_constants(eta, kappa, -1.0, L).beta
    B_min = max(1, math.ceil(2.0 * pc.sigma_sgd_sq / (d * sigma_dp**2)))
    T_min = (
        2.0 * L * pc.gap0 * (16.0 / m_kappa**3 + 16.0 / m_kappa**2 - 4.0 / m_kappa - 4.0)
        + pc.grad0_sq
    ) / (d * sigma_dp**2)
    return TunedParams(
        eta=eta, beta=beta, kappa=kappa, m_kappa=m_kappa,
        B_min=B_min, T_min=T_min, T_ok=T >= T_min,
    )


def tuned_bound(pc: ProblemConstants, sigma_dp: float, T: int) -> float:
    """Bound under the tuned rule: 8 sqrt(m_kappa L gap0 d sigma_dp^2 / T)."""
    m_kappa = curvature_ratio(pc)
    return 8.0 * math.sqrt(m_kappa * pc.L * pc.gap0 * pc.dim * sigma_dp**2 / T)


def privacy_utility_bound(
    pc: ProblemConstants, N: int, epsilon: float, delta: float, C: float
) -> tuple[float, float]:
    """Utility at a fixed (epsilon, delta) budget with the prescribed horizon.

    Returns (bound, T): T = sqrt(2) N eps / (C sqrt(d ln(1/delta))) and

        bound = 4 C sqrt(2 m_kappa L gap0 d ln(1/delta)) / (N eps).
    """
    if N < 1 or epsilon <= 0 or not 0 < delta < 1 or C <= 0:
        raise ValueError("need N >= 1, epsilon > 0, delta in (0,1), C > 0")
    m_kappa = curvature_ratio(pc)
    log_term = math.log(1.0 / delta)
    T = math.sqrt(2.0) * N * epsilon / (C * math.sqrt(pc.dim * log_term))
    bound = (
        4.0 * C * math.sqrt(2.0 * m_kappa * pc.L * pc.gap0 * pc.dim * log_term)
        / (N * epsilon)
    )
    return bound, T


def estimate_f_star(
    obj: Objective, dataset: Dataset, x0: np.ndarray, steps: int = 100_000
) -> tuple[float, bool]:
    """(min value, is_estimate): exact for quadratics and linear regression,
    else a long deterministic full-batch descent at eta = 1/L."""
    if hasattr(obj, "f_star"):
        return float(obj.f_star()), False
    if obj.kind == "linear-regression":
        x_star, *_ = np.linalg.lstsq(dataset.X, dataset.y, rcond=None)
        return full_loss(obj, x_star, dataset), False
    L = obj.smoothness(dataset)
    if L is None or L <= 0:
        raise ValueError("need a smoothness constant to estimate the minimum")
    eta = 1.0 / L
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(steps):
        x = x - eta * full_gradient(obj, x, dataset)
    return full_loss(obj, x, dataset), True


def problem_constants_for(
    obj: Objective, dataset: Dataset, x0: np.ndarray,
    sigma_sgd_sq: float = 0.0, f_star: float | None = None,
) -> ProblemConstants:
    """Assemble bound inputs from an objective/dataset/start triple."""
    L = obj.smoothness(dataset)
    if L is None or L <= 0:
        raise ValueError("objective does not expose an exact smoothness constant")
    if f_star is None:
        f_star, _ = estimate_f_star(obj, dataset, x0)
    (loss0,), (g0,) = obj.evaluate([x0], dataset.X, dataset.y)  # padded: the bits train reports
    return ProblemConstants(
        L=L,
        gap0=float(loss0) - f_star,
        grad0_sq=float(g0 @ g0),
        sigma_sgd_sq=sigma_sgd_sq,
        dim=obj.dim,
    )
