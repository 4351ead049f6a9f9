"""Kalman filtering: the classic predict/correct recursion (which the
``kalman-demo`` simulation runs), a gain variant for noisy inputs with
multiplicative observation noise, and the scalar-gain simplification chain
with its closed-form fixed point.

Covariances are symmetrised by each predict/correct step and whenever a
``KalmanState`` is built, and the innovation solve checks positive
definiteness and conditioning from the eigenvalues before it solves;
ill-conditioning is surfaced, never silently regularised. The state
dimension of a ``LinearSystem`` is capped at 64: the point of the scalar
chain is precisely that the O(d^3) filter does not scale, so the cap keeps
usage at demonstration scale. ``disk.full_filter_step`` (the
``full-kf`` algorithm) runs the scalar chain, ``scalar_gain_step``, at any
dimension.

Out of scope by design: nonlinear-system variants (extended/unscented filters)
and state-space constructions that track the iterate or Hessian entries as
filter state; those need non-diagonal gains and bring back the cubic cost this
package exists to avoid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import seeding

MAX_STATE_DIM = 64
COND_LIMIT = 1e12


class NumericalError(RuntimeError):
    """Innovation covariance unusable (singular or not positive definite)."""


def _symmetrize(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def _as_cov(M, dim: int, name: str) -> np.ndarray:
    """Accept a scalar (meaning scalar * I) or a full symmetric PSD matrix."""
    if np.isscalar(M):
        if M < 0:
            raise ValueError(f"{name} must be >= 0")
        return float(M) * np.eye(dim)
    M = np.asarray(M, dtype=float)
    if M.shape != (dim, dim):
        raise ValueError(f"{name} must be {dim}x{dim}")
    if not np.allclose(M, M.T, atol=1e-10):
        raise ValueError(f"{name} must be symmetric")
    if np.linalg.eigvalsh(_symmetrize(M))[0] < -1e-10:
        raise ValueError(f"{name} must be positive semi-definite")
    return _symmetrize(M)


def _spd_solve(M: np.ndarray, B: np.ndarray, context: str) -> np.ndarray:
    """Solve M X = B for symmetric positive-definite M, checking conditioning."""
    M = _symmetrize(M)
    eigs = np.linalg.eigvalsh(M)
    if eigs[0] <= 0:
        raise NumericalError(
            f"{context}: matrix not positive definite (min eigenvalue {eigs[0]:.6g})"
        )
    if eigs[-1] / eigs[0] > COND_LIMIT:
        raise NumericalError(
            f"{context}: matrix numerically singular "
            f"(condition number {eigs[-1] / eigs[0]:.3g} > {COND_LIMIT:g})"
        )
    return np.linalg.solve(M, B)


@dataclass
class LinearSystem:
    """theta_t = A theta_{t-1} + u_t + v_t;  psi_t = C theta_t + w_t."""

    A: np.ndarray
    C_obs: np.ndarray
    Sigma_v: np.ndarray
    Sigma_w: np.ndarray

    def __post_init__(self) -> None:
        self.A = np.asarray(self.A, dtype=float)
        self.C_obs = np.asarray(self.C_obs, dtype=float)
        d = self.A.shape[0]
        if self.A.shape != (d, d):
            raise ValueError("transition matrix must be square")
        if d > MAX_STATE_DIM:
            raise ValueError(f"full-matrix filter is capped at dim <= {MAX_STATE_DIM}")
        if self.C_obs.shape[1] != d:
            raise ValueError("observation matrix has inconsistent state dimension")
        self.Sigma_v = _as_cov(self.Sigma_v, d, "Sigma_v")
        self.Sigma_w = _as_cov(self.Sigma_w, self.C_obs.shape[0], "Sigma_w")
        self._eye = np.eye(d)  # kf_correct's I, built once

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def obs_dim(self) -> int:
        return self.C_obs.shape[0]


@dataclass
class KalmanState:
    theta: np.ndarray
    P: np.ndarray
    K: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.theta = np.asarray(self.theta, dtype=float)
        self.P = _symmetrize(np.asarray(self.P, dtype=float))


def _predict(theta, P, sys: LinearSystem, u):
    return theta @ sys.A.T + u, _symmetrize(sys.A @ P @ sys.A.T + sys.Sigma_v)


def _correct(theta, P, sys: LinearSystem, psi):
    C = sys.C_obs
    S = C @ P @ C.T + sys.Sigma_w
    # K = P C^T S^{-1}  ==  (S^{-1} C P)^T since P is symmetric
    K = _spd_solve(S, C @ P, "innovation covariance").T
    return theta + (psi - theta @ C.T) @ K.T, _symmetrize((sys._eye - K @ C) @ P), K


def kf_predict(state: KalmanState, sys: LinearSystem, u: np.ndarray) -> KalmanState:
    """Time update of one state, or of a stack with one state per row:
    theta' = A theta + u; P' = A P A^T + Sigma_v."""
    theta, P = _predict(state.theta, state.P, sys, np.asarray(u, dtype=float))
    return replace(state, theta=theta, P=P)


def kf_correct(state: KalmanState, sys: LinearSystem, psi: np.ndarray) -> KalmanState:
    """Measurement update with gain K = P C^T (C P C^T + Sigma_w)^{-1}."""
    theta, P, K = _correct(state.theta, state.P, sys, np.asarray(psi, dtype=float))
    return KalmanState(theta=theta, P=P, K=K)


def kf_gain_multiplicative(
    P_pred: np.ndarray,
    E_C: np.ndarray,
    Sigma_C_term: np.ndarray | float,
    sigma_w_sq: float,
    Sigma_H: np.ndarray | float,
) -> np.ndarray:
    """Gain for a noisy-input system with random observation matrix:

        K = P_pred E_C^T ( E_C (P_pred + Sigma_C_term) E_C^T
                           + sigma_w^2 I - Sigma_H )^{-1}

    ``Sigma_C_term`` carries the observation-matrix covariance contribution
    (its product with the second-moment matrix of the estimate); with E_C = I,
    Sigma_C_term = 0 and Sigma_H = 0 this collapses to the standard gain.
    """
    P_pred = np.asarray(P_pred, dtype=float)
    d = P_pred.shape[0]
    E_C = np.asarray(E_C, dtype=float)
    Sigma_C_term = _as_cov(Sigma_C_term, d, "Sigma_C_term")
    Sigma_H = _as_cov(Sigma_H, d, "Sigma_H")
    M = E_C @ (P_pred + Sigma_C_term) @ E_C.T + sigma_w_sq * np.eye(d) - Sigma_H
    # K = P E^T M^{-1} == (M^{-1} E P)^T by symmetry of P and M
    return _spd_solve(_symmetrize(M), E_C @ P_pred, "gain bracket").T


# ---------------------------------------------------------------------------
# Scalar-gain simplification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarGainState:
    """State of the isotropic-covariance recursion: p_t and the gain k_t."""

    p: float
    k: float
    sigma_h_sq: float
    sigma_v_sq: float
    sigma_w_sq: float

    def __post_init__(self) -> None:
        if self.p < 0:
            raise ValueError("p must be >= 0")
        if min(self.sigma_h_sq, self.sigma_v_sq, self.sigma_w_sq) < 0:
            raise ValueError("noise levels must be >= 0")
        if self.sigma_w_sq < self.sigma_h_sq:
            raise ValueError("need sigma_w^2 >= sigma_h^2 (p would turn negative)")


def scalar_gain_step(s: ScalarGainState) -> ScalarGainState:
    """One recursion step:

        k' = (p + sh2 + sv2) / (p + sw2 + sv2)
        p' = (sw2 - sh2) (p + sh2 + sv2) / (p + sw2 + sv2)
    """
    denom = s.p + s.sigma_w_sq + s.sigma_v_sq
    if denom == 0:
        raise ValueError("degenerate recursion: p + sigma_w^2 + sigma_v^2 = 0")
    numer = s.p + s.sigma_h_sq + s.sigma_v_sq
    k = numer / denom
    p = (s.sigma_w_sq - s.sigma_h_sq) * numer / denom
    return ScalarGainState(p, k, s.sigma_h_sq, s.sigma_v_sq, s.sigma_w_sq)


@dataclass(frozen=True)
class ScalarFixedPoint:
    p_inf: float
    k_inf: float
    c_k: float
    contraction: float  # exact local rate |phi'(p_inf)| of the p-recursion


def scalar_fixed_point(
    sigma_h_sq: float, sigma_v_sq: float, sigma_w_sq: float
) -> ScalarFixedPoint:
    """Closed-form limit of the scalar recursion and its geometric rate:

        p_inf = ( sqrt(sh2+sv2) sqrt(4 sw2 - 3 sh2 + sv2) - (sh2+sv2) ) / 2
        k_inf = (p_inf + sh2 + sv2) / (p_inf + sw2 + sv2)
        c_k   = (2 sw2 + 3 sh2 + sv2 - R) / (2 sw2 + 3 sh2 + sv2 + R),
                R = sqrt((sv2+sh2)(4 sw2 + sv2 - 3 sh2))

    c_k lies in (0,1) whenever 4 sw2 + sv2 > 3 sh2 and sv2 + sh2 > 0, and
    bounds the decay of |k_t - k_inf| from above. The recursion is a Moebius
    map; its exact local rate is the eigenvalue ratio with 2 sw2 - sh2 + sv2
    in place of the 2 sw2 + 3 sh2 + sv2 base, returned as ``contraction``.
    The two coincide when sh2 = 0.
    """
    if min(sigma_h_sq, sigma_v_sq, sigma_w_sq) < 0:
        raise ValueError("noise levels must be >= 0")
    if sigma_w_sq < sigma_h_sq:
        raise ValueError("need sigma_w^2 >= sigma_h^2")
    disc = 4.0 * sigma_w_sq - 3.0 * sigma_h_sq + sigma_v_sq
    if disc < 0:
        raise ValueError("need 4 sigma_w^2 + sigma_v^2 >= 3 sigma_h^2")
    s = sigma_h_sq + sigma_v_sq
    p_inf = 0.5 * (math.sqrt(s) * math.sqrt(disc) - s)
    denom = p_inf + sigma_w_sq + sigma_v_sq
    k_inf = (p_inf + s) / denom if denom > 0 else 0.0
    root = math.sqrt(s * disc)
    base = 2.0 * sigma_w_sq + 3.0 * sigma_h_sq + sigma_v_sq
    c_k = (base - root) / (base + root) if base + root > 0 else 1.0
    rate_base = 2.0 * sigma_w_sq - sigma_h_sq + sigma_v_sq
    contraction = (
        (rate_base - root) / (rate_base + root) if rate_base + root > 0 else 1.0
    )
    return ScalarFixedPoint(p_inf=p_inf, k_inf=k_inf, c_k=c_k, contraction=contraction)


# ---------------------------------------------------------------------------
# Estimator-quality simulation (best-linear-unbiased sanity check)
# ---------------------------------------------------------------------------


def random_stable_system(dim: int, seed: int, spectral_radius: float = 0.9) -> LinearSystem:
    """Random rotation-like dynamics scaled inside the unit circle, orthogonal
    observation, mild process noise, strong observation noise."""
    rng = seeding.substream(seed, seeding.SYSTEM)
    Q, R = np.linalg.qr(rng.standard_normal((dim, dim)))
    Q = Q @ np.diag(np.sign(np.diag(R)))  # fix QR sign convention
    A = spectral_radius * Q
    Qc, Rc = np.linalg.qr(rng.standard_normal((dim, dim)))
    C = Qc @ np.diag(np.sign(np.diag(Rc)))
    Mv = rng.standard_normal((dim, dim))
    Sigma_v = 0.1 * (Mv @ Mv.T) / dim + 0.05 * np.eye(dim)
    Mw = rng.standard_normal((dim, dim))
    Sigma_w = 1.0 * (Mw @ Mw.T) / dim + 0.5 * np.eye(dim)
    return LinearSystem(A=A, C_obs=C, Sigma_v=Sigma_v, Sigma_w=Sigma_w)


@dataclass
class EstimationRun:
    mse_raw: float
    mse_kf: float
    min_P_eig: float


def simulate_estimation(
    sys: LinearSystem, steps: int, runs: int, seed: int
) -> list[EstimationRun]:
    """Track ``runs`` independent trajectories of ``sys`` for ``steps`` steps.

    Compares the filter estimate against the raw observation mapped back
    through the observation pseudo-inverse. The system is shared across runs,
    so one state carries every run: the recursion of ``kf_predict`` and
    ``kf_correct`` advances its one P, with one row of theta per trajectory,
    as bare arrays (no ``KalmanState`` per step).
    """
    rng = seeding.substream(seed, seeding.SYSTEM, "trajectories")
    d, m = sys.state_dim, sys.obs_dim
    Lv = np.linalg.cholesky(sys.Sigma_v + 1e-15 * np.eye(d))
    Lw = np.linalg.cholesky(sys.Sigma_w + 1e-15 * np.eye(m))
    C_pinv = np.linalg.pinv(sys.C_obs)

    theta = np.zeros((runs, d))
    theta_kf, P = np.zeros((runs, d)), np.eye(d)
    sq_raw = np.zeros(runs)
    sq_kf = np.zeros(runs)
    min_eig = math.inf

    for _ in range(steps):
        theta = theta @ sys.A.T + rng.standard_normal((runs, d)) @ Lv.T
        psi = theta @ sys.C_obs.T + rng.standard_normal((runs, m)) @ Lw.T
        theta_kf, P, _ = _correct(*_predict(theta_kf, P, sys, 0.0), sys, psi)

        min_eig = min(min_eig, float(np.linalg.eigvalsh(P)[0]))
        sq_raw += ((psi @ C_pinv.T - theta) ** 2).sum(axis=1)
        sq_kf += ((theta_kf - theta) ** 2).sum(axis=1)

    return [
        EstimationRun(
            mse_raw=float(sq_raw[r] / steps),
            mse_kf=float(sq_kf[r] / steps),
            min_P_eig=min_eig,
        )
        for r in range(runs)
    ]
