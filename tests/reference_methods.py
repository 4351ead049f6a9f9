"""Reference methods the test suite checks the package against.

``dpsgd_reference_step``, ``nag_step`` and ``storm_step`` are the methods the
filtered optimizer reduces to; ``per_sample_loss`` is the one-sample loss
(``evaluate`` on a one-row array) the finite-difference gradient oracles
difference, and ``per_sample_grad`` the one-sample analytic gradient of a
``sample_of`` a dataset. ``logistic_sigmoid_neg``, ``logistic_loss`` and ``logistic_weights``
are the logistic formulas in their first form, each allocating its result, and
``logistic_evaluate`` the logistic ``evaluate`` rebuilt from them as a row
loop. ``filter_min_eig`` steps the covariance that
``kalman.simulate_estimation`` advances. ``compare_filters_reference`` is
``harness.compare_filters`` as one run per (seed, level, method), each
drawing its own noise rows and ending in ``full_loss``: the loop that the
stacked runs replaced. ``sweep_reference`` is ``harness.sweep_kappa_gamma``
as that loop was before a seed's runs stepped as one stack: each distinct
run alone (``run_alone``), on its own noise draw and minibatch stream, ending
in ``full_loss``. ``require_finite_reference`` is ``disk._require_finite``
before its fast path for plain floats and ints. ``calibrate_gaussian`` and its
helpers are the analytic Gaussian mechanism (Balle & Wang, arXiv 1805.06530),
which acceptance criterion 9 checks; every command calibrates through the RDP
accountant instead. ``_int_in``, ``_positive_float``, ``_unit_float`` and
``_float_list`` are the CLI's argument types before ``cli._number`` replaced
them, and ``optimizer_flag`` is what ``--eta``, ``--kappa`` and ``--gamma``
accepted then: any float, refused only by ``DiskConfig`` once the run began.
Nothing in ``dpkf`` calls them.
"""

import argparse
import itertools
import math
import numbers
from dataclasses import fields, replace

import numpy as np

from dpkf import seeding
from dpkf.disk import DiskConfig, DiskState, _observe, disk_step, noise_rows
from dpkf.harness import (COMPARISON_METHODS, PRESETS, ComparisonRow, build_problem,
                          comparison_noise_levels, resolve_optimizer, _run_key)
from dpkf.kalman import LinearSystem, kf_correct, kf_predict
from dpkf.objectives import (
    EVAL_BLOCK,
    Dataset,
    LinearRegression,
    Objective,
    full_gradient,
    full_loss,
    gen_linear_regression,
    minibatches,
    one_blas_thread,
)
from dpkf.privacy import PrivacyBudget, PrivacyError

Sample = tuple[np.ndarray, float]


def sample_of(dataset: Dataset, i: int) -> Sample:
    """Row ``i`` of a dataset as (features, target)."""
    return dataset.X[i], float(dataset.y[i])


def per_sample_loss(obj: Objective, x: np.ndarray, sample: Sample) -> float:
    """f(x; xi) for one sample: ``evaluate``'s loss on the one-row dataset."""
    feature, target = sample
    feature = np.atleast_2d(np.asarray(feature, dtype=float))
    return float(obj.evaluate([x], feature, np.array([target]))[0][0])


def per_sample_grad(obj: Objective, x: np.ndarray, sample: Sample) -> np.ndarray:
    """Exact analytic gradient of f(x; xi) for one sample."""
    feature, target = sample
    feature = np.atleast_2d(np.asarray(feature, dtype=float))
    return obj.per_sample_grads(x, feature, np.array([target]))[0]


def logistic_sigmoid_neg(m: np.ndarray, e: np.ndarray) -> np.ndarray:
    """sigmoid(-m) from e = exp(-|m|): where(m >= 0, e, 1) / (1 + e)."""
    return np.where(m >= 0, e, 1.0) / (1.0 + e)


def logistic_loss(m: np.ndarray, e: np.ndarray) -> np.ndarray:
    """log(1 + exp(-m)) from e = exp(-|m|): log1p(e) + max(-m, 0), numpy's
    ``logaddexp(0, -m)`` formula."""
    return np.log1p(e) + np.maximum(-m, 0.0)


def logistic_weights(m: np.ndarray, e: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d loss_i / d <a_i, x> from e = exp(-|m|): -y sigmoid(-m)."""
    return -y * logistic_sigmoid_neg(m, e)


def logistic_evaluate(xs: np.ndarray, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Logistic ``evaluate`` at the k rows of ``xs`` from the formulas above:
    the same padded margin and gradient products, and each row's e, loss and
    weights allocated afresh."""
    k = len(xs)
    XS = np.zeros((EVAL_BLOCK, X.shape[1]))
    XS[:k] = xs
    with one_blas_thread():
        W = XS @ X.T * y
        losses = np.empty(k)
        for i in range(k):
            e = np.exp(-np.abs(W[i]))
            losses[i] = logistic_loss(W[i], e).mean()
            W[i] = logistic_weights(W[i], e, y)
        return losses, (W @ X)[:k] / len(X)


def require_finite_reference(cfg) -> None:
    """Refuse a value of a config's float field that is not a real number (a
    bool, a string, None), or is NaN or infinite; only a ``float | None``
    field may hold None. Every value takes the ``numbers.Real`` check."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if "float" not in str(f.type) or (value is None and "None" in str(f.type)):
            continue
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
            if not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {value!r}")


def dpsgd_reference_step(state: DiskState, batch, obj: Objective, cfg: DiskConfig, noise) -> DiskState:
    """Plain DP-SGD written out: the clipped, averaged, noised observation at x,
    then x - eta g, whatever ``cfg.kappa`` and ``cfg.base`` say."""
    g = _observe(obj, state.x, batch, cfg, noise, state.t)
    x_new = state.x - cfg.eta * g
    return DiskState._successor(x_new, g, x_new - state.x, state.moments, state.t + 1)


@one_blas_thread()
def compare_filters_reference(noise_levels=None, seeds=(0, 1, 2, 3, 4), n=1000, p=20, T=400,
                              kappa=0.5) -> list[ComparisonRow]:
    """``harness.compare_filters`` one run at a time, in row order."""
    rows = []
    for seed in seeds:
        ds = gen_linear_regression(n, p, noise_std=0.1, seed=seed)
        if noise_levels is None:
            noise_levels = comparison_noise_levels(ds)
        obj = LinearRegression(p)
        eta = 1.0 / obj.smoothness(ds)
        for sigma in noise_levels:
            shared = DiskConfig(kappa=kappa, gamma=-1.0, eta=eta, clip=None,
                                clip_variant="none", sigma_dp=sigma, base="sgd")
            for method in COMPARISON_METHODS:
                cfg = replace(shared, **PRESETS[method].overrides)
                rng = seeding.substream(seed, seeding.DP_NOISE, f"sigma={sigma!r}")
                state = DiskState(x=np.zeros(p))
                for noise in noise_rows(rng, sigma, p, T):
                    state = disk_step(state, ds, obj, cfg, noise)
                rows.append(ComparisonRow(sigma, method, seed, full_loss(obj, state.x, ds)))
    return rows


def run_alone(cfg, opt: DiskConfig, seed: int, problem) -> DiskState:
    """The last state of one run of ``problem`` stepped with ``opt`` (the
    preset applied) from a 1-D state: its own noise draw and minibatch stream,
    and full-kf's (k_t, gamma) a step."""
    obj, ds = problem
    full_batch = cfg.batch_size(ds.n) == ds.n
    noise_rng = seeding.substream(seed, seeding.DP_NOISE)
    batches = None if full_batch else minibatches(ds.n, cfg.B, seed)
    gains = (cfg.full_filter.gains() if cfg.algorithm == "full-kf"
             else itertools.repeat((opt.kappa, opt.gamma)))
    state = DiskState(x=obj.init_point(seed, cfg.init_scale))
    for noise, (kappa, gamma) in zip(noise_rows(noise_rng, opt.sigma_dp, obj.dim, cfg.T), gains):
        batch = ds if full_batch else ds.subset(next(batches))
        state = disk_step(state, batch, obj, opt, noise, kappa, gamma)
    return state


@one_blas_thread()
def sweep_reference(kappas, gammas, cfg) -> list[list[float]]:
    """``harness.sweep_kappa_gamma`` one distinct run at a time, cell by cell."""
    problems = {s: build_problem(cfg.objective, s, batch_floor=cfg.B) for s in cfg.seeds}
    opt, _, _ = resolve_optimizer(cfg, problems[cfg.seeds[0]][1].n)
    runs: dict = {}
    matrix = []
    for kappa in kappas:
        row = []
        for gamma in gammas:
            cell = replace(replace(opt, kappa=kappa, gamma=gamma), **PRESETS[cfg.algorithm].overrides)
            key = _run_key(cfg, cell)
            if key not in runs:
                vals = [full_loss(problems[s][0], run_alone(cfg, cell, s, problems[s]).x, problems[s][1])
                        for s in cfg.seeds]
                runs[key] = float(np.mean(vals))
            row.append(runs[key])
        matrix.append(row)
    return matrix


def nag_step(
    x: np.ndarray,
    m: np.ndarray,
    mu: float,
    eta: float,
    obj: Objective,
    dataset: Dataset,
) -> tuple[np.ndarray, np.ndarray]:
    """Lookahead-momentum step:

        m' = mu m + eta grad F(x - (mu/eta) m);   x' = x - m'

    The gradient is evaluated at the momentum-extrapolated point; mu = 0 gives
    plain gradient descent.
    """
    lookahead = x - (mu / eta) * m if mu != 0 else x
    m_new = mu * m + eta * full_gradient(obj, lookahead, dataset)
    return x - m_new, m_new


def storm_step(
    x: np.ndarray,
    x_prev: np.ndarray,
    m: np.ndarray,
    alpha: float,
    eta: float,
    obj: Objective,
    sample,
) -> tuple[np.ndarray, np.ndarray]:
    """Recursive variance-reduced momentum step:

        m' = (1-alpha) m + alpha grad f(x; xi)
             + (1-alpha) (grad f(x; xi) - grad f(x_prev; xi))
        x' = x - eta m'

    alpha = 1 is plain SGD on the sampled gradient.
    """
    g_here = per_sample_grad(obj, x, sample)
    g_prev = per_sample_grad(obj, x_prev, sample)
    m_new = (1.0 - alpha) * m + alpha * g_here + (1.0 - alpha) * (g_here - g_prev)
    return x - eta * m_new, m_new


def filter_min_eig(sys: LinearSystem, steps: int) -> float:
    """Smallest eigenvalue of P over ``steps`` predict/correct steps from
    P = I, as ``simulate_estimation`` runs them; P does not depend on the data."""
    theta, P, low = np.zeros(sys.state_dim), np.eye(sys.state_dim), math.inf
    for _ in range(steps):
        theta, P, _ = kf_correct(*kf_predict(theta, P, sys, 0.0), sys, np.zeros(sys.obs_dim))
        low = min(low, float(np.linalg.eigvalsh(P)[0]))
    return low


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


def _int_in(lo: int, hi: float = math.inf):
    """Argument type: an integer in [lo, hi]."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if not lo <= value <= hi:
            span = f">= {lo}" if hi == math.inf else f"in {lo}..{hi}"
            raise argparse.ArgumentTypeError(f"must be {span}, got {value}")
        return value

    return parse


def _positive_float(text: str) -> float:
    """Argument type: a finite float > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _unit_float(hi_closed: bool):
    """Argument type: a float in (0, 1], or in (0, 1) unless ``hi_closed``."""
    span = "(0, 1]" if hi_closed else "(0, 1)"

    def parse(text: str) -> float:
        value = _positive_float(text)
        if value > 1 or value == 1 and not hi_closed:
            raise argparse.ArgumentTypeError(f"must lie in {span}, got {text}")
        return value

    return parse


def _float_list(ok, rule: str):
    """Argument type: a comma-separated list of finite floats, each passing
    ``ok``; ``rule`` says what ``ok`` asks, as in "each value must {rule}"."""

    def parse(text: str) -> list[float]:
        try:
            values = [float(v) for v in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected numbers, got {text!r}") from None
        if not all(map(math.isfinite, values)):
            raise argparse.ArgumentTypeError(f"each value must be finite, got {text}")
        if not all(map(ok, values)):
            raise argparse.ArgumentTypeError(f"each value must {rule}, got {text}")
        return values

    return parse


def optimizer_flag(key: str):
    """Argument type: ``float``, then ``DiskConfig``'s check of ``key``, its
    ``ValueError`` raised as an ``ArgumentTypeError``."""

    def parse(text: str) -> float:
        try:
            value = float(text)
            DiskConfig(**{key: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return parse
