"""Experiment orchestration: single training runs, the filter-comparison
benchmark on synthetic regression, (kappa, gamma) sweep grids, and
deterministic CSV/SVG emission.

A training run and a sweep cell step through one loop, ``_trajectory``:
``run_experiment`` evaluates and records every state, a sweep cell only its last.
The run evaluates its states as they arrive, ``EVAL_BLOCK`` at a time, through
``Objective.evaluate`` with one weight buffer, and stops at the first state
whose loss or gradient is not finite.

Runs are pure functions of their config and seed: datasets, minibatch order,
and DP noise each come from a named substream of the run's seed, so the full
pipeline (calibrate -> train -> emit) is byte-reproducible. Grid cells and
seeds touch disjoint state, yet run in sequence: a 2-thread pool over
``compare_filters``' 12 runs kept every bit but gained no wall time and took
1.5-2x the CPU, as its small numpy calls contend for the GIL.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from . import seeding, svgplot
from .disk import DiskConfig, DiskState, FullFilterConfig, disk_step, full_filter_step
from .kalman import random_stable_system, simulate_estimation
from .objectives import (
    EVAL_BLOCK,
    Dataset,
    LinearRegression,
    MinibatchSampler,
    Objective,
    full_gradient,
    full_loss,
    gen_classification,
    gen_linear_regression,
    make_objective,
)
from .privacy import (
    PrivacyError,
    calibrate_noise_multiplier,
    clip_sensitivity,
    delta_convention,
    spend_schedule,
)


class Preset(NamedTuple):
    """An algorithm as ``DiskConfig`` overrides on the run's optimizer settings."""

    overrides: dict
    full_batch: bool = False  # every step sees the whole dataset


# disk and noisy-kf are the same run. full-kf runs ``full_filter_step``, the
# same step with kappa set to the gain k_t; everything else runs ``disk_step``.
PRESETS = {
    "dpsgd": Preset({"kappa": 1.0, "base": "sgd"}),
    "disk": Preset({}),
    "noisy-gd": Preset({"kappa": 1.0, "base": "sgd", "clip_variant": "none"}, True),
    "noisy-lp": Preset({"two_point": False}),
    "noisy-kf": Preset({}),
    "full-kf": Preset({"filter_init": "zero"}),
}
ALGORITHMS = tuple(PRESETS)
# Optimizer keys a ``full_filter`` section may repeat, if it agrees.
SHARED_FILTER_KEYS = ("eta", "clip", "clip_variant", "sigma_dp", "base")
FULL_FILTER_KEYS = tuple(f.name for f in fields(FullFilterConfig))
TRACE_HEADER = "step,loss,grad_norm,filtered_grad_norm,epsilon_spent"
COMPARISON_HEADER = "sigma_dp,method,seed,final_loss"
SWEEP_HEADER = "kappa,gamma,metric"
RELATIVE_NOISE_GRID = (0.01, 0.03, 0.1, 0.3, 1.0)
# Top-level config keys; ``bounds`` reads the same files and the last two.
CONFIG_KEYS = ("objective", "algorithm", "optimizer", "privacy", "T", "B", "seed", "seeds",
               "outdir", "init_scale", "full_filter", "f_star_steps", "sigma_sgd_sq")
# Keys ``build_problem`` reads for each objective kind.
OBJECTIVE_KEYS = {
    "quadratic": {"kind", "dim", "eigenvalues", "x_star", "n"},
    "linear-regression": {"kind", "n", "p", "noise_std"},
    "logistic-regression": {"kind", "n", "p"},
    "mlp": {"kind", "n", "p", "noise_std", "hidden"},
}


@dataclass
class StepRecord:
    t: int
    loss: float
    grad_norm: float
    filtered_grad_norm: float
    epsilon_spent: float


@dataclass
class MetricsTrace:
    records: list[StepRecord]
    loss0: float
    grad0_norm: float
    seed: int

    @property
    def final_loss(self) -> float:
        return self.records[-1].loss

    @property
    def epsilon_total(self) -> float:
        return self.records[-1].epsilon_spent

    @property
    def mean_sq_grad_norm(self) -> float:
        """(1/T) sum_{t=0}^{T-1} ||grad F(x_t)||^2, the convergence bound's left
        side: x_0 and the rows before the last (row t holds x_t)."""
        tail = sum(r.grad_norm**2 for r in self.records[:-1])
        return (self.grad0_norm**2 + tail) / len(self.records)

    def csv_lines(self) -> list[str]:
        lines = [TRACE_HEADER]
        for r in self.records:
            lines.append(
                f"{r.t},{r.loss!r},{r.grad_norm!r},{r.filtered_grad_norm!r},"
                f"{r.epsilon_spent!r}"
            )
        return lines


@dataclass
class ExperimentConfig:
    objective: dict
    algorithm: str = "disk"
    optimizer: DiskConfig = field(default_factory=DiskConfig)
    epsilon_target: float | None = None
    delta: float | None = None
    T: int = 100
    B: int = 50
    seeds: tuple[int, ...] = (0,)
    outdir: str = "out"
    init_scale: float = 1.0
    full_filter: FullFilterConfig = field(default_factory=FullFilterConfig)
    _sigma_explicit: bool = True

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if self.T < 1 or self.B < 1:
            raise ValueError("need T >= 1 and B >= 1")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if (self.epsilon_target is not None) == self._sigma_explicit:
            raise ValueError(
                "set exactly one of: a privacy target (epsilon) or an explicit sigma_dp"
            )
        if self.algorithm == "noisy-gd" and self.epsilon_target is not None:
            raise PrivacyError("noisy-gd takes an explicit sigma_dp, not a privacy target")
        eps = self.epsilon_target
        if eps is not None and not (math.isfinite(eps) and eps > 0):
            raise PrivacyError(f"epsilon must be finite and > 0, got {eps!r}")
        if self.delta is not None and not 0 < self.delta < 1:
            raise PrivacyError(f"delta must lie in (0, 1), got {self.delta!r}")
        if not (math.isfinite(self.init_scale) and self.init_scale > 0):
            raise ValueError(f"init_scale must be finite and > 0, got {self.init_scale!r}")
        _check_objective(self.objective)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _reject_unknown_keys("config", raw, CONFIG_KEYS)
        opt_raw = dict(raw.get("optimizer", {}))
        sigma_explicit = "sigma_dp" in opt_raw
        optimizer = DiskConfig(**opt_raw)
        privacy_raw = raw.get("privacy") or {}
        _reject_unknown_keys("privacy", privacy_raw, ("epsilon", "delta"))
        ff = dict(raw.get("full_filter") or {})
        for key in SHARED_FILTER_KEYS:
            if key in ff and ff.pop(key) != getattr(optimizer, key):
                raise ValueError(f"full_filter.{key} disagrees with optimizer.{key}")
        _reject_unknown_keys("full_filter", ff, FULL_FILTER_KEYS + SHARED_FILTER_KEYS)
        return cls(
            objective=raw["objective"],
            algorithm=raw.get("algorithm", "disk"),
            optimizer=optimizer,
            epsilon_target=privacy_raw.get("epsilon"),
            delta=privacy_raw.get("delta"),
            T=raw.get("T", 100),
            B=raw.get("B", 50),
            seeds=config_seeds(raw),
            outdir=raw.get("outdir", "out"),
            init_scale=raw.get("init_scale", 1.0),
            full_filter=FullFilterConfig(**ff),
            _sigma_explicit=sigma_explicit,
        )


def config_seeds(raw: dict) -> tuple[int, ...]:
    """A raw config's seeds: ``seeds``, else ``[seed]``, else ``[0]``."""
    seeds = raw.get("seeds")
    return tuple(int(s) for s in ([raw.get("seed", 0)] if seeds is None else seeds))


def _check_objective(problem: dict) -> None:
    """Reject an objective dict with an unknown kind or a key its kind ignores."""
    kind = problem.get("kind")
    if kind not in OBJECTIVE_KEYS:
        raise ValueError(f"unknown objective kind: {kind!r}")
    _reject_unknown_keys(f"objective {kind!r}", problem, OBJECTIVE_KEYS[kind])


def _reject_unknown_keys(section: str, given, allowed) -> None:
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        raise ValueError(f"{section} has unknown keys {unknown}; allowed: {sorted(allowed)}")


def build_problem(problem: dict, seed: int, batch_floor: int = 1) -> tuple[Objective, Dataset]:
    """Instantiate the objective and its dataset for one seed."""
    _check_objective(problem)
    kind = problem["kind"]
    if kind == "quadratic":
        dim = problem["dim"]
        eigs = problem.get("eigenvalues")
        H = np.diag(np.asarray(eigs, dtype=float)) if eigs is not None else np.eye(dim)
        obj = make_objective("quadratic", dim, H=H, x_star=problem.get("x_star"))
        return obj, obj.placeholder_dataset(max(problem.get("n", batch_floor), batch_floor))
    n, p = problem["n"], problem["p"]
    if kind == "linear-regression":
        return LinearRegression(p), gen_linear_regression(
            n, p, problem.get("noise_std", 0.1), seed
        )
    if kind == "logistic-regression":
        return make_objective("logistic-regression", p), gen_classification(n, p, seed)
    if kind == "mlp":
        ds = gen_linear_regression(n, p, problem.get("noise_std", 0.1), seed)
        return make_objective("mlp", p, hidden=problem.get("hidden", 16)), ds


def _resolve_privacy(
    cfg: ExperimentConfig, N: int
) -> tuple[DiskConfig, float | None, float]:
    """Fill in sigma_dp from the target budget when requested.

    Returns (optimizer config, delta used for accounting, q). The accountant
    works on the noise multiplier z = sigma_dp * B / S, with S the clip
    sensitivity; the noise actually added to the batch-averaged clipped
    gradient has std z * S / B.
    """
    if cfg.B > N:
        raise ValueError("batch size exceeds dataset size")
    q = cfg.B / N
    delta = cfg.delta if cfg.delta is not None else (
        delta_convention(N) if N > 1 else None
    )
    opt = cfg.optimizer
    if cfg.epsilon_target is None:
        return opt, delta, q
    if opt.clip_variant == "none" or not opt.clip:
        raise PrivacyError("a privacy target requires an active clipping variant")
    if delta is None:
        raise PrivacyError("a privacy target needs delta (or N > 1 for the convention)")
    z = calibrate_noise_multiplier(cfg.epsilon_target, delta, q, cfg.T)
    sigma_dp = z * clip_sensitivity(opt.clip_variant, opt.clip) / cfg.B
    return replace(opt, sigma_dp=sigma_dp), delta, q


def _epsilon_schedule(cfg: ExperimentConfig, opt: DiskConfig, delta: float | None, q: float):
    """Budget spent after 1..T steps; inf when the run is not clipped/noised.
    A clipped run's batch is B rows: only noisy-gd's full batch is n != B."""
    opt = replace(opt, **PRESETS[cfg.algorithm].overrides)
    if opt.clip_variant == "none" or opt.sigma_dp <= 0 or delta is None:
        return (math.inf,) * cfg.T
    z = opt.sigma_dp * cfg.B / clip_sensitivity(opt.clip_variant, opt.clip)
    return spend_schedule(q, z, cfg.T, delta)


def _trajectory(cfg: ExperimentConfig, opt: DiskConfig, seed: int, problem):
    """The states x_0..x_T of one run of ``problem`` (``build_problem``'s pair),
    ``opt`` being its optimizer with sigma_dp resolved, before the preset."""
    obj, ds = problem
    preset = PRESETS[cfg.algorithm]
    opt = replace(opt, **preset.overrides)
    full_batch = preset.full_batch or cfg.B == ds.n
    noise_rng = seeding.substream(seed, seeding.DP_NOISE)
    sampler = None if full_batch else MinibatchSampler(ds.n, cfg.B, seed)
    ff = cfg.full_filter if cfg.algorithm == "full-kf" else None
    state = DiskState(x=obj.init_point(seed, cfg.init_scale))
    yield state
    for _ in range(cfg.T):
        batch = ds if full_batch else ds.subset(sampler.next_batch())
        if ff is None:
            state = disk_step(state, batch, obj, opt, noise_rng)
        else:
            state = full_filter_step(state, batch, obj, opt, ff, noise_rng)
        yield state


def run_experiment(
    cfg: ExperimentConfig,
    seed: int | None = None,
    problem: tuple[Objective, Dataset] | None = None,
) -> MetricsTrace:
    """Run one algorithm for T steps, recording every state; deterministic per seed.
    A state whose loss or gradient is not finite raises ``FloatingPointError``.

    ``problem`` is ``build_problem(cfg.objective, seed, cfg.B)``, passed in by
    callers that run one seed's problem more than once.
    """
    seed = cfg.seeds[0] if seed is None else seed
    if problem is None:
        problem = build_problem(cfg.objective, seed, batch_floor=cfg.B)
    obj, ds = problem
    opt, delta, q = _resolve_privacy(cfg, ds.n)
    eps_sched = _epsilon_schedule(cfg, opt, delta, q)
    states = _trajectory(cfg, opt, seed, problem)
    W = np.empty((EVAL_BLOCK, ds.n))  # a linear model's per-state coefficients, reused
    records: list[StepRecord] = []
    t = 0
    while block := list(itertools.islice(states, EVAL_BLOCK)):
        losses, grads = obj.evaluate([s.x for s in block], ds.X, ds.y, W)
        finite = np.isfinite(losses) & np.isfinite(grads).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise FloatingPointError(
                f"step {t + i}: non-finite evaluation, loss {float(losses[i])!r} and "
                f"{np.count_nonzero(~np.isfinite(grads[i]))} non-finite gradient components"
            )
        for state, loss, g in zip(block, losses.tolist(), grads):
            if t == 0:
                loss0, grad0_norm = loss, float(np.linalg.norm(g))
            else:
                records.append(StepRecord(
                    t, loss, float(np.linalg.norm(g)), float(np.linalg.norm(state.g_filt)),
                    eps_sched[t - 1],
                ))
            t += 1
    return MetricsTrace(records, loss0, grad0_norm, seed)


# ---------------------------------------------------------------------------
# Filter comparison on synthetic regression
# ---------------------------------------------------------------------------

COMPARISON_METHODS = ("noisy-gd", "noisy-lp", "noisy-kf")


@dataclass
class ComparisonRow:
    sigma_dp: float
    method: str
    seed: int
    final_loss: float


def comparison_noise_levels(
    n: int = 1000, p: int = 20, noise_std: float = 0.1, seed: int = 0, ds: Dataset | None = None
) -> list[float]:
    """Relative grid scaled by ||grad F(0)|| / sqrt(d) on the seed-0 dataset, ``ds`` if given."""
    ds = gen_linear_regression(n, p, noise_std, seed) if ds is None else ds
    obj = LinearRegression(ds.p)
    scale = float(np.linalg.norm(full_gradient(obj, np.zeros(ds.p), ds))) / math.sqrt(ds.p)
    return [r * scale for r in RELATIVE_NOISE_GRID]


def compare_filters(
    noise_levels: list[float] | None = None,
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
    n: int = 1000,
    p: int = 20,
    noise_std: float = 0.1,
    T: int = 400,
    kappa: float = 0.5,
) -> list[ComparisonRow]:
    """Final regression loss of three full-batch methods at each noise level.

    * noisy-gd: plain descent on the noised gradient,
    * noisy-lp: exponential filter on the single-point noised gradient,
    * noisy-kf: exponential filter on the two-point (gamma = -1) combination.

    Step size (1/L) and the per-step noise realisations are shared across
    methods, so differences isolate the filter. Deterministic per seed.
    """
    rows: list[ComparisonRow] = []
    for seed in seeds:
        ds = gen_linear_regression(n, p, noise_std, seed)
        if noise_levels is None:  # from the seeds[0] dataset
            noise_levels = comparison_noise_levels(ds=ds)
        obj = LinearRegression(p)
        eta = 1.0 / obj.smoothness(ds)
        x0 = np.zeros(p)
        for sigma in noise_levels:
            shared = DiskConfig(
                kappa=kappa, gamma=-1.0, eta=eta, clip=None, clip_variant="none",
                sigma_dp=sigma, base="sgd",
            )
            for method in COMPARISON_METHODS:
                cfg = replace(shared, **PRESETS[method].overrides)
                rng = seeding.substream(seed, seeding.DP_NOISE, f"sigma={sigma!r}")
                state = DiskState(x=x0.copy())
                for _ in range(T):
                    state = disk_step(state, ds, obj, cfg, rng)
                rows.append(
                    ComparisonRow(
                        sigma_dp=sigma,
                        method=method,
                        seed=seed,
                        final_loss=full_loss(obj, state.x, ds),
                    )
                )
    return rows


def aggregate_comparison(rows: list[ComparisonRow]) -> dict[tuple[float, str], float]:
    """Seed-averaged final loss per (noise level, method)."""
    sums: dict[tuple[float, str], list[float]] = {}
    for r in rows:
        sums.setdefault((r.sigma_dp, r.method), []).append(r.final_loss)
    return {key: float(np.mean(vals)) for key, vals in sums.items()}


# ---------------------------------------------------------------------------
# (kappa, gamma) sweep
# ---------------------------------------------------------------------------


def sweep_kappa_gamma(
    kappas: list[float], gammas: list[float], cfg: ExperimentConfig
) -> list[list[float]]:
    """Seed-averaged final loss for every grid cell; one run per (cell, seed).

    Cells differ only in kappa and gamma, so they share each seed's problem,
    built once, and one sigma_dp, calibrated once for a privacy target. A run
    records nothing on the way: its last state is evaluated once, by
    ``full_loss``, which gives the bits of ``run_experiment``'s ``final_loss``.
    """
    problems = {s: build_problem(cfg.objective, s, batch_floor=cfg.B) for s in cfg.seeds}
    opt, _, _ = _resolve_privacy(cfg, problems[cfg.seeds[0]][1].n)  # n is the same for every seed
    matrix: list[list[float]] = []
    for kappa in kappas:
        row = []
        for gamma in gammas:
            cell, vals = replace(opt, kappa=kappa, gamma=gamma), []
            for s in cfg.seeds:
                obj, ds = problems[s]
                for state in _trajectory(cfg, cell, s, (obj, ds)):
                    pass
                vals.append(full_loss(obj, state.x, ds))
            row.append(float(np.mean(vals)))
        matrix.append(row)
    return matrix


# ---------------------------------------------------------------------------
# Output emission
# ---------------------------------------------------------------------------


def _emit(outdir: str, stem: str, csv_lines: list[str], svg: str) -> list[str]:
    """Write ``stem``.csv and ``stem``.svg under ``outdir``; their paths."""
    paths = [os.path.join(outdir, f"{stem}.{ext}") for ext in ("csv", "svg")]
    os.makedirs(os.path.abspath(outdir), exist_ok=True)
    for path, text in zip(paths, ("\n".join(csv_lines) + "\n", svg)):
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    return paths


def emit_trace(trace: MetricsTrace, outdir: str, stem: str = "trace") -> list[str]:
    steps = [float(r.t) for r in trace.records]
    svg = svgplot.line_plot(
        {
            "loss": (steps, [r.loss for r in trace.records]),
            "grad_norm": (steps, [r.grad_norm for r in trace.records]),
        },
        title="training trace",
        xlabel="step",
        ylabel="value",
    )
    return _emit(outdir, stem, trace.csv_lines(), svg)


def read_trace_csv(path: str) -> MetricsTrace:
    """Parse a trace CSV; a ValueError names the file and line of a bad one."""
    with open(path) as fh:
        lines = [(i, ln.strip()) for i, ln in enumerate(fh, 1) if ln.strip()]
    if not lines or lines[0][1] != TRACE_HEADER:
        where, got = lines[0] if lines else (1, "an empty file")
        raise ValueError(f"{path}:{where}: expected header {TRACE_HEADER!r}, got {got!r}")
    if len(lines) == 1:
        raise ValueError(f"{path}:{lines[0][0]}: header with no step rows")
    records = []
    for i, ln in lines[1:]:
        try:
            t, loss, gn, fgn, eps = ln.split(",")
            records.append(StepRecord(int(t), *map(float, (loss, gn, fgn, eps))))
        except ValueError as exc:
            raise ValueError(f"{path}:{i}: bad trace row {ln!r}: {exc}") from None
    return MetricsTrace(records=records, loss0=math.nan, grad0_norm=math.nan, seed=-1)


def emit_comparison(rows: list[ComparisonRow], outdir: str, stem: str = "comparison") -> list[str]:
    lines = [COMPARISON_HEADER] + [
        f"{r.sigma_dp!r},{r.method},{r.seed},{r.final_loss!r}" for r in rows
    ]
    agg = aggregate_comparison(rows)
    levels = sorted({r.sigma_dp for r in rows})
    series = {
        method: (levels, [agg[(lvl, method)] for lvl in levels])
        for method in COMPARISON_METHODS
        if any(r.method == method for r in rows)
    }
    svg = svgplot.line_plot(
        series, title="final loss vs noise level", xlabel="sigma_dp",
        ylabel="log10 final loss", log_y=True,
    )
    return _emit(outdir, stem, lines, svg)


def emit_sweep(
    kappas: list[float], gammas: list[float], matrix: list[list[float]],
    outdir: str, stem: str = "sweep",
) -> list[str]:
    lines = [SWEEP_HEADER]
    for i, kappa in enumerate(kappas):
        for j, gamma in enumerate(gammas):
            lines.append(f"{kappa!r},{gamma!r},{matrix[i][j]!r}")
    svg = svgplot.heatmap(
        kappas, gammas, matrix, title="sweep metric", xlabel="gamma", ylabel="kappa"
    )
    return _emit(outdir, stem, lines, svg)


def estimation_demo(
    dim: int = 3, steps: int = 10_000, runs: int = 50, seed: int = 0
) -> list[str]:
    """CSV lines (run,mse_raw,mse_kf) for the estimator-quality simulation."""
    sys = random_stable_system(dim, seed)
    results = simulate_estimation(sys, steps=steps, runs=runs, seed=seed)
    lines = ["run,mse_raw,mse_kf"]
    for i, res in enumerate(results):
        lines.append(f"{i},{res.mse_raw!r},{res.mse_kf!r}")
    return lines
