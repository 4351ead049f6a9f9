"""Experiment orchestration: single training runs, the filter-comparison
benchmark on synthetic regression, (kappa, gamma) sweep grids, and
deterministic CSV/SVG emission.

``ExperimentConfig.from_dict`` is the one config reader: every default is a
field's default. ``resolve_optimizer`` is the one place a run's optimizer is
resolved (preset, calibrated sigma_dp), for ``train``, ``sweep`` and ``bounds``.
A training run and a sweep's runs step through ``_trajectory``.
``run_experiment`` evaluates every state, ``EVAL_BLOCK`` at a time, and stops
at the first whose loss or gradient is not finite; a sweep evaluates only its
runs' last states. A sweep runs each distinct trajectory once per seed
(``_run_key``), a seed's runs one stack. ``compare_filters`` steps every seed,
noise level and method as one stack.

Runs are pure functions of their config and seed: datasets, minibatch order
and DP noise each come from a named substream of the run's seed, and every
run holds one BLAS thread (``objectives.one_blas_thread``), so the full
pipeline (calibrate -> train -> emit) is byte-reproducible. A row of a stack
keeps the bits of its run stepped alone, and a step costs one call for the
stack, not one a run.
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from . import seeding, svgplot
from .disk import (DiskConfig, DiskState, FullFilterConfig, disk_step, lookahead_weight,
                   noise_blocks, noise_rows, reads_gamma)
from .objectives import (
    EVAL_BLOCK,
    Dataset,
    DatasetStack,
    LinearRegression,
    Objective,
    full_gradient,
    gen_classification,
    gen_linear_regression,
    make_objective,
    minibatches,
    one_blas_thread,
)
from .privacy import (
    PrivacyError,
    calibrate_noise_multiplier,
    clip_sensitivity,
    delta_convention,
    epsilon_schedule,
    subsampled_curve,
)


class Preset(NamedTuple):
    """An algorithm as ``DiskConfig`` overrides on the run's optimizer settings."""

    overrides: dict
    full_batch: bool = False  # every step sees the whole dataset


# Every preset runs ``disk_step``; disk and noisy-kf are the same run. full-kf
# steps at kappa = the gain k_t and gamma = full_filter.gamma (``gains()``).
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
# Top-level keys ``from_dict`` passes to ``ExperimentConfig`` as they are; only
# ``bounds`` reads the last two. The other five have sections of their own.
PLAIN_KEYS = ("objective", "algorithm", "T", "B", "outdir", "init_scale",
              "f_star_steps", "sigma_sgd_sq")
CONFIG_KEYS = PLAIN_KEYS + ("optimizer", "privacy", "full_filter", "seed", "seeds")
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
    f_star_steps: int = 100_000  # bounds: the descent that estimates F* where it is not exact
    sigma_sgd_sq: float = 0.0  # bounds: the minibatch gradient's variance

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if not (_is_int(self.T) and _is_int(self.B) and self.T >= 1 and self.B >= 1):
            raise ValueError(f"need T >= 1 and B >= 1, integers; got T={self.T!r}, B={self.B!r}")
        if not (self.seeds and all(_is_int(s) and s >= 0 for s in self.seeds)):
            raise ValueError(f"need one seed or more, each an integer >= 0; got {self.seeds!r}")
        for name, value in (("epsilon", self.epsilon_target), ("delta", self.delta),
                            ("init_scale", self.init_scale), ("sigma_sgd_sq", self.sigma_sgd_sq)):
            if value is None and name in ("epsilon", "delta"):
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
        stepped = replace(self.optimizer, **PRESETS[self.algorithm].overrides)
        if self.epsilon_target is not None and stepped.clip_variant == "none":
            raise PrivacyError(f"{self.algorithm} takes an explicit sigma_dp, not a privacy target")
        eps = self.epsilon_target
        if eps is not None and not (math.isfinite(eps) and eps > 0):
            raise PrivacyError(f"epsilon must be finite and > 0, got {eps!r}")
        if self.delta is not None and not 0 < self.delta < 1:
            raise PrivacyError(f"delta must lie in (0, 1), got {self.delta!r}")
        if not (math.isfinite(self.init_scale) and self.init_scale > 0):
            raise ValueError(f"init_scale must be finite and > 0, got {self.init_scale!r}")
        if not (_is_int(self.f_star_steps) and self.f_star_steps >= 1):
            raise ValueError(f"f_star_steps must be an integer >= 1, got {self.f_star_steps!r}")
        if not (math.isfinite(self.sigma_sgd_sq) and self.sigma_sgd_sq >= 0):
            raise ValueError(f"sigma_sgd_sq must be finite and >= 0, got {self.sigma_sgd_sq!r}")
        if not isinstance(self.outdir, str):
            raise ValueError(f"outdir must be a string, got {self.outdir!r}")
        _check_objective(self.objective)

    def batch_size(self, n: int) -> int:
        """Rows per step on an n-row dataset: n under a full-batch preset, else B."""
        return n if PRESETS[self.algorithm].full_batch else self.B

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _reject_unknown_keys("config", raw, CONFIG_KEYS)
        opt_raw = _section(raw, "optimizer", [f.name for f in fields(DiskConfig)])
        optimizer = DiskConfig(**opt_raw)
        privacy_raw = _section(raw, "privacy", ("epsilon", "delta"))
        if (privacy_raw.get("epsilon") is not None) == ("sigma_dp" in opt_raw):
            raise ValueError(
                "set exactly one of: a privacy target (epsilon) or an explicit sigma_dp"
            )
        ff = _section(raw, "full_filter", FULL_FILTER_KEYS + SHARED_FILTER_KEYS)
        for key in SHARED_FILTER_KEYS:
            if key in ff and ff.pop(key) != getattr(optimizer, key):
                raise ValueError(f"full_filter.{key} disagrees with optimizer.{key}")
        plain = {k: raw[k] for k in PLAIN_KEYS if k in raw}
        seeds = raw.get("seeds")  # seeds, else [seed], else the field's default
        if seeds is not None and not isinstance(seeds, (list, tuple)):
            raise ValueError(f"seeds must be a list of integers, got {seeds!r}")
        if seeds is not None or "seed" in raw:
            plain["seeds"] = tuple([raw["seed"]] if seeds is None else seeds)
        return cls(
            **plain,
            optimizer=optimizer,
            epsilon_target=privacy_raw.get("epsilon"),
            delta=privacy_raw.get("delta"),
            full_filter=FullFilterConfig(**ff),
        )


def _is_int(value) -> bool:
    """An int or a numpy integer (``operator.index`` takes it), not a bool or a float."""
    return not isinstance(value, bool) and hasattr(type(value), "__index__")


def _check_objective(problem: dict) -> None:
    """Reject an objective that is not a dict or has an unknown kind, a key its
    kind ignores or lacks, a size that is not an integer >= 1, a noise_std that
    is not a finite number >= 0, a quadratic vector not of length dim or not
    finite, or a negative quadratic eigenvalue (unbounded below)."""
    if not isinstance(problem, dict):
        raise ValueError(f"objective must be a mapping, got {problem!r}")
    kind = problem.get("kind")
    if kind not in OBJECTIVE_KEYS:
        raise ValueError(f"unknown objective kind: {kind!r}")
    _reject_unknown_keys(f"objective {kind!r}", problem, OBJECTIVE_KEYS[kind])
    for key in ("dim",) if kind == "quadratic" else ("n", "p"):
        if key not in problem:
            raise ValueError(f"objective {kind!r} needs the key {key!r}")
    for key in ("n", "p", "dim", "hidden"):
        if key in problem and not (_is_int(problem[key]) and problem[key] >= 1):
            raise ValueError(f"objective {key} must be an integer >= 1, got {problem[key]!r}")
    noise = problem.get("noise_std", 0.0)
    if isinstance(noise, bool) or not isinstance(noise, numbers.Real) or not 0 <= noise < math.inf:
        raise ValueError(f"objective noise_std must be a finite number >= 0, got {noise!r}")
    for key in ("eigenvalues", "x_star"):
        if problem.get(key) is None:
            continue
        if np.shape(problem[key]) != (problem["dim"],):
            raise ValueError(f"objective {key} must hold dim = {problem['dim']} values, "
                             f"got shape {np.shape(problem[key])}")
        values = np.asarray(problem[key], dtype=float)
        if not np.isfinite(values).all():
            raise ValueError(f"objective {key} must be finite, got {values.tolist()}")
        if key == "eigenvalues" and (values < 0).any():
            raise ValueError(f"objective eigenvalues must be >= 0, got {values.tolist()}")


def _section(raw: dict, name: str, allowed) -> dict:
    """A copy of the config's section ``name``, {} where it is absent or null;
    one that is not a mapping or has a key outside ``allowed`` is refused."""
    section = {} if raw.get(name) is None else raw[name]
    if not isinstance(section, dict):
        raise ValueError(f"{name} must be a mapping, got {section!r}")
    _reject_unknown_keys(name, section, allowed)
    return dict(section)


def _reject_unknown_keys(section: str, given, allowed) -> None:
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        raise ValueError(f"{section} has unknown keys {unknown}; allowed: {sorted(allowed)}")


def build_problem(problem: dict, seed: int, batch_floor: int = 1) -> tuple[Objective, Dataset]:
    """Instantiate the objective and its dataset for one seed."""
    _check_objective(problem)
    kind = problem["kind"]
    if kind == "quadratic":
        eigs = problem.get("eigenvalues")
        H = None if eigs is None else np.diag(np.asarray(eigs, dtype=float))
        obj = make_objective(kind, problem["dim"], H=H, x_star=problem.get("x_star"))
        return obj, obj.placeholder_dataset(max(problem.get("n", batch_floor), batch_floor))
    n, p = problem["n"], problem["p"]
    if kind == "logistic-regression":
        ds = gen_classification(n, p, seed)
    else:
        ds = gen_linear_regression(n, p, problem.get("noise_std", 0.1), seed)
    return make_objective(kind, p, hidden=problem.get("hidden", 16)), ds


def resolve_optimizer(
    cfg: ExperimentConfig, N: int
) -> tuple[DiskConfig, float | None, float]:
    """The optimizer a run of ``cfg`` on N rows steps with: the algorithm's
    preset applied and, for a privacy target, sigma_dp calibrated. ``train``,
    ``sweep`` and ``bounds`` each take their optimizer from here.

    Returns (optimizer config, delta used for accounting, q). The accountant
    works on the noise multiplier z = sigma_dp * B / S, with S the clip
    sensitivity; the noise actually added to the batch-averaged clipped
    gradient has std z * S / B.
    """
    if cfg.batch_size(N) > N:
        raise ValueError("batch size exceeds dataset size")
    q = cfg.batch_size(N) / N
    delta = cfg.delta if cfg.delta is not None else (
        delta_convention(N) if N > 1 else None
    )
    opt = replace(cfg.optimizer, **PRESETS[cfg.algorithm].overrides)
    if cfg.epsilon_target is None:
        return opt, delta, q
    if delta is None:
        raise PrivacyError("a privacy target needs delta (or N > 1 for the convention)")
    z = calibrate_noise_multiplier(cfg.epsilon_target, delta, q, cfg.T)
    sigma_dp = z * clip_sensitivity(opt.clip_variant, opt.clip) / cfg.B
    return replace(opt, sigma_dp=sigma_dp), delta, q


def _epsilon_schedule(cfg: ExperimentConfig, opt: DiskConfig, delta: float | None, q: float):
    """Budget spent after 1..T steps; inf when the run is not clipped/noised.
    A clipped run's batch is B rows: only noisy-gd's full batch is n != B."""
    if opt.clip_variant == "none" or opt.sigma_dp <= 0 or delta is None:
        return (math.inf,) * cfg.T
    z = opt.sigma_dp * cfg.B / clip_sensitivity(opt.clip_variant, opt.clip)
    return epsilon_schedule(subsampled_curve(q, z), cfg.T, delta)


def _column(values) -> float | np.ndarray:
    """One value a row of a stack: a (k, 1) column, or the one float every
    row shares, which steps them as a scalar config would (a weight of 0 for
    every row reads no lookahead point)."""
    col = np.array(values, dtype=float)[:, None]
    return float(col[0, 0]) if (col == col[0, 0]).all() else col


def _trajectory(cfg: ExperimentConfig, opt: DiskConfig, seed: int, problem, cells=None):
    """The states x_0..x_T of the runs of ``problem`` (``build_problem``'s
    pair) stepped with ``opt`` as given: ``resolve_optimizer``'s, or a sweep's,
    the preset already applied. The runs step as one stack, a row for each
    (kappa, gamma) of ``cells``, from one start, on one minibatch stream and
    one noise row a step, broadcast to every row. One cell, or ``opt``'s run
    where ``cells`` is None, steps from a 1-D start: the same step with no run
    axis, which spares a lone run the cost of broadcasting its data to a row."""
    obj, ds = problem
    cells = [(opt.kappa, opt.gamma)] if cells is None else cells
    x0 = obj.init_point(seed, cfg.init_scale)
    if len(cells) > 1:
        x0 = np.tile(x0, (len(cells), 1))
    full_batch = cfg.batch_size(ds.n) == ds.n
    noise_rng = seeding.substream(seed, seeding.DP_NOISE)
    batches = None if full_batch else minibatches(ds.n, cfg.B, seed)
    if cfg.algorithm == "full-kf":  # (k_t, gamma) a step; its weight from lookahead_weight
        columns = ((kappa, gamma, None) for kappa, gamma in cfg.full_filter.gains())
    else:
        kappas, gammas = zip(*cells)
        weights = [lookahead_weight(opt, kappa, gamma) for kappa, gamma in cells]
        columns = itertools.repeat(tuple(map(_column, (kappas, gammas, weights))))
    state = DiskState(x=x0)
    yield state
    for noise, (kappa, gamma, a) in zip(noise_rows(noise_rng, opt.sigma_dp, obj.dim, cfg.T), columns):
        batch = ds if full_batch else ds.subset(next(batches))
        state = disk_step(state, batch, obj, opt, noise, kappa, gamma, a)
        yield state


@one_blas_thread()
def run_experiment(cfg: ExperimentConfig) -> MetricsTrace:
    """Run one algorithm for T steps on the problem of ``cfg.seeds[0]``,
    recording every state; deterministic per seed. A state whose loss or
    gradient is not finite raises ``FloatingPointError``."""
    seed = cfg.seeds[0]
    problem = build_problem(cfg.objective, seed, batch_floor=cfg.B)
    obj, ds = problem
    opt, delta, q = resolve_optimizer(cfg, ds.n)
    eps_sched = _epsilon_schedule(cfg, opt, delta, q)
    states = _trajectory(cfg, opt, seed, problem)
    records: list[StepRecord] = []
    t = 0
    while block := list(itertools.islice(states, EVAL_BLOCK)):
        losses, grads = obj.evaluate([s.x for s in block], ds.X, ds.y)
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


def comparison_noise_levels(ds: Dataset) -> list[float]:
    """Relative grid scaled by ||grad F(0)|| / sqrt(d) on the dataset ``ds``."""
    obj = LinearRegression(ds.p)
    scale = float(np.linalg.norm(full_gradient(obj, np.zeros(ds.p), ds))) / math.sqrt(ds.p)
    return [r * scale for r in RELATIVE_NOISE_GRID]


@one_blas_thread()
def compare_filters(
    noise_levels: list[float] | None = None,
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
    n: int = 1000,
    p: int = 20,
    T: int = 400,
    kappa: float = 0.5,
) -> list[ComparisonRow]:
    """Final regression loss of three full-batch methods at each noise level.

    * noisy-gd: plain descent on the noised gradient,
    * noisy-lp: exponential filter on the single-point noised gradient,
    * noisy-kf: exponential filter on the two-point (gamma = -1) combination.

    Step size (1/L of the seed's data) and the per-step noise realisations are
    shared across methods, so differences isolate the filter. Deterministic
    per seed.

    Every (seed, distinct level, method) is a row of one stack, stepped on its
    seed's data and step size, its method's kappa and lookahead weight, and its
    (seed, level)'s noise rows (-0.0 at a level of 0): one ``disk_step`` a
    step. Every row has the bits of its run stepped alone, and each seed's
    rows are evaluated on its data in one call.
    """
    if not seeds:
        return []
    datasets = [gen_linear_regression(n, p, noise_std=0.1, seed=seed) for seed in seeds]
    if noise_levels is None:  # from the seeds[0] dataset
        noise_levels = comparison_noise_levels(datasets[0])
    levels = list(dict.fromkeys(noise_levels))
    if not levels:
        return []
    obj = LinearRegression(p)
    shared = DiskConfig(kappa=kappa, gamma=-1.0, clip=None, clip_variant="none", base="sgd")
    methods = [replace(shared, **PRESETS[m].overrides) for m in COMPARISON_METHODS]
    columns = [(c.kappa, lookahead_weight(c, c.kappa, c.gamma)) for c in methods]
    etas = [1.0 / obj.smoothness(ds) for ds in datasets]
    keys = list(itertools.product(range(len(seeds)), levels, range(len(methods))))  # one a row
    kappas, weights, eta = map(_column, zip(*((*columns[m], etas[i]) for i, _, m in keys)))
    data = DatasetStack(tuple(datasets[i] for i, _, _ in keys))
    blocks = zip(*(noise_blocks(seeding.substream(seed, seeding.DP_NOISE, f"sigma={s!r}"), s, p, T)
                   for seed in seeds for s in levels))
    state = DiskState(x=np.zeros((len(keys), p)))
    for pairs in blocks:  # each (seed, level)'s row once a method
        for row in np.stack([block for block in pairs for _ in methods], axis=1):
            state = disk_step(state, data, obj, shared, row, kappas, a=weights, eta=eta)
    losses = np.concatenate([obj.evaluate(xs, ds.X, ds.y)[0]  # a seed's rows on its own data
                             for xs, ds in zip(state.x.reshape(len(seeds), -1, p), datasets)])
    final = dict(zip(keys, losses.tolist()))  # (seed index, level, method index) -> final loss
    return [ComparisonRow(sigma, method, seed, final[i, sigma, m]) for i, seed in enumerate(seeds)
            for sigma in noise_levels for m, method in enumerate(COMPARISON_METHODS)]


def aggregate_comparison(rows: list[ComparisonRow]) -> dict[tuple[float, str], float]:
    """Seed-averaged final loss per (noise level, method)."""
    sums: dict[tuple[float, str], list[float]] = {}
    for r in rows:
        sums.setdefault((r.sigma_dp, r.method), []).append(r.final_loss)
    return {key: float(np.mean(vals)) for key, vals in sums.items()}


# ---------------------------------------------------------------------------
# (kappa, gamma) sweep
# ---------------------------------------------------------------------------


def _run_key(cfg: ExperimentConfig, cell: DiskConfig) -> tuple | None:
    """The step parameters a sweep cell's trajectory reads from ``cell``, its
    optimizer after the preset: (kappa, gamma), with gamma None where the step
    does not read it (``reads_gamma``), or None for full-kf, whose (k_t, gamma)
    come from ``full_filter.gains()``. Cells with one key run one trajectory."""
    if cfg.algorithm == "full-kf":
        return None
    return cell.kappa, cell.gamma if reads_gamma(cell, cell.kappa) else None


@one_blas_thread()
def sweep_kappa_gamma(
    kappas: list[float], gammas: list[float], cfg: ExperimentConfig
) -> list[list[float]]:
    """Seed-averaged final loss for every grid cell; one run per distinct
    trajectory and seed.

    Cells differ only in kappa and gamma, so they share each seed's problem,
    built once, and one sigma_dp, calibrated once for a privacy target. Cells
    whose steps read the same parameters (``_run_key``) share one run, and
    every such cell gets its float: the kappa = 1 column, every cell of a
    dpsgd, noisy-gd or full-kf sweep, and noisy-lp's cells along gamma. Each
    cell is built from its kappa and gamma, so a bad value is refused where its
    run is shared, then takes the preset. A seed steps its distinct runs as one
    stack (``_trajectory``), a run a row, on the seed's one minibatch stream
    and noise draw: one ``disk_step`` a step, each row with the bits of its
    run stepped alone. The runs record nothing on the way: the stack's last
    states are evaluated in one call, with ``final_loss``'s bits.
    """
    problems = {s: build_problem(cfg.objective, s, batch_floor=cfg.B) for s in cfg.seeds}
    opt, _, _ = resolve_optimizer(cfg, problems[cfg.seeds[0]][1].n)  # n is the same for every seed
    runs: dict[tuple | None, tuple[float, float]] = {}  # run key -> its (kappa, gamma)
    keys: list[list] = []  # each cell's run key, a row a kappa
    for kappa in kappas:
        keys.append([])
        for gamma in gammas:
            cell = replace(replace(opt, kappa=kappa, gamma=gamma), **PRESETS[cfg.algorithm].overrides)
            keys[-1].append(_run_key(cfg, cell))
            runs.setdefault(keys[-1][-1], (cell.kappa, cell.gamma))
    final = []  # a seed's final losses, one a run
    for s in cfg.seeds if runs else ():  # an empty grid steps nothing
        obj, ds = problems[s]
        for state in _trajectory(cfg, opt, s, problems[s], list(runs.values())):
            pass
        # a lone run steps from a 1-D state
        final.append(obj.evaluate(state.x.reshape(len(runs), -1), ds.X, ds.y)[0])
    mean = dict(zip(runs, (float(np.mean(losses)) for losses in zip(*final))))
    return [[mean[key] for key in row] for row in keys]


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


def emit_trace(trace: MetricsTrace, outdir: str) -> list[str]:
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
    return _emit(outdir, "trace", trace.csv_lines(), svg)


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


def emit_comparison(rows: list[ComparisonRow], outdir: str) -> list[str]:
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
    return _emit(outdir, "comparison", lines, svg)


def emit_sweep(
    kappas: list[float], gammas: list[float], matrix: list[list[float]], outdir: str
) -> list[str]:
    lines = [SWEEP_HEADER]
    for i, kappa in enumerate(kappas):
        for j, gamma in enumerate(gammas):
            lines.append(f"{kappa!r},{gamma!r},{matrix[i][j]!r}")
    svg = svgplot.heatmap(
        kappas, gammas, matrix, title="sweep metric", xlabel="gamma", ylabel="kappa"
    )
    return _emit(outdir, "sweep", lines, svg)

