"""Command-line entry points.

Subcommands: train, compare-filters, sweep, calibrate, bounds, kalman-demo.
Config files are JSON; any flag repeated on the command line overrides the
matching config key. The DISK_SEED environment variable overrides the master
seed everywhere. train, sweep and bounds read a config through ``_config``
and take the run's optimizer from ``harness.resolve_optimizer``, so bounds
reports on the run train makes; train and sweep declare their six shared run
flags once, on a parent parser. kalman-demo calls ``kalman`` directly.

Every number flag, and each entry of a list flag (``_each``), is read by one
argument type, ``_number(kind, ok, rule)``: a value that does not parse, is
not finite or is out of range exits 2, naming the flag.

The parser is built once per process (``build_parser`` is cached) and holds
no handlers: ``main`` dispatches a command by its name at call time, to the
``cmd_*`` function of that name.

A command runs inside ``objectives.one_blas_thread``: on matrices this small
a second thread that wakes for ``lstsq`` or ``X.T @ X`` busy-waits through
the calls after it, doubling CPU time for no wall time.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import asdict

from . import harness, kalman, privacy, theory
from .harness import ExperimentConfig
from .objectives import one_blas_thread

# Flags that take a comma-separated list of floats.
LIST_FLAGS = ("--kappas", "--gammas", "--noise-levels")


def _number(kind: type, ok, rule: str):
    """Argument type: a ``kind`` (int or float; a float must be finite) that
    passes ``ok``; ``rule`` says what ``ok`` asks, as in "must {rule}"."""
    noun = "an integer" if kind is int else "a number"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}") from None
        # floats only: isfinite overflows on an int of 400 digits
        if kind is float and not math.isfinite(value) or not ok(value):
            raise argparse.ArgumentTypeError(f"must {rule}, got {text}")
        return value

    return parse


def _each(parse, container=list):
    """Argument type: comma-separated values, each read by ``parse``."""
    return lambda text: container(map(parse, text.split(",")))


_SEED = _number(int, lambda v: v >= 0, "be >= 0")
_COUNT = _number(int, lambda v: v >= 1, "be >= 1")
_POSITIVE = _number(float, lambda v: v > 0, "be finite and > 0")
_UNIT = _number(float, lambda v: 0 < v <= 1, "lie in (0, 1]")
_NONZERO = _number(float, bool, "be finite and nonzero")


def _env_seed(default: int | None) -> int | None:
    raw = os.environ.get("DISK_SEED", "")
    if raw and not raw.isdecimal():
        raise ValueError(f"DISK_SEED must be an integer >= 0, got {raw!r}")
    return int(raw) if raw else default


def _jsonable(obj):
    """Replace non-finite floats so summaries stay valid JSON."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _print_json(payload: dict) -> None:
    print(json.dumps(_jsonable(payload), indent=2))


def _config(args: argparse.Namespace) -> ExperimentConfig:
    """The config file ``args.config``, with CLI flags winning over its keys;
    the seed also honours DISK_SEED."""
    with open(args.config) as fh:
        raw = json.load(fh)
    for key in ("T", "B", "algorithm", "outdir"):
        if getattr(args, key, None) is not None:
            raw[key] = getattr(args, key)
    for key in ("eta", "kappa", "gamma"):
        if getattr(args, key, None) is not None:
            raw.setdefault("optimizer", {})[key] = getattr(args, key)
    seed = _env_seed(getattr(args, "seed", None))
    if seed is not None:
        raw["seeds"] = [seed]
    return ExperimentConfig.from_dict(raw)


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _config(args)
    trace = harness.run_experiment(cfg)
    paths = harness.emit_trace(trace, cfg.outdir)
    _print_json(
        {
            "seed": trace.seed,
            "final_loss": trace.final_loss,
            "mean_sq_grad_norm": trace.mean_sq_grad_norm,
            "epsilon_spent": trace.epsilon_total,
            "outputs": paths,
        }
    )
    return 0


def cmd_compare_filters(args: argparse.Namespace) -> int:
    seed0 = _env_seed(None)
    seeds = args.seeds if seed0 is None else tuple(range(seed0, seed0 + len(args.seeds)))
    rows = harness.compare_filters(
        noise_levels=args.noise_levels, seeds=seeds, n=args.n, p=args.p, T=args.T,
        kappa=args.kappa,
    )
    paths = harness.emit_comparison(rows, args.outdir)
    agg = harness.aggregate_comparison(rows)
    _print_json({"cells": len(agg), "outputs": paths})
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _config(args)
    matrix = harness.sweep_kappa_gamma(args.kappas, args.gammas, cfg)
    paths = harness.emit_sweep(args.kappas, args.gammas, matrix, cfg.outdir)
    _print_json({"shape": [len(args.kappas), len(args.gammas)], "outputs": paths})
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    z = privacy.calibrate_noise_multiplier(
        args.epsilon, args.delta, args.sampling_rate, args.steps
    )
    curve = privacy.subsampled_curve(args.sampling_rate, z)
    report = {
        "epsilon": args.epsilon,
        "delta": args.delta,
        "sampling_rate": args.sampling_rate,
        "steps": args.steps,
        "noise_multiplier": z,
        "epsilon_spent": privacy.compose_and_convert(curve, args.steps, args.delta),
        "rdp_per_order": {str(a): curve[a] for a in sorted(curve)},
    }
    if args.clip is not None:
        report["clip"] = args.clip
        if args.batch_size is not None:
            # noise std on the batch-averaged clipped gradient (sensitivity S/B,
            # S = C, or 1 under normalized clipping)
            sensitivity = privacy.clip_sensitivity(args.clip_variant, args.clip)
            report["sigma_dp"] = z * sensitivity / args.batch_size
    _print_json(report)
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    cfg = _config(args)
    seed = cfg.seeds[0]
    obj, ds = harness.build_problem(cfg.objective, seed, batch_floor=cfg.B)
    opt, delta, _ = harness.resolve_optimizer(cfg, ds.n)
    x0 = obj.init_point(seed, cfg.init_scale)
    f_star, estimated = theory.estimate_f_star(
        obj, ds, x0, steps=cfg.f_star_steps
    )
    pc = theory.problem_constants_for(obj, ds, x0, sigma_sgd_sq=cfg.sigma_sgd_sq, f_star=f_star)
    T, B = cfg.T, cfg.batch_size(ds.n)
    report: dict = {
        "constants": {
            "L": pc.L, "gap0": pc.gap0, "grad0_sq": pc.grad0_sq,
            "dim": pc.dim, "m_kappa": theory.curvature_ratio(pc),
            "f_star": f_star, "f_star_is_estimate": estimated,
        },
        "parameter_report": theory.parameter_report(opt.eta, opt.kappa, opt.gamma, pc.L),
    }
    try:
        bound = theory.convergence_bound(pc, opt.eta, opt.kappa, opt.gamma, T, B, opt.sigma_dp)
        report["fixed_parameter_bound"] = asdict(bound)
    except theory.ParameterConditionError as exc:
        report["fixed_parameter_bound"] = {"invalid": str(exc)}
    if opt.sigma_dp > 0:
        tuned = theory.tuned_params(pc, opt.sigma_dp, T)
        report["tuned"] = {**asdict(tuned), "bound": theory.tuned_bound(pc, opt.sigma_dp, T)}
    if cfg.epsilon_target is not None:
        C = privacy.clip_sensitivity(opt.clip_variant, opt.clip)
        bound, horizon = theory.privacy_utility_bound(pc, ds.n, cfg.epsilon_target, delta, C)
        report["privacy_utility"] = {
            "epsilon": cfg.epsilon_target, "delta": delta, "sensitivity": C,
            "bound": bound, "T_prescribed": horizon,
        }
    if args.trace:
        trace = harness.read_trace_csv(args.trace)
        trace.grad0_norm = math.sqrt(pc.grad0_sq)  # x_0 has no trace row
        report["empirical_mean_sq_grad_norm"] = trace.mean_sq_grad_norm
    _print_json(report)
    return 0


def cmd_kalman_demo(args: argparse.Namespace) -> int:
    seed = _env_seed(args.seed)
    system = kalman.random_stable_system(args.dim, seed)
    results = kalman.simulate_estimation(system, steps=args.steps, runs=args.runs, seed=seed)
    print("run,mse_raw,mse_kf")
    for i, res in enumerate(results):
        print(f"{i},{res.mse_raw!r},{res.mse_kf!r}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpkf",
        description="Differentially private optimization with filtered gradients",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = argparse.ArgumentParser(add_help=False)  # the run flags train and sweep share
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=_SEED)
    run.add_argument("--T", type=_COUNT)
    run.add_argument("--B", type=_COUNT)
    run.add_argument("--eta", type=_POSITIVE)
    run.add_argument("--outdir")

    p_train = sub.add_parser("train", parents=[run], help="run one experiment from a JSON config")
    p_train.add_argument("--kappa", type=_UNIT)
    p_train.add_argument("--gamma", type=_NONZERO)
    p_train.add_argument("--algorithm")

    p_cmp = sub.add_parser("compare-filters", help="benchmark the three filters")
    p_cmp.add_argument(
        "--noise-levels", dest="noise_levels", type=_each(_number(float, lambda v: v >= 0, "be >= 0"))
    )
    p_cmp.add_argument("--seeds", default="0,1,2,3,4", type=_each(_SEED, tuple))
    p_cmp.add_argument("--n", type=_COUNT, default=1000)
    p_cmp.add_argument("--p", type=_COUNT, default=20)
    p_cmp.add_argument("--T", type=_COUNT, default=400)
    p_cmp.add_argument("--kappa", type=_UNIT, default=0.5)
    p_cmp.add_argument("--outdir", default="out")

    p_sweep = sub.add_parser("sweep", parents=[run], help="grid over (kappa, gamma)")
    p_sweep.add_argument("--kappas", default="0.3,0.5,0.7,0.9,1.0", type=_each(_UNIT))
    p_sweep.add_argument("--gammas", default="-1.0,0.2,0.5,1.0", type=_each(_NONZERO))

    p_cal = sub.add_parser("calibrate", help="noise multiplier for a budget")
    p_cal.add_argument("--epsilon", type=_POSITIVE, required=True)
    p_cal.add_argument("--delta", type=_number(float, lambda v: 0 < v < 1, "lie in (0, 1)"), required=True)
    p_cal.add_argument("--sampling-rate", dest="sampling_rate", type=_UNIT, required=True)
    p_cal.add_argument("--steps", type=_COUNT, required=True)
    p_cal.add_argument("--clip", type=_POSITIVE)
    p_cal.add_argument("--batch-size", dest="batch_size", type=_COUNT)
    p_cal.add_argument(
        "--clip-variant", dest="clip_variant", default="standard",
        choices=("standard", "automatic", "normalized"),
    )

    p_bounds = sub.add_parser("bounds", help="bound constants and RHS values")
    p_bounds.add_argument("--config", required=True)
    p_bounds.add_argument("--trace", help="trace CSV for an empirical LHS")

    p_kd = sub.add_parser("kalman-demo", help="estimator-quality simulation")
    dim = _number(int, lambda v: 1 <= v <= kalman.MAX_STATE_DIM, f"be in 1..{kalman.MAX_STATE_DIM}")
    p_kd.add_argument("--dim", type=dim, default=3)
    p_kd.add_argument("--steps", type=_COUNT, default=10_000)
    p_kd.add_argument("--runs", type=_COUNT, default=50)
    p_kd.add_argument("--seed", type=_SEED, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes "-1.0,0.5" for an option, so a list that starts with a
    # negative number is glued to its flag: "--gammas=-1.0,0.5".
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in LIST_FLAGS and re.match(r"-\.?\d", argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "calibrate" and args.batch_size is not None and args.clip is None:
        # sigma_dp = z * S / B needs the clip's sensitivity S
        parser.error("calibrate: argument --batch-size: needs --clip to report sigma_dp")
    with one_blas_thread():
        return globals()["cmd_" + args.command.replace("-", "_")](args)


if __name__ == "__main__":
    sys.exit(main())
