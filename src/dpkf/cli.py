"""Command-line entry points.

Subcommands: train, compare-filters, sweep, calibrate, bounds, kalman-demo.
Config files are JSON; any flag repeated on the command line overrides the
matching config key. The DISK_SEED environment variable overrides the master
seed everywhere.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import harness, privacy, theory
from .disk import DiskConfig
from .harness import ExperimentConfig

# Flags that take a comma-separated list of floats.
LIST_FLAGS = ("--kappas", "--gammas", "--noise-levels")


def _env_seed(default: int | None) -> int | None:
    raw = os.environ.get("DISK_SEED")
    return int(raw) if raw not in (None, "") else default


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


def _load_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _apply_overrides(raw: dict, args: argparse.Namespace) -> dict:
    """CLI flags win over config keys; seed also honours DISK_SEED."""
    if getattr(args, "T", None) is not None:
        raw["T"] = args.T
    if getattr(args, "B", None) is not None:
        raw["B"] = args.B
    if getattr(args, "algorithm", None) is not None:
        raw["algorithm"] = args.algorithm
    for key in ("eta", "kappa", "gamma"):
        if getattr(args, key, None) is not None:
            raw.setdefault("optimizer", {})[key] = getattr(args, key)
    if getattr(args, "outdir", None) is not None:
        raw["outdir"] = args.outdir
    seed = _env_seed(getattr(args, "seed", None))
    if seed is not None:
        raw["seed"] = seed
        raw["seeds"] = [seed]
    return raw


def cmd_train(args: argparse.Namespace) -> int:
    raw = _apply_overrides(_load_config(args.config), args)
    cfg = ExperimentConfig.from_dict(raw)
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
    seeds = tuple(int(s) for s in args.seeds.split(","))
    seed0 = _env_seed(None)
    if seed0 is not None:
        seeds = tuple(seed0 + i for i in range(len(seeds)))
    levels = (
        [float(v) for v in args.noise_levels.split(",")]
        if args.noise_levels
        else None
    )
    rows = harness.compare_filters(
        noise_levels=levels, seeds=seeds, n=args.n, p=args.p, T=args.T,
        kappa=args.kappa,
    )
    paths = harness.emit_comparison(rows, args.outdir)
    agg = harness.aggregate_comparison(rows)
    _print_json({"cells": len(agg), "outputs": paths})
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    raw = _apply_overrides(_load_config(args.config), args)
    kappas = [float(v) for v in args.kappas.split(",")]
    gammas = [float(v) for v in args.gammas.split(",")]
    cfg = ExperimentConfig.from_dict(raw)
    matrix = harness.sweep_kappa_gamma(kappas, gammas, cfg)
    paths = harness.emit_sweep(kappas, gammas, matrix, cfg.outdir)
    _print_json({"shape": [len(kappas), len(gammas)], "outputs": paths})
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
        "rdp_per_order": {str(a): curve[a] for a in curve.orders()},
    }
    if args.clip is not None:
        report["clip"] = args.clip
        if args.batch_size:
            # noise std on the batch-averaged clipped gradient (sensitivity S/B,
            # S = C, or 1 under normalized clipping)
            sensitivity = privacy.clip_sensitivity(args.clip_variant, args.clip)
            report["sigma_dp"] = z * sensitivity / args.batch_size
    _print_json(report)
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    raw = _load_config(args.config)
    seed = _env_seed(raw.get("seed", 0))
    # train's boundary checks on the keys a report reads
    cfg = ExperimentConfig(
        objective=raw["objective"], optimizer=DiskConfig(**raw.get("optimizer", {})),
        init_scale=raw.get("init_scale", 1.0),
    )
    obj, ds = harness.build_problem(cfg.objective, seed)
    x0 = obj.init_point(seed, cfg.init_scale)
    f_star, estimated = theory.estimate_f_star(
        obj, ds, x0, steps=raw.get("f_star_steps", 100_000)
    )
    pc = theory.problem_constants_for(
        obj, ds, x0, sigma_sgd_sq=raw.get("sigma_sgd_sq", 0.0), f_star=f_star
    )
    opt = cfg.optimizer
    T = raw.get("T", 100)
    B = raw.get("B", ds.n)
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
        report["fixed_parameter_bound"] = {
            "total": bound.total, "transient": bound.transient,
            "noise_floor": bound.noise_floor,
        }
    except theory.ParameterConditionError as exc:
        report["fixed_parameter_bound"] = {"invalid": str(exc)}
    if opt.sigma_dp > 0:
        tuned = theory.tuned_params(pc, opt.sigma_dp, T)
        report["tuned"] = {
            "eta": tuned.eta, "beta": tuned.beta, "kappa": tuned.kappa,
            "m_kappa": tuned.m_kappa, "B_min": tuned.B_min,
            "T_min": tuned.T_min, "T_ok": tuned.T_ok,
            "bound": theory.tuned_bound(pc, opt.sigma_dp, T),
        }
    if args.trace:
        trace = harness.read_trace_csv(args.trace)
        lhs = float(np.mean([r.grad_norm**2 for r in trace.records]))
        report["empirical_mean_sq_grad_norm"] = lhs
    _print_json(report)
    return 0


def cmd_kalman_demo(args: argparse.Namespace) -> int:
    seed = _env_seed(args.seed)
    lines = harness.estimation_demo(
        dim=args.dim, steps=args.steps, runs=args.runs, seed=seed
    )
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpkf",
        description="Differentially private optimization with filtered gradients",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one experiment from a JSON config")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--T", type=int)
    p_train.add_argument("--B", type=int)
    p_train.add_argument("--eta", type=float)
    p_train.add_argument("--kappa", type=float)
    p_train.add_argument("--gamma", type=float)
    p_train.add_argument("--algorithm")
    p_train.add_argument("--outdir")
    p_train.set_defaults(func=cmd_train)

    p_cmp = sub.add_parser("compare-filters", help="benchmark the three filters")
    p_cmp.add_argument("--noise-levels", dest="noise_levels")
    p_cmp.add_argument("--seeds", default="0,1,2,3,4")
    p_cmp.add_argument("--n", type=int, default=1000)
    p_cmp.add_argument("--p", type=int, default=20)
    p_cmp.add_argument("--T", type=int, default=400)
    p_cmp.add_argument("--kappa", type=float, default=0.5)
    p_cmp.add_argument("--outdir", default="out")
    p_cmp.set_defaults(func=cmd_compare_filters)

    p_sweep = sub.add_parser("sweep", help="grid over (kappa, gamma)")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--kappas", default="0.3,0.5,0.7,0.9,1.0")
    p_sweep.add_argument("--gammas", default="-1.0,0.2,0.5,1.0")
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--T", type=int)
    p_sweep.add_argument("--B", type=int)
    p_sweep.add_argument("--eta", type=float)
    p_sweep.add_argument("--outdir")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cal = sub.add_parser("calibrate", help="noise multiplier for a budget")
    p_cal.add_argument("--epsilon", type=float, required=True)
    p_cal.add_argument("--delta", type=float, required=True)
    p_cal.add_argument("--sampling-rate", dest="sampling_rate", type=float, required=True)
    p_cal.add_argument("--steps", type=int, required=True)
    p_cal.add_argument("--clip", type=float)
    p_cal.add_argument("--batch-size", dest="batch_size", type=int)
    p_cal.add_argument(
        "--clip-variant", dest="clip_variant", default="standard",
        choices=("standard", "automatic", "normalized"),
    )
    p_cal.set_defaults(func=cmd_calibrate)

    p_bounds = sub.add_parser("bounds", help="bound constants and RHS values")
    p_bounds.add_argument("--config", required=True)
    p_bounds.add_argument("--trace", help="trace CSV for an empirical LHS")
    p_bounds.set_defaults(func=cmd_bounds)

    p_kd = sub.add_parser("kalman-demo", help="estimator-quality simulation")
    p_kd.add_argument("--dim", type=int, default=3)
    p_kd.add_argument("--steps", type=int, default=10_000)
    p_kd.add_argument("--runs", type=int, default=50)
    p_kd.add_argument("--seed", type=int, default=0)
    p_kd.set_defaults(func=cmd_kalman_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes "-1.0,0.5" for an option, so a list that starts with a
    # negative number is glued to its flag: "--gammas=-1.0,0.5".
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in LIST_FLAGS and re.match(r"-\.?\d", argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
