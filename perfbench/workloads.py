"""The four benchmark workloads: how each op is drawn, run and checked.

An op is what one user runs as one CLI process: a config file (when the
subcommand takes one) and one or more ``dpkf`` argv lists. Every op draws its
own master seed, and every privacy op its own epsilon target, from the
workload's seeded ``random.Random``; so work repeats inside an op (the cells
of one sweep) and never across ops.

Each workload stresses a different layer (shares measured with the traced
run at the ``full`` scale):

* ``train-logreg``: whole-dataset metric evaluation and noise calibration.
* ``sweep-mlp``: calibration and dataset generation repeated per grid cell;
  the only workload where caching or parallelising cells can show.
* ``compare-filters``: the DP step alone; no per-step evaluation, no
  clipping, no accountant, so changes to those read "no change" here.
* ``small-fullkf``: many small-matrix calls (matrix filter gain, bound
  evaluation); the only workload that exercises ``kalman`` and ``theory``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable


class CheckFailed(AssertionError):
    """An op ran but its outputs are wrong."""


@dataclass(frozen=True)
class Op:
    """One drawn op: an optional config, the argv lists, and its parameters."""

    params: dict
    config: dict | None
    commands: list[list[str]]
    steps: int
    csv_name: str


@dataclass(frozen=True)
class Workload:
    name: str
    draw: Callable[[random.Random, dict], dict]
    build: Callable[[dict, dict, str, str], Op]
    check: Callable[[Op, str, list[str]], bytes]


# Sizes. ``tiny`` keeps every code path and only shrinks the work; the
# benchmark's self-check runs it.
SCALES = {
    "full": {
        "logreg_n": 5000, "logreg_T": 60,
        "mlp_n": 500, "mlp_T": 20,
        "cmp_n": 1000, "cmp_T": 100,
        "kf_n": 500, "kf_p": 32, "kf_T": 100,
    },
    "tiny": {
        "logreg_n": 300, "logreg_T": 5,
        "mlp_n": 200, "mlp_T": 3,
        "cmp_n": 100, "cmp_T": 5,
        "kf_n": 60, "kf_p": 4, "kf_T": 5,
    },
}

BATCH = 64
SWEEP_KAPPAS = (0.5, 1.0)
SWEEP_GAMMAS = (-1.0, 0.5)
CMP_LEVELS = (0.05, 0.5)
CMP_METHODS = ("noisy-gd", "noisy-lp", "noisy-kf")
EPS_TOL = 1e-3


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _epsilon(rng: random.Random) -> float:
    return rng.uniform(1.0, 8.0)


def _csv_list(values: tuple[float, ...]) -> str:
    return ",".join(repr(v) for v in values)


def _read_csv(path: str) -> tuple[bytes, list[list[str]]]:
    with open(path, "rb") as fh:
        raw = fh.read()
    rows = list(csv.reader(io.StringIO(raw.decode())))
    if not rows:
        raise CheckFailed(f"{path}: empty")
    return raw, rows


def _finite(values: list[str], where: str) -> list[float]:
    out = [float(v) for v in values]
    if not all(math.isfinite(v) for v in out):
        raise CheckFailed(f"{where}: non-finite value in {values}")
    return out


def _check_trace(op: Op, outdir: str) -> bytes:
    """T finite rows; the final spend meets the target when one was set."""
    raw, rows = _read_csv(os.path.join(outdir, "trace.csv"))
    header, body = rows[0], rows[1:]
    if header != ["step", "loss", "grad_norm", "filtered_grad_norm", "epsilon_spent"]:
        raise CheckFailed(f"trace header {header}")
    T = op.params["T"]
    if len(body) != T or [int(r[0]) for r in body] != list(range(1, T + 1)):
        raise CheckFailed(f"trace has {len(body)} rows, want steps 1..{T}")
    for r in body:
        _finite(r[1:], "trace")
    target = op.params.get("epsilon")
    if target is not None and abs(float(body[-1][4]) - target) > EPS_TOL:
        raise CheckFailed(f"epsilon_spent {body[-1][4]} vs target {target!r}")
    return raw


# ---------------------------------------------------------------------------
# train-logreg
# ---------------------------------------------------------------------------


def _logreg_draw(rng: random.Random, size: dict) -> dict:
    return {"seed": _seed(rng), "epsilon": _epsilon(rng), "T": size["logreg_T"]}


def _logreg_build(params: dict, size: dict, cfg_path: str, outdir: str) -> Op:
    config = {
        "seed": params["seed"],
        "objective": {"kind": "logistic-regression", "n": size["logreg_n"], "p": 50},
        "algorithm": "disk",
        "optimizer": {
            "kappa": 0.7, "gamma": 0.5, "eta": 0.2, "clip": 1.0,
            "clip_variant": "automatic", "base": "sgd",
        },
        "privacy": {"epsilon": params["epsilon"]},
        "T": params["T"],
        "B": BATCH,
    }
    argv = ["train", "--config", cfg_path, "--outdir", outdir]
    return Op(params, config, [argv], steps=params["T"], csv_name="trace.csv")


def _logreg_check(op: Op, outdir: str, stdouts: list[str]) -> bytes:
    return _check_trace(op, outdir)


# ---------------------------------------------------------------------------
# sweep-mlp
# ---------------------------------------------------------------------------


def _mlp_draw(rng: random.Random, size: dict) -> dict:
    return {"seed": _seed(rng), "epsilon": _epsilon(rng), "T": size["mlp_T"]}


def _mlp_build(params: dict, size: dict, cfg_path: str, outdir: str) -> Op:
    config = {
        "seed": params["seed"],
        "objective": {"kind": "mlp", "n": size["mlp_n"], "p": 20, "hidden": 16},
        "algorithm": "disk",
        "optimizer": {
            "kappa": 0.7, "gamma": 0.5, "eta": 0.01, "clip": 1.0,
            "clip_variant": "standard", "base": "adam",
        },
        "privacy": {"epsilon": params["epsilon"]},
        "T": params["T"],
        "B": BATCH,
    }
    # A negative-leading list must be one token: argparse reads
    # "--gammas -1.0,0.5" as a missing value followed by an unknown flag.
    argv = [
        "sweep", "--config", cfg_path, "--kappas", _csv_list(SWEEP_KAPPAS),
        f"--gammas={_csv_list(SWEEP_GAMMAS)}", "--outdir", outdir,
    ]
    cells = len(SWEEP_KAPPAS) * len(SWEEP_GAMMAS)
    return Op(params, config, [argv], steps=cells * params["T"], csv_name="sweep.csv")


def _mlp_check(op: Op, outdir: str, stdouts: list[str]) -> bytes:
    raw, rows = _read_csv(os.path.join(outdir, "sweep.csv"))
    want = [(k, g) for k in SWEEP_KAPPAS for g in SWEEP_GAMMAS]
    if rows[0] != ["kappa", "gamma", "metric"] or len(rows) - 1 != len(want):
        raise CheckFailed(f"sweep has {len(rows) - 1} cells, want {len(want)}")
    for (k, g), r in zip(want, rows[1:]):
        vals = _finite(r, "sweep")
        if (vals[0], vals[1]) != (k, g):
            raise CheckFailed(f"sweep cell {r[:2]} out of order, want {(k, g)}")
    return raw


# ---------------------------------------------------------------------------
# compare-filters
# ---------------------------------------------------------------------------


def _cmp_draw(rng: random.Random, size: dict) -> dict:
    return {"seed": _seed(rng), "T": size["cmp_T"]}


def _cmp_build(params: dict, size: dict, cfg_path: str, outdir: str) -> Op:
    s = params["seed"]
    argv = [
        "compare-filters", "--seeds", f"{s},{s + 1}",
        "--noise-levels", _csv_list(CMP_LEVELS),
        "--n", str(size["cmp_n"]), "--T", str(params["T"]), "--outdir", outdir,
    ]
    runs = 2 * len(CMP_LEVELS) * len(CMP_METHODS)
    return Op(params, None, [argv], steps=runs * params["T"], csv_name="comparison.csv")


def _cmp_check(op: Op, outdir: str, stdouts: list[str]) -> bytes:
    raw, rows = _read_csv(os.path.join(outdir, "comparison.csv"))
    s = op.params["seed"]
    want = [
        (lvl, m, seed) for seed in (s, s + 1) for lvl in CMP_LEVELS for m in CMP_METHODS
    ]
    if rows[0] != ["sigma_dp", "method", "seed", "final_loss"] or len(rows) - 1 != len(want):
        raise CheckFailed(f"comparison has {len(rows) - 1} rows, want {len(want)}")
    for (lvl, m, seed), r in zip(want, rows[1:]):
        if (float(r[0]), r[1], int(r[2])) != (lvl, m, seed):
            raise CheckFailed(f"comparison row {r[:3]}, want {(lvl, m, seed)}")
        _finite([r[3]], "comparison")
    return raw


# ---------------------------------------------------------------------------
# small-fullkf
# ---------------------------------------------------------------------------


def _kf_draw(rng: random.Random, size: dict) -> dict:
    return {"seed": _seed(rng), "sigma_dp": rng.uniform(0.02, 0.1), "T": size["kf_T"]}


def _kf_build(params: dict, size: dict, cfg_path: str, outdir: str) -> Op:
    sigma = params["sigma_dp"]
    filt = {"eta": 0.05, "clip": 1.0, "clip_variant": "standard", "sigma_dp": sigma}
    config = {
        "seed": params["seed"],
        "objective": {"kind": "linear-regression", "n": size["kf_n"], "p": size["kf_p"]},
        "algorithm": "full-kf",
        "optimizer": dict(filt),
        "full_filter": filt,
        "T": params["T"],
        "B": 50 if size["kf_n"] >= 50 else size["kf_n"],
    }
    train = ["train", "--config", cfg_path, "--outdir", outdir]
    bounds = ["bounds", "--config", cfg_path, "--trace", os.path.join(outdir, "trace.csv")]
    return Op(params, config, [train, bounds], steps=params["T"], csv_name="trace.csv")


def _kf_check(op: Op, outdir: str, stdouts: list[str]) -> bytes:
    raw = _check_trace(op, outdir)
    try:
        report = json.loads(stdouts[1])
        lhs = report["empirical_mean_sq_grad_norm"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"bounds report: {exc!r}") from exc
    if not isinstance(lhs, float) or not math.isfinite(lhs):
        raise CheckFailed(f"bounds empirical_mean_sq_grad_norm = {lhs!r}")
    return raw


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-logreg", _logreg_draw, _logreg_build, _logreg_check),
        Workload("sweep-mlp", _mlp_draw, _mlp_build, _mlp_check),
        Workload("compare-filters", _cmp_draw, _cmp_build, _cmp_check),
        Workload("small-fullkf", _kf_draw, _kf_build, _kf_check),
    )
}
