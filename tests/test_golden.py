"""Byte-identity gate: the CSV outputs of a fixed command set.

Every command runs through ``cli.main`` at tiny sizes and the sha256 of the
CSV it writes is compared with a recorded hash. The ``calibrate`` commands
write no file; the hash of their JSON report (noise multiplier, epsilon spent
and the RDP value at every order) gates the accountant itself. The ``bounds``
commands hash their JSON report the same way, which gates the problem
constants (gap0, grad0_sq), the f* estimate and the bound evaluators. The
``kalman-demo`` commands hash their stdout, which gates the predict/correct
filter that the estimator-quality simulation runs. A refactor that keeps the
trajectories keeps these hashes; a change that is meant to alter an output
must say so and record the new hash. Tiny runs give the same bytes at 1 and
2 BLAS threads.
"""

import hashlib
import json

import pytest

from dpkf.cli import main as cli_main

LOGREG = {
    "seed": 2,
    "objective": {"kind": "logistic-regression", "n": 80, "p": 5},
    "optimizer": {
        "kappa": 0.6, "gamma": 0.5, "eta": 0.3, "clip": 1.0,
        "clip_variant": "standard", "sigma_dp": 0.05, "base": "momentum",
    },
    "T": 12,
    "B": 16,
}

FULLKF_FILTER = {"eta": 0.05, "clip": 1.0, "clip_variant": "standard", "sigma_dp": 0.03}
FULLKF = {
    "seed": 5,
    "objective": {"kind": "linear-regression", "n": 60, "p": 6},
    "algorithm": "full-kf",
    "optimizer": dict(FULLKF_FILTER),
    "full_filter": dict(FULLKF_FILTER, sigma_w_sq=0.5),
    "T": 10,
    "B": 20,
}

TARGET = {
    **LOGREG,
    "optimizer": {k: v for k, v in LOGREG["optimizer"].items() if k != "sigma_dp"},
    "privacy": {"epsilon": 3.0},
}

MLP = {
    "seed": 3,
    "objective": {"kind": "mlp", "n": 60, "p": 4, "hidden": 5},
    "optimizer": {
        "kappa": 0.7, "gamma": 0.5, "eta": 0.05, "clip": 1.0,
        "clip_variant": "automatic", "base": "adam",
    },
    "privacy": {"epsilon": 4.0},
    "T": 4,
    "B": 20,
}

# Whole-dataset evaluation at the shapes the benchmark runs, and the
# one-column case, which numpy reduces differently.
LOGREG_WIDE = {
    "seed": 4,
    "objective": {"kind": "logistic-regression", "n": 3000, "p": 50},
    "optimizer": {
        "kappa": 0.7, "gamma": 0.5, "eta": 0.1, "clip": 1.0,
        "clip_variant": "standard", "sigma_dp": 0.02, "base": "momentum",
    },
    "T": 5,
    "B": 64,
}

MLP_WIDE = {
    "seed": 6,
    "objective": {"kind": "mlp", "n": 500, "p": 20, "hidden": 16},
    "optimizer": {
        "kappa": 0.6, "gamma": -1.0, "eta": 0.02, "clip": 1.0,
        "clip_variant": "automatic", "sigma_dp": 0.01, "base": "adam",
    },
    "T": 3,
    "B": 50,
}

LINREG_P1_FILTER = {"eta": 0.1, "clip": 1.0, "clip_variant": "standard", "sigma_dp": 0.02}
LINREG_P1 = {
    "seed": 7,
    "objective": {"kind": "linear-regression", "n": 40, "p": 1},
    "algorithm": "full-kf",
    "optimizer": dict(LINREG_P1_FILTER),
    "full_filter": dict(LINREG_P1_FILTER, sigma_w_sq=0.5),
    "T": 8,
    "B": 10,
}

# Observations without clipping: a minibatch DP-SGD run, and full-batch
# noisy-gd on a wide MLP and on one column, which numpy reduces differently.
LOGREG_UNCLIPPED = {
    **LOGREG,
    "algorithm": "dpsgd",
    "optimizer": dict(LOGREG["optimizer"], clip_variant="none"),
}

LINREG_P1_GD = {
    "seed": 8,
    "objective": {"kind": "linear-regression", "n": 40, "p": 1},
    "algorithm": "noisy-gd",
    "optimizer": {"eta": 0.1, "sigma_dp": 0.02},
    "T": 8,
    "B": 10,
}

# Sweeps off the privacy-target path: an explicit sigma_dp over two seeds, and
# unclipped linear regression at B = n, whose full-batch steps observe G z - b.
SWEEP_SEEDS = dict(LOGREG, seeds=[1, 2])

LINREG_FULL_BATCH = {
    "seed": 9,
    "objective": {"kind": "linear-regression", "n": 40, "p": 3},
    "optimizer": {"eta": 0.1, "clip_variant": "none", "sigma_dp": 0.02},
    "T": 8,
    "B": 40,
}

# The benchmark's train-logreg op (n 5000, p 50, B 64, automatic clipping,
# privacy target), with T cut short: its whole-dataset evaluation per state.
LOGREG_BENCH = {
    "seed": 14,
    "objective": {"kind": "logistic-regression", "n": 5000, "p": 50},
    "algorithm": "disk",
    "optimizer": {
        "kappa": 0.7, "gamma": 0.5, "eta": 0.2, "clip": 1.0,
        "clip_variant": "automatic", "base": "sgd",
    },
    "privacy": {"epsilon": 2.5},
    "T": 4,
    "B": 64,
}

SWEEP_GRID = ["sweep", "--kappas", "0.5,1.0", "--gammas=-1.0,0.5"]

# name -> (config or None, argv after the subcommand, CSV file name)
COMMANDS = {
    "train-dpsgd": (dict(LOGREG, algorithm="dpsgd"), ["train"], "trace.csv"),
    "train-disk": (dict(LOGREG, algorithm="disk"), ["train"], "trace.csv"),
    "train-noisy-gd": (dict(LOGREG, algorithm="noisy-gd"), ["train"], "trace.csv"),
    "train-noisy-lp": (dict(LOGREG, algorithm="noisy-lp"), ["train"], "trace.csv"),
    "train-noisy-kf": (dict(LOGREG, algorithm="noisy-kf"), ["train"], "trace.csv"),
    "train-full-kf": (FULLKF, ["train"], "trace.csv"),
    "train-dpsgd-target": (dict(TARGET, algorithm="dpsgd"), ["train"], "trace.csv"),
    "train-logreg-wide": (LOGREG_WIDE, ["train"], "trace.csv"),
    "train-logreg-bench": (LOGREG_BENCH, ["train"], "trace.csv"),
    "train-mlp-wide": (MLP_WIDE, ["train"], "trace.csv"),
    "train-linreg-p1": (LINREG_P1, ["train"], "trace.csv"),
    "train-dpsgd-unclipped": (LOGREG_UNCLIPPED, ["train"], "trace.csv"),
    "train-mlp-wide-noisy-gd": (dict(MLP_WIDE, algorithm="noisy-gd"), ["train"], "trace.csv"),
    "train-linreg-p1-noisy-gd": (LINREG_P1_GD, ["train"], "trace.csv"),
    "sweep-mlp": (MLP, SWEEP_GRID, "sweep.csv"),
    "sweep-logreg-seeds": (SWEEP_SEEDS, SWEEP_GRID, "sweep.csv"),
    "sweep-linreg-full-batch": (LINREG_FULL_BATCH, SWEEP_GRID, "sweep.csv"),
    "compare-filters": (
        None,
        ["compare-filters", "--seeds", "0,1", "--noise-levels", "0.05,0.5",
         "--n", "60", "--p", "4", "--T", "10"],
        "comparison.csv",
    ),
    # the benchmark's width
    "compare-filters-wide": (
        None,
        ["compare-filters", "--seeds", "0,1", "--noise-levels", "0.05,0.5",
         "--n", "1000", "--p", "20", "--T", "30"],
        "comparison.csv",
    ),
}

GOLDEN = {
    "compare-filters": "8922a2ab8f7a2776bcd90d72f753df0693cb292294ba804a52fd68c235017b47",
    "compare-filters-wide": "776c3b0d3a41eb9652a798b1668777a13b8235842704ac92de2bf88cc324dd3f",
    "sweep-linreg-full-batch": "d449b753031da5826035df4415fc426ef59153293af890d3b288d7fe0efe2f29",
    "sweep-logreg-seeds": "1628861caf94e3efdda1d6ec12ca586e749aec60eaa6f87f40cc9c703ba0fd41",
    "sweep-mlp": "ba36e8f7854c68916321917e4a518c8b35669af33b95fab79e80c9cce46f0850",
    "train-disk": "d2f6dc9d6a05498083c51d00e2cb6efdd08a1526c793418b8593c50dd7765396",
    "train-dpsgd": "2b7cbe2e05396fd7dbd203eff5bc30a05a44bf42b5f05accef081dff05058966",
    "train-dpsgd-target": "7503914c95d239ca61a4f4293986e8b7e1966d33507072ed998085c0ca74affb",
    "train-dpsgd-unclipped": "89a5f7ae3bea646cbdb0d4f996421f36c3d321148aabe59053e8fc1ef9058321",
    "train-linreg-p1": "42e81b9f51decbcd93012d5784913ee631e0d1f6b4b0df39d50f0afc4ae8b7ef",
    "train-linreg-p1-noisy-gd": "b5951f53179fbd669e291b9be11c8b2d2df33e97446519953db05802ebec1ffd",
    "train-logreg-bench": "42050a9b615d993da9d3d4a625f81455aeee6e8e8c227d43f8e88f40e6510c02",
    "train-logreg-wide": "506739d0ee81d7601d18def48164853d7d53bb4f987f41e07150e87abf32560e",
    "train-mlp-wide": "73ab8a626e7b631467ce233621c8e8f05f4e00f939b16f52f10d774f43257c04",
    "train-full-kf": "10f3071efa4fc2f8df132c43270c5c7d7e5cd96647ce454c56ba248ffa87fec4",
    "train-mlp-wide-noisy-gd": "dd2757d51d57fcd2b30050c801d0fa2f477a6514cc29f8c451247875a102d626",
    "train-noisy-gd": "ac5f41ea0540be34666574271eccf5584aab6969d80d3ee7b76eae0c3e78767b",
    "train-noisy-kf": "d2f6dc9d6a05498083c51d00e2cb6efdd08a1526c793418b8593c50dd7765396",
    "train-noisy-lp": "8b3be2e517161e9927f740a247f2518bc6464ebe858dc782c89eb62e870b666d",
}

# name -> argv of a ``calibrate`` command whose stdout is hashed
CALIBRATE_COMMANDS = {
    "calibrate-small-q": [
        "--epsilon", "1.0", "--delta", "1e-5", "--sampling-rate", "0.01",
        "--steps", "1000",
    ],
    "calibrate-clip": [
        "--epsilon", "4.0", "--delta", "1e-6", "--sampling-rate", "0.2",
        "--steps", "50", "--clip", "0.5", "--batch-size", "64",
    ],
    "calibrate-full-batch": [
        "--epsilon", "0.5", "--delta", "1e-5", "--sampling-rate", "1.0",
        "--steps", "10",
    ],
}

CALIBRATE_GOLDEN = {
    "calibrate-clip": "072792c4ebd6eae30d57a96ee1840eeec0a45b5ba337b9b13f2634500ee5c414",
    "calibrate-full-batch": "b7dec903c51d482479eb2b05fe70ad93bd716b19d540ebc63757ba3bedede180",
    "calibrate-small-q": "badbf528201df5a323ba5e836b7c1420f6c560b2bc8bdf491c4f3cc5e70bf9f5",
}

# ``bounds`` reports: the benchmark's small-fullkf shape with the trace of its
# own train run, a logistic f* estimated by a short descent, and a quadratic.
SMALL_FULLKF_FILTER = {"eta": 0.05, "clip": 1.0, "clip_variant": "standard", "sigma_dp": 0.05}
SMALL_FULLKF = {
    "seed": 11,
    "objective": {"kind": "linear-regression", "n": 500, "p": 32},
    "algorithm": "full-kf",
    "optimizer": dict(SMALL_FULLKF_FILTER),
    "full_filter": dict(SMALL_FULLKF_FILTER),
    "T": 100,
    "B": 50,
}

BOUNDS_LOGREG = {
    "seed": 12,
    "objective": {"kind": "logistic-regression", "n": 200, "p": 6},
    "optimizer": {"kappa": 0.7, "gamma": -1.0, "eta": 0.2, "sigma_dp": 0.05},
    "f_star_steps": 200,
    "sigma_sgd_sq": 0.1,
    "T": 50,
    "B": 20,
}

BOUNDS_QUADRATIC = {
    "seed": 13,
    "objective": {"kind": "quadratic", "dim": 4, "eigenvalues": [0.5, 1.0, 2.0, 4.0]},
    "optimizer": {"kappa": 0.5, "gamma": 0.5, "eta": 0.05, "sigma_dp": 0.1},
    "init_scale": 2.0,
    "T": 200,
}

# name -> (config, whether ``train`` runs first and its trace goes to --trace)
BOUNDS_COMMANDS = {
    "bounds-small-fullkf": (SMALL_FULLKF, True),
    "bounds-logreg": (BOUNDS_LOGREG, False),
    "bounds-quadratic": (BOUNDS_QUADRATIC, False),
}

BOUNDS_GOLDEN = {
    "bounds-logreg": "d4cbea517114d0c3830cf46d7d312f60810b9dabe125672ed7d816a04ea24d31",
    "bounds-quadratic": "627e17ba56fffed3592e5bd92bdf3db43554af58d2e9a2b7c413ef9153483dae",
    "bounds-small-fullkf": "d3b70bdc59e53a910395998c44c50d5f272739a9772de24480de08c156d7afa0",
}


def run_command(name: str, tmp_path) -> str:
    """Run one named command in ``tmp_path``; sha256 of the CSV it wrote."""
    config, argv, csv_name = COMMANDS[name]
    outdir = tmp_path / "out"
    argv = [*argv, "--outdir", str(outdir)]
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        argv[1:1] = ["--config", str(cfg_path)]
    assert cli_main(argv) == 0
    return hashlib.sha256((outdir / csv_name).read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_csv_bytes_unchanged(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("DISK_SEED", raising=False)
    assert run_command(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CALIBRATE_COMMANDS))
def test_calibrate_report_bytes_unchanged(name, capsys):
    assert cli_main(["calibrate", *CALIBRATE_COMMANDS[name]]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CALIBRATE_GOLDEN[name]


def run_bounds(name: str, tmp_path, capsys) -> str:
    """sha256 of the stdout of one named ``bounds`` command."""
    config, with_trace = BOUNDS_COMMANDS[name]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    argv = ["bounds", "--config", str(cfg_path)]
    if with_trace:
        outdir = tmp_path / "out"
        assert cli_main(["train", "--config", str(cfg_path), "--outdir", str(outdir)]) == 0
        argv += ["--trace", str(outdir / "trace.csv")]
    capsys.readouterr()
    assert cli_main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(BOUNDS_COMMANDS))
def test_bounds_report_bytes_unchanged(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("DISK_SEED", raising=False)
    assert run_bounds(name, tmp_path, capsys) == BOUNDS_GOLDEN[name]


# name -> argv of a ``kalman-demo`` command whose stdout is hashed
KALMAN_DEMO_COMMANDS = {
    "kalman-demo-dim3": ["--dim", "3", "--steps", "300", "--runs", "5", "--seed", "0"],
    "kalman-demo-dim8": ["--dim", "8", "--steps", "300", "--runs", "4", "--seed", "2"],
}

KALMAN_DEMO_GOLDEN = {
    "kalman-demo-dim3": "e15f9fb5852b6845d8f23103576142b8b29ce786033f1e12877226a5d55a6e6a",
    "kalman-demo-dim8": "c5a50ce60403c7338c51ad923593b20f3eefef7a9ff6414ff13d52f1a2292fba",
}


@pytest.mark.parametrize("name", sorted(KALMAN_DEMO_COMMANDS))
def test_kalman_demo_output_bytes_unchanged(name, capsys, monkeypatch):
    monkeypatch.delenv("DISK_SEED", raising=False)
    assert cli_main(["kalman-demo", *KALMAN_DEMO_COMMANDS[name]]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == KALMAN_DEMO_GOLDEN[name]
