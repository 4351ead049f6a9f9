"""Byte-identity gate: the CSV outputs of a fixed command set.

Every command runs through ``cli.main`` at tiny sizes and the sha256 of the
CSV it writes is compared with a recorded hash. The ``calibrate`` commands
write no file; the hash of their JSON report (noise multiplier, epsilon spent
and the RDP value at every order) gates the accountant itself. A refactor that keeps the
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
    "full_filter": dict(FULLKF_FILTER, hessian_mode="fd", sigma_w_sq=0.5),
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
    "full_filter": dict(LINREG_P1_FILTER, hessian_mode="fd", sigma_w_sq=0.5),
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
    "train-mlp-wide": (MLP_WIDE, ["train"], "trace.csv"),
    "train-linreg-p1": (LINREG_P1, ["train"], "trace.csv"),
    "train-dpsgd-unclipped": (LOGREG_UNCLIPPED, ["train"], "trace.csv"),
    "train-mlp-wide-noisy-gd": (dict(MLP_WIDE, algorithm="noisy-gd"), ["train"], "trace.csv"),
    "train-linreg-p1-noisy-gd": (LINREG_P1_GD, ["train"], "trace.csv"),
    "sweep-mlp": (
        MLP, ["sweep", "--kappas", "0.5,1.0", "--gammas=-1.0,0.5"], "sweep.csv"
    ),
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
    "compare-filters": "d84a6dba2894403d2348e77e549d3ed292e30388463cef4879d6d17145be6123",
    "compare-filters-wide": "da0221941c72e6c609607b131d6241ba16b16770cbc28da21623d7fc789dae42",
    "sweep-mlp": "3b3fbd0b9f40e19729c600e2f3070889465dd4b57e5cba8cc62314024258b29f",
    "train-disk": "229758fbf7a233049d58e31956c3d583860ca48a6d17c05b1d1f6a465893add6",
    "train-dpsgd": "5c0f312f3aef85dcdb60493d0236f9eed111fbbe1e0909d54c2e15475bc97fdc",
    "train-dpsgd-target": "b970f3dd7c8e1c0aa7ccc6057bdb9e1e560b0c5fac18899a90ae2b8a143bc18c",
    "train-dpsgd-unclipped": "f672640422115e7a566a3a40363b264f5fb01bda92a00600d25985479cc16ce1",
    "train-linreg-p1": "756ddd893ab200dacb34d5c40ebf896eb050ff54aff58f31ad9a6c60e2337cef",
    "train-linreg-p1-noisy-gd": "5eb6bda35b1ba2ffa4679f2b77170404f6380a2906fa04bd57fa88929253975e",
    "train-logreg-wide": "f5e901de9b4b07395710aba919265a6a7a3cf4bc00b79b6a6c3ddb37fd8dbe6b",
    "train-mlp-wide": "63945e3c73c61c75c742acbc58edd624d17af9e7561538f0cb17659b5d1e335c",
    "train-full-kf": "b4003db80b24a642b5ab40ca4c6f8e0934138759aa48dfedc2a62145742bbd98",
    "train-mlp-wide-noisy-gd": "dd2757d51d57fcd2b30050c801d0fa2f477a6514cc29f8c451247875a102d626",
    "train-noisy-gd": "f97db3f96d7e241a50c88a83ed7de3a5fecc618004a71ccaeca7609c3c923812",
    "train-noisy-kf": "229758fbf7a233049d58e31956c3d583860ca48a6d17c05b1d1f6a465893add6",
    "train-noisy-lp": "42c71fa5ffed08f81d09643ae56cffd567a7ddcb30914a0baa73f92e6311ff5a",
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
