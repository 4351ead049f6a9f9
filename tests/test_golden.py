"""Byte-identity gate: the CSV and SVG outputs of a fixed command set.

Every command runs through ``cli.main`` at tiny sizes and the sha256 of the
CSV it writes, and of the SVG plot beside it, is compared with a recorded
hash. The ``calibrate`` commands write no file; the hash of their JSON
report (noise multiplier, epsilon spent and the RDP value at every order)
gates the accountant itself. The ``bounds``
commands hash their JSON report the same way, which gates the problem
constants (gap0, grad0_sq), the f* estimate and the bound evaluators. The
``kalman-demo`` commands hash their stdout, which gates the predict/correct
filter that the estimator-quality simulation runs. A refactor that keeps the
trajectories keeps these hashes; a change that is meant to alter an output
must say so and record the new hash. Tiny runs give the same bytes at 1 and
2 BLAS threads. The hashes hold on the OpenBLAS kernel they were taken on,
``KERNEL``; another kernel sums in another order, and a run on it fails
``test_hashes_were_taken_on_this_openblas_kernel``, which names both.
"""

import ctypes
import glob
import hashlib
import json
import os

import numpy as np
import pytest

from dpkf.cli import main as cli_main

# The core name of the OpenBLAS kernel the hashes below were taken on.
KERNEL = "SkylakeX"


def openblas_kernel() -> str | None:
    """The core name of the OpenBLAS in ``numpy.libs``, the library
    ``objectives._openblas_threads`` finds; None when numpy bundles none."""
    libdir = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return None


def test_hashes_were_taken_on_this_openblas_kernel():
    kernel = openblas_kernel()
    assert kernel == KERNEL, (
        f"the golden hashes were taken on the {KERNEL} OpenBLAS kernel; this run uses {kernel}"
    )

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

# A 3 x 3 MLP sweep over two seeds, automatic clipping under adamw: seven
# distinct runs a seed, stepped as one stack.
MLP_ADAMW = {
    "seeds": [3, 4],
    "objective": {"kind": "mlp", "n": 60, "p": 4, "hidden": 5},
    "optimizer": {
        "kappa": 0.7, "gamma": 0.5, "eta": 0.05, "clip": 1.0,
        "clip_variant": "automatic", "base": "adamw", "weight_decay": 0.01,
    },
    "privacy": {"epsilon": 4.0},
    "T": 6,
    "B": 20,
}
SWEEP_GRID_3X3 = ["sweep", "--kappas", "0.3,0.5,1.0", "--gammas=-1.0,0.5,2.0"]

# sigma_dp = 0 at p = 1: every step adds a noise row of -0.0, which keeps
# every bit, signed zeros included. A clipped two-point train run, a sweep
# whose three distinct runs step as one stack, and a comparison whose every
# level is 0.
LINREG_P1_QUIET = {
    "seed": 10,
    "objective": {"kind": "linear-regression", "n": 40, "p": 1},
    "algorithm": "disk",
    "optimizer": {
        "kappa": 0.6, "gamma": 0.5, "eta": 0.1, "clip": 1.0,
        "clip_variant": "standard", "sigma_dp": 0.0,
    },
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
    "train-logreg-bench": (LOGREG_BENCH, ["train"], "trace.csv"),
    "train-mlp-wide": (MLP_WIDE, ["train"], "trace.csv"),
    "train-linreg-p1": (LINREG_P1, ["train"], "trace.csv"),
    "train-dpsgd-unclipped": (LOGREG_UNCLIPPED, ["train"], "trace.csv"),
    "train-mlp-wide-noisy-gd": (dict(MLP_WIDE, algorithm="noisy-gd"), ["train"], "trace.csv"),
    "train-linreg-p1-noisy-gd": (LINREG_P1_GD, ["train"], "trace.csv"),
    "sweep-mlp": (MLP, SWEEP_GRID, "sweep.csv"),
    "sweep-logreg-seeds": (SWEEP_SEEDS, SWEEP_GRID, "sweep.csv"),
    "sweep-linreg-full-batch": (LINREG_FULL_BATCH, SWEEP_GRID, "sweep.csv"),
    # presets that read neither kappa nor gamma (full-kf) or not gamma (noisy-lp)
    "sweep-full-kf": (FULLKF, SWEEP_GRID, "sweep.csv"),
    "sweep-noisy-lp": (dict(LOGREG, algorithm="noisy-lp"), SWEEP_GRID, "sweep.csv"),
    "sweep-mlp-adamw": (MLP_ADAMW, SWEEP_GRID_3X3, "sweep.csv"),
    "train-linreg-p1-quiet": (LINREG_P1_QUIET, ["train"], "trace.csv"),
    "sweep-linreg-p1-quiet": (LINREG_P1_QUIET, SWEEP_GRID, "sweep.csv"),
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
    # 9 levels: a level of 0, a duplicate, and as many nonzero levels as p
    "compare-filters-levels": (
        None,
        ["compare-filters", "--seeds", "0,1", "--noise-levels",
         "0.05,0,0.3,0.05,1.5,0.01,0.8,0.1,3", "--n", "100", "--p", "8", "--T", "12"],
        "comparison.csv",
    ),
    # every row at kappa 1: a = 0 and a filter column of ones
    "compare-filters-kappa1": (
        None,
        ["compare-filters", "--seeds", "0,1", "--kappa", "1", "--noise-levels", "0,0.05,0.5",
         "--n", "60", "--p", "4", "--T", "10"],
        "comparison.csv",
    ),
    # three seeds at p = 1, a level of 0 among them: signed zeros in a cross-seed stack
    "compare-filters-seeds3-p1": (
        None,
        ["compare-filters", "--seeds", "0,1,2", "--p", "1", "--noise-levels", "0,0.05,0.5"],
        "comparison.csv",
    ),
    # every level 0
    "compare-filters-quiet-p1": (
        None,
        ["compare-filters", "--seeds", "0,1", "--p", "1", "--noise-levels", "0"],
        "comparison.csv",
    ),
}

GOLDEN = {
    "compare-filters": "8922a2ab8f7a2776bcd90d72f753df0693cb292294ba804a52fd68c235017b47",
    "compare-filters-wide": "776c3b0d3a41eb9652a798b1668777a13b8235842704ac92de2bf88cc324dd3f",
    "compare-filters-levels": "38b0939181af0bee36d6a9dbbc34490af75b2fd44a7ad05ddb710ad91eab0397",
    "compare-filters-kappa1": "9e4aa63e63a20c160397dd3ce29e1c5d2802f5e97fdaaa441a7834290284f36f",
    "compare-filters-seeds3-p1": "70889651058981984bad7239cee61bf43f270202dbda230e0944bbb3defc475b",
    "compare-filters-quiet-p1": "0b87d4bd85428b0f3e5b8e2ca8cee1667a2efc54f973beb58057c83bb6ef42b7",
    "sweep-linreg-full-batch": "d449b753031da5826035df4415fc426ef59153293af890d3b288d7fe0efe2f29",
    "sweep-full-kf": "ddd1357cd76e60689f51fdc4ba4daee2b52a48cf14d578120b6dd0dce4272e3e",
    "sweep-logreg-seeds": "1628861caf94e3efdda1d6ec12ca586e749aec60eaa6f87f40cc9c703ba0fd41",
    "sweep-mlp": "ba36e8f7854c68916321917e4a518c8b35669af33b95fab79e80c9cce46f0850",
    "sweep-noisy-lp": "2c05541c1f046a730509868f2819a28472d12b9c2b925f6d967308e385d98cd6",
    "sweep-mlp-adamw": "15c38ca71c925a8ef8ebba891332c5e711d77f28d2e50aca0279fd1533e8d094",
    "sweep-linreg-p1-quiet": "6746356b2b375e630e5056c51c97208531c7997c8ddea117f5d25f07855fa71c",
    "train-disk": "5f0543b2f89ca3a07f0ebef9b86e8d1e1f1afe8ff0fcf750150cc19964616026",
    "train-dpsgd": "0faf0c1b01a79791981075584dd22122652ef60dbdd7bf39a07d47d5d2eafcad",
    "train-dpsgd-target": "8128d60b8af5ceeb3ff2e7d6e26a4e663a145b82083148f3ab2c6788fa588441",
    "train-dpsgd-unclipped": "d316657440fbec15bc578a989ba334578cd415050b81edbc2dd0b6274100768f",
    "train-linreg-p1": "bfa6904c6df4ac77f67b0182b2990b40f5477dd8e0e3ec62139e5b77b80b731b",
    "train-linreg-p1-noisy-gd": "b5951f53179fbd669e291b9be11c8b2d2df33e97446519953db05802ebec1ffd",
    "train-linreg-p1-quiet": "8233cadfc54bb3134c7fa0d3703b479b514ecb2737442bf075a6deae54ea9fbc",
    "train-logreg-bench": "c8c2906de952798ff4c9590350abf753e54da7e43c619c8c04bb3b8d2cc69bdf",
    "train-logreg-wide": "843b1e2ee7d5cb8925045ca7ad49aa0d26d2d10ecc6e90a1672e3dabf9f800e9",
    "train-mlp-wide": "08664153f68b2f3d34b5a5b27178068ff5836c74f3adb33f37a4fe8c2b119f23",
    "train-full-kf": "d013cf5bcdda3cfa104b1442a2669526ae218ef876290156a322815815e41116",
    "train-mlp-wide-noisy-gd": "dd2757d51d57fcd2b30050c801d0fa2f477a6514cc29f8c451247875a102d626",
    "train-noisy-gd": "142d5f5862e5b93b6c02667cecd37fda228bf5735461b044e46e646a6a639496",
    "train-noisy-kf": "5f0543b2f89ca3a07f0ebef9b86e8d1e1f1afe8ff0fcf750150cc19964616026",
    "train-noisy-lp": "d0b55c39cd0c2576c7094880bca4c497aff2cda22862f6435bdf827deb392534",
}

# sha256 of the SVG each command above writes beside its CSV
SVG_GOLDEN = {
    "compare-filters": "51f789a7a0294b22739fa11ea45b289cabc30f23f6bf910a6f1ca14ff6efdd36",
    "compare-filters-levels": "ed1a051bbad44168a7baf5bcfa204801418dff64115d5b891e2913a41c82ffb4",
    "compare-filters-kappa1": "44c0ed92af8aab765ed734d9e35bf9c56b85bac2aebf5bcc3d38c719a8e592cc",
    "compare-filters-seeds3-p1": "76d7bcd61b70208745641e25acd92142d147e9892741007b9e34261505b024b0",
    "compare-filters-quiet-p1": "c51eb54307aa3a48ac9aa3590e4c65b42bda19594dc5df13d6f25d0cd2ee7185",
    "compare-filters-wide": "c8928f68618d5a45cde834de3509187706977f57300344a782c5022066695b66",
    "sweep-full-kf": "9f38bee5cf01ed8bc9df21e3019db78e1576cb35d7cb96baa958e8b7ed16ffbc",
    "sweep-linreg-full-batch": "a086f592a3ff0410337d668653146ca8a174ce8264af781dd6aff0affa4783fa",
    "sweep-logreg-seeds": "4c740324603e8ba91c4eb580e38464f17eb4762aeca689e4fcd8a411ed389e94",
    "sweep-mlp": "3d45f658f2f2dbfde80ea287e17ff61e750ac2e281adaec16ef91331f2e06f05",
    "sweep-noisy-lp": "577512e0c9e3e118a69799ec6336fbcc8995aeb2c98f1108913859d34fd19476",
    "sweep-mlp-adamw": "3abe4d32c39ba4dcad66e1df2d4f133df6ee84e2a32d2871ac44efc1db3153e5",
    "sweep-linreg-p1-quiet": "9b0ce39cb64a7ba558813cfa836af6cc9abac075141e9639379a6b22c58f2d83",
    "train-disk": "0afee63f5ad15deae0e82237291bf179ee40673a7e2ae54af822ce25bd34d325",
    "train-dpsgd": "1f8153f6d3be8c1743cf18bcaa419936edc5f9dceb2c72cabf02c3543dc5ae4e",
    "train-dpsgd-target": "64bd01e151bab1bc5e569ebc3850eb93bd427b71259d1a2bdaf6a57bd72c89a6",
    "train-dpsgd-unclipped": "e06f600bfb0a92048c5033485ec92d16224534e9d2771d950c1e4f0d3d97499c",
    "train-full-kf": "a8608da5f097f5355850b2dd4e488d01ea668e3e77932f70e2e66e9a10ffb15a",
    "train-linreg-p1": "aecc33ed309f47326a9ada577c25c806709ca712a7146a2a3167aa93a8f84bde",
    "train-linreg-p1-noisy-gd": "dcb027a9d54d59048f00e685762f689f37a3abaa465b2f77943472a3954cc10f",
    "train-linreg-p1-quiet": "db761c5662a55f664e5e6ffb4acb574a22d69a30327f148b8f7117a02103f534",
    "train-logreg-bench": "863b278e76b0aec8b904b675b3d0e7d75e709ebf0819ba27bd11a531e889638a",
    "train-logreg-wide": "a865633c27676a922a2c79f43d462bdfcb761b4e14947e8f82c300c752b539be",
    "train-mlp-wide": "16c5f0fe1bb1a3fe168e414d2e9438036fc8dd0faeb277f61804860e39df138a",
    "train-mlp-wide-noisy-gd": "66e97413b6791095166f5fc0e5cac4e1a57bb862156fe7e6d161f9cfe5f888c5",
    "train-noisy-gd": "28d6a2aa0e34bb983bccc9858c26d3374d0a2d1b4573acf03f4ea398b1cb5027",
    "train-noisy-kf": "0afee63f5ad15deae0e82237291bf179ee40673a7e2ae54af822ce25bd34d325",
    "train-noisy-lp": "61165f483d4878fe946a9ef6029b6e32c7309be0cd13a08ebc9f1db3a4f0eb1d",
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
    "calibrate-clip": "6de2f7cf905bb8c618e675a062050141af8e8faeb7724130d398777ffc435ef1",
    "calibrate-full-batch": "4dc454039bf639293a47c713b389b2aeca1c93c3e569aa25c9b11b0b442c648f",
    "calibrate-small-q": "9ce1e33f391890648d15a1f7b8cac8b0c5659ca9a6b664cecc459a76fb3c0aa8",
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

# The logistic report at train's calibrated sigma_dp for a privacy target, and
# at the kappa = 1 of the dpsgd preset.
BOUNDS_LOGREG_TARGET = {
    **BOUNDS_LOGREG,
    "optimizer": {k: v for k, v in BOUNDS_LOGREG["optimizer"].items() if k != "sigma_dp"},
    "privacy": {"epsilon": 2.0},
}

# name -> (config, whether ``train`` runs first and its trace goes to --trace)
BOUNDS_COMMANDS = {
    "bounds-small-fullkf": (SMALL_FULLKF, True),
    "bounds-logreg": (BOUNDS_LOGREG, False),
    "bounds-logreg-target": (BOUNDS_LOGREG_TARGET, False),
    "bounds-dpsgd": (dict(BOUNDS_LOGREG, algorithm="dpsgd"), False),
    "bounds-quadratic": (BOUNDS_QUADRATIC, False),
}

BOUNDS_GOLDEN = {
    "bounds-dpsgd": "1ee7b1d1dd25aa17b622724ae1b8be5ab4895cc8d8167c54eb77e87e5fb006ca",
    "bounds-logreg": "d4cbea517114d0c3830cf46d7d312f60810b9dabe125672ed7d816a04ea24d31",
    "bounds-logreg-target": "80ab38acbdc8eb958c80068aeb339eaa51b47477dcc5b75f4ef782c64f743405",
    "bounds-quadratic": "627e17ba56fffed3592e5bd92bdf3db43554af58d2e9a2b7c413ef9153483dae",
    "bounds-small-fullkf": "d3b70bdc59e53a910395998c44c50d5f272739a9772de24480de08c156d7afa0",
}


def run_command(name: str, tmp_path, ext: str = "csv") -> str:
    """Run one named command in ``tmp_path``; sha256 of the CSV it wrote, or
    of the SVG beside it for ``ext`` "svg"."""
    config, argv, csv_name = COMMANDS[name]
    outdir = tmp_path / "out"
    argv = [*argv, "--outdir", str(outdir)]
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        argv[1:1] = ["--config", str(cfg_path)]
    assert cli_main(argv) == 0
    path = outdir / csv_name
    return hashlib.sha256(path.with_suffix(f".{ext}").read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_csv_bytes_unchanged(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("DISK_SEED", raising=False)
    assert run_command(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_svg_bytes_unchanged(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("DISK_SEED", raising=False)
    assert run_command(name, tmp_path, "svg") == SVG_GOLDEN[name]


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
