"""dpkf benchmark: one closed-loop client calling the CLI in-process.

    python3 perfbench/run.py --workload train-logreg --seed 1 --seconds 25 --trace 0

Run from the repository root; ``src/`` is put on ``sys.path``, nothing is
installed. The client calls ``dpkf.cli.main([...])`` and starts the next op
only when the previous one has returned. Inputs come from ``--seed`` alone.
Every op's outputs are checked; a failed check, an exception or a re-run
whose CSV bytes differ from the first run counts as a failed op.

``--trace 0`` prints the end-to-end metrics. Their times are at nominal
machine speed (see ``speed.py``); the raw wall-clock values are printed
beside them. ``--trace 1`` alternates untraced and traced ops and prints the
per-layer metrics (see ``tracing.py``); spans go to
``.perfbench_out/spans-<workload>.jsonl``.

The process restarts itself once with fixed glibc malloc thresholds
(``MALLOC_ENV``). The last stdout line is the result JSON; the line before
it carries the machine facts, sample counts, wall-clock values and the CSV
hash.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import speed
from machine import machine_facts
from tracing import Tracer, per_layer_metrics
from workloads import SCALES, WORKLOADS, CheckFailed, Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5  # fresh processes timed for setup_s; the median is reported
# An op's time is scaled to nominal speed by the median reference-kernel time
# of its BLOCK_S-long block of the run (see speed.py).
BLOCK_S = 2.5
HASH_OPS = 10  # CSVs of the first timed ops hashed into csv_sha256
COUNT_OPS = 5  # traced ops whose per-layer counts are averaged
CHILD_TIMEOUT_S = 120
# glibc adapts its mmap and trim thresholds to the allocation history, and
# each process lands at random in one of two modes: in one, the heap top is
# trimmed and refaulted every step (about 33k page faults per compare-filters
# op, 53k per sweep-mlp op, +25-40% op time); in the other there are almost
# none. Fixed thresholds put every run in the second mode, so run-to-run
# differences come from the program and not from the coin.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}


@dataclass(frozen=True)
class OpRun:
    params: dict
    start_s: float
    steps: int
    wall_s: float
    cpu_s: float
    csv: bytes | None  # None when the op failed
    traced: bool


def _nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def nominal_factors(timed: list[OpRun], kernel: list[float]) -> list[float]:
    """Per op, NOMINAL_S over the median kernel time of the op's block."""
    t0 = timed[0].start_s
    block_of = [int((r.start_s - t0) // BLOCK_S) for r in timed]
    by_block: dict[int, list[float]] = {}
    for b, k in zip(block_of, kernel):
        by_block.setdefault(b, []).append(k)
    block_kernel = {b: statistics.median(ks) for b, ks in by_block.items()}
    return [speed.NOMINAL_S / block_kernel[b] for b in block_of]


class Runner:
    """Draws, runs and checks the ops of one workload run."""

    def __init__(self, workload: str, seed: int, scale: str, workdir: str, tamper=None):
        from dpkf import cli

        self.cli = cli
        self.workload = WORKLOADS[workload]
        self.size = SCALES[scale]
        self.rng = random.Random(f"{workload}/{seed}")
        self.workdir = workdir
        self.tamper = tamper  # self-check hook: corrupt outputs before the check
        self.tracer = None
        self.attempted = 0
        self.failed = 0

    def draw(self) -> dict:
        return self.workload.draw(self.rng, self.size)

    def _prepare(self, params: dict, tag: str) -> tuple[Op, str]:
        outdir = os.path.join(self.workdir, tag)
        shutil.rmtree(outdir, ignore_errors=True)
        cfg_path = os.path.join(self.workdir, f"{tag}.json")
        op = self.workload.build(params, self.size, cfg_path, outdir)
        if op.config is not None:
            with open(cfg_path, "w") as fh:
                json.dump(op.config, fh)
        return op, outdir

    def _call(self, argv: list[str], traced: bool) -> str:
        buf = io.StringIO()
        span = self.tracer.span("cli") if traced else contextlib.nullcontext()
        with contextlib.redirect_stdout(buf), span:
            rc = self.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"dpkf {argv[0]} exited with {rc}")
        return buf.getvalue()

    def run(self, params: dict, tag: str, op_id: int | None = None) -> OpRun:
        """Run and check one op; ``op_id`` set means traced."""
        op, outdir = self._prepare(params, tag)
        traced = op_id is not None
        self.attempted += 1
        if traced:
            self.tracer.install()
            self.tracer.begin_op(op_id)
        stdouts, error = [], None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            for argv in op.commands:
                stdouts.append(self._call(argv, traced))
        except (Exception, SystemExit):  # the op boundary: record, keep running
            error = traceback.format_exc()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if traced:
            self.tracer.end_op(wall)
            self.tracer.uninstall()
        csv_bytes = None
        if error is None:
            try:
                if self.tamper is not None:
                    self.tamper(op, outdir)
                csv_bytes = self.workload.check(op, outdir, stdouts)
            except (CheckFailed, OSError, ValueError, IndexError) as exc:
                error = f"output check failed: {exc!r}\n"
        if error is not None:
            self.failed += 1
            print(f"[{self.workload.name}] op {tag} failed: {error}", file=sys.stderr)
        return OpRun(params, t0, op.steps, wall, cpu, csv_bytes, traced)

    def rerun_matches(self, params: dict, first: bytes | None) -> bool:
        """Re-run an op and compare its CSV bytes with the first execution."""
        again = self.run(params, "rerun").csv
        if first is not None and again is not None and again != first:
            self.failed += 1
            print(f"[{self.workload.name}] re-run CSV differs from first run", file=sys.stderr)
            return False
        return first is not None and again is not None


def measure_setup(workload: str, seed: int, scale: str) -> tuple[float, float]:
    """Seconds from spawning a fresh process to its first timed op (interpreter
    start, ``import dpkf``, input generation and one untimed warm-up op) at
    nominal speed, and the reference-kernel time taken around it."""
    before = speed.kernel_median_s()
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", workload, "--seed", str(seed), "--scale", scale,
    ]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    kernel = 0.5 * (before + speed.kernel_median_s())
    return elapsed * speed.NOMINAL_S / kernel, kernel


def setup_probe(workload: str, seed: int, scale: str) -> int:
    """Child side of ``measure_setup``: do the set-up work, then say so."""
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT)
    try:
        runner = Runner(workload, seed, scale, workdir)
        runner.run(runner.draw(), "warmup")
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def run_benchmark(
    workload: str, seed: int, seconds: float, trace: bool, scale: str = "full", tamper=None
) -> tuple[dict, dict]:
    """One run. Returns (result, info): the result is the contract's last line."""
    setups = [] if trace else [measure_setup(workload, seed, scale) for _ in range(SETUP_REPEATS)]
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        runner = Runner(workload, seed, scale, workdir, tamper)
        if trace:
            runner.tracer = Tracer()
        runner.run(runner.draw(), "warmup")

        # With tracing, odd ops are traced and even ones not, so the overhead
        # ratio compares ops drawn and timed side by side.
        timed: list[OpRun] = []
        kernel: list[float] = []  # reference-kernel time just before each op
        faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(timed) < (2 if trace else 1):
            i = len(timed)
            traced = trace and i % 2 == 1
            kernel.append(speed.kernel_s())
            timed.append(runner.run(runner.draw(), "op", op_id=i if traced else None))
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0

        traced_ids = [i for i, r in enumerate(timed) if r.traced]
        alloc_id = None
        if trace:
            # Untimed: tracemalloc slows every allocation.
            alloc_id = len(timed)
            runner.tracer.alloc_probe = True
            tracemalloc.start()
            try:
                runner.run(timed[traced_ids[0]].params, "alloc", op_id=alloc_id)
            finally:
                tracemalloc.stop()
                runner.tracer.alloc_probe = False

        reproducible = runner.rerun_matches(timed[0].params, timed[0].csv)

        digest = hashlib.sha256()
        for r in timed[:HASH_OPS]:
            digest.update(r.csv or b"")
        info = {
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "scale": scale,
            "ops_timed": len(timed),
            "rerun_identical": reproducible,
            "error_rate": runner.failed / runner.attempted,
            "csv_sha256": digest.hexdigest(),
            "csv_sha256_ops": min(HASH_OPS, len(timed)),
            "page_faults_per_op": faults / len(timed),
            "machine": machine_facts(),
        }
        if trace:
            untraced = [r.wall_s for r in timed if not r.traced]
            traced_walls = [timed[i].wall_s for i in traced_ids]
            overhead = statistics.median(traced_walls) / statistics.median(untraced)
            values = per_layer_metrics(
                runner.tracer, traced_ids[:COUNT_OPS], traced_ids, alloc_id, overhead
            )
            info["ops_traced"] = len(traced_ids)
            info["counts_over_ops"] = len(traced_ids[:COUNT_OPS])
            info["layer_self_share"] = runner.tracer.layer_self_share(traced_ids)
            spans_path = OUT / f"spans-{workload}.jsonl"
            runner.tracer.write_spans(str(spans_path))
            info["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            factors = nominal_factors(timed, kernel)
            walls = [r.wall_s * f for r, f in zip(timed, factors)]
            values = {
                "setup_s": statistics.median(s for s, _ in setups),
                "op_s_p50": statistics.median(walls),
                "op_s_p90": _nearest_rank(walls, 0.9),
                "steps_per_s": sum(r.steps for r in timed) / sum(walls),
                "op_cpu_s_p50": statistics.median(r.cpu_s * f for r, f in zip(timed, factors)),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                "success_rate": (runner.attempted - runner.failed) / runner.attempted,
            }
            raw = [r.wall_s for r in timed]
            info["setup_samples_s"] = [s for s, _ in setups]
            info["op_s_p90_samples_beyond"] = len(walls) - math.ceil(0.9 * len(walls))
            info["wall_clock"] = {
                "setup_s": statistics.median(s * k / speed.NOMINAL_S for s, k in setups),
                "op_s_p50": statistics.median(raw),
                "op_s_p90": _nearest_rank(raw, 0.9),
                "op_cpu_s_p50": statistics.median(r.cpu_s for r in timed),
                "kernel_s_p50": statistics.median(kernel),
            }
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)["per_layer" if trace else "end_to_end"]
        if set(values) != {m["name"] for m in spec}:
            raise RuntimeError("metrics disagree with BENCHMARK.json")
        result = {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
        }
        return result, info
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "dpkf" / "__init__.py").is_file():
        print(f"error: no dpkf package under {SRC}", file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in MALLOC_ENV.items()):
        # glibc reads these only at start-up: restart this process with them.
        script = str(Path(__file__).resolve())
        os.execve(sys.executable, [sys.executable, script, *sys.argv[1:]], {**os.environ, **MALLOC_ENV})
    # DISK_SEED overrides every per-op seed inside the CLI.
    os.environ.pop("DISK_SEED", None)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed, args.scale)
    result, info = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
