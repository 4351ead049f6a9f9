"""Self-check of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selfcheck.py

For every workload:

* an untraced and a traced run, each through the command line, end with a
  result line that names exactly the metrics BENCHMARK.json lists, with
  their units, and count no failed op;
* a run whose first timed op has a corrupted CSV counts that op as failed;
* a run whose re-run writes different (still valid) CSV bytes counts the
  re-run as failed.

Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import ROOT, run_benchmark
from workloads import WORKLOADS

SEED = 3
SECONDS = 1.0


def _expected(kind: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def _cli_result(workload: str, trace: int) -> dict:
    cmd = [
        sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
        "--workload", workload, "--seed", str(SEED), "--seconds", str(SECONDS),
        "--trace", str(trace), "--scale", "tiny",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _rewrite_last_field(path: str, edit) -> None:
    with open(path) as fh:
        lines = fh.read().splitlines()
    head, _, last = lines[-1].rpartition(",")
    lines[-1] = f"{head},{edit(last)}"
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class CorruptFirstTimed:
    """Replace the last CSV field of the first timed op with ``nan``."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, op, outdir: str) -> None:
        self.calls += 1
        if self.calls == 2:  # call 1 is the warm-up op
            _rewrite_last_field(os.path.join(outdir, op.csv_name), lambda v: "nan")


def _perturb_rerun(op, outdir: str) -> None:
    if os.path.basename(outdir) == "rerun":
        flip = {str(d): str((d + 1) % 10) for d in range(10)}
        _rewrite_last_field(
            os.path.join(outdir, op.csv_name), lambda v: v[:-1] + flip[v[-1]]
        )


def main() -> int:
    end_to_end, per_layer = _expected("end_to_end"), _expected("per_layer")
    for name in WORKLOADS:
        for trace, want in ((0, end_to_end), (1, per_layer)):
            res = _cli_result(name, trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                raise SystemExit(f"{name} trace={trace}: metrics {got} != {want}")
            if not res["correct"] or res["failed"] != 0:
                raise SystemExit(f"{name} trace={trace}: {res['failed']} failed ops")

        res, _ = run_benchmark(name, SEED, SECONDS, False, "tiny", tamper=CorruptFirstTimed())
        if res["correct"] or res["failed"] != 1:
            raise SystemExit(f"{name}: corrupted CSV counted {res['failed']} failures, want 1")
        rate = res["metrics"]["success_rate"]["value"]
        if rate != (res["attempted"] - 1) / res["attempted"]:
            raise SystemExit(f"{name}: success_rate {rate} ignores the corrupted op")

        res, info = run_benchmark(name, SEED, SECONDS, False, "tiny", tamper=_perturb_rerun)
        if res["failed"] != 1 or info["rerun_identical"]:
            raise SystemExit(f"{name}: non-reproducing re-run counted {res['failed']} failures")
        print(f"ok  {name}", flush=True)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
