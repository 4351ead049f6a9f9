"""Per-layer spans and counts for the dpkf package, installed from outside it.

The layers are the package modules: cli, harness, disk, objectives, privacy,
kalman and theory (seeding and svgplot are folded into their callers).

Most dpkf modules bind collaborators with ``from .x import y``, so a call
looks the function up in the *calling* module's namespace; patching the
defining module alone would miss it. ``Tracer.install`` therefore replaces
every module-level name in ``dpkf.*`` that refers to a traced function, and
``per_sample_grads`` on each ``Objective`` subclass, and ``uninstall`` puts
the originals back.

A span records name, start, end, parent span and op id. Spans are kept in
memory; ``write_spans`` dumps them when the run ends. Nothing in dpkf queues,
so no layer has a wait time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

EVAL = "objectives.eval"
GRAD = "objectives.grad"
CALIBRATE = "privacy.calibrate"
RDP = "privacy.rdp"

@dataclass(frozen=True)
class Probe:
    """What a wrapper records under ``name``."""

    name: str
    rows: Callable | None = None  # (args) -> rows of work in this call
    key: Callable | None = None  # (args) -> hashable argument key
    skip_inside: tuple[str, ...] = ()  # call straight through inside these
    count_only: bool = False  # count calls, record no span (hot helpers)
    out_bytes: bool = False  # sum the sizes of the returned file paths
    alloc: bool = False  # tracemalloc peak while alloc probing is on


@dataclass
class OpStats:
    """Per-op totals of one traced op."""

    wall_s: float = 0.0
    calls: dict = field(default_factory=lambda: defaultdict(int))
    rows: dict = field(default_factory=lambda: defaultdict(int))
    incl_s: dict = field(default_factory=lambda: defaultdict(float))  # outermost
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    keys: dict = field(default_factory=lambda: defaultdict(set))
    out_bytes: int = 0
    alloc_peak: int = 0

    def distinct_ratio(self, name: str) -> float:
        calls = self.calls[name]
        return len(self.keys[name]) / calls if calls else 0.0


def _probes() -> dict:
    """Traced dpkf function -> Probe. Imports the package modules."""
    from dpkf import disk, harness, kalman, objectives, privacy, theory

    probes = {
        harness.run_experiment: Probe("harness.run"),
        harness.compare_filters: Probe("harness.run"),
        harness.sweep_kappa_gamma: Probe("harness.run"),
        harness.build_problem: Probe(
            "harness.build_problem",
            key=lambda a: (json.dumps(a[0], sort_keys=True), a[1]),
        ),
        harness.emit_trace: Probe("harness.emit", out_bytes=True),
        harness.emit_comparison: Probe("harness.emit", out_bytes=True),
        harness.emit_sweep: Probe("harness.emit", out_bytes=True),
        harness.read_trace_csv: Probe("harness.emit"),
        disk.disk_step: Probe("disk.step"),
        disk.dpsgd_step: Probe("disk.step"),
        disk.full_filter_step: Probe("disk.step"),
        objectives.two_point_grads: Probe(GRAD, skip_inside=(EVAL,)),
        objectives.full_gradient: Probe(EVAL, rows=lambda a: a[2].n, alloc=True),
        objectives.full_loss: Probe(EVAL, rows=lambda a: a[2].n, alloc=True),
        privacy.clip_batch: Probe(
            "privacy.clip", rows=lambda a: 0 if a[2] == "none" else len(a[0])
        ),
        privacy.calibrate_noise_multiplier: Probe(CALIBRATE, key=lambda a: a),
        privacy.subsampled_curve: Probe("privacy.accountant", skip_inside=(CALIBRATE,)),
        privacy.compose_and_convert: Probe("privacy.accountant", skip_inside=(CALIBRATE,)),
        privacy.rdp_subsampled: Probe(RDP, count_only=True),
        kalman.kf_gain_multiplicative: Probe("kalman.gain"),
    }
    for name, fn in vars(theory).items():
        if inspect.isfunction(fn) and fn.__module__ == theory.__name__ and not name.startswith("_"):
            probes[fn] = Probe("theory")
    return probes


def _objective_classes() -> list[type]:
    from dpkf.objectives import Objective

    todo, seen = [Objective], []
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


class Tracer:
    """Spans and counters for the ops run while it is installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, op id)
        self.ops: dict[int, OpStats] = {}
        self.alloc_probe = False
        self._stack: list[list] = []  # [id, name, start, child seconds]
        self._depth: dict[str, int] = defaultdict(int)
        self._op: int | None = None
        self._next_id = 0
        self._patches = self._patch_list()

    # -- installation ------------------------------------------------------

    def _patch_list(self) -> list[tuple[object, str, object, object]]:
        probes = _probes()
        wrappers = {fn: self._wrap(fn, probe) for fn, probe in probes.items()}
        patches = []
        for modname, mod in sorted(sys.modules.items()):
            if mod is None or not (modname == "dpkf" or modname.startswith("dpkf.")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    patches.append((mod, attr, value, wrappers[value]))
        for cls in _objective_classes():
            fn = cls.__dict__.get("per_sample_grads")
            if fn is not None:
                patches.append((cls, "per_sample_grads", fn, self._wrap_grads(fn)))
        return patches

    def install(self) -> None:
        for owner, attr, _orig, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig, _wrapper in self._patches:
            setattr(owner, attr, orig)

    # -- spans -------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self.ops[op_id] = OpStats()

    def end_op(self, wall_s: float) -> None:
        self.ops[self._op].wall_s = wall_s
        self._op = None

    def _stats(self) -> OpStats:
        return self.ops[self._op]

    def _enter(self, name: str) -> None:
        self._depth[name] += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def _exit(self) -> None:
        end = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        st = self._stats()
        st.self_s[name] += dur - child
        self._depth[name] -= 1
        if self._depth[name] == 0:
            st.incl_s[name] += dur
        parent = None
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        self.spans.append((sid, name, start, end, parent, self._op))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around code that is not a wrapped dpkf function."""
        self._stats().calls[name] += 1
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def _wrap(self, fn, probe: Probe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None or any(tracer._depth[s] for s in probe.skip_inside):
                return fn(*args, **kwargs)
            st = tracer._stats()
            st.calls[probe.name] += 1
            if probe.count_only:
                return fn(*args, **kwargs)
            if probe.rows is not None:
                st.rows[probe.name] += probe.rows(args)
            if probe.key is not None:
                st.keys[probe.name].add(probe.key(args))
            measure = probe.alloc and tracer.alloc_probe
            if measure:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            tracer._enter(probe.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if measure:
                st.alloc_peak = max(st.alloc_peak, tracemalloc.get_traced_memory()[1] - base)
            if probe.out_bytes:
                st.out_bytes += sum(os.path.getsize(p) for p in result)
            return result

        return wrapper

    def _wrap_grads(self, fn):
        """Per-sample gradients: a GRAD span unless already in GRAD or EVAL.

        Rows count every gradient row computed outside evaluation, including
        the two evaluations inside one two-point combination.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(obj, x, X, y):
            if tracer._op is None or tracer._depth[EVAL]:
                return fn(obj, x, X, y)
            tracer._stats().rows[GRAD] += len(X)
            if tracer._depth[GRAD]:
                return fn(obj, x, X, y)
            tracer._enter(GRAD)
            try:
                return fn(obj, x, X, y)
            finally:
                tracer._exit()

        return wrapper

    # -- reporting ---------------------------------------------------------

    def layer_self_share(self, op_ids: list[int]) -> dict[str, float]:
        """Share of traced op wall time spent in each layer's own code."""
        wall = sum(self.ops[i].wall_s for i in op_ids)
        per_layer: dict[str, float] = defaultdict(float)
        for i in op_ids:
            for name, s in self.ops[i].self_s.items():
                per_layer[name.split(".")[0]] += s
        return {k: round(v / wall, 4) for k, v in sorted(per_layer.items())} if wall else {}

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "op"]}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def per_layer_metrics(
    tracer: Tracer, count_ops: list[int], time_ops: list[int], alloc_op: int | None,
    overhead_ratio: float,
) -> dict[str, float]:
    """Per-layer metrics: counts and ratios averaged per op over ``count_ops``
    (a fixed prefix of ops, so they repeat exactly for a seed), times as the
    median per-op value over ``time_ops``."""

    def mean_per_op(get) -> float:
        return sum(get(tracer.ops[i]) for i in count_ops) / len(count_ops)

    def median_per_op(get) -> float:
        return statistics.median(get(tracer.ops[i]) for i in time_ops)

    alloc_peak = tracer.ops[alloc_op].alloc_peak if alloc_op is not None else 0
    values = {
        "objectives.eval.calls": mean_per_op(lambda s: s.calls[EVAL]),
        "objectives.eval.rows": mean_per_op(lambda s: s.rows[EVAL]),
        "objectives.eval.s": median_per_op(lambda s: s.incl_s[EVAL]),
        "objectives.eval.alloc_peak_mb": alloc_peak / 1e6,
        "objectives.grad.rows": mean_per_op(lambda s: s.rows[GRAD]),
        "objectives.grad.s": median_per_op(lambda s: s.incl_s[GRAD]),
        "disk.step.calls": mean_per_op(lambda s: s.calls["disk.step"]),
        "disk.step.self_s": median_per_op(lambda s: s.self_s["disk.step"]),
        "privacy.calibrate.calls": mean_per_op(lambda s: s.calls[CALIBRATE]),
        "privacy.calibrate.s": median_per_op(lambda s: s.incl_s[CALIBRATE]),
        "privacy.calibrate.distinct_ratio": mean_per_op(lambda s: s.distinct_ratio(CALIBRATE)),
        "privacy.rdp.evals": mean_per_op(lambda s: s.calls[RDP]),
        "privacy.accountant.s": median_per_op(lambda s: s.incl_s["privacy.accountant"]),
        "privacy.clip.rows": mean_per_op(lambda s: s.rows["privacy.clip"]),
        "privacy.clip.s": median_per_op(lambda s: s.incl_s["privacy.clip"]),
        "kalman.gain.calls": mean_per_op(lambda s: s.calls["kalman.gain"]),
        "kalman.gain.s": median_per_op(lambda s: s.incl_s["kalman.gain"]),
        "theory.s": median_per_op(lambda s: s.incl_s["theory"]),
        "harness.build_problem.calls": mean_per_op(lambda s: s.calls["harness.build_problem"]),
        "harness.build_problem.distinct_ratio": mean_per_op(
            lambda s: s.distinct_ratio("harness.build_problem")
        ),
        "harness.build_problem.s": median_per_op(lambda s: s.incl_s["harness.build_problem"]),
        "harness.run.self_s": median_per_op(lambda s: s.self_s["harness.run"]),
        "harness.emit.s": median_per_op(lambda s: s.incl_s["harness.emit"]),
        "harness.emit.bytes": mean_per_op(lambda s: s.out_bytes),
        "cli.self_s": median_per_op(lambda s: s.self_s["cli"]),
        "trace.overhead_ratio": overhead_ratio,
    }
    return values
