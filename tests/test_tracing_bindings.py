"""The benchmark's tracer (``perfbench/tracing.py``) looks dpkf functions up
by name when it is built; a renamed or deleted one must fail here, not only in
a traced benchmark run."""

import os

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def test_tracer_binds_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    tracer = tracing.Tracer()
    assert tracer._patches
