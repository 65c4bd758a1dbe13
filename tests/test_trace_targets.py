"""Every library name the benchmark traces still exists.

``perfbench/run.py --trace`` wraps each entry of ``perfbench/spans.py``
``TARGETS``; a deleted or renamed function would break it, and the suite
collected from ``tests/`` never runs ``perfbench/``.  This loads
``spans.py`` by path and resolves each entry the way the tracer does.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    spans = _load_spans()
    assert spans.TARGETS
    missing = []
    for name, module_name, path in spans.TARGETS:
        owner, attr = spans._resolve(module_name, path)
        if not callable(getattr(owner, attr, None)):
            missing.append(name)
    assert missing == []
