"""The benchmark's use of the library still works.

``perfbench/run.py --trace`` wraps each entry of ``perfbench/spans.py``
``TARGETS``; a deleted or renamed function would break it, and the suite
collected from ``tests/`` never runs ``perfbench/``.  This loads
``spans.py`` and ``workloads.py`` by path, resolves each trace entry the
way the tracer does, runs the small congruence workload with its checks,
and compares each integer pencil at the analyze workload's sample points
with the checked pencil of its two rational bivectors.
"""

import importlib.util
from pathlib import Path

from biham.cli import resolve_target
from biham.pencil import SkewPencil
from biham.sampling import model_inequations, sample_points

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    spans = _load("spans")
    assert spans.TARGETS
    missing = []
    for name, module_name, path in spans.TARGETS:
        owner, attr = spans._resolve(module_name, path)
        if not callable(getattr(owner, attr, None)):
            missing.append(name)
    assert missing == []


def test_congruence_workload_items_check():
    # the workload builds its pencils with from_rows, direct_sum and the
    # builders, and reads A[i, j], .denominator and .n off them
    items = _load("workloads").CongruenceDecompose(0, tiny=True).items()
    assert len(items) == 13
    assert [item.check(item.run()) for item in items] == [None] * len(items)


def test_pencil_at_matches_the_checked_rational_pencil():
    # pencil_at writes the integer pair skew by construction; the oracle is
    # the checked pencil of the two rational bivectors at the same point
    workloads = _load("workloads")
    for spec in workloads.ANALYZE_SPECS:
        model = resolve_target(spec)
        s = model.structure
        for pt in sample_points(model.dim, workloads.ANALYZE_SAMPLES, 0,
                                inequations=model_inequations(model)):
            got = s.pencil_at(pt)
            expected = SkewPencil.from_rows(s.p1.bivector_at(pt).to_rows(),
                                            s.p2.bivector_at(pt).to_rows())
            assert got == expected, (spec, pt)
            assert all(type(x) is int for x in got.A.entries + got.B.entries)
