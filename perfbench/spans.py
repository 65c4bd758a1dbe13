"""Outside-in spans around biham's public functions, and their per-layer fold.

``Tracer.install`` replaces each traced function at every place it is bound:
every ``biham.*`` module attribute that is the original object, and the
method on its class.  Each call records one span (name, start, end, parent,
workload item) in memory; ``uninstall`` puts the originals back.  Nothing in
the library changes, so an untraced run pays nothing.
"""

import functools
import importlib
import json
import sys
from time import perf_counter_ns

# (layer.function name, defining module, attribute path in that module)
TARGETS = [
    ("models.make_model", "biham.models", "make_model"),
    ("sampling.sample_points", "biham.sampling", "sample_points"),
    ("poisson.PoissonStructure.hamiltonian_covector", "biham.poisson",
     "PoissonStructure.hamiltonian_covector"),
    ("poisson.PoissonStructure.bracket", "biham.poisson", "PoissonStructure.bracket"),
    ("poisson.PoissonStructure.corank_at", "biham.poisson", "PoissonStructure.corank_at"),
    ("poisson.PoissonStructure.jacobi_check", "biham.poisson",
     "PoissonStructure.jacobi_check"),
    ("poisson.compatibility_check", "biham.poisson", "compatibility_check"),
    ("poisson.BihamStructure.verify", "biham.poisson", "BihamStructure.verify"),
    ("poisson.BihamStructure.pencil_at", "biham.poisson", "BihamStructure.pencil_at"),
    ("casimir.family_check", "biham.casimir", "family_check"),
    ("casimir.kronecker_criterion", "biham.casimir", "kronecker_criterion"),
    ("casimir.lax_check", "biham.casimir", "lax_check"),
    ("casimir.w1_span_dim", "biham.casimir", "w1_span_dim"),
    ("lenard.integrability_verdict", "biham.lenard", "integrability_verdict"),
    ("lenard.involution_check", "biham.lenard", "involution_check"),
    ("lenard.verify_chain", "biham.lenard", "verify_chain"),
    ("pencil.decompose", "biham.pencil", "decompose"),
    ("pencil.generic_corank", "biham.pencil", "generic_corank"),
    ("pencil.minimal_indices", "biham.pencil", "minimal_indices"),
    ("pencil.jordan_part", "biham.pencil", "jordan_part"),
    ("pencil.corank_profile", "biham.pencil", "corank_profile"),
    ("exactalg.Matrix.rank", "biham.exactalg.matrix", "Matrix.rank"),
    ("exactalg.Matrix.nullspace", "biham.exactalg.matrix", "Matrix.nullspace"),
    ("exactalg.row_echelon_ff", "biham.exactalg.kernels", "row_echelon_ff"),
    ("exactalg.smith_invariant_factors", "biham.exactalg.smith",
     "smith_invariant_factors"),
    ("exactalg.factor_monic", "biham.exactalg.upoly", "factor_monic"),
    ("exactalg.poly_gcd", "biham.exactalg.poly", "poly_gcd"),
    ("report.run_analyze", "biham.report", "run_analyze"),
    ("report.emit_report", "biham.report", "emit_report"),
]

# Per-layer metrics folded from the spans of the timed pass: (name, kind).
# Set-up layers (model construction, sampling) fold the set-up spans.
PASS_FOLDS = [
    ("pencil.decompose", ("calls", "self_s")),
    ("pencil.generic_corank", ("calls", "self_s")),
    ("pencil.minimal_indices", ("calls", "self_s")),
    ("pencil.jordan_part", ("calls", "self_s")),
    ("pencil.corank_profile", ("self_s",)),
    ("exactalg.Matrix.rank", ("calls", "self_s")),
    ("exactalg.Matrix.nullspace", ("calls", "self_s")),
    ("exactalg.row_echelon_ff", ("calls", "self_s")),
    ("exactalg.smith_invariant_factors", ("calls", "self_s")),
    ("exactalg.poly_gcd", ("calls", "self_s")),
    ("exactalg.factor_monic", ("self_s",)),
    ("casimir.family_check", ("calls", "self_s")),
    ("casimir.kronecker_criterion", ("calls", "self_s")),
    ("casimir.lax_check", ("self_s",)),
    ("casimir.w1_span_dim", ("total_s",)),
    ("lenard.integrability_verdict", ("calls", "self_s")),
    ("lenard.involution_check", ("calls", "total_s")),
    ("lenard.verify_chain", ("total_s",)),
    ("poisson.BihamStructure.verify", ("total_s",)),
    ("poisson.PoissonStructure.jacobi_check", ("total_s",)),
    ("poisson.compatibility_check", ("total_s",)),
    ("poisson.PoissonStructure.hamiltonian_covector", ("calls", "total_s")),
    ("poisson.PoissonStructure.bracket", ("calls", "total_s")),
    ("poisson.BihamStructure.pencil_at", ("calls", "total_s")),
    ("poisson.PoissonStructure.corank_at", ("calls", "total_s")),
    ("report.run_analyze", ("self_s",)),
    ("report.emit_report", ("total_s",)),
]
SETUP_FOLDS = [
    ("sampling.sample_points", ("total_s",)),
    ("models.make_model", ("total_s",)),
]
RATIOS = [
    ("pencil.decompose.per_point", "calls/point"),
    ("pencil.generic_corank.per_point", "calls/point"),
    ("casimir.family_check.per_model", "calls/model"),
    ("pencil.jordan_part.empty_share", "share"),
    ("trace.overhead_ratio", "ratio"),
]
UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *owner_path, attr = path.split(".")
    for part in owner_path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Span recorder; one per traced run.

    A span is ``[name, start_ns, end_ns, parent_index, item, nested, empty]``:
    ``nested`` marks a call made while a span of the same name is open (so
    total time counts only the outermost), ``empty`` an empty list result.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._open = {}
        self._patches = []
        self.item = None

    def span(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        nested = self._open.get(name, 0) > 0
        record = [name, perf_counter_ns(), 0, parent, self.item, nested, False]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        self._open[name] = self._open.get(name, 0) + 1
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = perf_counter_ns()
            self._open[name] -= 1
            self._stack.pop()
        record[6] = isinstance(result, list) and not result
        return result

    def _wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module_name, path in TARGETS:
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            wrapper = self._wrapper(name, original)
            if isinstance(owner, type):
                places = [(owner, attr)]
            else:
                places = [(mod, key) for mod_name, mod in list(sys.modules.items())
                          if mod_name.split(".")[0] == "biham" and mod is not None
                          for key, value in list(vars(mod).items()) if value is original]
            for place, key in places:
                setattr(place, key, wrapper)
                self._patches.append((place, key, original))

    def uninstall(self):
        for place, key, original in reversed(self._patches):
            setattr(place, key, original)
        self._patches = []

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, item, _, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "item": item}) + "\n")


def subtree(spans, root):
    """Indices of ``root`` and every span below it (spans are in start order)."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][3] in inside:
            inside.add(i)
    return sorted(inside)


def self_times(spans, indices):
    """Span duration minus its children's durations, in nanoseconds."""
    selfs = {i: spans[i][2] - spans[i][1] for i in indices}
    for i in indices:
        parent = spans[i][3]
        if parent in selfs:
            selfs[parent] -= spans[i][2] - spans[i][1]
    return selfs


def fold(spans, indices, folds):
    """Per-layer ``calls``/``self_s``/``total_s`` over the given spans."""
    selfs = self_times(spans, indices)
    acc = {}
    for i in indices:
        name, start, end, _, _, nested, _ = spans[i]
        entry = acc.setdefault(name, {"calls": 0, "self_s": 0, "total_s": 0})
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
        if not nested:
            entry["total_s"] += end - start
    out = {}
    for name, kinds in folds:
        entry = acc.get(name, {"calls": 0, "self_s": 0, "total_s": 0})
        for kind in kinds:
            value = entry[kind] if kind == "calls" else entry[kind] / 1e9
            out[f"{name}.{kind}"] = {"value": value, "unit": UNITS[kind]}
    return out


def per_layer_metrics(spans, setup_root, pass_root, points, models, overhead_ratio):
    """Every per-layer metric of one traced run, plus the tiling check.

    Returns ``(metrics, tiling_error_ns)``: the self times of the pass's spans
    must add up to the pass span's duration, with none negative.
    """
    pass_idx = subtree(spans, pass_root)
    metrics = fold(spans, pass_idx, PASS_FOLDS)
    metrics.update(fold(spans, subtree(spans, setup_root), SETUP_FOLDS))
    selfs = self_times(spans, pass_idx)
    wall_ns = spans[pass_root][2] - spans[pass_root][1]
    tiling_error = abs(sum(selfs.values()) - wall_ns)
    if min(selfs.values()) < 0:
        tiling_error = max(tiling_error, -min(selfs.values()))

    def calls(name):
        return sum(1 for i in pass_idx if spans[i][0] == name)

    jordan = [i for i in pass_idx if spans[i][0] == "pencil.jordan_part"]
    values = {
        "pencil.decompose.per_point": calls("pencil.decompose") / points if points else 0.0,
        "pencil.generic_corank.per_point":
            calls("pencil.generic_corank") / points if points else 0.0,
        "casimir.family_check.per_model":
            calls("casimir.family_check") / models if models else 0.0,
        "pencil.jordan_part.empty_share":
            sum(1 for i in jordan if spans[i][6]) / len(jordan) if jordan else 0.0,
        "trace.overhead_ratio": overhead_ratio,
    }
    for name, unit in RATIOS:
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics, tiling_error
