"""Seeded end-to-end and per-layer benchmark of biham.

    python3 perfbench/run.py --workload analyze_catalog --seed 0 --seconds 25 --trace 0

biham is imported from ``src/`` next to this directory; without it the run
fails (exit 2, no result).  Workloads: ``analyze_catalog``,
``congruence_decompose`` and ``certify_symbolic`` (``workloads.py`` says what
each stresses and why).  One client in one process runs the items of a
workload back to back (a closed loop), pass after pass, until another pass
would overrun ``--seconds``; at least one pass runs.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``setup_s`` (import, model construction and seeded inputs; the median of
this process and two fresh ones), ``wall_s`` (one pass, median over passes),
``item_geomean_ms`` (every item weighs the same) and ``peak_rss_mb``.  Times
are calibrated against a reference computation (see REF_S); the raw pass
times are printed above the result, and so are the per-item p50 and p90 on
workloads with many items.  With ``--trace 1`` an untraced pass is followed
by a pass with spans around biham's public functions (``spans.py``), folded
into per-layer metrics; the spans go to ``perfbench/out/`` as JSONL.

Every item's output is checked against its reference; ``failed`` counts
items that raised or disagreed, and ``fail_ratio`` is printed.
"""

import time

T0 = time.perf_counter()  # the set-up clock starts before biham is imported

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3
# Calibration.  On a shared host the speed of the whole vCPU drifts by 20%
# and more over tens of seconds, which no amount of repetition within one
# run averages out.  So each pass also times a fixed reference computation
# (a probe) before its first item, after its last, and after any item that
# ends PROBE_EVERY_S or more after the previous probe; its times are scaled
# by REF_S over the median probe, as if every probe had taken REF_S.  REF_S
# is about a probe's duration on the 2-vCPU 2.1 GHz Xeon machine the
# benchmark was tuned on, so calibrated and clock times are close there.
REF_S = 0.0065
PROBE_EVERY_S = 0.5
PERCENTILE_MIN_ITEMS = 100


@dataclass
class Pass:
    wall_s: float       # calibrated: sum of the calibrated item times
    raw_wall_s: float   # as read from the clock, probes included
    item_s: list        # calibrated
    failures: list


_REF_P = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
_REF_Q = {(i, j): Fraction(j - i, i + 3) for i in range(6) for j in range(6)}
_REF_M = [[(7 * i + 3 * j) % 11 - 5 + 13 * (i == j) for j in range(16)] for i in range(16)]


def reference_unit():
    """Fixed stdlib work shaped like biham's two sides: a sparse product of
    bivariate polynomials held as dicts of Fractions, then fraction-free
    elimination of a 16 x 16 integer matrix."""
    out = {}
    for (a, b), c in _REF_P.items():
        for (d, e), f in _REF_Q.items():
            key = (a + d, b + e)
            out[key] = out.get(key, 0) + c * f
    m = [row[:] for row in _REF_M]
    prev = 1
    for k in range(len(m) - 1):
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return out, m


def probe():
    """Current duration of the reference unit: the median of five runs."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        reference_unit()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_pass(workload, tracer=None):
    """Time one pass over fresh items; check outputs after the clock stops.

    Item times are scaled by REF_S over the median probe of the pass.
    """
    items = workload.items()
    outputs = []
    gc.collect()
    probes = [probe()]

    def loop():
        last_probe = time.perf_counter()
        for item in items:
            if tracer is not None:
                tracer.item = item.name
            start = time.perf_counter()
            try:
                out = item.run() if tracer is None else tracer.span("item", item.run)
                error = None
            except Exception as exc:  # a failing item is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            outputs.append((time.perf_counter() - start, out, error))
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probes.append(probe())
                last_probe = time.perf_counter()

    start = time.perf_counter()
    if tracer is None:
        loop()
    else:
        tracer.span("pass", loop)
    raw_wall = time.perf_counter() - start
    probes.append(probe())
    scale = REF_S / statistics.median(probes)
    failures = []
    for item, (_, out, error) in zip(items, outputs):
        reason = error if error is not None else item.check(out)
        if reason is not None:
            failures.append(f"{item.name}: {reason}")
    item_s = [t * scale for t, _, _ in outputs]
    return Pass(sum(item_s), raw_wall, item_s, failures)


def measure(workload, seconds):
    """Passes until another one would overrun ``seconds``; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload))
        if time.perf_counter() - start + passes[-1].raw_wall_s > seconds:
            return passes


def calibrated_setup_s():
    """Set-up seconds of this process so far, scaled like the item times."""
    raw = time.perf_counter() - T0
    return raw * REF_S / probe()


def end_to_end_metrics(passes, setup_samples):
    """Metric name -> (value, unit, sample count)."""
    items = [t for p in passes for t in p.item_s]
    walls = [p.wall_s for p in passes]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    geomean = math.exp(statistics.fmean(math.log(max(t, 1e-9)) for t in items))
    return {
        "setup_s": (statistics.median(setup_samples), "s", len(setup_samples)),
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "item_geomean_ms": (geomean * 1e3, "ms", len(items)),
        "peak_rss_mb": (rss_kb / 1024, "MB", 1),
    }


def latency_percentiles(passes):
    """Per-item p50 and p90, printed only for workloads with at least
    PERCENTILE_MIN_ITEMS items per pass: with a handful of items they are
    single items whose cost moves with the seed."""
    items = [t for p in passes for t in p.item_s]
    if len(passes[0].item_s) < PERCENTILE_MIN_ITEMS:
        return {}
    cuts = statistics.quantiles(items, n=10, method="inclusive")
    return {"item_p50_ms": (cuts[4] * 1e3, "ms", len(items)),
            "item_p90_ms": (cuts[8] * 1e3, "ms", len(items))}


def setup_in_fresh_process(args):
    """Set-up time of one fresh interpreter, measured by that interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def git_revision():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["analyze_catalog", "congruence_decompose",
                                 "certify_symbolic"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny inputs for the benchmark's own smoke test")
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print the set-up seconds, exit")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "biham" / "__init__.py").is_file():
        print(f"perfbench: no biham sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import biham
    if not Path(biham.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: biham imported from {biham.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    build = workloads.WORKLOADS[args.workload]
    tiny = args.size == "tiny"
    if args.setup_only:
        build(args.seed, tiny)
        print(calibrated_setup_s())
        return 0

    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_revision": git_revision(),
            "python": platform.python_version(), "backend": biham.BACKEND,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    tiling_error = 0
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        setup_root = len(tracer.spans)
        workload = tracer.span("setup", build, args.seed, tiny)
        tracer.uninstall()
        untraced = run_pass(workload)
        tracer.install()
        pass_root = len(tracer.spans)
        traced = run_pass(workload, tracer)
        tracer.uninstall()
        metrics, tiling_error = spans.per_layer_metrics(
            tracer.spans, setup_root, pass_root, workload.points_per_pass,
            workload.models_per_pass, traced.wall_s / untraced.wall_s - 1)
        passes = [untraced, traced]
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"spans_{args.workload}_seed{args.seed}.jsonl"
        tracer.write_jsonl(trace_file)
        meta.update(spans=len(tracer.spans), trace_file=str(trace_file.relative_to(ROOT)),
                    tiling_error_ns=tiling_error)
        for name, m in metrics.items():
            print(f"{name} {m['value']} {m['unit']}")
    else:
        workload = build(args.seed, tiny)
        setup = [calibrated_setup_s()]
        passes = measure(workload, args.seconds)
        setup += [setup_in_fresh_process(args) for _ in range(SETUP_SAMPLES - 1)]
        e2e = end_to_end_metrics(passes, setup)
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit, _) in e2e.items()}
        for name, (value, unit, n) in {**e2e, **latency_percentiles(passes)}.items():
            print(f"{name} {value:.6g} {unit} (n={n})")
        print("raw_wall_s " + " ".join(f"{p.raw_wall_s:.6g}" for p in passes))

    attempted = sum(len(p.item_s) for p in passes)
    failures = [f for p in passes for f in p.failures]
    meta.update(sizes=workload.sizes, passes=len(passes), items_per_pass=len(passes[0].item_s))
    print(f"fail_ratio {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    print("meta " + json.dumps(meta, sort_keys=True))
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": not failures and tiling_error == 0,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
