"""Smoke test of the benchmark itself, at tiny sizes.

    python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace, seed=3, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=cwd)


def result_of(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    result = result_of(run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in BENCH[section]}


def test_traced_counts_repeat_for_a_fixed_seed():
    first, second = (result_of(run("analyze_catalog", 1))["metrics"] for _ in range(2))
    counts = [name for name, m in first.items() if m["unit"] == "count"]
    assert counts and all(first[n]["value"] == second[n]["value"] for n in counts)
    assert first["casimir.family_check.per_model"] == second["casimir.family_check.per_model"]


def test_wrong_expected_label_makes_fail_ratio_nonzero(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    import run as bench
    import workloads

    wrong = [(name, build, "{K99}" if name == "K5" else label)
             for name, build, label in workloads.BASE_PENCILS]
    monkeypatch.setattr(workloads, "BASE_PENCILS", wrong)
    passes = bench.measure(workloads.CongruenceDecompose(0, tiny=True), 0)
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.item_s) for p in passes)
    assert 0 < len(failures) / attempted < 1
    assert all(f.startswith("K5#") for f in failures)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run("congruence_decompose", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
