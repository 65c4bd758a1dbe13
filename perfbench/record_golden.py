"""Record the SHA-256 of every analyze_catalog JSON report at seed 0.

    python3 perfbench/record_golden.py

The benchmark compares seed-0 reports against these digests, so run this
only when a change to the report bytes is intended.
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main():
    workload = workloads.AnalyzeCatalog(0)
    digests = {}
    for item in workload.items():
        _, text = item.run()
        digests[item.name] = hashlib.sha256(text.encode()).hexdigest()
    record = {"seed": 0, "samples": workloads.ANALYZE_SAMPLES, "sha256": digests}
    workloads.GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
