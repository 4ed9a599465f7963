"""The benchmark workloads' reports, byte for byte.

For each workload of ``perfbench/corpora.py``, the corpus of seed 1 is
generated and scanned as the benchmark scans it: ``jcascan scan corpus -o
report.jsonl`` in a fresh process, from the directory that holds
``corpus``. The report's SHA-256 must be the one the benchmark keeps in
``perfbench/report_sha256.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import corpora  # noqa: E402

SEED = 1
KNOWN = json.loads((ROOT / "perfbench" / "report_sha256.json")
                   .read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(corpora.GENERATORS))
def test_workload_report_matches_recorded_sha(workload, tmp_path):
    corpora.generate(workload, tmp_path / "corpus", SEED)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-m", "jcascan.cli", "scan", "corpus",
                    "-o", "report.jsonl"], cwd=tmp_path, env=env,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                   check=True, timeout=300)
    report = (tmp_path / "report.jsonl").read_bytes()
    assert hashlib.sha256(report).hexdigest() == KNOWN[workload][str(SEED)]
