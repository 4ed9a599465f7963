"""The record ``scripts/paired_bench.py`` writes to ``BENCH_<parent>.json``
and the table it prints, built from two fake pairs with no benchmark
run."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "paired_bench.py"
_spec = importlib.util.spec_from_file_location("paired_bench", SCRIPT)
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)


def _side(rate: float) -> dict:
    return {"correct": True, "metrics": {
        "sites_per_ref": {"value": rate, "unit": "sites/ref"},
        "peak_rss_mb": {"value": 20.0, "unit": "MB"}}}


PAIRS = {"many-small": [(1, "parent", _side(100.0), _side(110.0)),
                        (2, "change", _side(120.0), _side(90.0))]}


def test_record_holds_each_side_of_each_pair():
    record = paired_bench.bench_record("0123456789ab", 40, PAIRS)
    assert json.loads(json.dumps(record)) == record
    assert record == {
        "parent": "0123456789ab",
        "run_seconds": 40,
        "workloads": {"many-small": [
            {"seed": 1, "first": "parent", "parent": _side(100.0),
             "change": _side(110.0)},
            {"seed": 2, "first": "change", "parent": _side(120.0),
             "change": _side(90.0)}]}}


def test_table_reads_the_same_pairs():
    text = paired_bench.table(
        PAIRS, {"sites_per_ref": "higher", "peak_rss_mb": "lower"})
    assert "| `many-small` | `sites_per_ref` | 110 (105–115) | 100 (95–105)" \
        " | 0.909 | 1/2 |" in text
    assert "| `many-small` | `peak_rss_mb` | 20 (20–20) | 20 (20–20)" \
        " | 1.000 | 0/2 |" in text
    assert text.endswith("`many-small` 1: 100.0 → 110.0, 2: 120.0 → 90.0.")
