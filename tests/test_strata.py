"""One stratification: the report footer, the sample plan, the ``stratify``
command and the distribution script all read ``complexity.stratify``."""

from __future__ import annotations

import csv
import importlib.util
import io
from pathlib import Path

import pytest

from jcascan.cli import main
from jcascan.ingest import FLEXIBLE, RESTRICTIVE
from jcascan.report import plan_from_report, read_report

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _distribution_script():
    spec = importlib.util.spec_from_file_location(
        "synthetic_distribution", SCRIPTS / "synthetic_distribution.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def synthetic(tmp_path_factory):
    """A corpus with both categories and several strata in each."""
    corpus = tmp_path_factory.mktemp("synthetic") / "corpus"
    _distribution_script().generate_synthetic_corpus(
        corpus, seed=1, n_restrictive=60, n_flexible=20)
    return corpus


def test_footer_strata_equal_plan_strata(synthetic, tmp_path):
    report = tmp_path / "r.jsonl"
    assert main(["scan", str(synthetic), "-o", str(report)]) == 0
    records, summary = read_report(report)
    footer = summary["summary"]["strata"]
    plans = plan_from_report(records, 0.95, 0.05, seed=0)["plans"]
    assert set(footer) == set(plans) == {RESTRICTIVE, FLEXIBLE}
    for category in (RESTRICTIVE, FLEXIBLE):
        assert len(footer[category]) >= 2
        assert footer[category] == [
            {"key": s["key"], "population": s["population"]}
            for s in plans[category]["strata"]]
    assert sum(row["population"] for rows in footer.values()
               for row in rows) == len(records)


def test_distribution_script_equals_stratify_csv(synthetic, tmp_path):
    out = tmp_path / "strata.csv"
    assert main(["stratify", str(synthetic), "-o", str(out)]) == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == ["category", "stratum_key", "population"]
    from_csv: dict[str, dict[int, int]] = {RESTRICTIVE: {}, FLEXIBLE: {}}
    for category, key, population in rows[1:]:
        from_csv[category][int(key)] = int(population)
    assert _distribution_script().distribution(synthetic) == from_csv
