"""Every site record of the single-file inputs, byte for byte.

``record_pins.json`` holds, for each input, one SHA-256 over the report
lines of its sites, ``dumps_line(site_record(analyze_site(site)))`` in
extraction order: the conftest, ``interp_snippets.py`` and bench (seed 0)
sources of ``test_tokenize._sources()``, and the 2,000 token mutants of
``test_fuzz.mutants()``. A refactor of the resolver, the classifier or the
rules that moves any candidate, residual, label or finding of any site
changes a digest. Regenerate it only from a pipeline whose records are to
be trusted: ``PYTHONPATH=src python tests/test_record_pins.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from jcascan.ingest import extract_sites
from jcascan.javaparse import parse_unit
from jcascan.report import analyze_site, dumps_line, site_record
from test_fuzz import mutants
from test_tokenize import _sources

PINS = Path(__file__).with_name("record_pins.json")


def _digest(path: str, text: str) -> str:
    lines = [dumps_line(site_record(analyze_site(site)))
             for site in extract_sites(parse_unit(path, text))]
    return hashlib.sha256("\n".join(lines).encode(
        "utf-8", "surrogatepass")).hexdigest()


def pins() -> dict[str, str]:
    return {name: _digest("In.java", text)
            for name, text in _sources() + mutants()}


def test_pins_cover_every_input():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    assert list(pinned) == [name for name, _ in _sources() + mutants()]


def test_site_records_match_pins():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    current = pins()
    moved = [name for name in pinned if current.get(name) != pinned[name]]
    assert moved == []


if __name__ == "__main__":
    PINS.write_text(json.dumps(pins(), indent=0, ensure_ascii=True) + "\n",
                    encoding="utf-8")
