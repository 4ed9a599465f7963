"""Tests for the benchmark's own code: corpus generators, known answers,
grading, statistics and the metric list in BENCHMARK.json.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from pathlib import Path

import pytest

import corpora
import run

COUNTS = {  # workload -> (files, restrictive sites, flexible sites)
    "many-small": (2500, 2000, 500),
    "one-large-unit": (1, 160, 40),
    "string-encryption": (80, 400, 0),
}


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(corpora.GENERATORS))
def test_same_seed_gives_byte_identical_corpus(workload, tmp_path):
    first = corpora.generate(workload, tmp_path / "a", 7)
    second = corpora.generate(workload, tmp_path / "b", 7)
    assert first == second
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")


@pytest.mark.parametrize("workload", sorted(corpora.GENERATORS))
def test_other_seed_gives_other_corpus(workload, tmp_path):
    corpora.generate(workload, tmp_path / "a", 7)
    corpora.generate(workload, tmp_path / "b", 8)
    assert _tree(tmp_path / "a") != _tree(tmp_path / "b")


@pytest.mark.parametrize("workload", sorted(corpora.GENERATORS))
def test_site_counts_and_locations(workload, tmp_path):
    expected = corpora.generate(workload, tmp_path, 3)
    files, restrictive, flexible = COUNTS[workload]
    assert len(_tree(tmp_path)) == files
    categories = [e.category for e in expected]
    assert categories.count(corpora.RESTRICTIVE) == restrictive
    assert categories.count(corpora.FLEXIBLE) == flexible
    assert len({(e.file, e.line) for e in expected}) == len(expected)
    for e in expected:
        line = (tmp_path / e.file).read_text().splitlines()[e.line - 1]
        if e.category == corpora.RESTRICTIVE:
            assert "Cipher.getInstance(" in line
            assert e.plaintexts and all(p in corpora.ALGORITHMS
                                        for p in e.plaintexts)
        else:
            assert "checkServerTrusted(" in line
            assert e.plaintexts == ()


def test_shape_mix_has_exact_counts(tmp_path):
    labels = Counter(e.label
                     for e in corpora.generate("many-small", tmp_path, 1))
    assert labels == {"STRING": 1400, "ID": 200, "CONCT": 160, "TEROP": 140,
                      "METHOD": 100, "EMPTY": 170, "VAL": 165, "LOG": 165}


def test_balanced_rounds_to_exact_total():
    draws = corpora._balanced(random.Random(0), [("a", 70), ("b", 10),
                                                 ("c", 8), ("d", 7),
                                                 ("e", 5)], 160)
    assert Counter(draws) == {"a": 112, "b": 16, "c": 13, "d": 11, "e": 8}


def _unescape(literal: str) -> str:
    body = literal[1:-1]
    simple = {'"': '"', "\\": "\\", "n": "\n", "r": "\r"}
    return re.sub(r'\\(u[0-9a-f]{4}|["\\nr])',
                  lambda m: chr(int(m.group(1)[1:], 16))
                  if m.group(1)[0] == "u" else simple[m.group(1)], body)


def test_string_encryption_answers_decode(tmp_path):
    expected = corpora.generate("string-encryption", tmp_path, 5)
    pattern = re.compile(r'getInstance\(d\((".*"), (\d+)\)\);')
    for e in expected:
        text = (tmp_path / e.file).read_text()
        rounds = int(re.search(r"r < (\d+);", text).group(1))
        mult, add = map(int, re.search(r"k \* (\d+) \+ (\d+)\)",
                                       text).groups())
        blob, key = pattern.search(text.splitlines()[e.line - 1]).groups()
        cipher = _unescape(blob)
        assert "\n" not in blob and all(" " <= c <= "~" for c in blob)
        # The keystream XOR is its own inverse.
        assert corpora.keystream_encrypt(cipher, int(key), rounds, mult,
                                         add) == e.plaintexts[0]


def test_grade_matches_records_to_known_answers():
    expected = [
        corpora.Expected("a/A.java", 3, corpora.RESTRICTIVE, "STRING",
                         ("DES",)),
        corpora.Expected("a/B.java", 5, corpora.FLEXIBLE, "EMPTY"),
        corpora.Expected("a/C.java", 4, corpora.RESTRICTIVE, "TEROP",
                         ("DES", "RC4")),
        corpora.Expected("a/D.java", 9, corpora.RESTRICTIVE, "ID", ("X",)),
    ]

    def record(path, line, labels, candidates=()):
        return {"path": f"corpus/{path}", "start_line": line,
                "labels": labels,
                "resolved": {"candidates": list(candidates),
                             "residuals": []}}

    lines = [record("a/A.java", 3, ["STRING"], ["DES"]),
             record("a/B.java", 5, ["EMPTY"]),
             record("a/C.java", 4, ["TEROP"], ["DES"]),
             {"summary": {"sites": 3}}]
    report = "".join(json.dumps(r) + "\n" for r in lines).encode()
    graded = run.grade(report, expected)
    assert (graded.sites, graded.recorded, graded.accurate) == (3, 3, 2)
    assert len(graded.misses) == 2


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(20))) == (50.0, 9)
    p, value = run.tail([float(i) for i in range(1, 1001)])
    assert (p, value) == (99.0, 990.0)


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(corpora.GENERATORS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
