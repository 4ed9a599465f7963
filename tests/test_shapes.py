"""Pathological inputs that once threatened to abort a scan: each goes
through `report.analyze_corpus` as one file, and the scan ends with a
residual or with warnings, never with an exception. What is asserted is
the outcome, not the time taken."""

from __future__ import annotations

import random

import pytest

from jcascan.report import analyze_corpus
from jcascan.resolve import DEPTH_EXCEEDED


def _method(body: str) -> str:
    return ("import javax.crypto.Cipher;\nclass S {\n"
            "    void m(String p, boolean c) throws Exception {\n"
            f"{body}\n    }}\n}}\n")


SHAPES = {
    "10,000-term literal concatenation": _method(
        "Cipher.getInstance(" + " + ".join(['"a"'] * 10_000) + ");"),
    "10,001 terms around a parameter": _method(
        "Cipher.getInstance(" + " + ".join(['"a"'] * 5_000 + ["p"]
                                           + ['"a"'] * 5_000) + ");"),
    "10,000-link ternary chain": _method(
        "Cipher.getInstance("
        + "".join(f'c ? "a{i}" : ' for i in range(10_000)) + '"z");'),
    "3,000 appends before a ternary site": _method(
        "StringBuilder sb = new StringBuilder();\n"
        + 'sb.append("a");\n' * 3_000
        + 'Cipher.getInstance(sb.toString() + (c ? "" : "/CBC"));'),
}


def _analyze(tmp_path, data: bytes):
    (tmp_path / "S.java").write_bytes(data)
    return analyze_corpus(tmp_path)


@pytest.mark.parametrize("shape", SHAPES)
def test_a_shape_past_the_budget_leaves_a_residual(shape, tmp_path):
    analyses, warnings = _analyze(tmp_path, SHAPES[shape].encode())
    assert [(a.candidates, a.residuals) for a in analyses] \
        == [([], [DEPTH_EXCEEDED])]
    assert warnings == []


@pytest.mark.parametrize("data, count", [
    (random.Random(1).randbytes(200 * 1024), 159),
    (b'"' * (200 * 1024), 2),
], ids=["seeded random bytes", "one repeated quote"])
def test_200_kb_of_bytes_end_in_warnings(data, count, tmp_path):
    analyses, warnings = _analyze(tmp_path, data)
    assert analyses == []
    assert len(warnings) == count
    assert warnings[-1].message == "PARSE_FAILED"
