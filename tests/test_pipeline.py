"""`report.analyze_corpus` over a corpus: the order of its results, that
the benchmark's traced copy of it writes the same report, and that it
releases each file's syntax tree before parsing the next."""

from __future__ import annotations

import dataclasses
import io
import json
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

import conftest
from jcascan import bench, ingest
from jcascan.cli import main
from jcascan.report import analyze_corpus, write_report
from jcascan.syntax import SourceUnit, SyntaxNode

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpora  # noqa: E402
import layertrace  # noqa: E402

# -- result order ---------------------------------------------------------

TWO_SITES = '''import javax.crypto.Cipher;
class Two {
    void m() throws Exception {
        Cipher.getInstance("DES");
        Cipher.getInstance("RC4");
    }
}
'''


def _one_site(name: str) -> str:
    return ("import javax.crypto.Cipher;\n"
            f"class {name} {{\n"
            '    void m() throws Exception { Cipher.getInstance("DES"); }\n'
            "}\n")


@pytest.fixture
def ordered_corpus(tmp_path):
    """``a/b.java`` comes first in `Path` order, ``a-c.java`` first in
    string order ('-' < '.' < '/')."""
    root = tmp_path / "corpus"
    (root / "a").mkdir(parents=True)
    (root / "a.java").write_text(TWO_SITES, encoding="utf-8")
    (root / "a" / "b.java").write_text(_one_site("B"), encoding="utf-8")
    (root / "a-c.java").write_text(_one_site("C"), encoding="utf-8")
    return root


def _offset(site_id: str) -> int:
    return int(site_id.rsplit(":", 1)[1])


def test_results_come_in_path_string_then_offset_order(ordered_corpus,
                                                       tmp_path, capsys):
    root = str(ordered_corpus)
    expected_files = [f"{root}/a-c.java", f"{root}/a.java", f"{root}/a.java",
                      f"{root}/a/b.java"]

    report = tmp_path / "r.jsonl"
    main(["scan", root, "-o", str(report)])
    records = [json.loads(line) for line in
               report.read_text(encoding="utf-8").splitlines()][:-1]
    assert [r["path"] for r in records] == expected_files
    offsets = [_offset(r["id"]) for r in records]
    assert offsets[1] < offsets[2]

    capsys.readouterr()
    assert main(["classify", root]) == 0
    ids = [json.loads(line)["id"]
           for line in capsys.readouterr().out.splitlines()]
    assert ids == [r["id"] for r in records]

    rows = bench.self_report(ordered_corpus).rows
    assert [(file, line) for file, line, _, _, _ in rows] == [
        ("a-c.java", 3), ("a.java", 4), ("a.java", 5), ("a/b.java", 3)]


def _report_bytes(root: Path) -> bytes:
    analyses, warnings = analyze_corpus(root)
    out = io.StringIO()
    write_report(analyses, out, warnings)
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("shape", ["ordered", "one-large-unit"])
def test_benchmark_trace_mirrors_the_pipeline(shape, ordered_corpus,
                                              tmp_path):
    """The benchmark's traced scan repeats the pipeline layer by layer;
    its report must stay the pipeline's, byte for byte."""
    root = ordered_corpus
    if shape != "ordered":
        root = tmp_path / shape
        corpora.generate(shape, root, 1)
    traced = layertrace.traced_scan(str(root), tmp_path / "traced.jsonl", 1)
    assert traced.report == _report_bytes(root)


# -- memory ----------------------------------------------------------------

def _write_corpus(root: Path, n_files: int) -> Path:
    """``n_files`` classes of ten methods and one site each."""
    root.mkdir(parents=True)
    for i in range(n_files):
        methods = "\n".join(
            f'    int m{j}(int x) {{ return x * {j} + "s{i}".length(); }}'
            for j in range(10))
        (root / f"C{i}.java").write_text(
            "import javax.crypto.Cipher;\n"
            f"public class C{i} {{\n{methods}\n"
            "    Cipher run() throws Exception {"
            ' return Cipher.getInstance("DES"); }\n}\n', encoding="utf-8")
    return root


def test_every_parsed_unit_is_freed_on_return(tmp_path, monkeypatch):
    units = []
    parse = ingest.parse_unit

    def tracked(path, text):
        unit = parse(path, text)
        units.append(weakref.ref(unit))
        return unit

    monkeypatch.setattr(ingest, "parse_unit", tracked)
    analyses, _ = analyze_corpus(_write_corpus(tmp_path / "c", 20))
    assert len(analyses) == len(units) == 20
    assert [u for u in units if u() is not None] == []


def _holds_tree(value) -> bool:
    if isinstance(value, (SyntaxNode, SourceUnit)):
        return True
    if isinstance(value, dict):
        value = [*value.keys(), *value.values()]
    return isinstance(value, (list, tuple, set, frozenset)) \
        and any(_holds_tree(item) for item in value)


def test_result_rows_hold_no_tree(tmp_path, bench_corpus):
    """`analyze_corpus` keeps each site `InvocationSite.detached`: no
    field of a result's site refers to a syntax node or a unit."""
    conftest_root = tmp_path / "conftest"
    conftest_root.mkdir()
    for name, value in vars(conftest).items():
        if name.endswith("_SRC") and isinstance(value, str):
            (conftest_root / f"{name}.java").write_text(value,
                                                        encoding="utf-8")
    for root in (conftest_root, bench_corpus[0]):
        analyses, _ = analyze_corpus(root)
        assert analyses
        for a in analyses:
            held = [f.name for f in dataclasses.fields(a.site)
                    if _holds_tree(getattr(a.site, f.name))]
            assert held == [], a.site.id


def _traced_peak(root: Path) -> int:
    tracemalloc.start()
    try:
        analyze_corpus(root)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_follows_the_largest_file(tmp_path):
    small = _traced_peak(_write_corpus(tmp_path / "20", 20))
    large = _traced_peak(_write_corpus(tmp_path / "200", 200))
    # Keeping every tree gives ~10x (ten times the files); what grows
    # here is the result rows, ~4x.
    assert large <= 5 * small, (small, large)
