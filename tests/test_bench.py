"""Benchmark generator and grading harness."""

from __future__ import annotations

import csv
import io
import json

from pathlib import Path

import pytest

from jcascan import bench
from jcascan.cli import main
from jcascan.report import read_report
from jcascan.ingest import FLEXIBLE, RESTRICTIVE, scan_corpus
from jcascan.javaparse import parse_unit

EXPECTED_CASES = [
    (RESTRICTIVE, "STRING/OID"), (RESTRICTIVE, "ID"),
    (RESTRICTIVE, "METHOD"), (RESTRICTIVE, "METHOD*"),
    (RESTRICTIVE, "NATIVE"), (RESTRICTIVE, "STROP"),
    (RESTRICTIVE, "STRBUF"), (RESTRICTIVE, "STRBL*"),
    (RESTRICTIVE, "CONCT"), (RESTRICTIVE, "BAS64"),
    (RESTRICTIVE, "ID+METHOD"), (RESTRICTIVE, "TEROP"),
    (RESTRICTIVE, "STATIC"), (RESTRICTIVE, "ENUM"),
    (FLEXIBLE, "EMPTY"), (FLEXIBLE, "LOG"), (FLEXIBLE, "CLIENT"),
    (FLEXIBLE, "VAL"), (FLEXIBLE, "HASH"), (FLEXIBLE, "GETSUB"),
    (FLEXIBLE, "LEN/AUTH"), (FLEXIBLE, "GETPUB"), (FLEXIBLE, "STROP"),
]


class TestGeneration:
    def test_case_list_pinned(self):
        assert bench.case_ids() == EXPECTED_CASES
        assert len(EXPECTED_CASES) == 23

    def test_all_variants_reparse(self, bench_corpus):
        outdir, cases = bench_corpus
        for case in cases:
            assert case.variants
            for variant in case.variants:
                unit = parse_unit(variant.file,
                                  (outdir / variant.file).read_text())
                assert not unit.parse_failed
                assert not any(n.kind == "parse_error"
                               for n in unit.root.walk())

    def test_id_case_has_multiple_variants(self, bench_corpus):
        _, cases = bench_corpus
        id_case = next(c for c in cases if c.case_id == "ID")
        assert len(id_case.variants) > 1

    def test_every_variant_expects_a_finding(self, bench_corpus):
        _, cases = bench_corpus
        for case in cases:
            for variant in case.variants:
                assert variant.expected

    def test_manifest_shape(self, bench_corpus):
        outdir, _ = bench_corpus
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert len(manifest["cases"]) == 23
        for entry in manifest["cases"]:
            assert entry["case_id"]
            for var in entry["variants"]:
                assert (outdir / var["file"]).exists()
                for exp in var["expected"]:
                    assert exp["rule_id"] and exp["severity"]

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        bench.generate_corpus(a, seed=11)
        bench.generate_corpus(b, seed=11)
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_round_trip_classification(self, bench_corpus):
        """Each case directory's sites carry the case's own label."""
        from jcascan.classify import classify
        from jcascan.resolve import resolve_site
        outdir, cases = bench_corpus
        sites, _ = scan_corpus(outdir)
        by_dir = {}
        for site in sites:
            by_dir.setdefault(site.path.split("/")[-2], []).append(site)
        for case in cases:
            found = set()
            for site in by_dir[case.directory]:
                resolved = resolve_site(site) \
                    if site.api.category == RESTRICTIVE else None
                found |= classify(site, resolved).labels
            assert case.label in found, case.case_id


class TestGrading:
    def test_self_detection_all_23(self, bench_corpus):
        outdir, cases = bench_corpus
        report = bench.self_report(outdir)
        verdicts = bench.grade(cases, report)
        assert len(verdicts) == 23
        assert all(v.verdict == bench.DETECTED for v in verdicts)

    def test_empty_report_all_undetected(self, bench_corpus):
        _, cases = bench_corpus
        verdicts = bench.grade(cases, bench.ToolReport("t", rows=[]))
        assert all(v.verdict == bench.UNDETECTED for v in verdicts)

    def test_partial_on_subset(self, bench_corpus):
        outdir, cases = bench_corpus
        full = bench.self_report(outdir)
        bas64 = next(c for c in cases if c.case_id == "BAS64")
        target = bas64.variants[0].file
        # keep only one of the two expected findings for the BAS64 case
        rows = [r for r in full.rows
                if not (r[0] == target and r[3] != "R1")]
        verdicts = bench.grade(cases, bench.ToolReport("t", rows=rows))
        verdict = next(v.verdict for v in verdicts
                       if v.case_id == "BAS64")
        assert verdict == bench.PARTIAL

    def test_partial_on_wrong_rule(self, bench_corpus):
        _, cases = bench_corpus
        strop = next(c for c in cases
                     if c.case_id == "STROP" and c.category == RESTRICTIVE)
        variant = strop.variants[0]
        exp = variant.expected[0]
        rows = [(variant.file, exp.start_line, exp.end_line,
                 "WRONG_RULE", "flagged something else")]
        verdicts = bench.grade(cases, bench.ToolReport("t", rows=rows))
        verdict = next(v.verdict for v in verdicts
                       if v.case_id == "STROP"
                       and v.category == RESTRICTIVE)
        assert verdict == bench.PARTIAL

    def test_partial_on_single_variant(self, bench_corpus):
        outdir, cases = bench_corpus
        full = bench.self_report(outdir)
        id_case = next(c for c in cases if c.case_id == "ID")
        first = id_case.variants[0].file
        others = {v.file for v in id_case.variants[1:]}
        rows = [r for r in full.rows if r[0] not in others]
        verdicts = bench.grade(cases, bench.ToolReport("t", rows=rows))
        verdict = next(v.verdict for v in verdicts if v.case_id == "ID")
        assert verdict == bench.PARTIAL

    def test_latin1_file_still_grades_all_23(self, tmp_path):
        outdir = tmp_path / "bench"
        cases = bench.generate_corpus(outdir, seed=3)
        # A non-UTF-8 source file: self-grading reads it the way a scan
        # does (undecodable bytes replaced) instead of aborting.
        (outdir / "Latin1.java").write_bytes(
            "import javax.crypto.Cipher;\n// Schlüssel für café\n"
            "class Latin1 { void m() throws Exception {\n"
            '    Cipher.getInstance("AES/GCM/NoPadding"); } }\n'
            .encode("latin-1"))
        verdicts = bench.grade(cases, bench.self_report(outdir))
        assert all(v.verdict == bench.DETECTED for v in verdicts)

    def test_self_report_rows_are_the_scan_findings(self, bench_corpus,
                                                    tmp_path):
        outdir, _ = bench_corpus
        out = tmp_path / "scan.jsonl"
        assert main(["scan", str(outdir), "-o", str(out)]) == 0
        records, _ = read_report(out)
        rows = [(str(Path(r["path"]).relative_to(outdir)), r["start_line"],
                 r["end_line"], f["rule_id"], f["message"])
                for r in records for f in r["findings"]]
        assert rows and bench.self_report(outdir).rows == rows

    @pytest.mark.parametrize("reported,expected,same", [
        ("gen/B.java", ".gen/B.java", False),
        (".gen/B.java", "gen/B.java", False),
        ("../gen/B.java", "gen/B.java", True),
        ("./gen/B.java", "gen/B.java", True),
        ("././gen/B.java", "gen/B.java", True),
        ("out\\gen\\B.java", "gen/B.java", True),
        ("gen/B.java", "gen/AB.java", False),
    ])
    def test_same_file(self, reported, expected, same):
        assert bench._same_file(reported, expected) is same

    def test_tool_error_for_bad_rows(self, bench_corpus):
        _, cases = bench_corpus
        empty_case = next(c for c in cases if c.case_id == "EMPTY")
        report = bench.ToolReport(
            "t", rows=[], bad_rows=[empty_case.variants[0].file])
        verdicts = bench.grade(cases, report)
        verdict = next(v.verdict for v in verdicts
                       if v.case_id == "EMPTY")
        assert verdict == bench.TOOL_ERROR


class TestToolReportCsv:
    def test_round_trip(self, bench_corpus, tmp_path):
        outdir, _ = bench_corpus
        report = bench.self_report(outdir)
        path = tmp_path / "self.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(bench.TOOL_REPORT_HEADER)
            writer.writerows([report.tool, *row] for row in report.rows)
        header = path.read_text().splitlines()[0]
        assert header == "tool,file,start_line,end_line,rule,message"
        loaded = bench.load_report_csv(path)
        assert loaded.rows == report.rows
        assert loaded.tool == "self"

    def test_bad_header_fatal(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,nope\n")
        with pytest.raises(ValueError):
            bench.load_report_csv(path)

    def test_bad_line_numbers_become_bad_rows(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text("tool,file,start_line,end_line,rule,message\n"
                        "t,some/File.java,xx,yy,R1,oops\n")
        report = bench.load_report_csv(path)
        assert report.bad_rows == ["some/File.java"]


class TestSummarize:
    def test_matrix_row_order(self, bench_corpus):
        outdir, cases = bench_corpus
        verdicts = bench.grade(cases, bench.self_report(outdir))
        csv_text, text = bench.summarize({"self": verdicts})
        rows = list(csv.reader(io.StringIO(csv_text)))
        assert rows[0] == ["category", "case", "self"]
        assert [(r[0], r[1]) for r in rows[1:]] == EXPECTED_CASES
        assert all(r[2] == bench.DETECTED for r in rows[1:])
        assert text.count(bench.GLYPHS[bench.DETECTED]) >= 23

    def test_zero_tools_header_only(self):
        csv_text, _ = bench.summarize({})
        rows = list(csv.reader(io.StringIO(csv_text)))
        assert rows[0] == ["category", "case"]
        assert len(rows) == 24  # header + one (empty) row per case
