"""End-to-end command-line behaviour: determinism, exit codes, artifacts."""

from __future__ import annotations

import json

import pytest

from jcascan.cli import main

ERROR_SRC = '''
import javax.crypto.Cipher;
class Weak {
    void m() throws Exception {
        Cipher.getInstance("DES");
    }
}
'''

WARNING_SRC = '''
import javax.crypto.Cipher;
class Cbc {
    void m() throws Exception {
        Cipher.getInstance("AES/CBC/PKCS5Padding");
    }
}
'''

CLEAN_SRC = '''
import javax.crypto.Cipher;
class Ok {
    void m() throws Exception {
        Cipher.getInstance("AES/GCM/NoPadding");
    }
}
'''


@pytest.fixture
def error_corpus(tmp_path):
    d = tmp_path / "err"
    d.mkdir()
    (d / "Weak.java").write_text(ERROR_SRC)
    (d / "Cbc.java").write_text(WARNING_SRC)
    return d


@pytest.fixture
def warning_corpus(tmp_path):
    d = tmp_path / "warn"
    d.mkdir()
    (d / "Cbc.java").write_text(WARNING_SRC)
    (d / "Ok.java").write_text(CLEAN_SRC)
    return d


class TestScan:
    def test_scan_writes_jsonl_with_summary(self, error_corpus, tmp_path):
        out = tmp_path / "report.jsonl"
        assert main(["scan", str(error_corpus), "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert "summary" in records[-1]
        sites = records[:-1]
        assert {r["path"].rsplit("/", 1)[-1] for r in sites} == {
            "Weak.java", "Cbc.java"}
        for r in sites:
            assert {"id", "api", "category", "score", "labels",
                    "findings"} <= r.keys()

    def test_byte_determinism(self, error_corpus, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["scan", str(error_corpus), "-o", str(a)])
        main(["scan", str(error_corpus), "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_fail_on_exit_codes(self, error_corpus, warning_corpus,
                                tmp_path):
        out = str(tmp_path / "x.jsonl")
        # corpus containing an ERROR finding
        assert main(["scan", str(error_corpus), "-o", out]) == 0
        assert main(["scan", str(error_corpus), "-o", out,
                     "--fail-on", "error"]) == 1
        assert main(["scan", str(error_corpus), "-o", out,
                     "--fail-on", "warning"]) == 1
        # corpus whose worst finding is a WARNING
        assert main(["scan", str(warning_corpus), "-o", out,
                     "--fail-on", "error"]) == 0
        assert main(["scan", str(warning_corpus), "-o", out,
                     "--fail-on", "warning"]) == 1

    def test_api_filter(self, error_corpus, tmp_path):
        out = tmp_path / "r.jsonl"
        main(["scan", str(error_corpus),
              "--apis", "FLEXIBLE_CHECK_SERVER_TRUSTED", "-o", str(out)])
        lines = out.read_text().splitlines()
        assert len(lines) == 1  # summary only; no cipher sites reported

    def test_unknown_api_name_rejected(self, error_corpus):
        with pytest.raises(SystemExit):
            main(["scan", str(error_corpus), "--apis", "bogus"])

    @pytest.mark.parametrize("depth", [100, 1000])
    def test_deeply_nested_argument_is_a_warning(self, depth, tmp_path):
        corpus = tmp_path / "deep"
        corpus.mkdir()
        nested = "(" * depth + '"AES"' + ")" * depth
        (corpus / "Deep.java").write_text(
            "import javax.crypto.Cipher;\nclass Deep {\n"
            "    void m() throws Exception {\n"
            f"        Cipher.getInstance({nested});\n"
            '        Cipher.getInstance("DES");\n    }\n}\n')
        out = tmp_path / "r.jsonl"
        assert main(["scan", str(corpus), "-o", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records[-1]["summary"]["parse_warnings"] == 1
        # The rest of the file still parses: the second site is reported.
        assert [r["findings"][0]["rule_id"] for r in records[:-1]] == ["R1"]


class TestSampleAndReport:
    def test_sample_plan_selects_whole_small_stratum(self, error_corpus,
                                                     tmp_path):
        report = tmp_path / "r.jsonl"
        main(["scan", str(error_corpus), "-o", str(report)])
        plan_path = tmp_path / "plan.json"
        assert main(["sample", str(report), "--seed", "3",
                     "-o", str(plan_path)]) == 0
        plan = json.loads(plan_path.read_text())
        assert plan["seed"] == 3
        restrictive = plan["plans"]["restrictive"]
        # every stratum here is far below the Cochran threshold
        for stratum in restrictive["strata"]:
            assert stratum["sample_size"] == stratum["population"]
        assert len(restrictive["selected_ids"]) == sum(
            s["population"] for s in restrictive["strata"])

    def test_report_artifacts(self, error_corpus, tmp_path, capsys):
        report = tmp_path / "r.jsonl"
        main(["scan", str(error_corpus), "-o", str(report)])
        out_dir = tmp_path / "summary"
        assert main(["report", str(report),
                     "--out-dir", str(out_dir)]) == 0
        strata = (out_dir / "strata.csv").read_text()
        assert strata.splitlines()[0].startswith("category,")
        prevalence = (out_dir / "prevalence.csv").read_text()
        assert "STRING" in prevalence
        printed = json.loads(capsys.readouterr().out)
        assert printed["summary"]["sites"] == 2


class TestClassifyStratify:
    def test_classify_output(self, error_corpus, tmp_path):
        out = tmp_path / "labels.jsonl"
        assert main(["classify", str(error_corpus), "-o", str(out)]) == 0
        records = [json.loads(line)
                   for line in out.read_text().splitlines()]
        assert len(records) == 2
        for r in records:
            assert r["labels"] == ["STRING"]
            assert r["signature"] == {"string_literal": 1}

    def test_stratify_output(self, error_corpus, tmp_path):
        out = tmp_path / "strata.csv"
        assert main(["stratify", str(error_corpus), "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("category,")
        assert len(lines) >= 2


class TestBenchCli:
    def test_gen_and_self_run(self, tmp_path, capsys):
        corpus = tmp_path / "bench"
        assert main(["bench", "gen", str(corpus), "--seed", "5"]) == 0
        summary = tmp_path / "matrix.csv"
        assert main(["bench", "run", str(corpus), "--report", "self",
                     "--summary", str(summary)]) == 0
        out = capsys.readouterr().out
        assert "23/23 detected" in out
        assert "legend:" in out
        matrix = summary.read_text().splitlines()
        assert matrix[0] == "category,case,self"
        assert len(matrix) == 24

    def test_run_with_csv_report(self, tmp_path, capsys):
        corpus = tmp_path / "bench"
        main(["bench", "gen", str(corpus), "--seed", "5"])
        report = tmp_path / "empty.csv"
        report.write_text("tool,file,start_line,end_line,rule,message\n")
        assert main(["bench", "run", str(corpus),
                     "--report", str(report)]) == 0
        assert "0/23 detected" in capsys.readouterr().out
