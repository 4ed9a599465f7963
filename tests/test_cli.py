"""End-to-end command-line behaviour: determinism, exit codes, artifacts."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conftest
import interp_snippets
import jcascan
from jcascan.cli import main
from jcascan.javaparse import MAX_EXPRESSION_DEPTH, MAX_STATEMENT_DEPTH

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


def _site(argument: str) -> str:
    return f"Cipher.getInstance({argument});"


def _scan_method(tmp_path, body: str) -> list[dict]:
    """Scan one file whose method holds ``body``; the report records."""
    corpus = tmp_path / "deep"
    corpus.mkdir(parents=True)
    (corpus / "Deep.java").write_text(
        "import javax.crypto.Cipher;\nclass Deep {\n"
        '    static String k = "AES";\n'
        "    static String f(Object o) { return k; }\n"
        f"    void m() throws Exception {{\n        {body}\n    }}\n}}\n")
    out = tmp_path / "r.jsonl"
    assert main(["scan", str(corpus), "-o", str(out)]) == 0
    return [json.loads(line) for line in out.read_text().splitlines()]


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

    @pytest.mark.parametrize("statement", [
        pytest.param(_site("(" * 100 + '"AES"' + ")" * 100), id="100"),
        pytest.param(_site("(" * 1000 + '"AES"' + ")" * 1000), id="1000"),
        pytest.param("{ " * 500 + _site('"AES"') + " }" * 500,
                     id="blocks-500"),
        pytest.param("int z = " + "- " * 1000 + "1;", id="prefix-1000"),
        pytest.param(_site("(String) " * 1000 + '"AES"'), id="casts-1000"),
    ])
    def test_deeply_nested_argument_is_a_warning(self, statement, tmp_path):
        records = _scan_method(tmp_path, statement + "\n        "
                               + _site('"DES"'))
        assert records[-1]["summary"]["parse_warnings"] == 1
        # The rest of the file still parses: the second site is reported.
        assert [r["findings"][0]["rule_id"] for r in records[:-1]] == ["R1"]

    @pytest.mark.parametrize("statement,sites,candidates", [
        pytest.param("".join(f'if (k == "c{i}") ' + _site('"DES"')
                             + " else " for i in range(450))
                     + _site('"DES"'), 451, ["DES"], id="else-if-450"),
        pytest.param(_site('k == null ? "RC4" : ' * 200 + '"DES"'),
                     1, ["DES", "RC4"], id="ternary-200"),
        pytest.param("String t; " + "t = " * 200 + '"DES"; ' + _site("t"),
                     1, ["DES"], id="assignment-200"),
    ])
    def test_long_right_nested_chain_scans_in_full(self, statement, sites,
                                                   candidates, tmp_path):
        """`else if`, ternary-else and assignment chains cost no nesting
        level per link: no warning, and every site in them is resolved."""
        records = _scan_method(tmp_path, statement + "\n        "
                               + _site('"DES"'))
        assert records[-1]["summary"]["parse_warnings"] == 0
        assert len(records[:-1]) == sites + 1
        assert records[0]["resolved"] == {"candidates": candidates,
                                          "residuals": []}
        for record in records[:-1]:
            assert "R1" in [f["rule_id"] for f in record["findings"]]

    @pytest.mark.parametrize("statement", [
        'String s = "\\8";', "char c = '\\9';", "long x = 0xL;",
        "int x = " + "1" * 4301 + ";", "int x = ²;",
    ], ids=["digit-escape", "char-escape", "hex", "long", "non-decimal"])
    def test_malformed_literal_is_a_warning(self, statement, tmp_path):
        """A literal that made the tokenizer raise is one warning; the
        site after it is reported."""
        records = _scan_method(tmp_path, statement + "\n        "
                               + _site('"DES"'))
        assert records[-1]["summary"]["parse_warnings"] == 1
        assert [r["findings"][0]["rule_id"] for r in records[:-1]] == ["R1"]

    def test_escape_cut_off_by_end_of_file_is_a_warning(self, tmp_path):
        corpus = tmp_path / "cut"
        corpus.mkdir()
        (corpus / "Weak.java").write_text(
            ERROR_SRC + 'class B { String s = "abc\\')
        out = tmp_path / "r.jsonl"
        assert main(["scan", str(corpus), "-o", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        # The tokenizer's, and the parser's for the unfinished field and
        # the unclosed class.
        assert records[-1]["summary"]["parse_warnings"] == 3
        assert [r["findings"][0]["rule_id"] for r in records[:-1]] == ["R1"]

    def test_a_wholly_failed_file_keeps_its_warnings(self, tmp_path):
        corpus = tmp_path / "cut"
        corpus.mkdir()
        (corpus / "B.java").write_text('class B { String s = "abc\\')
        out = tmp_path / "r.jsonl"
        assert main(["scan", str(corpus), "-o", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        # The three of the escape test above, and the file's failure.
        assert records == [{"summary": {
            "findings_by_severity": {"ERROR": 0, "INFO": 0, "WARNING": 0},
            "parse_warnings": 4, "prevalence": [], "sites": 0,
            "strata": {"flexible": [], "restrictive": []}}}]

    @pytest.mark.parametrize("body,resolved", [
        ("StringBuilder sb = new StringBuilder();\n"
         "        char[] cs = new char[]{\"AES\", 'N'};\n"
         "        sb.append(cs);\n"
         "        Cipher.getInstance(sb.toString());", None),
        (_site("f ? \"AES\" : new String(new char[]{\"AES\", 'N'})"),
         {"candidates": ["AES"], "residuals": ["UNKNOWN"]}),
        ("byte[] b = {\"x\", 69, 83};\n"
         "        Cipher.getInstance(new String(b));",
         {"candidates": [], "residuals": ["UNKNOWN"]}),
    ], ids=["char-array-appended", "char-array-in-ternary", "byte-array"])
    def test_array_holding_a_non_number_scans(self, body, resolved,
                                              tmp_path):
        """A char or byte array with a string among its items is not a
        value; the site is reported instead of aborting the scan."""
        records = _scan_method(tmp_path, body)
        assert len(records) == 2
        if resolved is not None:
            assert records[0]["resolved"] == resolved

    @pytest.mark.parametrize("argument", [
        '"AES" + Math.min(3)', '"AES" + Math.abs()',
        "new String(Character.toChars())", '"AES" + String.format()',
        '"AES" + Integer.parseInt()', "new String(Base64.decode())",
        '"AES".substring()', '"AES".replace("A")',
    ])
    def test_library_call_with_too_few_arguments_scans(self, argument,
                                                       tmp_path):
        records = _scan_method(tmp_path, _site(argument))
        assert records[0]["resolved"] == {"candidates": [],
                                          "residuals": ["UNKNOWN"]}

    @pytest.mark.parametrize("argument", [
        # Java's grouping flag has no Python ``%`` counterpart.
        'String.format("%,d", 5)',
        # Strings where the bytes of a new String are expected.
        'new String("a,b".split(","))',
        # A width too long for Python's int to read, written out and
        # built by concatenation.
        pytest.param('String.format("%' + "5" * 5000 + 's", "AES")',
                     id="5000-digit-width"),
        pytest.param('String.format("%" + "' + "5" * 5000 + '" + "s", "AES")',
                     id="5000-digit-width-concatenated"),
    ])
    def test_library_call_the_model_refuses_scans(self, argument,
                                                  tmp_path):
        """A library call whose arguments the model cannot evaluate is
        left unresolved instead of aborting the scan."""
        records = _scan_method(tmp_path, _site(argument))
        assert records[0]["resolved"] == {"candidates": [],
                                          "residuals": ["UNKNOWN"]}

    def test_deepest_accepted_nesting_scans(self, tmp_path):
        """Statements and expressions both at their nesting limits, in the
        shape that takes the most stack frames (a lambda-argument chain
        inside local classes), go through resolve, classify and rules
        under the default recursion limit; one level more is a warning."""
        def method_body(classes, lambdas):
            argument = "f(() -> " * lambdas + "k" + ")" * lambdas
            # Method bodies start at statement level 2 (the method itself
            # is a class member); each local class adds two levels (its
            # statement and its member); the argument list opens one
            # expression level and each lambda argument two.
            return ("class L { void g() throws Exception { " * classes
                    + _site(argument) + " } }" * classes
                    + "\n        " + _site('"DES"'))

        classes = (MAX_STATEMENT_DEPTH - 2) // 2
        lambdas = (MAX_EXPRESSION_DEPTH - 1) // 2
        records = _scan_method(tmp_path / "at",
                               method_body(classes, lambdas))
        assert records[-1]["summary"]["parse_warnings"] == 0
        assert len(records[:-1]) == 2
        for name, deeper in (("statements", method_body(classes + 1,
                                                        lambdas)),
                             ("expressions", method_body(classes,
                                                         lambdas + 1))):
            records = _scan_method(tmp_path / name, deeper)
            assert records[-1]["summary"]["parse_warnings"] == 1
            assert [r["findings"][0]["rule_id"]
                    for r in records[:-1]] == ["R1"]


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


class TestOptions:
    """Each subcommand takes only the flags it reads."""

    @pytest.mark.parametrize("argv", [
        [command, "corpus", flag, "1"]
        for command in ("scan", "stratify", "classify")
        for flag in ("--confidence", "--margin", "--seed")
    ] + [
        ["sample", "r.jsonl", flag, "1"]
        for flag in ("--apis", "--config", "--max-indirection",
                     "--max-candidates")
    ])
    def test_unread_flag_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,resolved", [
        ([], [(["DES", "RC4"], []), (["AES", "DES"], [])]),
        (["--max-indirection", "1"],
         [([], ["DEPTH_EXCEEDED"]), (["AES", "DES"], [])]),
        (["--max-candidates", "1"],
         [(["DES"], ["DEPTH_EXCEEDED"]), (["AES"], ["DEPTH_EXCEEDED"])]),
    ], ids=["defaults", "max-indirection", "max-candidates"])
    def test_budget_flags_reach_the_resolver(self, flags, resolved,
                                             tmp_path):
        # `f1(p)` is not concrete (p is a parameter), so the resolver
        # follows the calls abstractly, one indirection per call: three
        # hops to the two literals in f3.
        corpus = tmp_path / "budget"
        corpus.mkdir()
        (corpus / "B.java").write_text(
            "import javax.crypto.Cipher;\nclass B {\n"
            "    static String f3(String s) {\n"
            '        if (s.isEmpty()) { return "DES"; } return "RC4"; }\n'
            "    static String f2(String s) { return f3(s); }\n"
            "    static String f1(String s) { return f2(s); }\n"
            "    void m(boolean c, String p) throws Exception {\n"
            "        Cipher.getInstance(f1(p));\n"
            '        Cipher.getInstance(c ? "AES" : "DES");\n    }\n}\n')
        out = tmp_path / "r.jsonl"
        assert main(["scan", str(corpus), "-o", str(out)] + flags) == 0
        records = [json.loads(line)
                   for line in out.read_text().splitlines()][:-1]
        assert [(r["resolved"]["candidates"], r["resolved"]["residuals"])
                for r in records] == resolved

    def test_budget_flag_values_are_checked(self, error_corpus):
        with pytest.raises(ValueError):
            main(["scan", str(error_corpus), "--max-candidates", "0"])


def _fresh_python(code: str, *args: str) -> str:
    """Standard output of ``code`` run by a new interpreter that imports
    this checkout's ``jcascan``."""
    src = str(Path(jcascan.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_cli_import_leaves_bench_unloaded():
    """`scan` never needs the benchmark module, so importing the CLI does
    not load it."""
    code = "import sys, jcascan.cli; print('jcascan.bench' in sys.modules)"
    assert _fresh_python(code).strip() == "False"


def test_scan_leaves_unused_stdlib_unloaded(error_corpus, tmp_path):
    """A scan builds no dataclass, computes no sample size and writes no
    CSV, so neither importing the CLI nor scanning loads the modules for
    those; `sample`, `stratify` and `report` import them when they run."""
    code = """if True:
        import sys
        from jcascan.cli import main
        unused = {"dataclasses", "inspect", "statistics", "csv"}
        print(sorted(unused & set(sys.modules)))
        corpus, out = sys.argv[1:]
        main(["scan", corpus, "-o", f"{out}/r.jsonl"])
        print(sorted(unused & set(sys.modules)))
        main(["sample", f"{out}/r.jsonl", "-o", f"{out}/plan.json"])
        main(["stratify", corpus, "-o", f"{out}/strata.csv"])
        main(["report", f"{out}/r.jsonl", "--out-dir", f"{out}/summary"])
        """
    printed = _fresh_python(code, str(error_corpus), str(tmp_path))
    lines = printed.splitlines()
    assert lines[:2] == ["[]", "[]"]
    assert json.loads("\n".join(lines[2:]))["summary"]["sites"] == 2
    plan = json.loads((tmp_path / "plan.json").read_text())
    assert len(plan["plans"]["restrictive"]["selected_ids"]) == 2
    for csv_file in (tmp_path / "strata.csv",
                     tmp_path / "summary" / "strata.csv"):
        assert csv_file.read_text().splitlines()[0] \
            == "category,stratum_key,population"
    assert (tmp_path / "summary" / "prevalence.csv").read_text() \
        .splitlines()[0] == "label,sites"


def _hash_seed_corpus(directory: Path) -> None:
    """The conftest sources, the interpreter snippets, and a
    ``String.format`` site with 5 x 5 argument combinations, more than the
    16 candidates a site keeps."""
    directory.mkdir()
    for name, text in sorted(vars(conftest).items()):
        if name.endswith("_SRC") and isinstance(text, str):
            (directory / f"{name}.java").write_text(text)
    for name, text in interp_snippets.SNIPPETS.items():
        (directory / name).write_text(text)
    five = " : ".join(f'f{i} ? "{c}"' for i, c in enumerate("ABCD")) \
        + ' : "E"'
    (directory / "Format.java").write_text(
        "import javax.crypto.Cipher;\nclass Format {\n"
        "    void m(boolean f0, boolean f1, boolean f2, boolean f3)"
        " throws Exception {\n"
        f'        Cipher.getInstance(String.format("%s/%s", {five},'
        f" {five.lower()}));\n    }}\n}}\n")


def test_scan_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    """Two ``jcascan scan`` processes under different ``PYTHONHASHSEED``s
    write the same report: no candidate depends on set iteration order."""
    corpus = tmp_path / "corpus"
    _hash_seed_corpus(corpus)
    src = str(Path(jcascan.__file__).resolve().parents[1])
    reports = []
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}.jsonl"
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(
                   [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        subprocess.run([sys.executable, "-m", "jcascan.cli", "scan",
                        str(corpus), "-o", str(out)], env=env, check=False,
                       capture_output=True)
        reports.append(out.read_bytes())
    assert reports[0]
    assert reports[0] == reports[1]



def test_scan_bytes_do_not_depend_on_the_cpus(tmp_path):
    """A ``jcascan scan`` confined to one CPU, which runs in-process,
    writes the report of one that forks a worker per CPU."""
    corpus = tmp_path / "corpus"
    _hash_seed_corpus(corpus)
    src = str(Path(jcascan.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    one_cpu = {min(os.sched_getaffinity(0))}
    reports = []
    for i, confine in enumerate(
            [None, lambda: os.sched_setaffinity(0, one_cpu)]):
        out = tmp_path / f"{i}.jsonl"
        subprocess.run([sys.executable, "-m", "jcascan.cli", "scan",
                        str(corpus), "-o", str(out)], env=env, check=False,
                       capture_output=True, preexec_fn=confine)
        reports.append(out.read_bytes())
    assert reports[0]
    assert reports[0] == reports[1]


def test_command_exits_with_the_code_main_returns(error_corpus, tmp_path):
    """``python -m jcascan.cli`` ends through `run`, whose exit skips the
    interpreter's teardown: the exit code and the flushed output are
    those of `main` in-process."""
    src = str(Path(jcascan.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}

    def command(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "jcascan.cli", *args],
                              env=env, capture_output=True, check=False)

    piped = command("scan", str(error_corpus), "-o", "-")
    assert piped.returncode == 0
    out = tmp_path / "r.jsonl"
    assert main(["scan", str(error_corpus), "-o", str(out)]) == 0
    assert piped.stdout == out.read_bytes()
    assert command("scan", str(error_corpus), "-o", str(out),
                   "--fail-on", "error").returncode == 1
    bad_flag = command("scan", str(error_corpus), "--no-such-flag")
    assert bad_flag.returncode == 2
    assert b"--no-such-flag" in bad_flag.stderr


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
