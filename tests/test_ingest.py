"""Site extraction: API matching, ordering, config parsing, robustness."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from jcascan.ingest import (DEFAULT_APIS, FLEXIBLE,
                            FLEXIBLE_CHECK_SERVER_TRUSTED,
                            FLEXIBLE_HOSTNAME_VERIFIER, RESTRICTIVE,
                            RESTRICTIVE_CIPHER_GETINSTANCE,
                            RESTRICTIVE_SECRETKEYSPEC, corpus_files,
                            parse_config, scan_corpus, scan_file)

from conftest import (CHARAT_SRC, HOSTNAME_TRUE_SRC, KEY_LITERAL_SRC,
                      TRUST_EMPTY_SRC, TRUST_NATIVE_SRC, XOR_SRC, parse,
                      sites_of)
from jcascan.javaparse import parse_unit
from jcascan.ingest import extract_sites
from jcascan.syntax import decl_name, unit_index


class TestExtraction:
    def test_cipher_getinstance(self):
        sites = sites_of(CHARAT_SRC)
        assert len(sites) == 1
        assert sites[0].api == RESTRICTIVE_CIPHER_GETINSTANCE
        assert sites[0].subtree.kind == "argument_list"

    def test_secretkeyspec(self):
        sites = sites_of(KEY_LITERAL_SRC)
        assert len(sites) == 1
        assert sites[0].api == RESTRICTIVE_SECRETKEYSPEC

    def test_check_server_trusted(self):
        sites = sites_of(TRUST_EMPTY_SRC)
        assert len(sites) == 1
        assert sites[0].api == FLEXIBLE_CHECK_SERVER_TRUSTED
        assert sites[0].subtree.kind == "block"

    def test_hostname_verifier(self):
        sites = sites_of(HOSTNAME_TRUE_SRC)
        assert len(sites) == 1
        assert sites[0].api == FLEXIBLE_HOSTNAME_VERIFIER

    def test_native_method_without_body_marked(self):
        src = '''
import java.security.cert.X509Certificate;
public class NativeTrust {
    public native void checkServerTrusted(X509Certificate[] chain,
            String authType);
}
'''
        sites = sites_of(src)
        assert len(sites) == 1
        assert sites[0].subtree.kind == "no_body"

    def test_sites_ordered_by_offset(self):
        src = '''
import javax.crypto.Cipher;
public class Multi {
    void a() throws Exception { Cipher.getInstance("AES/GCM/NoPadding"); }
    void b() throws Exception { Cipher.getInstance("DES"); }
}
'''
        sites = sites_of(src)
        assert len(sites) == 2
        assert sites[0].node.start < sites[1].node.start

    def test_enclosing_names(self):
        site = sites_of(XOR_SRC)[0]
        assert unit_index(site.unit).named_owner(site.type_body) \
            is unit_index(site.unit).first_type["XorCase"]
        assert decl_name(site.method) == "run"

    def test_api_filter(self):
        unit = parse(TRUST_NATIVE_SRC)
        only_cipher = extract_sites(
            unit, {RESTRICTIVE_CIPHER_GETINSTANCE})
        assert only_cipher == []

    def test_site_id_is_path_and_offset(self):
        site = sites_of(CHARAT_SRC, path="a/B.java")[0]
        path, _, offset = site.id.rpartition(":")
        assert path == "a/B.java" and offset.isdigit()


class TestConfig:
    def test_restrictive_pattern(self):
        extras = parse_config("api = NoiseCipher.getInstance\n")
        assert len(extras) == 1
        assert extras[0].kind.category == RESTRICTIVE
        assert extras[0].receiver == "NoiseCipher"

    def test_flexible_pattern(self):
        extras = parse_config("# comment\napi = checkTrusted(2)\n")
        assert len(extras) == 1
        assert extras[0].kind.category == FLEXIBLE
        assert extras[0].arity == 2

    def test_custom_api_matches(self):
        extras = parse_config("api = CryptoBox.getInstance\n")
        src = ('class A { void m() throws Exception {'
               ' CryptoBox.getInstance("DES"); } }')
        unit = parse_unit("A.java", src)
        sites = extract_sites(unit, DEFAULT_APIS, extras)
        assert len(sites) == 1
        assert sites[0].api == extras[0].kind


class TestCorpusScan:
    def test_scan_is_deterministic_and_sorted(self, bench_corpus):
        outdir, _ = bench_corpus
        sites1, _ = scan_corpus(outdir)
        sites2, _ = scan_corpus(outdir)
        ids1 = [s.id for s in sites1]
        assert ids1 == [s.id for s in sites2]
        assert ids1 == sorted(ids1, key=lambda i: (i.rpartition(":")[0],
                                                   int(i.rpartition(":")[2])))

    def test_count_matches_regex_oracle(self, bench_corpus):
        """Independent textual count of API occurrences on the corpus."""
        outdir, _ = bench_corpus
        sites, _ = scan_corpus(outdir)
        expected = 0
        for path in outdir.rglob("*.java"):
            text = path.read_text()
            expected += len(re.findall(r"Cipher\.getInstance\s*\(", text))
            expected += len(re.findall(r"new\s+SecretKeySpec\s*\(", text))
            expected += len(re.findall(
                r"void\s+checkServerTrusted\s*\(", text))
            expected += len(re.findall(
                r"boolean\s+verify\s*\(\s*String", text))
        assert len(sites) == expected

    def test_unreadable_dir_fatal(self, tmp_path):
        import pytest
        with pytest.raises(FileNotFoundError):
            scan_corpus(tmp_path / "missing")

    def test_bad_file_becomes_warning(self, tmp_path):
        (tmp_path / "Bad.java").write_text("%%%% not java at all ????")
        (tmp_path / "Good.java").write_text(
            'class G { void m() throws Exception {'
            ' Cipher.getInstance("DES"); } }')
        sites, warnings = scan_corpus(tmp_path)
        assert len(sites) == 1
        assert any("Bad.java" in w.path for w in warnings)


class TestCorpusFiles:
    """`corpus_files` lists with `os.scandir` what ``rglob`` lists."""

    @pytest.fixture
    def tree(self, tmp_path):
        root = tmp_path / "tree"
        for directory in ("a.java", ".hidden", "sub/deeper", "b-c"):
            (root / directory).mkdir(parents=True)
        for file in ("A.java", "a.java/In.java", ".hidden/H.java",
                     "sub/deeper/D.java", "b-c.java", "b-c/E.java",
                     "notes.txt", "X.JAVA", ".java"):
            (root / file).write_text("class X { }\n")
        (root / "Link.java").symlink_to(root / "A.java")
        (root / "Dangling.java").symlink_to(root / "nowhere")
        (root / "linked").symlink_to(root / "sub")
        (root / "linked.java").symlink_to(root / "sub")
        return root

    def test_same_paths_and_order_as_rglob(self, tree, monkeypatch):
        monkeypatch.chdir(tree.parent)
        for root in (tree, str(tree), f"{tree}/", "tree", "./tree/",
                     "tree//sub/..", "."):
            expected = [str(p) for p in
                        sorted(Path(root).rglob("*.java"), key=str)]
            assert corpus_files(root) == expected, root
        assert "tree/linked.java" in corpus_files("tree")
        assert not any(p.startswith("tree/linked")
                       and p != "tree/linked.java"
                       for p in corpus_files("tree"))

    def test_read_as_pathlib_reads(self, tree):
        """Newlines are translated and a directory named ``*.java`` is
        unreadable, with the text `Path.read_text` gives."""
        crlf = tree / "Crlf.java"
        crlf.write_bytes(b'class C {\r\n void m() throws Exception {\r'
                         b' Cipher.getInstance("DES"); } }\r\n')
        sites = scan_file(str(crlf), DEFAULT_APIS, None, [])
        assert sites[0].unit.text == crlf.read_text(encoding="utf-8")
        assert sites[0].start_line == 3
        warnings: list = []
        assert scan_file(str(tree / "a.java"), DEFAULT_APIS, None,
                         warnings) == []
        with pytest.raises(OSError) as raised:
            (tree / "a.java").read_text(encoding="utf-8", errors="replace")
        assert [w.message for w in warnings] == \
            [f"unreadable: {raised.value}"]

    def test_read_decodes_as_text_mode_reads(self, tmp_path):
        """Bytes that are no UTF-8, a byte-order mark and every newline
        convention give the text ``open`` gives in text mode, and a
        dangling symlink its error."""
        odd = tmp_path / "Odd.java"
        odd.write_bytes(b'class C { // \xef\xbb\xbf \xff\xfe caf\xc3\xa9\r\r\n'
                        b' void m() throws Exception {\r'
                        b' Cipher.getInstance("D\xe9S"); } } // \xe2\x82')
        sites = scan_file(str(odd), DEFAULT_APIS, None, [])
        with open(odd, encoding="utf-8", errors="replace") as source:
            assert sites[0].unit.text == source.read()
        assert sites[0].start_line == 4
        dangling = tmp_path / "Dangling.java"
        dangling.symlink_to(tmp_path / "nowhere")
        warnings: list = []
        assert scan_file(str(dangling), DEFAULT_APIS, None, warnings) == []
        with pytest.raises(OSError) as raised:
            open(dangling, encoding="utf-8", errors="replace")
        assert [w.message for w in warnings] == \
            [f"unreadable: {raised.value}"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_a_named_pipe_is_one_warning_not_a_hang(self, tmp_path):
        """A named pipe called ``*.java`` opens without waiting for a
        writer and, as a file that is not regular, is unreadable. Run in
        child processes, which a timeout ends if they hang."""
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "A.java").write_text(
            'class A { void m() throws Exception {'
            ' Cipher.getInstance("DES"); } }\n')
        os.mkfifo(corpus / "P.java")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}

        def python(*args: str) -> subprocess.CompletedProcess:
            return subprocess.run([sys.executable, *args], env=env,
                                  capture_output=True, text=True,
                                  timeout=60)

        report = tmp_path / "r.jsonl"
        done = python("-m", "jcascan.cli", "scan", str(corpus), "-o",
                      str(report))
        assert done.returncode == 0, done.stderr
        records = [json.loads(line)
                   for line in report.read_text().splitlines()]
        assert [r["path"] for r in records[:-1]] == [str(corpus / "A.java")]
        assert records[-1]["summary"]["parse_warnings"] == 1
        pipe = str(corpus / "P.java")
        done = python("-c", "import sys\n"
                      "from jcascan.ingest import DEFAULT_APIS, scan_file\n"
                      "w = []\n"
                      "scan_file(sys.argv[1], DEFAULT_APIS, None, w)\n"
                      "print([x.message for x in w])", pipe)
        assert done.stdout == \
            f"{[f'unreadable: not a regular file: {pipe!r}']}\n"
