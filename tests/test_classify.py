"""Taxonomy classification: labels, signatures, prevalence."""

from __future__ import annotations

from jcascan.classify import (ArgumentSignature, FLEXIBLE_LABELS,
                              RESTRICTIVE_LABELS, UNKNOWN_API, classify,
                              match_signature, signature_of)
from jcascan.ingest import RESTRICTIVE, extract_sites
from jcascan.javaparse import parse_unit
from jcascan.report import analyze_site, summary_record
from jcascan.resolve import resolve_site
from jcascan.syntax import SyntaxNode

from conftest import (BASE64_SRC, BYTE_LOOP_SRC, CHARAT_SRC, EMPTY_ARGS_SRC,
                      ENUM_SRC, HOSTNAME_TRUE_SRC, NATIVE_SRC,
                      NESTED_TERNARY_SRC, STRINGBUFFER_SRC, TERNARY_SRC,
                      TRUST_CLIENT_SRC, TRUST_DN_SRC, TRUST_EMPTY_SRC,
                      TRUST_LOG_SRC, TRUST_NATIVE_SRC, TRUST_SHA1_SRC,
                      TRUST_VAL_SRC, XOR_SRC, site_of, sites_of)
from test_tokenize import _sources


def labels_of(src: str) -> set[str]:
    site = site_of(src)
    resolved = resolve_site(site) if site.api.category == RESTRICTIVE \
        else None
    return classify(site, resolved).labels


class TestRestrictiveLabels:
    def test_plain_string(self):
        src = ('import javax.crypto.Cipher;\n'
               'class A { void m() throws Exception {'
               ' Cipher.getInstance("Blowfish"); } }')
        assert labels_of(src) == {"STRING"}

    def test_oid(self):
        src = ('import javax.crypto.Cipher;\n'
               'class A { void m() throws Exception {'
               ' Cipher.getInstance("1.2.840.113549.3.2"); } }')
        assert labels_of(src) == {"STRING", "OID"}

    def test_empty_args(self):
        assert labels_of(EMPTY_ARGS_SRC) == {"EMPTY"}

    def test_charat_is_strop_and_conct(self):
        assert labels_of(CHARAT_SRC) >= {"STROP", "CONCT"}

    def test_ternary_via_method(self):
        assert "METHOD" in labels_of(TERNARY_SRC)

    def test_direct_ternary(self):
        src = ('import javax.crypto.Cipher;\n'
               'class A { void m(boolean z) throws Exception {'
               ' Cipher.getInstance('
               'z ? "AES/GCM/NoPadding" : "AES/CBC/PKCS5Padding"); } }')
        assert "TEROP" in labels_of(src)

    def test_stringbuffer(self):
        assert labels_of(STRINGBUFFER_SRC) >= {"ID", "STRBUF"}

    def test_strbuf_suppresses_method(self):
        assert "METHOD" not in labels_of(STRINGBUFFER_SRC)

    def test_base64(self):
        assert "BAS64" in labels_of(BASE64_SRC)

    def test_native_identifier(self):
        assert labels_of(NATIVE_SRC) >= {"ID", "NATIVE"}

    def test_enum(self):
        assert "ENUM" in labels_of(ENUM_SRC)

    def test_byte_loop_method(self):
        assert "METHOD" in labels_of(BYTE_LOOP_SRC)

    def test_static_field(self):
        src = ('import javax.crypto.Cipher;\n'
               'class A { static final String M = "AES/ECB/PKCS5Padding";'
               ' void m() throws Exception { Cipher.getInstance(M); } }')
        assert labels_of(src) >= {"ID", "STATIC"}

    def test_separator(self):
        src = ('import javax.crypto.Cipher;\n'
               'class A { void m(String algo, String mode) throws Exception'
               ' { Cipher.getInstance(algo + "/" + mode); } }')
        assert "SEPRT" in labels_of(src)


class TestFlexibleLabels:
    def test_empty_body(self):
        assert labels_of(TRUST_EMPTY_SRC) == {"EMPTY"}

    def test_log_only(self):
        assert labels_of(TRUST_LOG_SRC) == {"LOG"}

    def test_client_delegation(self):
        assert labels_of(TRUST_CLIENT_SRC) >= {"CLIENT"}

    def test_validity_only(self):
        assert labels_of(TRUST_VAL_SRC) == {"VAL"}

    def test_sha1_pinning(self):
        labels = labels_of(TRUST_SHA1_SRC)
        assert {"HASH", "ENCOD", "STROP"} <= labels

    def test_dn_compare(self):
        labels = labels_of(TRUST_DN_SRC)
        assert {"GETSUB", "STROP"} <= labels

    def test_native_delegate(self):
        assert "NATIVE" in labels_of(TRUST_NATIVE_SRC)

    def test_hostname_verifier_trivial(self):
        # body is `return true;` — no verification action labels
        labels = labels_of(HOSTNAME_TRUE_SRC)
        assert not labels & {"VER", "STROP", "METHOD"}


class TestLabelTypes:
    def test_closed_label_sets(self):
        assert len(RESTRICTIVE_LABELS) == 15
        assert len(FLEXIBLE_LABELS) == 30

    def test_unmatched_gets_unknown_api(self):
        src = ('import javax.crypto.Cipher;\n'
               'class A { void m(int[] x) throws Exception {'
               ' Cipher.getInstance(x[0]); } }')
        assert UNKNOWN_API in labels_of(src)


class TestSignature:
    def test_ternary_identifier_signature(self):
        src = ('import javax.crypto.Cipher;\n'
               'class A { void m(boolean z2) throws Exception {'
               ' Cipher.getInstance(z2 ? CBC_PADDING : CBC_NOPADDING);'
               ' } }')
        sig = signature_of(site_of(src))
        assert sig.as_dict() == {"identifier": 3, "ternary_expression": 1}

    def test_match_signature_exact(self):
        src_a = ('import javax.crypto.Cipher;\n'
                 'class A { void m(boolean z) throws Exception {'
                 ' Cipher.getInstance(z ? X : Y); } }')
        src_b = ('import javax.crypto.Cipher;\n'
                 'class B { void m(boolean z) throws Exception {'
                 ' Cipher.getInstance(z ? "a" : "b"); } }')
        sites = sites_of(src_a, "A.java") + sites_of(src_b, "B.java")
        pattern = ArgumentSignature.from_counts(
            {"identifier": 3, "ternary_expression": 1})
        hits = match_signature(sites, pattern)
        assert hits == [sites[0].id]

    def test_signature_is_order_insensitive(self):
        a = ArgumentSignature.from_counts({"x": 1, "y": 2})
        b = ArgumentSignature.from_counts({"y": 2, "x": 1})
        assert a == b


class TestPrevalence:
    def test_counts_sorted(self):
        """The report footer counts each label once per site, sorted by
        label name."""
        src = ('import javax.crypto.Cipher;\n'
               'class A { void m(String p) throws Exception {'
               ' Cipher.getInstance("Blowfish");'
               ' Cipher.getInstance("1.2.840.113549.3.2");'
               ' Cipher.getInstance(p); } }')
        analyses = [analyze_site(site) for site in sites_of(src)]
        assert [a.labels for a in analyses] == [
            ["STRING"], ["OID", "STRING"], ["ID"]]
        assert summary_record(analyses)["summary"]["prevalence"] == [
            ["ID", 1], ["OID", 1], ["STRING", 2]]


def test_restrictive_site_walks_its_argument_once(monkeypatch):
    """`classify` reads every label of a restrictive site from one walk of
    its argument list."""
    walks = 0
    original = SyntaxNode.walk

    def counting_walk(self):
        nonlocal walks
        walks += 1
        return original(self)

    checked = 0
    for name, text in _sources():
        for site in extract_sites(parse_unit(name, text)):
            if site.api.category != RESTRICTIVE or not site.subtree.children:
                continue
            resolved = resolve_site(site)
            walks = 0
            with monkeypatch.context() as patch:
                patch.setattr(SyntaxNode, "walk", counting_walk)
                classify(site, resolved)
            assert walks == 1, (name, site.id)
            checked += 1
    assert checked >= 80, checked


def test_flexible_site_walks_its_body_once(monkeypatch):
    """`classify` reads every label of a flexible site from one walk of its
    method body (six to eight walks per site before), and none for an
    empty body."""
    walks = 0
    original = SyntaxNode.walk

    def counting_walk(self):
        nonlocal walks
        walks += 1
        return original(self)

    counts = []
    for name, text in _sources():
        for site in extract_sites(parse_unit(name, text)):
            if site.api.category == RESTRICTIVE:
                continue
            walks = 0
            with monkeypatch.context() as patch:
                patch.setattr(SyntaxNode, "walk", counting_walk)
                classify(site)
            counts.append((walks, bool(site.subtree.children)))
    assert len(counts) >= 8
    assert all(walks == has_body for walks, has_body in counts), counts


def _trust(body: str) -> str:
    return ("import java.security.cert.X509Certificate;\n"
            "public class Trust {\n"
            "    public void checkServerTrusted(X509Certificate[] chain,"
            " String authType) {\n" + body + "    }\n}\n")


def test_auth_reads_only_the_subtree_of_each_string_call():
    """A string call marks AUTH only when the auth-type parameter is inside
    it, not in the nodes the body's walk holds after it."""
    assert "AUTH" not in labels_of(_trust(
        "        log(chain[0].toString().trim());\n"
        "        use(authType);\n"))
    assert "AUTH" in labels_of(_trust(
        "        log(chain[0].toString().trim());\n"
        "        use(authType.trim());\n"))
    assert "AUTH" in labels_of(_trust(
        "        use(\"RSA\".equals(authType));\n"))
