"""Misuse rules: transformation checks, trust-decision checks, key
material, the rule catalog, and the no-spurious-finding invariant."""

from __future__ import annotations

import pytest

from jcascan.rules import (ERROR, INFO, WARNING, Transformation, expand_oid,
                           rule_catalog)

from conftest import (BASE64_SRC, CHARAT_SRC, EMPTY_ARGS_SRC,
                      ENCRYPTED_PARAM_SRC, KEY_BASE64_SRC, KEY_LITERAL_SRC,
                      NATIVE_SRC, TRUST_CLIENT_SRC, TRUST_DN_SRC,
                      TRUST_EMPTY_SRC, TRUST_LOG_SRC, TRUST_SHA1_SRC,
                      TRUST_VAL_SRC, XOR_SRC, pipeline)


def findings_of(src: str):
    return pipeline(src)[3]


def rules_of(src: str):
    return sorted(f.rule_id for f in findings_of(src))


def _cipher(arg: str) -> str:
    return ('import javax.crypto.Cipher;\n'
            'class A { void m(boolean z) throws Exception {'
            f' Cipher.getInstance({arg}); }} }}')


class TestRestrictiveRules:
    def test_r1_broken_algorithm(self):
        fs = findings_of(_cipher('"DES"'))
        assert [(f.rule_id, f.severity) for f in fs] == [("R1", ERROR)]
        assert not fs[0].evasive

    def test_r1_case_insensitive(self):
        assert rules_of(_cipher('"des"')) == ["R1"]

    def test_r2_oid_expanded(self):
        fs = findings_of(_cipher('"1.2.840.113549.3.2"'))
        assert [(f.rule_id, f.severity) for f in fs] == [("R2", ERROR)]
        assert fs[0].effective_value == "RC2"

    def test_r3_explicit_ecb(self):
        assert rules_of(_cipher('"AES/ECB/NoPadding"')) == ["R3"]

    def test_r3_excludes_rsa(self):
        # RSA "ECB" is a naming artifact: blocking is handled by padding
        fs = findings_of(_cipher('"RSA/ECB/OAEPWithSHA-256AndMGF1Padding"'))
        assert "R3" not in {f.rule_id for f in fs}

    def test_r4_bare_algorithms(self):
        assert rules_of(_cipher('"AES"')) == ["R4"]
        assert rules_of(_cipher('"RSA"')) == ["R4"]
        assert rules_of(_cipher('"AESWrap"')) == ["R4"]

    def test_r4_not_for_broken_bare(self):
        assert rules_of(_cipher('"DES"')) == ["R1"]

    def test_r5_cbc_padding(self):
        fs = findings_of(_cipher('"AES/CBC/PKCS5Padding"'))
        assert [(f.rule_id, f.severity) for f in fs] == [("R5", WARNING)]
        assert rules_of(_cipher('"AES/CBC/PKCS7Padding"')) == ["R5"]

    def test_r6_pkcs1(self):
        fs = findings_of(_cipher('"RSA/ECB/PKCS1Padding"'))
        assert [(f.rule_id, f.severity) for f in fs] == [("R6", WARNING)]

    def test_r7_type_dependent(self):
        fs = findings_of(EMPTY_ARGS_SRC)
        assert [(f.rule_id, f.severity) for f in fs] == [("R7", WARNING)]
        src = ('class A { void m() throws Exception {'
               ' BlockCipher.getInstance(); } }')
        fs = findings_of(src)
        assert [(f.rule_id, f.severity) for f in fs] == [("R7", INFO)]

    def test_r8_native(self):
        fs = findings_of(NATIVE_SRC)
        assert [(f.rule_id, f.severity) for f in fs] == [("R8", INFO)]
        assert fs[0].evasive

    def test_r8_encrypted_param(self):
        fs = findings_of(ENCRYPTED_PARAM_SRC)
        assert [(f.rule_id, f.severity) for f in fs] == [("R8", INFO)]

    def test_r9_malformed(self):
        fs = findings_of(_cipher('"not a transformation!!"'))
        assert [(f.rule_id, f.severity) for f in fs] == [("R9", INFO)]

    def test_secure_transformation_clean(self):
        assert findings_of(_cipher('"AES/GCM/NoPadding"')) == []

    def test_any_candidate_semantics(self):
        fs = findings_of(_cipher('z ? "AES/GCM/NoPadding" : "DES"'))
        assert [f.rule_id for f in fs] == ["R1"]

    def test_charat_evasive(self):
        fs = findings_of(CHARAT_SRC)
        r3 = [f for f in fs if f.rule_id == "R3"]
        assert r3 and r3[0].evasive
        assert r3[0].effective_value == "AES/ECB/NoPadding"

    def test_xor_evasive(self):
        fs = findings_of(XOR_SRC)
        assert any(f.rule_id == "R3" and f.evasive for f in fs)

    def test_base64_findings(self):
        assert rules_of(BASE64_SRC) == ["R1", "R5"]
        assert all(f.evasive for f in findings_of(BASE64_SRC))

    @pytest.mark.parametrize("body", [
        'String[] A = {"DES"}; Cipher.getInstance(A[0]);',
        "byte[] b = {68, 69, 83}; Cipher.getInstance(new String(b));",
        "Cipher.getInstance(new String(new char[]{68, 69, 83}));",
    ], ids=["array-element", "byte-array", "char-array"])
    def test_r1_on_a_resolved_value_whatever_the_labels(self, body):
        """A value the resolver recovers is judged even where no label
        predicate recognizes the argument's shape."""
        fs = findings_of('import javax.crypto.Cipher;\n'
                         f'class A {{ void m() throws Exception {{ {body}'
                         ' } }')
        assert [(f.rule_id, f.severity, f.effective_value)
                for f in fs] == [("R1", ERROR, "DES")]

    def test_no_finding_when_unresolvable_and_benign(self):
        # candidates empty, residual UNKNOWN only, no suspicion pattern
        src = _cipher("Other.lookup()")
        fs = findings_of(src)
        assert all(f.severity == INFO for f in fs)
        assert all(f.rule_id in ("R8",) for f in fs) or fs == []


class TestKeyMaterial:
    def test_hardcoded_key_error(self):
        fs = findings_of(KEY_LITERAL_SRC)
        assert any(f.rule_id == "K1" and f.severity == ERROR for f in fs)

    def test_base64_key_error(self):
        fs = findings_of(KEY_BASE64_SRC)
        assert any(f.rule_id == "K1" for f in fs)

    def test_generated_key_clean(self):
        src = '''
import javax.crypto.KeyGenerator;
import javax.crypto.spec.SecretKeySpec;
class K {
    void m() throws Exception {
        KeyGenerator kg = KeyGenerator.getInstance("AES");
        new SecretKeySpec(kg.generateKey().getEncoded(), "AES");
    }
}
'''
        assert all(f.rule_id != "K1" for f in findings_of(src))

    def test_unresolved_key_info(self):
        src = '''
import javax.crypto.spec.SecretKeySpec;
class K { void m(byte[] raw) { new SecretKeySpec(raw, "AES"); } }
'''
        fs = findings_of(src)
        assert any(f.rule_id == "K2" and f.severity == INFO for f in fs)


class TestFlexibleRules:
    def test_f1_empty(self):
        fs = findings_of(TRUST_EMPTY_SRC)
        assert [(f.rule_id, f.severity) for f in fs] == [("F1", ERROR)]

    def test_f2_log_only(self):
        assert rules_of(TRUST_LOG_SRC) == ["F2"]

    def test_f3_delegation(self):
        assert rules_of(TRUST_CLIENT_SRC) == ["F3"]

    def test_f4_expiry_only(self):
        assert rules_of(TRUST_VAL_SRC) == ["F4"]

    def test_f5_istrusted(self):
        src = '''
import java.security.cert.CertificateException;
import java.security.cert.X509Certificate;
class T {
    public void checkServerTrusted(X509Certificate[] chain, String authType) throws CertificateException {
        if (!trustStore.isTrusted(chain[0])) {
            throw new CertificateException("untrusted");
        }
    }
}
'''
        assert rules_of(src) == ["F5"]

    def test_f6_f8_deprecated_dn(self):
        assert rules_of(TRUST_DN_SRC) == ["F6", "F8"]

    def test_f7_sha1_pin(self):
        assert rules_of(TRUST_SHA1_SRC) == ["F7"]

    def test_f9_abstract(self):
        src = '''
import java.security.cert.X509Certificate;
abstract class T {
    public abstract void checkServerTrusted(X509Certificate[] chain, String authType);
}
'''
        fs = findings_of(src)
        assert [(f.rule_id, f.severity) for f in fs] == [("F9", INFO)]

    def test_f10_ineffectual(self):
        src = '''
import java.security.cert.X509Certificate;
class T {
    public void checkServerTrusted(X509Certificate[] chain, String authType) {
        if (chain == null || chain.length == 0) {
            throw new IllegalArgumentException("empty chain");
        }
    }
}
'''
        assert rules_of(src) == ["F10"]

    def test_effective_body_clean(self):
        src = '''
import java.security.cert.CertificateException;
import java.security.cert.X509Certificate;
class T {
    public void checkServerTrusted(X509Certificate[] chain, String authType) throws CertificateException {
        for (X509Certificate cert : chain) {
            cert.checkValidity();
            cert.verify(caKey);
        }
    }
}
'''
        assert rules_of(src) == []


class TestCatalog:
    def test_catalog_versioned(self):
        cat = rule_catalog()
        assert cat["version"]
        ids = [r["id"] for r in cat["rules"]]
        assert ids == sorted(set(ids), key=ids.index)  # unique
        for rid in ["R1", "R8", "F1", "F10", "K1"]:
            assert rid in ids

    def test_oid_table(self):
        assert expand_oid("1.2.840.113549.3.2") == "RC2"
        assert expand_oid("1.2.840.113549.3.7") == "DESede"
        assert expand_oid("2.16.840.1.101.3.4.1.2") == "AES/CBC"
        assert expand_oid("9.9.9.9") is None

    def test_transformation_parser(self):
        t = Transformation.parse("AES/CBC/PKCS5Padding")
        assert (t.algorithm, t.mode, t.padding) == ("AES", "CBC",
                                                    "PKCS5Padding")
        assert Transformation.parse("AES").mode is None
        assert Transformation.parse("not valid!!") is None
