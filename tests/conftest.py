"""Shared fixtures: decompiled-style Java snippets exercising every
argument-construction and trust-decision pattern the analyzer handles,
plus pipeline helpers."""

from __future__ import annotations

import pytest

from jcascan.classify import classify
from jcascan.ingest import RESTRICTIVE, InvocationSite, extract_sites
from jcascan.javaparse import parse_unit
from jcascan.resolve import resolve_site
from jcascan.rules import check_site

# --- restrictive argument-construction snippets (decompiled style) -------

CHARAT_SRC = '''
import javax.crypto.Cipher;
public class CharAtCase {
    public void run() throws Exception {
        Cipher.getInstance("AES/" + ((char) ("AES/GCM/NoPadding".charAt(4) - 2)) + "AES/GCM/NoPadding".charAt(5) + ((char) ("AES/GCM/NoPadding".charAt(6) - 11)) + "/NoPadding");
    }
}
'''

XOR_SRC = '''
import javax.crypto.Cipher;
public class XorCase {
    public void run() throws Exception {
        String Qhi = Qhi("AES/CBC/PKCS5Padding");
        Cipher.getInstance(Qhi);
    }

    public static String Qhi(String str) {
        int[] iArr = new int[str.length()];
        iArr[4] = 6;
        iArr[5] = 1;
        iArr[6] = 1;
        return new String(Qhi(str.getBytes(), iArr));
    }

    public static byte[] Qhi(byte[] bArr, int[] iArr) {
        if (bArr == null || bArr.length == 0 || iArr == null || iArr.length == 0) {
            return bArr;
        }
        byte[] bArr2 = new byte[bArr.length];
        for (int i = 0; i < bArr.length; i++) {
            bArr2[i] = (byte) (bArr[i] ^ iArr[i]);
        }
        return bArr2;
    }
}
'''

BASE64_SRC = '''
import javax.crypto.Cipher;
import android.util.Base64;
public class Base64Case {
    public void run() throws Exception {
        Cipher.getInstance(new String(Base64.decode("REVTL0NCQy9QS0NTNVBhZGRpbmc=", 2)));
    }
}
'''

BYTE_LOOP_SRC = '''
import javax.crypto.Cipher;
public class ByteLoopCase {
    public void run() throws Exception {
        Cipher cipher = Cipher.getInstance(m7713c());
    }

    public static String m7713c() {
        int[] iArr = {55, 49, 59, 54, 47, 45, 36, 43, 41};
        StringBuilder sb = new StringBuilder();
        for (int i2 = 8; i2 < 9 && i2 >= 0; i2 -= 3) {
            sb.append(Character.toChars(iArr[i2] + 24));
        }
        return sb.toString();
    }
}
'''

TERNARY_SRC = '''
import javax.crypto.Cipher;
public class TernaryCase {
    private static int f882fB;

    public void run() throws Exception {
        Cipher.getInstance(getTransformation());
    }

    private static String getTransformation() {
        return f882fB >= 2 ? "AES/GCM/NoPadding" : "AES";
    }
}
'''

STRINGBUFFER_SRC = '''
import javax.crypto.Cipher;
public class BufferCase {
    private Cipher f13712c;

    public void run() throws Exception {
        StringBuffer stringBuffer = new StringBuffer();
        stringBuffer.append("DESede/CBC/");
        stringBuffer.append("NoPadding");
        this.f13712c = Cipher.getInstance(stringBuffer.toString());
    }
}
'''

STRINGBUILDER_SRC = '''
import javax.crypto.Cipher;
import java.security.Provider;
import java.security.Security;
public class BuilderCase {
    public void run() throws Exception {
        StringBuilder sb = new StringBuilder();
        sb.append("AES");
        sb.append("/EC");
        sb.append("B/PKCS7P");
        sb.append("adding");
        Provider provider = Security.getProvider("BC");
        Cipher cipher = Cipher.getInstance(sb.toString(), provider);
    }
}
'''

NESTED_TERNARY_SRC = '''
import javax.crypto.Cipher;
public class NestedTernaryCase {
    public void run(android.content.SharedPreferences sharedPreferences) throws Exception {
        Cipher.getInstance(Intrinsics.areEqual(sharedPreferences.getString("cipher.used", Build.VERSION.SDK_INT >= 23 ? "M" : "PREM"), "M") ? "RSA/ECB/OAEPWithSHA-1AndMGF1Padding" : "RSA/ECB/PKCS1Padding");
    }
}
'''

NATIVE_SRC = '''
import javax.crypto.Cipher;
public class NativeCase {
    private static native String nativeGetString(int i);

    public void run() throws Exception {
        String nativeGetString = nativeGetString(1);
        Cipher.getInstance(nativeGetString);
    }
}
'''

ENUM_SRC = '''
import javax.crypto.Cipher;
public class EnumCase {
    enum Algo {
        LEGACY("DES/ECB/PKCS5Padding");

        private final String spec;

        Algo(String spec) {
            this.spec = spec;
        }

        public String getSpec() {
            return this.spec;
        }
    }

    public void run() throws Exception {
        Cipher.getInstance(Algo.LEGACY.getSpec());
    }
}
'''

REPLACE_SRC = '''
import javax.crypto.Cipher;
public class ReplaceCase {
    public void run() throws Exception {
        Cipher.getInstance("DE$S".replace("$", ""));
    }
}
'''

ENCRYPTED_PARAM_SRC = '''
import javax.crypto.Cipher;
public class EncryptedParamCase {
    public void run() throws Exception {
        String algo_encode = "32Bi2A5oaH61xilScou92x9faAiO0SOBXmb0X/wqAijapt8K";
        Cipher.getInstance(AesGcmUtils.decode(algo_encode));
    }
}
'''

KEY_LITERAL_SRC = '''
import javax.crypto.spec.SecretKeySpec;
public class KeyLiteralCase {
    public void run() throws Exception {
        new SecretKeySpec("oejkdirztefhnvscxhdmdzedfotuabje".getBytes("UTF-8"), "AES");
    }
}
'''

KEY_BASE64_SRC = '''
import javax.crypto.spec.SecretKeySpec;
import android.util.Base64;
public class KeyBase64Case {
    public void run() throws Exception {
        new SecretKeySpec(Base64.decode("oik6PdDdMnOXemTbwvMn9de/h9lFnfBaCWbGMMZqqoSaQaqUOqjVGm5NqsmjcBI1x+sS9ugjB55HEJWRiFXYFw==", 2), "HmacSHA256");
    }
}
'''

EMPTY_ARGS_SRC = '''
public class EmptyArgsCase {
    public void run() throws Exception {
        AESCipher.getInstance();
    }
}
'''

# --- flexible trust-decision snippets -------------------------------------

TRUST_EMPTY_SRC = '''
import java.security.cert.X509Certificate;
public class TrustEmpty {
    public void checkServerTrusted(X509Certificate[] x509CertificateArr, String str) {
    }
}
'''

TRUST_LOG_SRC = '''
import java.security.cert.X509Certificate;
import android.util.Log;
public class TrustLog {
    public void checkServerTrusted(X509Certificate[] x509CertificateArr, String str) {
        for (X509Certificate x509Certificate : x509CertificateArr) {
            Log.e(TcpClient.TAG, "Certificate:" + x509Certificate);
        }
    }
}
'''

TRUST_CLIENT_SRC = '''
import java.security.cert.CertificateException;
import java.security.cert.X509Certificate;
public class TrustClient {
    public void checkServerTrusted(X509Certificate[] x509CertificateArr, String str) throws CertificateException {
        try {
            checkClientTrusted(x509CertificateArr, str);
        } catch (Exception e10) {
            throw new CertificateException("Certificate not trusted. It has expired", e10);
        }
    }

    public void checkClientTrusted(X509Certificate[] x509CertificateArr, String str) throws CertificateException {
    }
}
'''

TRUST_VAL_SRC = '''
import java.security.cert.CertificateException;
import java.security.cert.X509Certificate;
public class TrustVal {
    public void checkServerTrusted(X509Certificate[] x509CertificateArr, String str) throws CertificateException {
        for (X509Certificate x509Certificate : x509CertificateArr) {
            x509Certificate.checkValidity();
        }
    }
}
'''

TRUST_SHA1_SRC = '''
import java.security.MessageDigest;
import java.security.cert.CertificateException;
import java.security.cert.X509Certificate;
public class TrustSha1 {
    public void checkServerTrusted(X509Certificate[] x509CertificateArr, String str2) throws CertificateException {
        try {
            if (AdjustBridgeUtil.byte2HexFormatted(MessageDigest.getInstance("SHA1").digest(x509CertificateArr[0].getEncoded())).equalsIgnoreCase("7BCFF44099A35BC093BB48C5A6B9A516CDFDA0D1")) {
                return;
            }
            throw new CertificateException("mismatch");
        } catch (Exception e) {
            throw new CertificateException(e.getMessage());
        }
    }
}
'''

TRUST_DN_SRC = '''
import java.security.cert.CertificateException;
import java.security.cert.X509Certificate;
public class TrustDn {
    public void checkServerTrusted(X509Certificate[] x509CertificateArr, String str) throws CertificateException {
        if (!x509CertificateArr[0].getSubjectDN().toString().contains("EMAIL ADDRESS=sales-usa@extron.com, CN=Quantum Ultra, OU=Engineering, O=ExtronElectronics, L=Anaheim, ST=CA, C=US")) {
            throw new CertificateException("unexpected subject");
        }
    }
}
'''

TRUST_NATIVE_SRC = '''
import java.security.cert.X509Certificate;
public class TrustNative {
    private native void n_checkServerTrusted(X509Certificate[] x509CertificateArr, String str);

    public void checkServerTrusted(X509Certificate[] x509CertificateArr, String str) {
        n_checkServerTrusted(x509CertificateArr, str);
    }
}
'''

HOSTNAME_TRUE_SRC = '''
import javax.net.ssl.SSLSession;
public class AcceptAllHostnames {
    public boolean verify(String hostname, SSLSession session) {
        return true;
    }
}
'''


def parse(src: str, path: str = "Fixture.java"):
    return parse_unit(path, src)


def string_literals(node) -> set[str]:
    """Decoded values of all string literals within ``node`` (inclusive),
    by a walk: the reference for `UnitIndex.literals_in`."""
    return {n.value for n in node.walk()
            if n.kind == "string_literal" and isinstance(n.value, str)}


def sites_of(src: str, path: str = "Fixture.java") -> list[InvocationSite]:
    return extract_sites(parse(src, path))


def site_of(src: str, path: str = "Fixture.java") -> InvocationSite:
    found = sites_of(src, path)
    assert len(found) >= 1, "fixture produced no invocation sites"
    return found[0]


def pipeline(src: str, path: str = "Fixture.java"):
    """(site, resolved, labels, findings) for the fixture's first site."""
    site = site_of(src, path)
    resolved = resolve_site(site) if site.api.category == RESTRICTIVE \
        else None
    labels = classify(site, resolved)
    findings = check_site(site, resolved, labels)
    return site, resolved, labels, findings


@pytest.fixture(scope="session")
def bench_corpus(tmp_path_factory):
    """Generated benchmark corpus shared across the suite."""
    from jcascan import bench
    outdir = tmp_path_factory.mktemp("bench-corpus")
    cases = bench.generate_corpus(outdir, seed=7)
    return outdir, cases
