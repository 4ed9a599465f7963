"""Hand-written decoder shapes for the concrete interpreter's golden
records (`test_interp.py`): each statement and expression kind it runs,
the exits it takes (break, continue, throw, return), and the budget paths
(exhaustion inside a loop, the step clamp after an abandoned region)."""

from __future__ import annotations

LOOPS_SRC = '''
import javax.crypto.Cipher;
public class Loops {
    public void forLoop() throws Exception {
        String s = "";
        for (int i = 0; i < 3; i++) {
            s += (char) ('A' + i * 2 + (i == 1 ? 0 : 0));
        }
        Cipher.getInstance(s);
    }

    public void forBuild() throws Exception {
        char[] cs = new char[3];
        int j = 0;
        for (int i = 0, k = 10; i < cs.length; i++, k--) {
            cs[i] = (char) ("AES".charAt(i) + 0);
            j += k;
        }
        Cipher.getInstance(new String(cs) + "/" + (j > 20 ? "ECB" : "CBC"));
    }

    public void whileLoop() throws Exception {
        StringBuilder b = new StringBuilder();
        int i = 0;
        while (i < 10) {
            i++;
            if (i % 2 == 0) continue;
            if (i > 7) break;
            b.append(i);
        }
        Cipher.getInstance("DES" + b.toString());
    }

    public void doLoop() throws Exception {
        int n = 0;
        String out = "";
        do {
            out = out + "xy".charAt(n % 2);
            n += 1;
        } while (n < 4);
        Cipher.getInstance(out.toUpperCase().substring(1, 3) + "DES");
    }

    public void enhancedFor() throws Exception {
        String acc = "";
        for (char c : "SEA".toCharArray()) {
            acc = c + acc;
        }
        int[] codes = {82, 67, 52};
        String r = "";
        for (int v : codes) {
            r = r + (char) v;
        }
        Cipher.getInstance(acc + r);
    }

    public void nestedLoops() throws Exception {
        StringBuilder sb = new StringBuilder();
        outer:
        for (int i = 0; i < 4; i++) {
            for (int j = 0; j < 4; j++) {
                if (j > i) break;
                if ((i + j) % 3 == 0) continue;
                sb.append((char) ('A' + i + j));
            }
        }
        Cipher.getInstance(sb.reverse().toString());
    }

    public void infiniteFor() throws Exception {
        int i = 0;
        for (;;) {
            if (++i >= 5) break;
        }
        Cipher.getInstance("AES" + i);
    }
}
'''

EXCEPTIONS_SRC = '''
import javax.crypto.Cipher;
public class Exceptions {
    public void caught() throws Exception {
        String s = "A";
        try {
            s = s + "E";
            throw new IllegalStateException();
        } catch (IllegalStateException e) {
            s = s + "S";
        } finally {
            s = s + "/GCM/NoPadding";
        }
        Cipher.getInstance(s);
    }

    public void uncaught() throws Exception {
        String s = "D";
        try {
            try {
                s += "E";
                throw new RuntimeException();
            } finally {
                s += "S";
            }
        } catch (RuntimeException e) {
            s += "ede";
        }
        Cipher.getInstance(s);
    }

    public void breakInTry() throws Exception {
        String s = "";
        for (int i = 0; i < 9; i++) {
            try {
                if (i == 3) break;
                s += i;
            } finally {
                s += "-";
            }
        }
        Cipher.getInstance("RC4" + s);
    }

    public void poisoned(String p) throws Exception {
        String a = "AES";
        String b = p.trim();
        String c = a + "/CBC";
        synchronized (this) {
            c = c + "/PKCS5Padding";
        }
        assert c != null;
        Cipher.getInstance(c);
        Cipher.getInstance(b);
    }

    public void thrower() throws Exception {
        String t = "Blowfish";
        throw new Exception(t);
    }
}
'''

ARRAYS_SRC = '''
import javax.crypto.Cipher;
public class Arrays {
    private static final int[] KEY = {3, 1, 4, 1, 5, 9};
    private static final byte[] RAW = {65, 69, 83};

    public void intArray() throws Exception {
        int[] data = new int[]{68 ^ 3, 69 ^ 1, 83 ^ 4};
        char[] out = new char[data.length];
        for (int i = 0; i < data.length; i++) {
            out[i] = (char) (data[i] ^ KEY[i]);
        }
        Cipher.getInstance(String.valueOf(out));
    }

    public void byteArray() throws Exception {
        byte[] b = new byte[3];
        b[0] = (byte) 0x41;
        b[1] = (byte) (RAW[1] + 256);
        b[2] = RAW[2];
        b[2]++;
        b[2]--;
        b[1] += 0;
        Cipher.getInstance(new String(b));
    }

    public void nested() throws Exception {
        int[][] grid = {{82, 67}, {52, 0}};
        char[] cs = new char[]{'x', 'y', 'z'};
        cs[0] = (char) grid[0][0];
        cs[1] = (char) grid[0][1];
        cs[2] = (char) grid[1][0];
        Cipher.getInstance(new String(cs, 0, 3) + cs.length);
    }

    public void split() throws Exception {
        String[] parts = "AES,CBC,NoPadding".split(",");
        Cipher.getInstance(parts[0] + "/" + parts[1] + "/" + parts[2]);
    }

    public void outOfRange() throws Exception {
        int[] a = new int[2];
        a[5] = 1;
        Cipher.getInstance("AES" + a[0]);
    }
}
'''

OPERATORS_SRC = '''
import javax.crypto.Cipher;
public class Operators {
    public void charArith() throws Exception {
        char c = 'A';
        c += 3;
        char d = (char) (c + 1);
        int x = -7 / 2 + -7 % 2 + (5 << 2) + (-64 >> 3) + (-64 >>> 28) + (6 & 3) + (6 | 3) + ~5;
        Cipher.getInstance("" + c + d + (char) ('A' + x % 26 + 26) + (x > 0 || x < -100 && x != 0));
    }

    public void updates() throws Exception {
        int i = 5;
        int a = i++;
        int b = ++i;
        int c = i--;
        int d = --i;
        long w = 1;
        w <<= 4;
        w |= 1;
        w ^= 2;
        w %= 7;
        short sh = (short) 70000;
        Cipher.getInstance("AES" + a + b + c + d + w + sh);
    }

    public void logic() throws Exception {
        boolean t = true;
        boolean f = !t;
        String s = (f && t) ? "X" : "Y";
        String r = "";
        if (t && !f || f) r += "A";
        if (f || t && f) r += "B"; else r += "E";
        if (1 < 2 && 2 <= 2 && 3 >= 3 && 4 > 3 && "a" == "a" && 1 != 2) r += "S";
        Cipher.getInstance(r);
    }

    public void shortCircuit() throws Exception {
        int[] a = new int[1];
        String r = "DES";
        if (a.length > 5 && a[9] == 0) r = "RC4";
        if (a.length == 1 || a[9] == 0) r = r + "ede";
        Cipher.getInstance(r);
    }

    public void chain() throws Exception {
        Cipher.getInstance("A" + "E" + "S" + "/" + 'C' + "B" + "C" + "/" + 1 + 2 + "P" + (3 + 4) + 5 * 6 - 0 + "x");
    }

    public void cleanChain() throws Exception {
        int n = 4;
        Cipher.getInstance("A" + "E" + "S" + "/" + 'C' + "B" + "C" + "/" + n + 2 + "P" + (3 + 4) + 5 * 6 + (n - 1) + 'x' + 1.5);
    }

    public void logicChains() throws Exception {
        int n = 3;
        boolean a = n > 1 && n > 2 && n > 3 && n > 4;
        boolean b = n > 5 || n > 4 || n > 2 || n > 9;
        boolean c = n > 5 || n < 0 && n > 1 || n == 3 && n != 4;
        boolean d = n + 1 && n > 2;
        Cipher.getInstance("AES" + a + b + c);
    }

    public void ternaryInRegion() throws Exception {
        int k = 3;
        String s = k > 2 ? "AES" : "DES";
        Cipher.getInstance(s);
    }

    public void elseIf() throws Exception {
        String m = "c3";
        String x = "none";
        if (m == "c1") x = "RC2";
        else if (m == "c2") x = "RC4";
        else if (m == "c3") x = "DES";
        else x = "AES";
        if (m == "c9") { x = x + "1"; } else if (m == "c8") x = x + "2";
        if (m == "c3") ; else x = "Blowfish";
        Cipher.getInstance(x);
    }

    static String k = "c2";

    public void staticElseIf() throws Exception {
        String x = "DES";
        if (k == "c0") x = "RC4";
        else if (k == "c1") x = "RC4";
        else if (k == "c2") x = "AES";
        else if (k == "c3") x = "RC4";
        Cipher.getInstance(x);
    }

    public void doBreak() throws Exception {
        String s = "";
        int i = 0;
        do {
            i++;
            if (i == 2) continue;
            s += i;
            if (i == 4) break;
        } while (true);
        Cipher.getInstance("RC" + s);
    }

    public void nonBoolCond() throws Exception {
        String x = "AES";
        if (x) x = "DES";
        Cipher.getInstance(x);
    }
}
'''

LIBRARY_SRC = '''
import javax.crypto.Cipher;
import android.util.Base64;
public class Library {
    public void base64() throws Exception {
        byte[] a = java.util.Base64.getDecoder().decode("QUVTL0NCQy9QS0NTNVBhZGRpbmc=");
        Cipher.getInstance(new String(a));
    }

    public void base64Android() throws Exception {
        String s = new String(Base64.decode("REVTZWRlL0VDQi9Ob1BhZGRpbmc-", 8));
        Cipher.getInstance(s);
    }

    public void base64Url() throws Exception {
        Cipher.getInstance(new String(java.util.Base64.getUrlDecoder().decode("UkM0")));
    }

    public void base64Bad() throws Exception {
        Cipher.getInstance(new String(Base64.decode("%%%", 0)));
    }

    public void format() throws Exception {
        String f = String.format("%s/%s/%s%d%%", "AES", "CBC", "PKCS", 5);
        Cipher.getInstance(f.replace("%", "Padding"));
    }

    public void numbers() throws Exception {
        int n = Integer.parseInt(" 12 ") + Integer.valueOf("3");
        int m = Math.max(Math.min(n, 100), Math.abs(-4));
        char[] cc = Character.toChars(65 + m - 15);
        Cipher.getInstance(String.valueOf(cc) + "ES" + String.copyValueOf(new char[]{'/', 'G'}));
    }

    public void strings() throws Exception {
        String s = "  xxDESede/cbc/NoPaddingxx  ".trim();
        s = s.substring(2, s.length() - 2);
        int i = s.indexOf("/");
        int j = s.lastIndexOf("/");
        String mode = s.substring(i + 1, j).toUpperCase();
        boolean same = mode.equals("CBC") && mode.equalsIgnoreCase("cbc") && s.contains("ede") && s.startsWith("DES") && s.endsWith("ing") && !s.isEmpty();
        String out = s.substring(0, i).concat("/").concat(mode).concat(s.substring(j)).intern();
        Cipher.getInstance(same ? out.toString() : "none");
    }

    public void builders() throws Exception {
        StringBuilder sb = new StringBuilder("ES");
        sb.insert(0, "A");
        sb.append('/').append("GCMX");
        sb.deleteCharAt(sb.length() - 1);
        sb.append(new char[]{'/', 'N'});
        StringBuffer buf = new StringBuffer(16);
        buf.append("oPaddingZZ");
        buf.setLength(buf.length() - 2);
        char last = sb.charAt(sb.length() - 1);
        Cipher.getInstance(sb.toString() + buf + (last == 'N' ? "" : "?"));
    }

    public void replaceAll() throws Exception {
        String v = "A1E2S3".replaceAll("[0-9]", "");
        Cipher.getInstance(v.toLowerCase().toUpperCase() + String.valueOf(true));
    }
}
'''

FIELDS_SRC = '''
import javax.crypto.Cipher;
public class Fields extends Base {
    static final String ALG = "DES";
    static final String MODE = ALG + "/CBC";
    static final char[] CH = {'R', 'C', '4'};
    static String unset;
    private String inst = "Blowfish";

    enum Mode {
        ECB("ECB", 1), GCM("GCM", 2);

        private final String tag;
        private final int num;

        Mode(String tag, int num) {
            this.tag = tag;
            this.num = num;
        }

        String padded(String p) {
            return this.tag + "/" + p + num;
        }
    }

    public void staticField() throws Exception {
        Cipher.getInstance(MODE + "/NoPadding");
    }

    public void qualified() throws Exception {
        Cipher.getInstance(Fields.ALG + Other.SUFFIX + Fields.CH.length);
    }

    public void arrayField() throws Exception {
        Cipher.getInstance(new String(CH));
    }

    public void enumConst() throws Exception {
        Mode m = Mode.GCM;
        Cipher.getInstance("AES/" + m.tag + "/" + m.name() + Mode.ECB.padded("NoPadding"));
    }

    public void inherited() throws Exception {
        Cipher.getInstance(BASE + helper(2));
    }

    public void unsetField() throws Exception {
        Cipher.getInstance(unset + "x");
    }

    public void instanceField() throws Exception {
        Cipher.getInstance(this.inst + inst);
    }
}

class Base {
    static final String BASE = "AES";

    static String helper(int n) {
        String r = "";
        for (int i = 0; i < n; i++) r = r + "/";
        return r + "X";
    }
}

class Other {
    static final String SUFFIX = "ede";
}
'''

CALLS_SRC = '''
import javax.crypto.Cipher;
public class Calls {
    private static String d(String s, int k) {
        for (int r = 0; r < 2; r++) {
            StringBuilder b = new StringBuilder();
            for (int i = 0; i < s.length(); i++) {
                k = (k * 13 + 7) & 0xFF;
                b.append((char) (s.charAt(i) ^ k));
            }
            s = b.toString();
        }
        return s;
    }

    private static String rec(int n) {
        if (n == 0) return "";
        return rec(n - 1) + "A";
    }

    private static String early(int n) {
        for (int i = 0; ; i++) {
            if (i * i > n) return "RC" + i;
        }
    }

    private static native String nat(int i);

    private static String partly(int n) {
        String s = "";
        for (int i = 0; i < n; i++) s += "x";
        return s + nat(1);
    }

    private static String voidish() {
        return;
    }

    public void keystream() throws Exception {
        Cipher.getInstance(d(d("AES", 42), 42));
    }

    public void recursion() throws Exception {
        Cipher.getInstance(rec(3) + rec(20));
    }

    public void earlyReturn() throws Exception {
        Cipher.getInstance(early(10));
    }

    public void partial() throws Exception {
        Cipher.getInstance(partly(400));
    }

    public void missing() throws Exception {
        Cipher.getInstance(voidish() + unknownHelper(1) + Calls.d("x", 1));
    }
}
'''

BUDGET_SRC = '''
import javax.crypto.Cipher;
public class Budget {
    private static String spin(int n) {
        String s = "";
        for (int i = 0; i < n; i++) {
            s = s + (char) ('A' + i % 26);
        }
        return s;
    }

    public void exhaustedInLoop() throws Exception {
        int acc = 0;
        for (int i = 0; i < 100000; i++) {
            acc += i;
        }
        Cipher.getInstance("AES" + acc);
    }

    public void exhaustedInCall() throws Exception {
        Cipher.getInstance(spin(5000));
    }

    public void clampedRegion(String p) throws Exception {
        int acc = 0;
        int i = 0;
        while (i < 700) {
            acc = acc + i;
            i++;
        }
        String s = "DES";
        Cipher.getInstance(s + p.length());
    }

    public void clampedThenLiteral() throws Exception {
        int acc = 0;
        for (int i = 0; i < 900; i++) {
            acc ^= i;
        }
        String r = "RC4" + acc + unknown();
        Cipher.getInstance(r);
        Cipher.getInstance("AES/CBC/" + acc);
    }
}
'''

SNIPPETS = {
    "Loops.java": LOOPS_SRC,
    "Exceptions.java": EXCEPTIONS_SRC,
    "Arrays.java": ARRAYS_SRC,
    "Operators.java": OPERATORS_SRC,
    "Library.java": LIBRARY_SRC,
    "Fields.java": FIELDS_SRC,
    "Calls.java": CALLS_SRC,
    "Budget.java": BUDGET_SRC,
}
