"""Benchmark corpus generator and detector-report grader.

Generates 23 minimal Java programs — 14 restrictive parameter-construction
patterns and 9 flexible trust-decision patterns — each embedding a known
misuse, writes an expected-findings manifest, and grades any detector's
CSV report against it. The bundled pipeline is one such detector
(``self_report``); external tools integrate through the same CSV contract.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from .ingest import RESTRICTIVE, FLEXIBLE, extract_sites
from .javaparse import parse_unit
from .report import analyze_corpus
from .rules import ERROR, WARNING, INFO

DETECTED = "DETECTED"
PARTIAL = "PARTIAL"
UNDETECTED = "UNDETECTED"
TOOL_ERROR = "TOOL_ERROR"

GLYPHS = {DETECTED: "+", PARTIAL: "~", UNDETECTED: "-", TOOL_ERROR: "!"}

TOOL_REPORT_HEADER = ["tool", "file", "start_line", "end_line", "rule",
                      "message"]


@dataclass(frozen=True)
class ExpectedFinding:
    rule_id: str
    severity: str
    start_line: int = 0
    end_line: int = 0


@dataclass
class Variant:
    file: str
    source: str
    expected: list[ExpectedFinding]


@dataclass
class BenchmarkCase:
    case_id: str
    category: str            # RESTRICTIVE or FLEXIBLE
    label: str               # taxonomy label the case exercises
    directory: str
    variants: list[Variant] = field(default_factory=list)


@dataclass(frozen=True)
class DetectionVerdict:
    case_id: str
    category: str
    verdict: str


@dataclass
class ToolReport:
    tool: str
    rows: list[tuple[str, int, int, str, str]]  # file, lines, rule, message
    bad_rows: list[str] = field(default_factory=list)  # files of bad rows


def _slug(case_id: str) -> str:
    return (case_id.lower().replace("/", "_").replace("*", "x")
            .replace("+", "_"))


def _xor_ints(text: str, key: list[int]) -> str:
    return ", ".join(str(ord(c) ^ key[i % len(key)])
                     for i, c in enumerate(text))


def _char_offsets(text: str, offset: int) -> str:
    return ", ".join(str(ord(c) - offset) for c in text)


_XOR_KEY = [19, 7, 42, 11, 5, 88, 101, 33, 54, 2, 77, 9, 13, 120, 66, 31,
            50, 8, 99, 17]


def _restrictive_cases() -> list[tuple[str, str, list[tuple[str, str, list[tuple[str, str]]]]]]:
    """(case_id, label, [(class name, body template, expected rules)])."""
    charat_lit = "AES/ECBX"
    strbl_codes = _char_offsets("AES/ECB/NoPadding", 24)
    xor_data = _xor_ints("AES/ECB/PKCS5Padding",
                         _XOR_KEY[:len("AES/ECB/PKCS5Padding")])
    xor_key = ", ".join(str(k)
                        for k in _XOR_KEY[:len("AES/ECB/PKCS5Padding")])
    return [
        ("STRING/OID", "STRING", [
            ("OidLiteral", '''
    public static void run() throws Exception {
        Cipher c = Cipher.getInstance("1.2.840.113549.3.2");
    }
''', [("R2", ERROR)]),
            ("PlainLiteral", '''
    public static void run() throws Exception {
        Cipher c = Cipher.getInstance("DES");
    }
''', [("R1", ERROR)]),
        ]),
        ("ID", "ID", [
            ("LocalId", '''
    public static void run() throws Exception {
        String transformation = "DES/CBC/PKCS5Padding";
        Cipher c = Cipher.getInstance(transformation);
    }
''', [("R1", ERROR), ("R5", WARNING)]),
            ("LocalIdEcb", '''
    public static void run() throws Exception {
        String transformation = "AES/ECB/PKCS5Padding";
        Cipher c = Cipher.getInstance(transformation);
    }
''', [("R3", ERROR)]),
            ("FieldId", '''
    private String algorithm = "DES";

    public void run() throws Exception {
        Cipher c = Cipher.getInstance(algorithm);
    }
''', [("R1", ERROR)]),
        ]),
        ("METHOD", "METHOD", [
            ("MethodReturn", '''
    private static String getTransformation() {
        return "AES/ECB/PKCS5Padding";
    }

    public static void run() throws Exception {
        Cipher c = Cipher.getInstance(getTransformation());
    }
''', [("R3", ERROR)]),
        ]),
        ("METHOD*", "METHOD", [
            ("MethodChain", f'''
    private static String stage2() {{
        byte[] data = {{{xor_data}}};
        int[] key = {{{xor_key}}};
        byte[] out = new byte[data.length];
        for (int i = 0; i < data.length; i++) {{
            out[i] = (byte) (data[i] ^ key[i]);
        }}
        return new String(out);
    }}

    private static String stage1() {{
        return stage2();
    }}

    public static void run() throws Exception {{
        Cipher c = Cipher.getInstance(stage1());
    }}
''', [("R3", ERROR)]),
        ]),
        ("NATIVE", "NATIVE", [
            ("NativeSource", '''
    public static native String getTransformation();

    public static void run() throws Exception {
        Cipher c = Cipher.getInstance(getTransformation());
    }
''', [("R8", INFO)]),
            ("EncryptedParam", '''
    public static void run(byte[] blob, javax.crypto.Cipher decryptor)
            throws Exception {
        byte[] plain = decryptor.doFinal(blob);
        String transformation = new String(plain);
        Cipher c = Cipher.getInstance(transformation);
    }
''', [("R8", INFO)]),
        ]),
        ("STROP", "STROP", [
            ("CharAtBuild", f'''
    public static void run() throws Exception {{
        Cipher c = Cipher.getInstance("AES/" + "{charat_lit}".charAt(4)
                + "{charat_lit}".charAt(5) + "{charat_lit}".charAt(6)
                + "/NoPadding");
    }}
''', [("R3", ERROR)]),
        ]),
        ("STRBUF", "STRBUF", [
            ("BufferAppend", '''
    public static void run() throws Exception {
        StringBuffer sb = new StringBuffer();
        sb.append("DESede/CBC/");
        sb.append("NoPadding");
        Cipher c = Cipher.getInstance(sb.toString());
    }
''', [("R1", ERROR)]),
        ]),
        ("STRBL*", "STRBUF", [
            ("BuilderLoop", f'''
    public static void run() throws Exception {{
        int[] codes = {{{strbl_codes}}};
        StringBuilder sb = new StringBuilder();
        for (int i = 0; i < codes.length; i++) {{
            sb.append(String.valueOf(Character.toChars(codes[i] + 24)));
        }}
        Cipher c = Cipher.getInstance(sb.toString());
    }}
''', [("R3", ERROR)]),
        ]),
        ("CONCT", "CONCT", [
            ("Concatenation", '''
    public static void run() throws Exception {
        Cipher c = Cipher.getInstance("AES" + "/ECB" + "/PKCS5Padding");
    }
''', [("R3", ERROR)]),
        ]),
        ("BAS64", "BAS64", [
            ("Base64Hidden", '''
    public static void run() throws Exception {
        byte[] raw = android.util.Base64.decode(
                "REVTL0NCQy9QS0NTNVBhZGRpbmc=", 0);
        Cipher c = Cipher.getInstance(new String(raw));
    }
''', [("R1", ERROR), ("R5", WARNING)]),
        ]),
        ("ID+METHOD", "ID", [
            ("IdFromMethod", '''
    private static String pick() {
        return "DES";
    }

    public static void run() throws Exception {
        String algorithm = pick();
        Cipher c = Cipher.getInstance(algorithm);
    }
''', [("R1", ERROR)]),
        ]),
        ("TEROP", "TEROP", [
            ("TernaryIds", '''
    private static final String GCM_SPEC = "AES/GCM/NoPadding";
    private static final String PLAIN_SPEC = "AES";

    public static void run(boolean hardened) throws Exception {
        Cipher c = Cipher.getInstance(hardened ? GCM_SPEC : PLAIN_SPEC);
    }
''', [("R4", ERROR)]),
            ("TernaryLiterals", '''
    public static void run(boolean hardened) throws Exception {
        Cipher c = Cipher.getInstance(
                hardened ? "AES/GCM/NoPadding" : "DES");
    }
''', [("R1", ERROR)]),
        ]),
        ("STATIC", "STATIC", [
            ("StaticField", '''
    private static final String TRANSFORM = "AES/ECB/PKCS5Padding";

    public static void run() throws Exception {
        Cipher c = Cipher.getInstance(TRANSFORM);
    }
''', [("R3", ERROR)]),
        ]),
        ("ENUM", "ENUM", [
            ("EnumPayload", '''
    enum Algo {
        DES_MODE("DES/ECB/PKCS5Padding");

        private final String spec;

        Algo(String spec) {
            this.spec = spec;
        }

        public String getSpec() {
            return this.spec;
        }
    }

    public static void run() throws Exception {
        Cipher c = Cipher.getInstance(Algo.DES_MODE.getSpec());
    }
''', [("R1", ERROR), ("R3", ERROR)]),
        ]),
    ]


def _flexible_cases() -> list[tuple[str, str, list[tuple[str, str, list[tuple[str, str]]]]]]:
    return [
        ("EMPTY", "EMPTY", [
            ("TrustAll", '''
    public void checkServerTrusted(X509Certificate[] chain,
            String authType) {
    }
''', [("F1", ERROR)]),
        ]),
        ("LOG", "LOG", [
            ("LogOnly", '''
    public void checkServerTrusted(X509Certificate[] chain,
            String authType) {
        for (X509Certificate cert : chain) {
            android.util.Log.e("TLS", "Certificate: " + cert);
        }
    }
''', [("F2", ERROR)]),
        ]),
        ("CLIENT", "CLIENT", [
            ("DelegateToClient", '''
    public void checkClientTrusted(X509Certificate[] chain,
            String authType) {
    }

    public void checkServerTrusted(X509Certificate[] chain,
            String authType) {
        checkClientTrusted(chain, authType);
    }
''', [("F3", ERROR)]),
        ]),
        ("VAL", "VAL", [
            ("ExpiryOnly", '''
    public void checkServerTrusted(X509Certificate[] chain,
            String authType) throws CertificateException {
        for (X509Certificate cert : chain) {
            cert.checkValidity();
        }
    }
''', [("F4", ERROR)]),
        ]),
        ("HASH", "HASH", [
            ("Sha1Pin", '''
    public void checkServerTrusted(X509Certificate[] chain,
            String authType) throws Exception {
        MessageDigest md = MessageDigest.getInstance("SHA-1");
        byte[] digest = md.digest(chain[0].getEncoded());
        String hex = byte2Hex(digest);
        if (!hex.equalsIgnoreCase(
                "7BCF8E43D9B4F8D1A6701D2A4C8E19F3B2D0C5A1")) {
            throw new CertificateException("pin mismatch");
        }
    }

    private String byte2Hex(byte[] data) {
        StringBuilder sb = new StringBuilder();
        for (byte b : data) {
            sb.append(String.format("%02X", b));
        }
        return sb.toString();
    }
''', [("F7", WARNING)]),
        ]),
        ("GETSUB", "GETSUB", [
            ("SubjectDnPin", '''
    public void checkServerTrusted(X509Certificate[] chain,
            String authType) throws CertificateException {
        String dn = chain[0].getSubjectDN().toString();
        if (!dn.contains("CN=example.com, O=Example Corp")) {
            throw new CertificateException("wrong subject");
        }
    }
''', [("F6", WARNING), ("F8", WARNING)]),
        ]),
        ("LEN/AUTH", "LEN", [
            ("LengthChecksOnly", '''
    public void checkServerTrusted(X509Certificate[] chain,
            String authType) {
        if (chain == null || chain.length == 0) {
            throw new IllegalArgumentException("empty chain");
        }
        if (authType == null || authType.length() == 0) {
            throw new IllegalArgumentException("no authType");
        }
    }
''', [("F10", ERROR)]),
        ]),
        ("GETPUB", "GETPUB", [
            ("PublicKeyPin", '''
    private static final byte[] PIN = {
        4, 8, 15, 16, 23, 42, 4, 8, 15, 16, 23, 42
    };

    public void checkServerTrusted(X509Certificate[] chain,
            String authType) throws CertificateException {
        byte[] actual = chain[0].getPublicKey().getEncoded();
        if (!Arrays.equals(actual, PIN)) {
            throw new CertificateException("pin mismatch");
        }
    }
''', [("F8", WARNING)]),
        ]),
        ("STROP", "STROP", [
            ("PrincipalNameCheck", '''
    public void checkServerTrusted(X509Certificate[] chain,
            String authType) throws CertificateException {
        String name = chain[0].getSubjectX500Principal().getName();
        if (!name.contains("CN=api.example.com")) {
            throw new CertificateException("wrong host");
        }
    }
''', [("F8", WARNING)]),
        ]),
    ]


_RESTRICTIVE_PRELUDE = "import javax.crypto.Cipher;\n"
_FLEXIBLE_PRELUDE = (
    "import java.security.MessageDigest;\n"
    "import java.security.cert.CertificateException;\n"
    "import java.security.cert.X509Certificate;\n"
    "import java.util.Arrays;\n"
)


def case_ids() -> list[tuple[str, str]]:
    """(category, case_id) pairs in table row order."""
    return ([(RESTRICTIVE, cid) for cid, _, _ in _restrictive_cases()]
            + [(FLEXIBLE, cid) for cid, _, _ in _flexible_cases()])


def _render(cls: str, body: str, category: str) -> str:
    prelude = _RESTRICTIVE_PRELUDE if category == RESTRICTIVE \
        else _FLEXIBLE_PRELUDE
    return f"{prelude}\npublic class {cls} {{{body}}}\n"


def build_cases(seed: int = 0) -> list[BenchmarkCase]:
    """Instantiate all 23 cases; class names carry a seeded suffix."""
    rng = random.Random(seed)
    cases: list[BenchmarkCase] = []
    specs = [(RESTRICTIVE, "r", _restrictive_cases()),
             (FLEXIBLE, "f", _flexible_cases())]
    for category, prefix, rows in specs:
        for index, (case_id, label, templates) in enumerate(rows, 1):
            directory = f"{prefix}{index:02d}_{_slug(case_id)}"
            case = BenchmarkCase(case_id=case_id, category=category,
                                 label=label, directory=directory)
            for base, body, expected in templates:
                cls = f"{base}{rng.randrange(100, 1000)}"
                source = _render(cls, body, category)
                case.variants.append(Variant(
                    file=f"{directory}/{cls}.java",
                    source=source,
                    expected=[ExpectedFinding(rule_id=r, severity=s)
                              for r, s in expected]))
            cases.append(case)
    return cases


def _locate_site(source: str, rel_file: str,
                 category: str) -> tuple[int, int]:
    unit = parse_unit(rel_file, source)
    if unit.parse_failed:
        raise ValueError(f"generated variant failed to parse: {rel_file}")
    for node in unit.root.walk():
        if node.kind == "parse_error":
            raise ValueError(
                f"generated variant has a syntax error: {rel_file}")
    sites = [s for s in extract_sites(unit) if s.api.category == category]
    if len(sites) != 1:
        raise ValueError(
            f"expected exactly one site in {rel_file}, got {len(sites)}")
    return sites[0].start_line, sites[0].end_line


def generate_corpus(outdir: str | Path, seed: int = 0
                    ) -> list[BenchmarkCase]:
    """Write the 23 case directories plus manifest.json under outdir."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    cases = build_cases(seed)
    manifest = []
    for case in cases:
        case_dir = out / case.directory
        case_dir.mkdir(parents=True, exist_ok=True)
        entries = []
        for variant in case.variants:
            start, end = _locate_site(variant.source, variant.file,
                                      case.category)
            variant.expected = [
                ExpectedFinding(e.rule_id, e.severity, start, end)
                for e in variant.expected]
            (out / variant.file).write_text(variant.source,
                                            encoding="utf-8")
            entries.append({
                "file": variant.file,
                "expected": [{"rule_id": e.rule_id, "severity": e.severity,
                              "start_line": e.start_line,
                              "end_line": e.end_line}
                             for e in variant.expected],
            })
        manifest.append({"case_id": case.case_id,
                         "category": case.category,
                         "label": case.label,
                         "directory": case.directory,
                         "variants": entries})
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "cases": manifest}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    return cases


def load_manifest(corpus_dir: str | Path) -> list[BenchmarkCase]:
    path = Path(corpus_dir) / "manifest.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    cases = []
    for entry in data["cases"]:
        case = BenchmarkCase(case_id=entry["case_id"],
                             category=entry["category"],
                             label=entry["label"],
                             directory=entry["directory"])
        for var in entry["variants"]:
            case.variants.append(Variant(
                file=var["file"], source="",
                expected=[ExpectedFinding(e["rule_id"], e["severity"],
                                          e.get("start_line", 0),
                                          e.get("end_line", 0))
                          for e in var["expected"]]))
        cases.append(case)
    return cases


def self_report(corpus_dir: str | Path) -> ToolReport:
    """Run the bundled pipeline (`analyze_corpus`) over the corpus; one
    row per finding in (path, offset) order, files relative to the corpus
    root."""
    root = Path(corpus_dir)
    analyses, _ = analyze_corpus(root)
    rows: list[tuple[str, int, int, str, str]] = []
    for a in analyses:
        file = str(Path(a.site.path).relative_to(root))
        for finding in a.findings:
            rows.append((file, a.site.start_line, a.site.end_line,
                         finding.rule_id, finding.message))
    return ToolReport(tool="self", rows=rows)


def load_report_csv(path: str | Path) -> ToolReport:
    """Parse a detector report; bad rows are kept for TOOL_ERROR grading."""
    text = Path(path).read_text(encoding="utf-8")
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"empty report file: {path}")
    if [h.strip().lower() for h in header] != TOOL_REPORT_HEADER:
        raise ValueError(
            f"bad report header {header!r}; expected {TOOL_REPORT_HEADER}")
    tool = ""
    rows: list[tuple[str, int, int, str, str]] = []
    bad: list[str] = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 6:
            raise ValueError(f"row {lineno}: expected 6 fields, "
                             f"got {len(row)}: {row!r}")
        tool = tool or row[0]
        try:
            start, end = int(row[2]), int(row[3])
        except ValueError:
            bad.append(row[1])
            continue
        rows.append((row[1], start, end, row[4], row[5]))
    return ToolReport(tool=tool or "tool", rows=rows, bad_rows=bad)


def _norm_path(p: str) -> str:
    """Forward slashes, without leading ``./`` segments (``.gen/`` is a
    directory name and stays)."""
    p = p.replace("\\", "/")
    while p.startswith("./"):
        p = p[2:]
    return p


def _same_file(reported: str, expected: str) -> bool:
    reported, expected = _norm_path(reported), _norm_path(expected)
    return reported == expected or reported.endswith("/" + expected) \
        or expected.endswith("/" + reported)


def _overlaps(row_start: int, row_end: int, start: int, end: int) -> bool:
    if row_start <= 0 and row_end <= 0:
        return True  # whole-file report
    if row_end < row_start:
        row_end = row_start
    return row_start <= end and start <= row_end


def _rule_matches(expected_rule: str, rule: str, message: str) -> bool:
    needle = expected_rule.lower()
    return needle in rule.lower() or needle in message.lower()


def grade(cases: list[BenchmarkCase],
          report: ToolReport) -> list[DetectionVerdict]:
    """One verdict per case against one detector report."""
    verdicts = []
    for case in cases:
        files = {v.file for v in case.variants}
        if any(any(_same_file(bad, f) for f in files)
               for bad in report.bad_rows):
            verdicts.append(DetectionVerdict(case.case_id, case.category,
                                             TOOL_ERROR))
            continue
        total = matched = 0
        touched = False  # any report row overlapping a case site
        for variant in case.variants:
            for exp in variant.expected:
                total += 1
                hit = False
                for file, start, end, rule, message in report.rows:
                    if not _same_file(file, variant.file):
                        continue
                    if not _overlaps(start, end,
                                     exp.start_line, exp.end_line):
                        continue
                    touched = True
                    if _rule_matches(exp.rule_id, rule, message):
                        hit = True
                        break
                matched += hit
        if total and matched == total:
            verdict = DETECTED
        elif matched > 0 or touched:
            # Partial: wrong-misuse match on the site, a subset of the
            # expected misuses, or detection of only some variants.
            verdict = PARTIAL
        else:
            verdict = UNDETECTED
        verdicts.append(DetectionVerdict(case.case_id, case.category,
                                         verdict))
    return verdicts


def summarize(verdicts_by_tool: dict[str, list[DetectionVerdict]]
              ) -> tuple[str, str]:
    """(CSV matrix, text glyph matrix) in table row order."""
    tools = sorted(verdicts_by_tool)
    order = case_ids()
    lookup = {tool: {(v.category, v.case_id): v.verdict
                     for v in verdicts_by_tool[tool]}
              for tool in tools}
    csv_buf = io.StringIO()
    writer = csv.writer(csv_buf)
    writer.writerow(["category", "case"] + tools)
    lines = [" | ".join(["category", "case".ljust(10)] + tools)]
    for category, case_id in order:
        row = [lookup[tool].get((category, case_id), UNDETECTED)
               for tool in tools]
        writer.writerow([category, case_id] + row)
        glyph_row = [GLYPHS[v].center(max(len(t), 1)) for v, t in
                     zip(row, tools)]
        lines.append(" | ".join([category.ljust(len("category")),
                                 case_id.ljust(10)] + glyph_row))
    legend = ("legend: + detected  ~ partial  - undetected  ! error")
    return csv_buf.getvalue(), "\n".join(lines + [legend]) + "\n"
