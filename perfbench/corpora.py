"""Seeded known-answer corpora for the scan benchmark.

Each generator writes ``.java`` files under a root directory and returns one
`Expected` record per planted invocation site: where it is, which taxonomy
label it must carry, and, for restrictive sites, the plaintext values the
resolver must recover. The answers are computed here from the generator's
own choices; nothing in this module imports the scanner.

Workloads (sizes are fixed; only the seed varies the content):

* ``many-small`` — the decompiled-corpus shape: one site per file, mostly
  plain literals, with identifiers, concatenation, ternaries, helpers and
  three trust-manager bodies mixed in.
* ``one-large-unit`` — the same shape mix packed into one compilation unit,
  so per-site work that walks the whole unit dominates.
* ``string-encryption`` — small classes whose sites decode their algorithm
  name through a keystream-XOR helper, so the resolver's interpreter
  dominates and long strings at high round counts exhaust its step budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

RESTRICTIVE = "restrictive"
FLEXIBLE = "flexible"

SAFE = ["AES/GCM/NoPadding", "RSA/ECB/OAEPWithSHA-256AndMGF1Padding",
        "ChaCha20-Poly1305", "AES/CTR/NoPadding"]
UNSAFE = ["DES", "AES/ECB/PKCS5Padding", "DES/CBC/PKCS5Padding",
          "Blowfish", "RC4"]
ALGORITHMS = SAFE + UNSAFE

MANY_SMALL_RESTRICTIVE = 2000
MANY_SMALL_FLEXIBLE = 500
FILES_PER_PACKAGE = 100
LARGE_UNIT_RESTRICTIVE = 160
LARGE_UNIT_FLEXIBLE = 40
ENCRYPTION_CLASSES = 80
ENCRYPTION_SITES_PER_CLASS = 5
ENCRYPTION_ROUNDS = (2, 4, 8, 16)

# Restrictive argument shapes, weighted like a decompiled corpus.
_RESTRICTIVE_WEIGHTS = [("STRING", 70), ("ID", 10), ("CONCT", 8),
                        ("TEROP", 7), ("METHOD", 5)]
# Trust-manager bodies: empty, validating, logging only.
_FLEXIBLE_WEIGHTS = [("EMPTY", 34), ("VAL", 33), ("LOG", 33)]

_FLEXIBLE_BODIES = {
    "EMPTY": [],
    "VAL": ["for (X509Certificate cert : chain) {",
            "    cert.checkValidity();",
            "}"],
    "LOG": ['android.util.Log.d("TLS", "chain: " + chain);'],
}


@dataclass(frozen=True)
class Expected:
    """The known answer for one planted site."""

    file: str                  # path relative to the corpus root
    line: int                  # 1-based line where the site's node starts
    category: str              # RESTRICTIVE or FLEXIBLE
    label: str                 # taxonomy label the site must carry
    plaintexts: tuple[str, ...] = ()   # values resolution must recover


def _balanced(rng: random.Random, weights: list[tuple[object, int]],
              n: int) -> list:
    """``n`` draws in exact proportion to ``weights``, in seeded order.

    Exact counts keep the amount of work the same from seed to seed, so
    the seed changes which site gets which shape, not how many there are.
    """
    total = sum(w for _, w in weights)
    counts = [n * w // total for _, w in weights]
    by_remainder = sorted(range(len(weights)),
                          key=lambda i: -(n * weights[i][1] % total))
    for i in by_remainder[:n - sum(counts)]:
        counts[i] += 1
    out = [name for (name, _), k in zip(weights, counts) for _ in range(k)]
    rng.shuffle(out)
    return out


class _Source:
    """Java text built line by line, tracking the current line number."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    @property
    def next_line(self) -> int:
        return len(self.lines) + 1

    def add(self, indent: int, *lines: str) -> int:
        """Append lines at an indent level; return the first one's number."""
        first = self.next_line
        self.lines.extend(("    " * indent + line) if line else ""
                          for line in lines)
        return first

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _restrictive_method(src: _Source, indent: int, name: str, helper: str,
                        label: str, rng: random.Random
                        ) -> tuple[int, tuple[str, ...]]:
    """One method holding one ``Cipher.getInstance`` site of shape
    ``label``; returns (site line, plaintexts). The helper method
    ``helper`` is emitted only for the METHOD shape."""
    lit = rng.choice(ALGORITHMS)
    if label == "METHOD":
        src.add(indent,
                f"private static String {helper}() {{",
                f'    return "{lit}";',
                "}",
                "")
    src.add(indent, f"public static void {name}(boolean flag) "
                    "throws Exception {")
    body = indent + 1
    if label == "STRING":
        line = src.add(body, f'Cipher c = Cipher.getInstance("{lit}");')
        plain: tuple = (lit,)
    elif label == "ID":
        src.add(body, f'String t = "{lit}";')
        line = src.add(body, "Cipher c = Cipher.getInstance(t);")
        plain = (lit,)
    elif label == "CONCT":
        head, sep, tail = lit.partition("/")
        line = src.add(body, f'Cipher c = Cipher.getInstance("{head}" + '
                             f'"{sep}{tail}");')
        plain = (lit,)
    elif label == "TEROP":
        alt = rng.choice(SAFE)
        line = src.add(body, f'Cipher c = Cipher.getInstance(flag ? "{lit}" '
                             f': "{alt}");')
        plain = tuple(sorted({lit, alt}))
    else:
        line = src.add(body, f"Cipher c = Cipher.getInstance({helper}());")
        plain = (lit,)
    src.add(indent, "}")
    return line, plain


def _trust_method(src: _Source, indent: int, label: str) -> int:
    """One ``checkServerTrusted`` body of shape ``label``; returns its
    line."""
    throws = " throws CertificateException" if label == "VAL" else ""
    line = src.add(indent,
                   "public void checkServerTrusted(X509Certificate[] chain,",
                   f"        String authType){throws} {{")
    src.add(indent + 1, *_FLEXIBLE_BODIES[label])
    src.add(indent, "}")
    return line


_CIPHER_IMPORTS = ["import javax.crypto.Cipher;", ""]
_TRUST_IMPORTS = ["import java.security.cert.CertificateException;",
                  "import java.security.cert.X509Certificate;", ""]


def many_small(root: Path, seed: int) -> list[Expected]:
    rng = random.Random(f"many-small:{seed}")
    expected: list[Expected] = []
    specs = ([("Restrictive", i, label) for i, label in enumerate(
                 _balanced(rng, _RESTRICTIVE_WEIGHTS,
                           MANY_SMALL_RESTRICTIVE))]
             + [("Trust", i, label) for i, label in enumerate(
                 _balanced(rng, _FLEXIBLE_WEIGHTS, MANY_SMALL_FLEXIBLE))])
    for n, (kind, i, label) in enumerate(specs):
        package = f"p{n // FILES_PER_PACKAGE:03d}"
        cls = f"{kind}{i:04d}"
        src = _Source()
        src.add(0, f"package {package};", "")
        if kind == "Restrictive":
            src.add(0, *_CIPHER_IMPORTS, f"public class {cls} {{")
            line, plain = _restrictive_method(src, 1, "run", "pick", label,
                                              rng)
            category = RESTRICTIVE
        else:
            src.add(0, *_TRUST_IMPORTS, f"public class {cls} {{")
            line = _trust_method(src, 1, label)
            category, plain = FLEXIBLE, ()
        src.add(0, "}")
        rel = f"{package}/{cls}.java"
        _write(root / rel, src.text())
        expected.append(Expected(rel, line, category, label, plain))
    return expected


def one_large_unit(root: Path, seed: int) -> list[Expected]:
    rng = random.Random(f"one-large-unit:{seed}")
    rel = "LargeUnit.java"
    src = _Source()
    src.add(0, *_CIPHER_IMPORTS[:-1], *_TRUST_IMPORTS,
            "public class LargeUnit {")
    expected: list[Expected] = []
    labels = _balanced(rng, _RESTRICTIVE_WEIGHTS, LARGE_UNIT_RESTRICTIVE)
    for i, label in enumerate(labels):
        line, plain = _restrictive_method(src, 1, f"run{i:04d}",
                                          f"pick{i:04d}", label, rng)
        src.add(1, "")
        expected.append(Expected(rel, line, RESTRICTIVE, label, plain))
    labels = _balanced(rng, _FLEXIBLE_WEIGHTS, LARGE_UNIT_FLEXIBLE)
    for i, label in enumerate(labels):
        src.add(1, f"static class Trust{i:04d} {{")
        line = _trust_method(src, 2, label)
        src.add(1, "}", "")
        expected.append(Expected(rel, line, FLEXIBLE, label))
    src.add(0, "}")
    _write(root / rel, src.text())
    return expected


def keystream_encrypt(plain: str, key: int, rounds: int, mult: int,
                      add: int) -> str:
    """Inverse of the generated ``d(String, int)`` decoder (XOR is its own
    inverse, so encryption runs the same keystream)."""
    chars = [ord(c) for c in plain]
    for _ in range(rounds):
        for i in range(len(chars)):
            key = (key * mult + add) & 0xFF
            chars[i] ^= key
    return "".join(map(chr, chars))


def java_string(text: str) -> str:
    """A Java string literal whose decoded value is ``text``."""
    simple = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r"}
    out = []
    for ch in text:
        if ch in simple:
            out.append(simple[ch])
        elif " " <= ch <= "~":
            out.append(ch)
        else:
            out.append(f"\\u{ord(ch):04x}")
    return '"' + "".join(out) + '"'


def string_encryption(root: Path, seed: int) -> list[Expected]:
    rng = random.Random(f"string-encryption:{seed}")
    expected: list[Expected] = []
    class_rounds = _balanced(rng, [(r, 1) for r in ENCRYPTION_ROUNDS],
                             ENCRYPTION_CLASSES)
    plaintexts = iter(_balanced(
        rng, [(a, 1) for a in ALGORITHMS],
        ENCRYPTION_CLASSES * ENCRYPTION_SITES_PER_CLASS))
    for i, rounds in enumerate(class_rounds):
        cls = f"Enc{i:04d}"
        rel = f"enc/{cls}.java"
        mult = rng.choice((13, 17, 31, 37))
        add = rng.randrange(1, 100)
        src = _Source()
        src.add(0, "package enc;", "", *_CIPHER_IMPORTS,
                f"public class {cls} {{")
        src.add(1,
                "private static String d(String s, int k) {",
                f"    for (int r = 0; r < {rounds}; r++) {{",
                "        StringBuilder b = new StringBuilder();",
                "        for (int i = 0; i < s.length(); i++) {",
                f"            k = (k * {mult} + {add}) & 0xFF;",
                "            b.append((char) (s.charAt(i) ^ k));",
                "        }",
                "        s = b.toString();",
                "    }",
                "    return s;",
                "}")
        for j in range(ENCRYPTION_SITES_PER_CLASS):
            plain = next(plaintexts)
            key = rng.randrange(256)
            blob = java_string(keystream_encrypt(plain, key, rounds, mult,
                                                 add))
            src.add(1, "", f"public static Cipher c{j}() throws Exception {{")
            line = src.add(2, f"Cipher c = Cipher.getInstance(d({blob}, "
                              f"{key}));")
            src.add(2, "return c;")
            src.add(1, "}")
            expected.append(Expected(rel, line, RESTRICTIVE, "METHOD",
                                     (plain,)))
        src.add(0, "}")
        _write(root / rel, src.text())
    return expected


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


GENERATORS = {
    "many-small": many_small,
    "one-large-unit": one_large_unit,
    "string-encryption": string_encryption,
}


def generate(workload: str, root: Path, seed: int) -> list[Expected]:
    """Write the workload's corpus under ``root``; return its answers."""
    return GENERATORS[workload](Path(root), seed)
