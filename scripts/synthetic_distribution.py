#!/usr/bin/env python3
"""Generate a synthetic Java corpus with a realistic label mix and show
the resulting stratum distribution.

The mix follows the qualitative shape seen in decompiled app corpora: most
restrictive calls pass a single string literal (node count 1, score 0), a
minority use identifiers/concatenation/ternaries, and a noticeable share of
trust-manager bodies are empty (score -1).
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from jcascan.complexity import score
from jcascan.ingest import FLEXIBLE, RESTRICTIVE
from jcascan.report import analyze_corpus, summary_record

SAFE = ["AES/GCM/NoPadding", "RSA/ECB/OAEPWithSHA-256AndMGF1Padding",
        "ChaCha20-Poly1305", "AES/CTR/NoPadding"]
UNSAFE = ["DES", "AES/ECB/PKCS5Padding", "DES/CBC/PKCS5Padding",
          "Blowfish", "RC4"]

_RESTRICTIVE_SHAPES = [
    # weight, template (literal plugged in at generation time)
    (70, '        Cipher c = Cipher.getInstance("{lit}");\n'),
    (10, '        String t = "{lit}";\n'
         '        Cipher c = Cipher.getInstance(t);\n'),
    (8, '        Cipher c = Cipher.getInstance("{head}" + "{tail}");\n'),
    (7, '        Cipher c = Cipher.getInstance(flag ? "{lit}" : "{alt}");\n'),
    (5, '        Cipher c = Cipher.getInstance(pick());\n'),
]

_FLEXIBLE_SHAPES = [
    (34, "    public void checkServerTrusted(X509Certificate[] chain,\n"
         "            String authType) {\n    }\n"),
    (33, "    public void checkServerTrusted(X509Certificate[] chain,\n"
         "            String authType) throws CertificateException {\n"
         "        for (X509Certificate cert : chain) {\n"
         "            cert.checkValidity();\n        }\n    }\n"),
    (33, "    public void checkServerTrusted(X509Certificate[] chain,\n"
         "            String authType) {\n"
         "        android.util.Log.d(\"TLS\", \"chain: \" + chain);\n"
         "    }\n"),
]


def _weighted(rng: random.Random, shapes):
    total = sum(w for w, _ in shapes)
    pick = rng.randrange(total)
    for weight, shape in shapes:
        pick -= weight
        if pick < 0:
            return shape
    return shapes[-1][1]


def generate_synthetic_corpus(outdir: Path, seed: int = 0,
                              n_restrictive: int = 120,
                              n_flexible: int = 30) -> None:
    rng = random.Random(seed)
    outdir.mkdir(parents=True, exist_ok=True)
    for i in range(n_restrictive):
        shape = _weighted(rng, _RESTRICTIVE_SHAPES)
        lit = rng.choice(SAFE + UNSAFE)
        head, _, tail = lit.partition("/")
        body = shape.format(lit=lit, alt=rng.choice(SAFE),
                            head=head, tail="/" + tail if tail else "")
        src = (
            "import javax.crypto.Cipher;\n\n"
            f"public class Restrictive{i:04d} {{\n"
            '    private static String pick() {\n'
            f'        return "{rng.choice(SAFE + UNSAFE)}";\n'
            "    }\n\n"
            "    public static void run(boolean flag) throws Exception {\n"
            f"{body}"
            "    }\n"
            "}\n")
        (outdir / f"Restrictive{i:04d}.java").write_text(src,
                                                         encoding="utf-8")
    for i in range(n_flexible):
        shape = _weighted(rng, _FLEXIBLE_SHAPES)
        src = (
            "import java.security.cert.CertificateException;\n"
            "import java.security.cert.X509Certificate;\n\n"
            f"public class Trust{i:04d} {{\n{shape}}}\n")
        (outdir / f"Trust{i:04d}.java").write_text(src, encoding="utf-8")


def distribution(corpus: Path) -> dict:
    """Stratum populations of the scan summary, per category."""
    analyses, _ = analyze_corpus(corpus)
    strata = summary_record(analyses)["summary"]["strata"]
    return {category: {row["key"]: row["population"]
                       for row in strata[category]}
            for category in (RESTRICTIVE, FLEXIBLE)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--restrictive", type=int, default=120)
    parser.add_argument("--flexible", type=int, default=30)
    args = parser.parse_args()
    generate_synthetic_corpus(args.outdir, args.seed, args.restrictive,
                              args.flexible)
    dist = distribution(args.outdir)
    print("restrictive strata (d -> population):")
    for key, pop in sorted(dist["restrictive"].items()):
        print(f"  d={key}: {pop}  score={score(key):.4f}")
    print("flexible strata (range key -> population):")
    for key, pop in sorted(dist["flexible"].items()):
        print(f"  key={key}: {pop}")
    plurality = max(dist["restrictive"], key=dist["restrictive"].get)
    print(f"plurality restrictive stratum: d={plurality} "
          f"(score {score(plurality):.4f})")
    print(f"empty flexible stratum population: "
          f"{dist['flexible'].get(-1, 0)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
