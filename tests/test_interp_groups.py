"""The interpreter's loop kernels: what a loop gives when a generated
kernel runs its iterations is, at every budget, what its closures give,
and a kernel iteration takes no Python call.

`interp._kernel` is the one function `_c_loop` asks for the kernel of a
``for``, ``while`` or ``do`` loop.
`_closures_only` replaces it with one that declines every loop, so every
iteration runs through the closures. This is a test seam, not an option.
"""

from __future__ import annotations

import builtins
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from jcascan import interp, javamodel
from jcascan.ingest import RESTRICTIVE, extract_sites
from jcascan.javaparse import parse_unit
from jcascan.resolve import ResolutionBudget, resolve_site
from jcascan.syntax import unit_index
from test_interp import _sources
from test_interp_budget import MOST_STEPS, _keystream_source, _outcome

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpora  # noqa: E402

GROUPS_SRC = """
import javax.crypto.Cipher;
class Groups {
    static int k0 = 9;
    static String minus(String s) {
        StringBuilder b = new StringBuilder();
        for (int i = 0; i < s.length(); i++) {
            b.append((char) (s.charAt(i) - 3));
        }
        return b.toString();
    }
    static String keyed(String s, String key) {
        StringBuilder b = new StringBuilder();
        for (int i = 0; i < s.length(); i++) {
            b.append((char) (key.charAt(i % key.length()) ^ s.charAt(i)));
        }
        return b.toString();
    }
    static String pastEnd(String s) {
        StringBuilder b = new StringBuilder();
        for (int i = 0; i <= s.length(); i++) {
            b.append((char) (s.charAt(i) ^ 1));
        }
        return b.toString();
    }
    static String stringKey(String s) {
        String k = "7";
        StringBuilder b = new StringBuilder();
        for (int i = 0; i < s.length(); i++) {
            b.append((char) (s.charAt(i) ^ k));
        }
        return b.toString();
    }
    static String backwards(String s, int k) {
        StringBuilder b = new StringBuilder();
        for (int i = s.length() - 1; i >= 0; i--) {
            k = (k * 17 + 3) & 0xFF;
            b.append((char) ((s.charAt(i) ^ k)));
        }
        return b.toString();
    }
    static String builderLength(String s) {
        StringBuilder src = new StringBuilder(s);
        StringBuilder b = new StringBuilder();
        for (int i = 0; i < src.length(); i++) {
            b.append((char) (s.charAt(i) + 1));
        }
        return b.toString();
    }
    static String fieldSpine(String s) {
        StringBuilder b = new StringBuilder();
        for (int i = 0; i < s.length(); i++) {
            k0 = (k0 * 13 + 5) & 0xFF;
            b.append((char) (s.charAt(i) ^ k0));
        }
        return b.toString();
    }
    static String charCounter(String s) {
        StringBuilder b = new StringBuilder();
        for (char i = '\\u0000'; i < s.length(); i++) {
            b.append((char) (s.charAt(i) ^ 2));
        }
        return b.toString();
    }
    static String whileLoop(String s) {
        StringBuilder b = new StringBuilder();
        int i = 0;
        while (i < s.length()) {
            b.append((char) (s.charAt(i) + 1));
            i++;
        }
        return b.toString();
    }
    static String doLoop(String s) {
        StringBuilder b = new StringBuilder();
        int i = 0;
        do {
            b.append((char) (s.charAt(i) - 1));
            i++;
        } while (i < s.length());
        return b.toString();
    }
    void sites() throws Exception {
        Cipher.getInstance(minus("DHV"));
        Cipher.getInstance(keyed("\\u0005\\u0007\\u0012", "AB"));
        Cipher.getInstance(keyed("AES", ""));
        Cipher.getInstance(pastEnd("@DR"));
        Cipher.getInstance(stringKey("AES"));
        Cipher.getInstance(backwards("\\u007f\\u00dcr", 3));
        Cipher.getInstance(builderLength("@DR"));
        Cipher.getInstance(fieldSpine(";r\\u0083"));
        Cipher.getInstance(charCounter("CGQ"));
        Cipher.getInstance(whileLoop("@DR"));
        Cipher.getInstance(doLoop("BFT"));
    }
}
"""

# Every template of the kernels: compound assignments, shifts, division and
# remainder, unary operators, casts, prefix updates, char locals that wrap
# past \uFFFF and below 0, String and builder receivers, a String literal
# receiver, an assignment chain; a division by zero on the third
# iteration, two names of one builder, which no kernel takes, and an index
# that runs below 0. java 17 prints BRLCZF, T-F-C-, QKTYELSYF3939, an
# ArithmeticException, A-E-S- and a StringIndexOutOfBoundsException.
KERNEL_SRC = """
import javax.crypto.Cipher;
class Kernels {
    static String ops(String s) {
        StringBuilder b = new StringBuilder();
        int k = 7, m = 3;
        for (int i = 0; i < s.length(); ++i) {
            k += 5;
            k ^= i << 2;
            k = (k >> 1) + (k >>> 3) - -k / 3 + ~m % 4;
            m = m * 3 & 0x7F;
            m /= 1;
            k %= 61;
            b.append((char) ('A' + (s.charAt(i) ^ k & 0x0F) % 26));
        }
        return b.toString();
    }
    static String chars(String s) {
        StringBuilder b = new StringBuilder();
        char c = '\\uFFFA', d = '\\u0001';
        for (int i = s.length() - 1; i >= 0; i--) {
            c += 2;
            c++;
            d -= 2;
            b.append((char) (s.charAt(i) + (c - 'a' + d) % 5));
            b.append("-");
        }
        return b.toString();
    }
    static String mixed(String s) {
        StringBuilder b = new StringBuilder("Q");
        int j = 0, t = 0;
        for (int i = 8; i > 0; --i) {
            j = t = (byte) (i * 40) + (short) (-i);
            b.append((char) ((int) "KEYS".charAt(i % 4) + b.length() % 3
                             - b.charAt(b.length() - 1) % 2));
        }
        return b.toString() + j + t;
    }
    static String divZero(String s) {
        StringBuilder b = new StringBuilder();
        int k = 0;
        for (int i = 0; i < s.length(); i++) {
            k = 60 / (2 - i);
            b.append((char) (s.charAt(i) + k));
        }
        return b.toString();
    }
    static String alias(String s) {
        StringBuilder a = new StringBuilder();
        StringBuilder c = a;
        for (int i = 0; i < s.length(); i++) {
            a.append(s.charAt(i));
            c.append('-');
        }
        return a.toString();
    }
    static String pastStart(String s) {
        StringBuilder b = new StringBuilder();
        for (int i = s.length() - 1; i >= -1; i--) {
            b.append(s.charAt(i));
        }
        return b.toString();
    }
    void sites() throws Exception {
        Cipher.getInstance(ops("DESede"));
        Cipher.getInstance(chars("AES"));
        Cipher.getInstance(mixed(""));
        Cipher.getInstance(divZero("AES"));
        Cipher.getInstance(alias("AES"));
        Cipher.getInstance(pastStart("AES"));
    }
}
"""


def _keystream_loop(loop: str) -> str:
    """`_keystream_source` at two rounds, its inner loop a ``while`` or a
    ``do`` loop."""
    source = _keystream_source(rounds=2)
    inner = ("            for (int i = 0; i < s.length(); i++) {\n"
             "                k = (k * 31 + 7) & 0xFF;\n"
             "                b.append((char) (s.charAt(i) ^ k));\n"
             "            }\n")
    step = ("                k = (k * 31 + 7) & 0xFF;\n"
            "                b.append((char) (s.charAt(i) ^ k));\n"
            "                i++;\n")
    test = "(i < s.length())"
    assert inner in source
    return source.replace(inner, "            int i = 0;\n" + (
        f"            while {test} {{\n{step}            }}\n"
        if loop == "while" else
        f"            do {{\n{step}            }} while {test};\n"))


INPUTS = [("groups/Groups.java", GROUPS_SRC),
          ("kernels/Kernels.java", KERNEL_SRC),
          ("keystream/Enc1.java", _keystream_source(rounds=1)),
          ("keystream/Enc2.java", _keystream_source(rounds=2)),
          ("keystream/While.java", _keystream_loop("while")),
          ("keystream/Do.java", _keystream_loop("do"))]


def _closures_only(monkeypatch) -> None:
    monkeypatch.setattr(interp, "_kernel", lambda interp_, node: None)


def _restrictive(path: str, text: str) -> list:
    return [site for site in extract_sites(parse_unit(path, text))
            if site.api.category == RESTRICTIVE and site.subtree.children]


def _sweeps(inputs: list[tuple[str, str]], most: int | None,
            fresh: bool = False) -> dict:
    """key → `_outcome` of each restrictive site of ``inputs`` under every
    ``max_steps`` from 1 to its step count + 1, over freshly parsed units
    so no closure is shared between sweeps; only sites of at most ``most``
    steps when given. The budgets of a site share its unit's closures, and
    so the steps its kernels measured at the first, default, budget,
    unless ``fresh``: then each budget compiles the unit's closures anew,
    and a kernel measures its steps under that budget."""
    out = {}
    for path, text in inputs:
        for site in _restrictive(path, text):
            steps = _outcome(site, ResolutionBudget().max_steps)[1]
            if most is None or steps <= most:
                out[f"{path}:{site.offset}"] = sweep = []
                for n in range(1, steps + 2):
                    if fresh:
                        unit_index(site.unit).compiled.clear()
                    sweep.append(_outcome(site, n)[1:])
    return out


def test_group_inputs_resolve_as_java_would():
    """The inputs run kernels and each way out of them: the sites that
    decode give their names, the rest give up."""
    got = [sorted(resolve_site(site).candidates)
           for path, text in INPUTS for site in _restrictive(path, text)]
    assert got == [["AES"], ["DES"], [], [], [], ["DES"], ["AES"], ["AES"],
                   ["AES"], ["AES"], ["AES"], ["BRLCZF"], ["T-F-C-"],
                   ["QKTYELSYF3939"], [], ["A-E-S-"], [], ["DESede"],
                   ["AES/CBC"], ["DESede"], ["AES/CBC"], ["DESede"],
                   ["AES/CBC"], ["DESede"], ["AES/CBC"]]


@pytest.mark.parametrize("inputs,most,fresh", [
    (INPUTS, None, False),
    (INPUTS, None, True),
    ([(p, t) for p, t in _sources() if not p.startswith("bench/")],
     MOST_STEPS, False),
], ids=["groups", "groups-measured-at-each-budget", "snippets-and-conftest"])
def test_kernels_match_closures_at_every_budget(monkeypatch, inputs, most,
                                                fresh):
    """Steps, candidates, residuals and trace rules under every budget are
    those of the closures alone."""
    kernels = _sweeps(inputs, most, fresh)
    with monkeypatch.context() as patch:
        _closures_only(patch)
        closures = _sweeps(inputs, most, fresh)
    assert kernels.keys() == closures.keys() and len(kernels) >= len(inputs)
    for key in kernels:
        assert kernels[key] == closures[key], key


def _profiled(site) -> tuple[Counter, int]:
    """(Python calls per file of `interp`, `javamodel` and the kernels,
    iterations the kernels ran) while a warm unit resolves ``site``."""
    resolve_site(site)
    files = {interp.__file__, javamodel.__file__, interp._KERNEL_FILE}
    calls, iterations = Counter(), 0

    def profile(frame, event, arg):
        nonlocal iterations
        name = frame.f_code.co_filename
        if event == "call" and name in files:
            calls[name] += 1
        elif event == "return" and name == interp._KERNEL_FILE:
            iterations += frame.f_locals.get("n", 0)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        resolve_site(site)
    finally:
        sys.setprofile(previous)
    return calls, iterations


def test_every_loop_that_completes_an_iteration_runs_as_a_kernel():
    """Each loop of ``GROUPS_SRC`` and ``KERNEL_SRC`` runs its iterations
    in a kernel, but for the one that fails a guard on its first
    (``keyed("AES", "")``, a remainder by zero), ``stringKey``, which XORs
    a String and completes no iteration, and ``alias``. ``pastEnd``,
    ``divZero`` and ``pastStart`` run their loop twice, and hand the
    iteration that fails a guard to the closures each time;
    ``fieldSpine`` runs its first iteration through the closures, as its
    field is not a local until the loop stores it, and so does ``doLoop``,
    as a ``do`` loop's first iteration runs untested. ``whileLoop`` runs
    as a ``for`` loop does."""
    iterations = [[_profiled(site)[1] for site in _restrictive(path, text)]
                  for path, text in INPUTS[:2]]
    assert iterations == [[3, 3, 0, 6, 0, 3, 3, 2, 3, 3, 2],
                          [6, 3, 8, 4, 0, 6]]


def _decoder_calls(blob_length: int) -> Counter:
    """`_profiled` calls while a warm unit decodes a ``blob_length``-char
    blob with the workload's decoder at one round."""
    source = ("import javax.crypto.Cipher;\nclass Enc {\n"
              "    static String d(String s, int k) {\n"
              "        for (int r = 0; r < 1; r++) {\n"
              "            StringBuilder b = new StringBuilder();\n"
              "            for (int i = 0; i < s.length(); i++) {\n"
              "                k = (k * 31 + 7) & 0xFF;\n"
              "                b.append((char) (s.charAt(i) ^ k));\n"
              "            }\n"
              "            s = b.toString();\n"
              "        }\n"
              "        return s;\n"
              "    }\n"
              "    Cipher c() throws Exception {\n"
              "        return Cipher.getInstance(d("
              f'"{"a" * blob_length}", 5));\n    }}\n}}\n')
    calls, iterations = _profiled(_restrictive("Enc.java", source)[0])
    assert iterations == blob_length
    return calls


def test_a_decoder_iteration_takes_no_python_call():
    """Count work, not time: the keystream decoder's inner loop runs every
    iteration in its kernel, whose one call per run of the loop is the
    only Python call the loop's length does not change (twelve per
    iteration before any fast path, four with the fused groups)."""
    calls = _decoder_calls(40)
    assert calls[interp._KERNEL_FILE] == 1
    assert calls == _decoder_calls(20)


def test_kernel_source_carries_no_input_text(monkeypatch):
    """Locals are positional names and literals arguments, so neither a
    local's name nor a literal of the scanned file reaches `compile()`."""
    compiled = []

    def recorded(source, *args):
        compiled.append(source)
        return builtins.compile(source, *args)
    monkeypatch.setattr(interp, "_KERNELS", {})
    monkeypatch.setattr(interp, "compile", recorded, raising=False)
    blob = "".join(f"\\u{ord(c) ^ 9:04x}" for c in "AES")
    source = ("import javax.crypto.Cipher;\nclass Enc {\n"
              "    static String d(String os, int __import__) {\n"
              "        StringBuilder b = new StringBuilder();\n"
              "        for (int i = 0; i < os.length(); i++) {\n"
              "            b.append((char) (os.charAt(i) ^ __import__));\n"
              "        }\n"
              "        return b.toString();\n"
              "    }\n"
              "    Cipher c() throws Exception {\n"
              f'        return Cipher.getInstance(d("{blob}", 9));\n'
              "    }\n}\n")
    site = _restrictive("Enc.java", source)[0]
    assert resolve_site(site).candidates == {"AES"}
    assert _profiled(site)[1] == 3
    (text,) = compiled
    assert "__import__" not in text
    assert not {"os", "9"} & set(re.findall(r"\w+", text))


def test_the_workload_decoders_share_one_code_object(monkeypatch, tmp_path):
    """The 80 decoders of the ``string-encryption`` corpus of seed 1 differ
    only in their literals, and their inner loops run one code object."""
    corpora.generate("string-encryption", tmp_path, 1)
    kernels = []
    kernel = interp._kernel

    def recorded(interp_, node):
        kernels.append(kernel(interp_, node))
        return kernels[-1]
    monkeypatch.setattr(interp, "_kernel", recorded)
    files = sorted(tmp_path.rglob("*.java"))
    for path in files:
        resolve_site(_restrictive(str(path), path.read_text())[0])
    ran = [k for k in kernels if k is not None]
    assert len(files) == len(ran) == 80
    assert len({k.fn.__code__ for k in ran}) == 1
