"""The interpreter's decoder-loop groups: what they give, at every budget,
is what the closures they replace give, and they cut the Python calls of
a decoder-loop iteration.

`interp` builds each group through a module-level helper: `_fused_length`,
`_fused_assign`, `_fused_char` and `_fused_append` take the closure they
replace first, and `_inline_update` names the local a ``for`` loop runs
its update of inline. `_unfused` replaces the first four with helpers that
return the closure they are given, and the last with one that names no
local, which gives the closures from before the groups. This is a test
seam, not an option.
"""

from __future__ import annotations

import sys

import pytest

from jcascan import interp, javamodel
from jcascan.ingest import RESTRICTIVE, extract_sites
from jcascan.javaparse import parse_unit
from jcascan.resolve import ResolutionBudget, resolve_site
from test_interp import _sources
from test_interp_budget import MOST_STEPS, _keystream_source, _outcome

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
    }
}
"""

INPUTS = [("groups/Groups.java", GROUPS_SRC),
          ("keystream/Enc1.java", _keystream_source(rounds=1)),
          ("keystream/Enc2.java", _keystream_source(rounds=2))]


def _unfused(monkeypatch) -> None:
    for name in ("_fused_length", "_fused_assign", "_fused_char",
                 "_fused_append"):
        monkeypatch.setattr(interp, name, lambda generic, *args: generic)
    monkeypatch.setattr(interp, "_inline_update", lambda updates: (None, 0))


def _sweeps(inputs: list[tuple[str, str]], most: int | None) -> dict:
    """key → `_outcome` of each restrictive site of ``inputs`` under every
    ``max_steps`` from 1 to its step count + 1, over freshly parsed units
    so no closure is shared between runs; only sites of at most ``most``
    steps when given."""
    out = {}
    for path, text in inputs:
        for site in extract_sites(parse_unit(path, text)):
            if site.api.category != RESTRICTIVE \
                    or not site.subtree.children:
                continue
            steps = _outcome(site, ResolutionBudget().max_steps)[1]
            if most is None or steps <= most:
                out[f"{path}:{site.offset}"] = [
                    _outcome(site, n)[1:] for n in range(1, steps + 2)]
    return out


def test_group_inputs_resolve_as_java_would():
    """The inputs run the groups and each way out of them: the sites that
    decode give their names, the rest give up."""
    got = [sorted(resolve_site(site).candidates)
           for path, text in INPUTS
           for site in extract_sites(parse_unit(path, text))
           if site.api.category == RESTRICTIVE]
    assert got == [["AES"], ["DES"], [], [], [], ["DES"], ["AES"], ["AES"],
                   ["AES"], ["DESede"], ["AES/CBC"], ["DESede"], ["AES/CBC"]]


@pytest.mark.parametrize("inputs,most", [
    (INPUTS, None),
    ([(p, t) for p, t in _sources() if not p.startswith("bench/")],
     MOST_STEPS),
], ids=["groups", "snippets-and-conftest"])
def test_fused_groups_match_unfused_closures_at_every_budget(
        monkeypatch, inputs, most):
    """Steps, candidates, residuals and trace rules under every budget are
    those of the closures the groups replace."""
    fused = _sweeps(inputs, most)
    with monkeypatch.context() as patch:
        _unfused(patch)
        unfused = _sweeps(inputs, most)
    assert fused.keys() == unfused.keys() and len(fused) >= len(inputs)
    for key in fused:
        assert fused[key] == unfused[key], key


def _calls(blob_length: int) -> int:
    """Python calls in `interp` and `javamodel` frames while a warm unit
    decodes a ``blob_length``-char blob with the workload's decoder at one
    round."""
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
    site = next(s for s in extract_sites(parse_unit("Enc.java", source))
                if s.api.category == RESTRICTIVE)
    resolve_site(site)
    files = {interp.__file__, javamodel.__file__}
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename in files:
            count += 1
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        resolve_site(site)
    finally:
        sys.setprofile(previous)
    return count


def test_a_decoder_iteration_takes_four_calls():
    """Count work, not time: each inner-loop iteration of the keystream
    decoder runs its condition, its two statements and its update in at
    most four calls (twelve before the groups)."""
    assert (_calls(40) - _calls(20)) / 20 <= 4
