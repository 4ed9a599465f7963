"""Every step budget, not just three: where each tick lands.

``interp_budget.json`` holds, for every site of ``interp_golden.json``
whose default-budget step count is at most 600 and for the sites of
``KEYSTREAM_SRC`` (a copy of the ``string-encryption`` workload's
keystream-XOR decoder at two rounds) and ``STORES_SRC`` (stores to
fields), one SHA-256 over what the resolver
gives under every ``max_steps`` from 1 to the site's step count + 1: the
steps taken, the raw candidates, the residuals and the trace rule names. A
tick counted in a batch that lands on the wrong side of any limit changes
a digest, which the golden's half and fifth budgets can miss. Regenerate
it only from an interpreter whose ticks are to be trusted:
``PYTHONPATH=src python tests/test_interp_budget.py``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from types import CodeType, FunctionType

from jcascan import interp
from jcascan.ingest import RESTRICTIVE, extract_sites
from jcascan.javaparse import parse_unit
from jcascan.resolve import (DEPTH_EXCEEDED, ResolutionBudget, _Abstract,
                             _BudgetExhausted, _Ctx)
from test_interp import GOLDEN, _sources

DIGESTS = Path(__file__).with_name("interp_budget.json")
MOST_STEPS = 600


def _keystream_encrypt(plain: str, key: int, rounds: int, mult: int,
                       add: int) -> str:
    chars = [ord(c) for c in plain]
    for _ in range(rounds):
        for i in range(len(chars)):
            key = (key * mult + add) & 0xFF
            chars[i] ^= key
    return "".join(map(chr, chars))


def _java_string(text: str) -> str:
    return '"' + "".join(c if c.isalnum() else f"\\u{ord(c):04x}"
                         for c in text) + '"'


def _keystream_source(rounds: int = 2, mult: int = 31, add: int = 7) -> str:
    sites = "".join(
        f"    public static Cipher c{j}() throws Exception {{\n"
        f"        Cipher c = Cipher.getInstance(d("
        f"{_java_string(_keystream_encrypt(plain, key, rounds, mult, add))}"
        f", {key}));\n        return c;\n    }}\n"
        for j, (plain, key) in enumerate([("DESede", 77), ("AES/CBC", 5)]))
    return ("package enc;\nimport javax.crypto.Cipher;\n"
            "public class Enc {\n"
            "    private static String d(String s, int k) {\n"
            f"        for (int r = 0; r < {rounds}; r++) {{\n"
            "            StringBuilder b = new StringBuilder();\n"
            "            for (int i = 0; i < s.length(); i++) {\n"
            f"                k = (k * {mult} + {add}) & 0xFF;\n"
            "                b.append((char) (s.charAt(i) ^ k));\n"
            "            }\n"
            "            s = b.toString();\n"
            "        }\n"
            "        return s;\n"
            "    }\n" + sites + "}\n")


KEYSTREAM_SRC = _keystream_source()

# Stores the golden sources do not make: to another object's field, which
# gives up (Java gives "AES"), and to a this-field before the site.
STORES_SRC = ("import javax.crypto.Cipher;\n"
              "class Box { String v; }\n"
              "class Stores {\n"
              '    String k = "AES/GCM/NoPadding";\n'
              "    void box() throws Exception {\n"
              "        Box box = new Box();\n"
              '        box.v = "AES";\n'
              "        Cipher.getInstance(box.v);\n"
              "    }\n"
              "    void self() throws Exception {\n"
              '        this.k = "DES";\n'
              "        Cipher.getInstance(this.k);\n"
              "    }\n"
              "}\n")


def _outcome(site, max_steps: int) -> tuple:
    """(max_steps, steps, raw candidates, residuals, trace rules) of the
    site's argument under ``max_steps``, as `resolve.resolve` reads them."""
    ctx = _Ctx(ResolutionBudget(max_steps=max_steps))
    try:
        vs = _Abstract(ctx, site.unit, site).resolve(site.subtree.children[0])
        values, residuals = vs.values, vs.residuals
    except _BudgetExhausted:
        values, residuals = set(), {DEPTH_EXCEEDED}
    return (max_steps, ctx.steps, sorted(map(repr, values)),
            sorted(residuals), [step.rule for step in ctx.trace])


def _sites() -> dict:
    """key → site of every site the digests cover."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    small = {r["site"] for r in golden
             if r["max_steps"] == ResolutionBudget().max_steps
             and r["steps"] <= MOST_STEPS}
    out = {}
    for path, text in _sources() + [("keystream/Enc.java", KEYSTREAM_SRC),
                                    ("stores/Stores.java", STORES_SRC)]:
        for site in extract_sites(parse_unit(path, text)):
            key = f"{path}:{site.offset}"
            if key in small or path.startswith(("keystream/", "stores/")) \
                    and site.api.category == RESTRICTIVE:
                out[key] = site
    return out


def digests() -> dict[str, dict]:
    out = {}
    for key, site in _sites().items():
        steps = _outcome(site, ResolutionBudget().max_steps)[1]
        sweep = [_outcome(site, n) for n in range(1, steps + 2)]
        out[key] = {"steps": steps, "sha256": hashlib.sha256(
            json.dumps(sweep).encode("utf-8")).hexdigest()}
    return out


def test_keystream_sites_decode():
    """The decoder copy decodes at the default budget, so its sweep
    covers the ticks of a run that completes."""
    sites = [s for k, s in _sites().items() if k.startswith("keystream/")]
    assert [_outcome(s, ResolutionBudget().max_steps)[2] for s in sites] \
        == [["'DESede'"], ["'AES/CBC'"]]


def test_every_budget_matches_its_digest():
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    current = digests()
    assert sorted(current) == sorted(recorded)
    assert sum(k.startswith("keystream/") for k in recorded) == 2
    for key in recorded:
        assert current[key] == recorded[key], key


CHAINS_SRC = ("import javax.crypto.Cipher;\n"
              "class Chains {\n"
              "    String f;\n"
              "    void ternary(boolean c, String p) throws Exception {\n"
              '        String s = "S";\n'
              '        Cipher.getInstance(c ? s + "x" : c ? p'
              ' : c ? "A" : s);\n'
              "    }\n"
              "    void assignment(int p) throws Exception {\n"
              "        String a, b; char i; int j = 2;"
              " char[] cs = new char[2];\n"
              '        a = this.f = b = "DES";\n'
              '        String q, r; q = r = "X" + p;\n'
              "        i = cs[0] = cs[1] = (char) (j += 64);\n"
              "        Cipher.getInstance(a + b + new String(cs) + i);\n"
              "    }\n"
              "    void nested() throws Exception {\n"
              '        StringBuilder b = new StringBuilder("D"); String s, t;\n'
              '        s = t = b.append("E").append(\'S\').toString();\n'
              '        t = (b = b.append(" X ")).toString().trim();\n'
              "        Cipher.getInstance(s + t.toLowerCase());\n"
              "    }\n"
              "}\n")


def test_chains_tick_as_nested_links_did():
    """A ternary chain, an assignment chain and assignment and call chains
    nested in each other, each run in one frame, give at every budget what
    they gave when each link was a nested call: these digests were taken
    from that implementation."""
    recorded = {
        146: (25, "794647318f2dabce46e3069da1ca322413731a958dace759dc2e881c"
                  "fe4f52d8"),
        442: (40, "7aaeed91f8421408e9441cf2001f9b1bb3b20a3c432b9a85714630868"
                  "895b95f"),
        711: (27, "95e6abe4a8f7461c672b04b52e0fca7503aa472d7aa976674f57b196"
                  "10b1d92e"),
    }
    current = {}
    for site in extract_sites(parse_unit("Chains.java", CHAINS_SRC)):
        steps = _outcome(site, ResolutionBudget().max_steps)[1]
        sweep = [_outcome(site, n) for n in range(1, steps + 2)]
        current[site.offset] = (steps, hashlib.sha256(
            json.dumps(sweep).encode("utf-8")).hexdigest())
    assert current == recorded


def _closures() -> set[CodeType]:
    """The code of every function nested in a function of `interp`: the
    closures its compilers build, comprehensions left out."""
    def nested(code: CodeType):
        for const in code.co_consts:
            if isinstance(const, CodeType) \
                    and not const.co_name.startswith("<"):
                yield const
                yield from nested(const)
    functions = [fn for value in vars(interp).values()
                 for fn in ([value] if isinstance(value, FunctionType)
                            else vars(value).values()
                            if isinstance(value, type) else ())
                 if isinstance(fn, FunctionType)
                 and fn.__module__ == interp.__name__]
    return {code for fn in functions for code in nested(fn.__code__)}


def test_every_interpreter_closure_runs_in_the_sweep():
    """Every closure runs for a site whose ticks the digests or the chains
    test pin at every budget, so a closure cannot land unchecked."""
    sites = list(_sites().values()) \
        + extract_sites(parse_unit("Chains.java", CHAINS_SRC))
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for site in sites:
            _outcome(site, ResolutionBudget().max_steps)
    finally:
        sys.setprofile(previous)
    closures = _closures()
    assert len(closures) > 40
    assert sorted(code.co_name for code in closures - ran) == []


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(digests(), indent=0, sort_keys=True)
                       + "\n", encoding="utf-8")
