"""`has_encrypted_param_pattern` against the walk-based search it replaced,
and its cost as a chain of nested definitions grows."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

import conftest
import interp_snippets
from jcascan import bench, resolve
from jcascan.ingest import RESTRICTIVE, extract_sites
from jcascan.javaparse import parse_unit
from jcascan.report import analyze_site
from jcascan.resolve import (_ENCRYPTED_CALL, _encrypted_call,
                             has_encrypted_param_pattern)
from jcascan.syntax import SyntaxNode, UnitIndex, unit_index

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpora  # noqa: E402


def ref_has_encrypted_param_pattern(site) -> bool:
    """Searches each definition's right-hand side on its own, following
    identifiers to a fixed point: quadratic in nested definitions."""
    if _ENCRYPTED_CALL.search(site.subtree.text):
        return True
    arg_ids = {str(n.value) for n in site.subtree.walk()
               if n.kind == "identifier"}
    if not arg_ids:
        return False

    def feeds(scope):
        ids = set(arg_ids)
        defs = []
        for decl in scope.find_all("variable_declarator"):
            if len(decl.children) > 1:
                defs.append((str(decl.children[0].value), decl.children[1]))
        for assign in scope.find_all("assignment_expression"):
            lhs = assign.children[0]
            if lhs.kind == "identifier":
                defs.append((str(lhs.value), assign.children[1]))
        changed = True
        while changed:
            changed = False
            for name, rhs in defs:
                if name not in ids:
                    continue
                if _ENCRYPTED_CALL.search(rhs.text):
                    return True
                rhs_ids = {str(n.value) for n in rhs.walk()
                           if n.kind == "identifier"}
                if not rhs_ids <= ids:
                    ids |= rhs_ids
                    changed = True
        return False

    if site.method is not None and feeds(site.method):
        return True
    return any(feeds(member) for member in
               unit_index(site.unit).member_facts(site.type_body).fields)


_NAMES = ("a", "b", "t", "u", "k")
_SOURCES = ("decrypt(k)", "Aes.decode(k)", "c.doFinal(k)", "f(k)",
            "AesUtil . decode (k)", "\"lit\"", "k.trim()")


def _rhs(rng: random.Random, depth: int) -> str:
    roll = rng.random()
    if depth > 0 and roll < 0.3:
        return f"{rng.choice(_NAMES)} = {_rhs(rng, depth - 1)}"
    if depth > 0 and roll < 0.5:
        return f"z ? {_rhs(rng, depth - 1)} : {_rhs(rng, depth - 1)}"
    if depth > 0 and roll < 0.6:
        return f"g({rng.choice(_NAMES)} = {_rhs(rng, depth - 1)})"
    if roll < 0.8:
        return rng.choice(_NAMES)
    return rng.choice(_SOURCES)


def _generated(seed: int) -> str:
    rng = random.Random(seed)
    fields = [f"    static String {name} = {_rhs(rng, 2)};"
              for name in rng.sample(_NAMES, 2)]
    body = [f"        String {name} = {_rhs(rng, 3)};"
            for name in rng.sample(_NAMES, 3)]
    body += [f"        {rng.choice(_NAMES)} = {_rhs(rng, 3)};"
             for _ in range(3)]
    body.append(f"        Cipher.getInstance({rng.choice(_NAMES)});")
    return ("import javax.crypto.Cipher;\nclass Gen {\n" + "\n".join(fields)
            + "\n    void m(boolean z, String k) throws Exception {\n"
            + "\n".join(body) + "\n    }\n}\n")


def _chain(links: int, source: str = '"DES"') -> str:
    return ("import javax.crypto.Cipher;\nclass Chain {\n"
            "    void m(boolean c) throws Exception {\n        String t;\n"
            "        t = " + 't = c ? "RC4" : ' * links + source + ";\n"
            "        Cipher.getInstance(t);\n    }\n}\n")


def _sources():
    out = [(name, text) for name, text in sorted(vars(conftest).items())
           if name.endswith("_SRC") and isinstance(text, str)]
    out += sorted(interp_snippets.SNIPPETS.items())
    out += [(variant.file, variant.source)
            for case in bench.build_cases(0) for variant in case.variants]
    out += [(f"gen{seed}.java", _generated(seed)) for seed in range(150)]
    out += [(f"chain{n}.java", _chain(n, source)) for n in (1, 5, 40)
            for source in ('"DES"', "decrypt(k)", "k")]
    return out


def test_matches_walk_based_search():
    checked = found = 0
    for path, text in _sources():
        for site in extract_sites(parse_unit(path, text)):
            if site.api.category != RESTRICTIVE:
                continue
            expected = ref_has_encrypted_param_pattern(site)
            assert has_encrypted_param_pattern(site) == expected, path
            checked += 1
            found += expected
    # Both outcomes are well represented.
    assert found >= 30 and checked - found >= 30, (checked, found)


def _search_work(source: str, monkeypatch) -> int:
    """Nodes walked plus characters searched by one call."""
    site = extract_sites(parse_unit("Chain.java", source))[0]
    work = 0
    original = SyntaxNode.walk

    def counting_walk(self):
        nonlocal work
        for node in original(self):
            work += 1
            yield node

    class CountingPattern:
        def search(self, text, *args):
            nonlocal work
            work += len(text)
            return _ENCRYPTED_CALL.search(text, *args)

    with monkeypatch.context() as patch:
        patch.setattr(SyntaxNode, "walk", counting_walk)
        patch.setattr(resolve, "_ENCRYPTED_CALL", CountingPattern())
        assert not has_encrypted_param_pattern(site)
    return work


def test_work_grows_linearly_with_nested_definitions(monkeypatch):
    small_work = _search_work(_chain(500), monkeypatch)
    large_work = _search_work(_chain(2000), monkeypatch)
    # Linear growth gives 4x; a walk and a search per nested right-hand
    # side gives ~16x.
    assert large_work <= 5 * small_work, (small_work, large_work)


def test_work_stays_linear_when_the_method_may_decrypt(monkeypatch):
    """A chain that ends in ``decode`` is searched, once: its cost still
    grows linearly."""
    small_work = _search_work(_chain(500, "Base64.decode(k)"), monkeypatch)
    large_work = _search_work(_chain(2000, "Base64.decode(k)"), monkeypatch)
    assert 500 < small_work and large_work <= 5 * small_work, \
        (small_work, large_work)


def _built_write_facts(source: str, monkeypatch) -> tuple[list, list]:
    """(the sites of ``source``, the declarations whose `WriteFacts` its
    full analysis builds)."""
    built = []
    original = UnitIndex.write_facts

    def spy(self, decl):
        if id(decl) not in self._write_facts:
            built.append(decl)
        return original(self, decl)

    monkeypatch.setattr(UnitIndex, "write_facts", spy)
    sites = extract_sites(parse_unit("Enc.java", source))
    for site in sites:
        analyze_site(site)
    return sites, built


def test_no_write_facts_for_a_method_that_cannot_decrypt(tmp_path,
                                                         monkeypatch):
    """A string-encryption unit's site methods hold no ``ecrypt``,
    ``doFinal`` or ``decode``, so the rules build none of their
    `WriteFacts`; only the interpreter's decoder helper gets one."""
    corpora.generate("string-encryption", tmp_path, 1)
    path = sorted(tmp_path.rglob("*.java"))[0]
    sites, built = _built_write_facts(path.read_text(encoding="utf-8"),
                                      monkeypatch)
    methods = {id(site.method) for site in sites}
    assert len(methods) == len(sites) == 5
    assert not any(id(decl) in methods for decl in built)
    assert len(built) == 1


@pytest.mark.parametrize("members, statements", [
    ("", "String k = decrypt(p);"),
    ('static String k = decrypt("x");', ""),
], ids=["local", "field"])
def test_a_decrypted_definition_is_r8(members, statements):
    _, _, _, findings = conftest.pipeline(
        "import javax.crypto.Cipher;\n"
        f"class A {{ {members} static String decrypt(String s) {{ return s; }}"
        f" void m(String p) throws Exception {{ {statements}"
        " Cipher.getInstance(k); } }\n")
    assert any(f.rule_id == "R8"
               and f.evidence == ["pattern:ENCRYPTED-PARAM"]
               for f in findings), findings


_POSITIVE = ("decrypt(k)", "AesUtil.decrypt (k)", "c.doFinal(k)",
             "Decryptor(k)", "AesUtil . decode (k)", "gcmBox.decode(k)",
             "x + myCipher.decode(y)", "reDecrypted(k)")
_NEGATIVE = ("Base64.decode(k)", "decode(k)", "c.doFinal", "decrypted",
             "k.trim()", "\"lit\"", "encrypt(k)", "Aes.encode(k)", "")


def test_substring_test_skips_only_text_the_pattern_cannot_match():
    """The substrings every match holds skip the search where none occurs,
    and never change its answer."""
    for text in _POSITIVE:
        assert _encrypted_call(text), text
    for text in _NEGATIVE:
        assert not _encrypted_call(text), text
    rng = random.Random(7)
    pieces = _POSITIVE + _NEGATIVE + ("ecrypt", "doFinal", "decode", " (",
                                      ".", "(", "Cipher", "_", "x")
    for _ in range(2000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randrange(4)))
        assert _encrypted_call(text) == bool(_ENCRYPTED_CALL.search(text)), \
            text
