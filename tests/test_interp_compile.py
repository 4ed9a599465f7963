"""The interpreter's value classes and its compile cache."""

from __future__ import annotations

import types
from collections import Counter
from functools import partial

from jcascan import interp
from jcascan.ingest import RESTRICTIVE, extract_sites
from jcascan.javamodel import Char
from jcascan.javaparse import parse_unit
from jcascan.resolve import resolve_site
from jcascan.syntax import SourceUnit, UnitIndex, unit_index

PLAINS = ["AES", "DES", "RC4", "Blowfish", "DESede"]


def _five_sites() -> str:
    """Five sites decoding their names through one XOR helper."""
    sites = "".join(
        f"    Cipher c{i}() throws Exception {{\n"
        f'        return Cipher.getInstance(d("'
        f'{"".join(chr(ord(c) ^ 1) for c in plain)}", 1));\n    }}\n'
        for i, plain in enumerate(PLAINS))
    return ("import javax.crypto.Cipher;\nclass Five {\n"
            "    private static String d(String s, int k) {\n"
            "        StringBuilder b = new StringBuilder();\n"
            "        for (int i = 0; i < s.length(); i++) {\n"
            "            b.append((char) (s.charAt(i) ^ k));\n"
            "        }\n"
            "        return b.toString();\n"
            "    }\n" + sites + "}\n")


def _restrictive(unit: SourceUnit) -> list:
    return [s for s in extract_sites(unit) if s.api.category == RESTRICTIVE]


def test_char_is_a_value():
    """Two chars of one code point are equal, hash alike and print as the
    golden records print raw candidates; a char is not its code point."""
    assert Char(65) == Char(65)
    assert hash(Char(65)) == hash(Char(65))
    assert repr(Char(65)) == "Char(cp=65)"
    assert Char(65) != 65
    assert Char(65) != Char(66)
    assert len({Char(65), Char(65)}) == 1


def test_sites_of_a_unit_compile_their_helper_once(monkeypatch):
    """The closures are kept for the unit: the first site compiles each
    node of the helper once, and the four sites after it compile none."""
    unit = parse_unit("Five.java", _five_sites())
    helper = {id(n) for n in unit_index(unit).first_method["d"].walk()}
    compiled: list[int] = []

    def counting(compile_fn):
        def compile_counted(interp_, node, *pre):
            compiled.append(id(node))
            return compile_fn(interp_, node, *pre)
        return compile_counted

    for kind, compile_fn in list(interp._COMPILERS.items()):
        monkeypatch.setitem(interp._COMPILERS, kind, counting(compile_fn))
    per_site = []
    for site, plain in zip(_restrictive(unit), PLAINS):
        compiled.clear()
        assert resolve_site(site).candidates == {plain}
        per_site.append(Counter(i for i in compiled if i in helper))
    assert len(per_site) == 5
    assert per_site[0] and max(per_site[0].values()) == 1
    assert per_site[1:] == [Counter()] * 4


def _reachable(value):
    """Every object reachable from ``value`` through containers, partials
    and the cells of closures; not through a function's globals."""
    seen: set[int] = set()
    stack = [value]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        yield item
        if isinstance(item, types.FunctionType):
            stack.extend(cell.cell_contents for cell in item.__closure__ or ())
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        elif isinstance(item, partial):
            stack.extend((item.func, *item.args))


def test_the_unit_cache_keeps_nothing_of_a_site_or_the_unit():
    """Closures read a site's step count from the interpreter they run
    with, and the cache hangs off the unit's index, so it must refer to
    no site state and not back to the unit."""
    unit = parse_unit("Five.java", _five_sites())
    for site in _restrictive(unit):
        resolve_site(site)
    cache = unit_index(unit).compiled
    assert cache
    kept = {type(item) for item in _reachable(cache)}
    assert kept.isdisjoint({SourceUnit, UnitIndex, interp._Interp,
                            interp._Ctx})
