"""Token streams and syntax trees, digest for digest.

``tokenize_golden.json`` holds, for each input, SHA-256 digests of the
token stream, one ``(kind, text, start, end, value)`` per token, and of
the parse, one ``(kind, start, end, value)`` per tree node in pre-order
followed by one ``(offset, message)`` per parse warning, as the
character-loop tokenizer produced them; or, for an input on which that
tokenizer raised, the exception. The inputs are the three benchmark
workloads at seed 1 (one record each, over every file in path order), the
bench corpus (seed 0), the conftest and ``interp_snippets.py`` sources,
and seeded random soups of operators, literals, escapes, comments and
non-ASCII letters, digits and whitespace (one record per hundred soups,
plus one per soup that raised). Regenerate it only from a tokenizer whose
output is to be trusted: ``PYTHONPATH=src python tests/test_tokenize.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

import conftest
import interp_snippets
from jcascan import bench
from jcascan.ingest import DEFAULT_APIS, extract_sites
from jcascan.javaparse import parse_unit, tokenize

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpora  # noqa: E402

GOLDEN = Path(__file__).with_name("tokenize_golden.json")
WORKLOAD_SEED = 1
SOUPS = 3000
SOUP_CHUNK = 100

# Soup pieces. The rare ones are the inputs on which the character-loop
# tokenizer raised.
_COMMON = [
    # operators and punctuation
    ">>>=", ">>>", ">>=", "<<=", "->", "::", "++", "--", "&&", "||", "==",
    "!=", "<=", ">=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<",
    ">>", "...", ".", ",", ";", "(", ")", "{", "}", "[", "]", "<", ">", "=",
    "+", "-", "*", "/", "%", "!", "~", "?", ":", "&", "|", "^", "@", "#",
    "`", "\\", "\x00", "\x7f",
    # identifiers, ASCII and not
    "a", "Cipher", "getInstance", "_x", "$y", "a1", "é", "ßx", "λ", "中文",
    "abé", "xΣ", "a\u0301",
    # numbers
    "0", "12", "0x1F", "0XaL", "0x1_f", "1_000", "3.5f", ".5", "1e10",
    "1e+", "1E-3d", "1.", "07", "12L", "1.5e", "٣", "١٢", "٣.٥", ".٣",
    "1٣", "1e٣",
    # literals and escapes
    '"', "'", '"abc"', "'a'", "'ab'", '"\\n\\t"', "\\u0041", "\\uuu0041",
    "\\u00", "\\u+1_2", "\\0", "\\377", "\\7", "\\n", "\\q", "\\s",
    "'\\''", '"\\""',
    # comments
    "//", "/*", "*/", "/**/", "/*/",
    # whitespace, ASCII and not
    " ", "\n", "\t", "\r", "\x0b", "\x0c", "\x1c", "\xa0", "\u2003",
    "\u3000", "\u2028",
    # other non-ASCII
    "€", "→", "\u200b", "\ufeff",
]
_RARE = ["\\8", "\\9", "\\٣", "0x", "0X", "0xL", "0x_", "²", "1²", "1.²",
         "1e²", ".²"]


def soups() -> list[str]:
    rng = random.Random(20261018)
    out = []
    for _ in range(SOUPS):
        pieces = []
        for _ in range(1 + rng.randrange(30)):
            pool = _RARE if rng.randrange(100) == 0 else _COMMON
            pieces.append(rng.choice(pool))
            if rng.randrange(3) == 0:
                pieces.append(" ")
        out.append("".join(pieces))
    return out


def _sources() -> list[tuple[str, str]]:
    """(name, source) of every single-file input but the soups."""
    out = [(f"conftest/{name}", text)
           for name, text in sorted(vars(conftest).items())
           if name.endswith("_SRC") and isinstance(text, str)]
    out += [(f"snippets/{name}", text)
            for name, text in interp_snippets.SNIPPETS.items()]
    out += [(f"bench/{variant.file}", variant.source)
            for case in bench.build_cases(0) for variant in case.variants]
    return out


def _workload(name: str, root: Path) -> list[tuple[str, str]]:
    """(relative path, source) of every file of a benchmark workload."""
    corpora.generate(name, root, WORKLOAD_SEED)
    return [(str(p.relative_to(root)), p.read_text(encoding="utf-8"))
            for p in sorted(root.rglob("*.java"))]


def _token_lines(text: str) -> list[str]:
    return [repr((t.kind, t.text, t.start, t.end, t.value))
            for t in tokenize(text)]


def _parse_lines(text: str) -> list[str]:
    unit = parse_unit("In.java", text)
    return [repr((n.kind, n.start, n.end, n.value)) for n in unit.root.walk()] \
        + [repr((w.offset, w.message)) for w in unit.warnings]


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8",
                                                  "surrogatepass")).hexdigest()


def _raised(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"[:80]


def _record(name: str, files: list[tuple[str, str]]) -> dict:
    """The digests of ``files`` taken together, or what one of them
    raised."""
    tokens: list[str] = []
    parse: list[str] = []
    try:
        for path, text in files:
            tokens += [path, *_token_lines(text)]
            parse += [path, *_parse_lines(text)]
    except Exception as exc:  # recorded, not hidden: see the docstring
        return {"input": name, "raises": _raised(exc)}
    return {"input": name, "tokens": _digest(tokens),
            "parse": _digest(parse)}


def _soup_records(texts: list[str], raised: set[str] | None) -> list[dict]:
    """One record per hundred soups, and one per soup that raises; with
    ``raised``, the names of the soups that raised when the records were
    written, those are left out instead."""
    out = []
    for first in range(0, len(texts), SOUP_CHUNK):
        clean = []
        for i in range(first, min(first + SOUP_CHUNK, len(texts))):
            if raised is None:
                one = _record(f"soup/{i}", [("", texts[i])])
                if "raises" in one:
                    out.append(one)
                    continue
            elif f"soup/{i}" in raised:
                continue
            clean.append(("", texts[i]))
        out.append(_record(f"soups/{first}", clean))
    return out


def records(workload_root: Path, raised: set[str] | None = None
            ) -> list[dict]:
    out = [_record(f"workload/{name}",
                   _workload(name, workload_root / name))
           for name in sorted(corpora.GENERATORS)]
    out += [_record(name, [(name, text)]) for name, text in _sources()]
    return out + _soup_records(soups(), raised)


@pytest.fixture(scope="module")
def golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def current(golden, tmp_path_factory) -> list[dict]:
    return records(tmp_path_factory.mktemp("workloads"),
                   {r["input"] for r in golden if "raises" in r})


def test_golden_records_cover_every_input(golden):
    prefixes = {r["input"].split("/")[0] for r in golden}
    assert prefixes == {"workload", "conftest", "snippets", "bench", "soup",
                        "soups"}
    workloads = [r for r in golden if r["input"].startswith("workload/")]
    assert len(workloads) == len(corpora.GENERATORS)
    assert all("raises" not in r for r in golden
               if not r["input"].startswith("soup/"))


def test_streams_and_trees_match_golden(golden, current):
    """Every input the character-loop tokenizer read gives the same tokens,
    the same tree and the same warnings."""
    golden = [r for r in golden if "raises" not in r]
    assert [r["input"] for r in current] == [r["input"] for r in golden]
    for now, then in zip(current, golden):
        assert now == then, now["input"]


def test_inputs_that_raised_now_warn(golden):
    """Each soup that made the character-loop tokenizer raise now parses,
    with a warning of the class of what it raised."""
    texts = soups()
    raised = [r for r in golden if "raises" in r]
    assert raised
    for record in raised:
        text = texts[int(record["input"].split("/")[1])]
        messages = {w.message for w in parse_unit("In.java", text).warnings}
        assert _warning_for(record["raises"]) in messages, record


def _warning_for(raised: str) -> str:
    """The tokenizer warning for the class of a recorded exception."""
    if raised.startswith("IndexError: string index out of range"):
        return "literal ends inside an escape sequence"
    if raised.startswith("ValueError: invalid literal for int() with base 8"):
        return "invalid escape sequence"
    if raised.startswith("ValueError: invalid literal for int() with base 16"):
        return "hexadecimal literal without digits"
    if raised.startswith("ValueError: Exceeds the limit"):
        return "integer literal too long"
    if raised.startswith(("ValueError: invalid literal for int() with base 10",
                          "ValueError: could not convert string to float")):
        return "number literal with a non-decimal digit"
    raise AssertionError(f"not a known tokenizer failure: {raised}")


_SITE = ('class A {\n    void m() throws Exception {\n'
         '        Cipher.getInstance("DES");\n    }\n}\n')


@pytest.mark.parametrize("literals,message", [
    # Each of these made the character-loop tokenizer raise.
    (['"abc\\'], "literal ends inside an escape sequence"),
    (['"\\8"', "'\\9'", '"a\\٣b"'], "invalid escape sequence"),
    (["0x", "0xL", "0X_"], "hexadecimal literal without digits"),
    (["1" * 4301], "integer literal too long"),
    (["²", "1²", "1.²", "1e²"], "number literal with a non-decimal digit"),
], ids=["escape-at-end", "digit-escape", "hex", "long", "non-decimal"])
def test_malformed_literal_is_a_warning(literals, message):
    """A malformed literal is a token and a warning at its offset, and
    the rest of the file parses."""
    fields = "class B {\n" + "".join(
        f"    Object f{i} = {lit};\n" for i, lit in enumerate(literals))
    if message.startswith("literal ends"):
        # Only the end of the file cuts an escape off.
        text = _SITE + fields[:fields.index(literals[0]) + len(literals[0])]
    else:
        text = fields + "}\n" + _SITE
    tokens = tokenize(text)
    assert [t.kind for t in tokens].count("eof") == 1
    offsets = [text.index(lit) for lit in literals]
    assert [t.start for t in tokens if t.start in offsets] == offsets
    unit = parse_unit("A.java", text)
    assert [(w.offset, w.message) for w in unit.warnings
            if w.message == message] == [(o, message) for o in offsets]
    assert [n.value for n in unit.root.walk()
            if n.kind == "method_invocation"] == ["getInstance"]


@pytest.mark.parametrize("literal,value,warned", [
    ('"\\012"', "\n", False),
    ('"\\477"', "'7", False),
    ('"\\400"', " 0", False),
    ('"\\1234"', "S4", False),
    ('"\\377\\0"', "\xff\0", False),
    ("'\\7'", "\7", False),
    ('"A\\uXYZ"', "AuXYZ", True),
    ('"\\u+1_2"', "u+1_2", True),
    ('"\\q"', "q", True),
    ("'\\q'", "q", True),
])
def test_escapes_decode_to_java_values(literal, value, warned):
    """An octal escape reads three digits only when its first is 0-3, as
    javac 17 reads it. A ``\\u`` without four hex digits and an unknown
    escape, which javac rejects, keep their values and are warnings."""
    text = f"class B {{ Object f = {literal}; }}\n"
    token = next(t for t in tokenize(text) if t.kind in ("string", "char"))
    assert token.value == value
    assert [(w.offset, w.message)
            for w in parse_unit("B.java", text).warnings] == (
        [(text.index(literal), "invalid escape sequence")] if warned else [])


@pytest.mark.parametrize("quote", ["'", '"'])
def test_unterminated_literal_ends_at_its_line(quote):
    """An unterminated char or string literal stops at the end of its
    line, not at a quote in a later comment, so the method before it
    keeps its site."""
    text = ("import javax.crypto.Cipher;\nclass A {\n"
            '    void m() throws Exception { Cipher.getInstance("DES"); }\n'
            f"    char c = {quote}x;\n}}\n// it's done\n")
    start = text.index("x;") - 1
    literal = next(t for t in tokenize(text) if t.start == start)
    assert literal.text == f"{quote}x;\n"
    unit = parse_unit("A.java", text)
    sites = extract_sites(unit, DEFAULT_APIS, None)
    assert [site.node.children[-1].text for site in sites] == ['("DES")']

def _keep_raised(fresh: list[dict], raised: list[dict]) -> list[dict]:
    """``fresh``, records written with ``raised`` left out, with each
    record of ``raised`` back before the record of its hundred soups."""
    out = []
    for record in fresh:
        kind, _, number = record["input"].partition("/")
        if kind == "soups":
            out += [r for r in raised if int(number) <= int(
                r["input"].split("/")[1]) < int(number) + SOUP_CHUNK]
        out.append(record)
    return out


if __name__ == "__main__":
    # No tokenizer since the character loop raises, so the records of the
    # soups it raised on are kept as they are.
    kept = [r for r in json.loads(GOLDEN.read_text(encoding="utf-8"))
            if "raises" in r]
    with tempfile.TemporaryDirectory() as tmp:
        fresh = records(Path(tmp), {r["input"] for r in kept})
        GOLDEN.write_text(json.dumps(_keep_raised(fresh, kept), indent=0,
                                     ensure_ascii=True) + "\n",
                          encoding="utf-8")
