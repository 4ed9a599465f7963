"""`syntax.WriteFacts` against the whole-method walks it replaced.

The ``ref_*`` functions are the walks the resolver and the interpreter ran
for every site before they read one table per declaration: each rule of
what writes a local, kept as it was. For every method and field
declaration, every name in it and every top-level statement of a method
body, the table must give the answer its walk gives.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from jcascan.javaparse import parse_unit
from jcascan.resolve import _ENCRYPTED_CALL, _feeds_encrypted
from jcascan.syntax import SyntaxNode, method_body, unit_index
from test_fuzz import mutants
from test_tokenize import _sources

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpora  # noqa: E402

# -- reference implementations (one walk per question) ----------------------


def ref_local_defs(method: SyntaxNode, name: str
                   ) -> tuple[list[SyntaxNode], list[SyntaxNode]]:
    """The declarators with an initializer and the ``=`` assignments
    of the local ``name`` in ``method``'s body, and the body's
    ``break`` and ``continue`` statements, each in source order,
    outside the bodies of classes declared in it."""
    defs: list[SyntaxNode] = []
    jumps: list[SyntaxNode] = []
    body = method_body(method)
    stack = [] if body is None else [body]
    while stack:
        n = stack.pop()
        if n.kind == "class_body":
            continue  # a local or anonymous class's own code
        stack.extend(reversed(n.children))
        if n.kind == "variable_declarator" and len(n.children) > 1 \
                and str(n.children[0].value) == name \
                or n.kind == "assignment_expression" \
                and n.children[0].kind == "identifier" \
                and str(n.children[0].value) == name \
                and str(n.value) == "=":
            defs.append(n)
        elif n.kind in ("break_statement", "continue_statement"):
            jumps.append(n)
    return defs, jumps


def ref_elements_written(method: SyntaxNode, name: str,
                         definition: SyntaxNode, use: SyntaxNode) -> bool:
    """Whether an element of the array local ``name`` is written, as in
    ``name[i] = …`` or ``name[i]++``, between ``definition`` and
    ``use``: that write may change the array unseen, so, as for a
    builder's other mentions, the definition alone is not its value."""
    for node in method_body(method).walk():
        if node.kind in ("assignment_expression", "update_expression") \
                and definition.end <= node.start < use.start:
            target = node.children[0]
            if target.kind == "array_access" \
                    and target.children[0].kind == "identifier" \
                    and str(target.children[0].value) == name:
                return True
    return False


def ref_builder_mentions(method: SyntaxNode, name: str,
                         definition: SyntaxNode,
                         use: SyntaxNode) -> list[SyntaxNode]:
    """The mentions of a builder local between its definition and a use,
    as ``_Abstract._resolve_builder`` found them."""
    found = []
    for node in method_body(method).walk():
        if node.kind != "identifier" or str(node.value) != name \
                or not definition.end <= node.start < use.start:
            continue
        found.append(node)
    return found


def ref_written_names(stmt: SyntaxNode) -> set[str]:
    """Names a statement may write: declared vars, assignment and update
    targets (an array's name for one of its elements), and identifier
    receivers of mutating calls."""
    out: set[str] = set()
    for node in stmt.walk():
        if node.kind == "variable_declarator":
            out.add(str(node.children[0].value))
        elif node.kind in ("assignment_expression", "update_expression"):
            target = node.children[0]
            if target.kind == "array_access":
                target = target.children[0]
            if target.kind == "identifier":
                out.add(str(target.value))
        elif node.kind == "method_invocation" and len(node.children) == 3 \
                and node.children[0].kind == "identifier":
            out.add(str(node.children[0].value))
    return out


def ref_definition(node: SyntaxNode) -> tuple[str, SyntaxNode] | None:
    """(name, right-hand side) when ``node`` assigns a local name."""
    if node.kind == "variable_declarator" and len(node.children) > 1:
        return str(node.children[0].value), node.children[1]
    if node.kind == "assignment_expression" \
            and node.children[0].kind == "identifier":
        return str(node.children[0].value), node.children[1]
    return None


def ref_feeds_encrypted(scope: SyntaxNode, arg_ids: set[str]) -> bool:
    """Whether a definition in ``scope`` that the identifiers ``arg_ids``
    reach, through the identifiers of definitions' right-hand sides, holds
    a decrypt-style call."""
    reads: dict[str, set[str]] = {}          # name → identifiers read
    rhs_of: dict[str, list[SyntaxNode]] = {}  # name → right-hand sides
    owner: dict[int, str | None] = {id(scope): None}
    for node in scope.walk():
        name = owner.pop(id(node))
        if node.kind == "identifier" and name is not None:
            reads[name].add(str(node.value))
        for child in node.children:
            owner[id(child)] = name
        defined = ref_definition(node)
        if defined is not None:
            target, rhs = defined
            owner[id(rhs)] = target
            reads.setdefault(target, set())
            rhs_of.setdefault(target, []).append(rhs)
    seen = set(arg_ids)
    todo = list(seen)
    while todo:
        fresh = reads.get(todo.pop(), set()) - seen
        seen |= fresh
        todo.extend(fresh)
    reached = sorted((rhs for name in seen for rhs in rhs_of.get(name, ())),
                     key=lambda rhs: (rhs.start, -rhs.end))
    searched_to = -1
    for rhs in reached:
        if rhs.end <= searched_to:
            continue   # inside a right-hand side already searched
        if _ENCRYPTED_CALL.search(rhs.text):
            return True
        searched_to = rhs.end
    return False


def ref_declared_type(method: SyntaxNode, name: str, at: int):
    """The type of the last declaration of ``name`` before offset ``at``
    in ``method``, in pre-order: a local, parameter or enhanced-``for``
    variable, or a lambda parameter (None); one in a nested class body
    that ends by ``at`` is left out."""
    declared = None
    stack = [method]
    while stack:
        item = stack.pop()
        if item.start >= at:
            break
        kind = item.kind
        if kind == "class_body" and item.end <= at:
            continue
        if kind == "local_variable_declaration":
            if any(d.kind == "variable_declarator"
                   and d.children[0].value == name
                   for d in item.children[1:]):
                declared = item.children[0].value
        elif kind in ("formal_parameter", "enhanced_for_statement"):
            if item.children[1].value == name:
                declared = item.children[0].value
        elif kind == "lambda_expression":
            if any(p.value == name for p in item.children[:-1]):
                declared = None
        stack += reversed(item.children)
    return declared


# -- the table against the references ---------------------------------------

def _same(nodes, expected) -> bool:
    return len(nodes) == len(expected) \
        and all(a is b for a, b in zip(nodes, expected))


def check_write_facts(unit) -> None:
    index = unit_index(unit)
    fields = [n for n in unit.root.walk() if n.kind == "field_declaration"]
    for decl in index.method_decls + fields:
        facts = index.write_facts(decl)
        assert index.write_facts(decl) is facts
        starts = [start for start, _ in facts.writes]
        assert starts == sorted(starts)
        names = sorted(set(facts.mentions) | {"missing"})
        for name in names:
            assert _feeds_encrypted(facts, {name}) \
                == ref_feeds_encrypted(decl, {name}), (decl, name)
        assert _feeds_encrypted(facts, set(names)) \
            == ref_feeds_encrypted(decl, set(names))
        body = method_body(decl)
        if decl.kind == "field_declaration" or body is None:
            continue
        for name, nodes in facts.mentions.items():
            for node in nodes:
                assert facts.declared_type(name, node.start) \
                    == ref_declared_type(decl, name, node.start), (decl, node)
        for stmt in body.children:
            assert facts.written_in(stmt) == ref_written_names(stmt), stmt
        for name in names:
            defs, jumps = ref_local_defs(decl, name)
            assert _same(facts.defs.get(name, []), defs), (decl, name)
            assert _same(facts.jumps, jumps)
            # Each span the resolver asks about, from after a definition
            # (or the body's start) to a mention (or the body's end), and
            # from each mention to the body's end.
            mentions = [m.start for m in facts.mentions.get(name, [])
                        if body.start <= m.start]
            spans = [(lo, hi) for lo in [body.start] + [d.end for d in defs]
                     for hi in mentions + [body.end]]
            spans += [(lo, body.end) for lo in mentions]
            for lo, hi in spans:
                definition = SimpleNamespace(end=lo)
                use = SimpleNamespace(start=hi)
                assert bool(facts.between(facts.element_writes, name, lo,
                                          hi)) \
                    == ref_elements_written(decl, name, definition, use)
                assert _same(facts.between(facts.mentions, name, lo, hi),
                             ref_builder_mentions(decl, name, definition,
                                                  use))


# Locals, jumps and writes inside nested class bodies, which some rules
# count and others do not, and definitions nested in right-hand sides.
NESTED_SRC = """
import javax.crypto.Cipher;
class Nested {
    static String f = g(k = decrypt(s)), k, s = "x";
    String m(boolean c, String p) throws Exception {
        String t = "DES";
        byte[] b = {1, 2};
        StringBuilder sb = new StringBuilder("A");
        Runnable r = new Runnable() {
            public void run() {
                String t = "RC4";
                t = p;
                b[0] = 3;
                sb.append(t);
                for (int i = 0; i < 2; i++) { if (c) break; else continue; }
            }
        };
        class Local {
            String t;
            void go() { t = "AES"; b[1]++; while (c) { break; } }
        }
        while (c) { t += "x"; if (c) break; b[t.length()] = 2; }
        t = p = c ? decrypt(p) : sb.append(t).toString();
        Cipher.getInstance(t + b + sb);
        return t;
    }
}
"""


# Declarations of one name in a nested class body, a lambda and loops.
DECLARED_SRC = """
class Declared {
    void m(char p, int[] a) {
        int i = 0; p++; i++;
        Runnable r = new Runnable() {
            public void run() { char i = 'A'; i++; p++; }
        };
        Object f = (Runnable) () -> { char q = 'B'; q++; };
        java.util.function.IntUnaryOperator g = i2 -> i2 + 1;
        for (char c : "AB".toCharArray()) { c++; i += c; }
        for (int k = 0; k < 2; k++) { char c = 'C'; c += k; }
        Object h = new Object() { int i = 'D'; void n() { i++; } };
        i--; p += 2;
    }
}
"""


def test_matches_reference_on_test_sources():
    """The conftest and ``interp_snippets`` sources, the bench corpus,
    ``NESTED_SRC`` and ``DECLARED_SRC``."""
    for name, text in _sources() + [("Nested", NESTED_SRC),
                                    ("Declared", DECLARED_SRC)]:
        check_write_facts(parse_unit(f"{name}.java", text))


def test_matches_reference_on_mutants():
    """`tests/test_fuzz.py`'s 2,000 token mutants of those sources."""
    for name, text in mutants():
        check_write_facts(parse_unit(f"{name}.java", text))


@pytest.mark.parametrize("workload", ["many-small", "one-large-unit",
                                      "string-encryption"])
def test_matches_reference_on_workloads(workload, tmp_path):
    corpora.generate(workload, tmp_path, 1)
    for path in sorted(tmp_path.rglob("*.java")):
        check_write_facts(parse_unit(str(path),
                                     path.read_text(encoding="utf-8")))
