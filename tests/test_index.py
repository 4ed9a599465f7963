"""The per-unit syntax index against the whole-tree walks it replaced, and
the cost of analyzing a unit as it grows.

The ``ref_*`` functions are the walk-based helpers the analysis used before
it read whole-unit facts from ``UnitIndex``; every index lookup must return
what they return.
"""

from __future__ import annotations

import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest

import conftest
from conftest import string_literals
from jcascan import ingest, interp, report
from jcascan.classify import _declared_builders
from jcascan.ingest import extract_sites
from jcascan.interp import _enum_model
from jcascan.javaparse import parse_unit
from jcascan.report import analyze_corpus, analyze_site
from jcascan.resolve import (ResolutionBudget, _Abstract, _Ctx, resolve_site,
                             visible_literals)
from jcascan.syntax import SyntaxNode, WriteFacts, unit_index
from test_fuzz import mutants
from test_tokenize import _sources

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpora  # noqa: E402

# -- reference implementations (whole-tree walks) ---------------------------


def ref_type_decls(root):
    """Named type declarations with a body, in pre-order (resolve)."""
    for node in root.walk():
        if node.kind in ("class_declaration", "interface_declaration",
                         "enum_declaration"):
            name = next((c.value for c in node.children
                         if c.kind == "identifier"), None)
            body = next((c for c in node.children
                         if c.kind in ("class_body", "enum_body")), None)
            if name and body is not None:
                yield node, str(name), body


def ref_class_stack(root):
    """Every type declaration with a body, nameless ones as "?" (ingest)."""
    out = []
    for node in root.walk():
        if node.kind in ("class_declaration", "interface_declaration",
                         "enum_declaration"):
            name = next((c.value for c in node.children
                         if c.kind == "identifier"), "?")
            body = next((c for c in node.children
                         if c.kind in ("class_body", "enum_body")), None)
            if body is not None:
                out.append((node, str(name), body))
    return out


def ref_find_class(unit, name):
    for decl, cname, _ in ref_type_decls(unit.root):
        if cname == name:
            return decl
    return None


def ref_enclosing_method_node(unit, node):
    best = None
    for cand in unit.root.walk():
        if cand.kind in ("method_declaration", "constructor_declaration") \
                and cand.start <= node.start and node.end <= cand.end:
            if best is None or (cand.end - cand.start) < (best.end - best.start):
                best = cand
    return best


def ref_ingest_enclosing(unit, node):
    """(class name, method name, context) as extract_sites computed them."""
    classes = ref_class_stack(unit.root)
    cls_name, ctx = "?", []
    best_span = None
    for _, name, body in classes:
        if body.start <= node.start and node.end <= body.end:
            span = body.end - body.start
            if best_span is None or span < best_span:
                best_span = span
                cls_name, ctx = name, body.children
    method = None
    best_m = None
    for _, _, body in classes:
        for member in body.children:
            if member.kind in ("method_declaration",
                               "constructor_declaration") \
                    and member.start <= node.start <= member.end:
                span = member.end - member.start
                if best_m is None or span < best_m:
                    best_m = span
                    method = next((c.value for c in member.children
                                   if c.kind == "identifier"), None)
    return cls_name, method, ctx


def ref_class_members(unit, class_body):
    """The body's members, then its direct same-unit supertypes' members,
    then what the innermost other type body around its declaration reads,
    in the order a lookup tries them."""
    members = list(class_body.children)
    owner = None
    for decl, _, body in ref_type_decls(unit.root):
        if body is class_body:
            owner = decl
            break
    if owner is not None:
        for sup in (c for c in owner.children if c.kind == "type_identifier"):
            sup_decl = ref_find_class(unit, str(sup.value).split("<")[0])
            if sup_decl is not None:
                sup_body = next((c for c in sup_decl.children
                                 if c.kind in ("class_body", "enum_body")),
                                None)
                if sup_body is not None:
                    members.extend(sup_body.children)
    stack = ref_class_stack(unit.root)
    decl = next(d for d, _, body in stack if body is class_body)
    around = [body for _, _, body in stack if body is not class_body
              and body.start <= decl.start and decl.end <= body.end]
    if around:  # in pre-order, so the innermost is last
        members.extend(ref_class_members(unit, around[-1]))
    return members


def ref_field(members, name):
    """(declaration, declarator) of the first field ``name``, or None."""
    for member in members:
        if member.kind != "field_declaration":
            continue
        for decl in member.children:
            if decl.kind == "variable_declarator" \
                    and str(decl.children[0].value) == name:
                return member, decl
    return None


def ref_arity(method):
    params = next((c for c in method.children
                   if c.kind == "formal_parameters"), None)
    return 0 if params is None else sum(
        1 for p in params.children
        if p.kind == "formal_parameter" and len(p.children) >= 2)


def ref_method(members, name, count):
    """The first method ``name`` taking ``count`` parameters, or None."""
    for member in members:
        if member.kind == "method_declaration" \
                and ref_decl_name(member) == name \
                and ref_arity(member) == count:
            return member
    return None


def ref_site_class_body(unit, site):
    if not site.context:
        return None
    first = site.context[0]
    for _, _, body in ref_type_decls(unit.root):
        if any(c is first for c in body.children):
            return body
    return None


def ref_enum_constant(unit, name):
    for decl, _, _ in ref_type_decls(unit.root):
        if decl.kind != "enum_declaration":
            continue
        model = _enum_model(decl)
        if name in model:
            return model[name]
    return None


def ref_unit_native_methods(unit):
    names = set()
    for node in unit.root.walk():
        if node.kind != "method_declaration":
            continue
        mods = next((c.value for c in node.children if c.kind == "modifiers"),
                    ())
        if isinstance(mods, tuple) and "native" in mods:
            name = next((c.value for c in node.children
                         if c.kind == "identifier"), None)
            if name:
                names.add(str(name))
    return names


def ref_unit_method_names(unit):
    names = set()
    for node in unit.root.walk():
        if node.kind == "method_declaration":
            name = next((c.value for c in node.children
                         if c.kind == "identifier"), None)
            if name:
                names.add(str(name))
    return names


def ref_enum_constant_names(unit):
    return {str(n.children[0].value) for n in unit.root.find_all("enum_constant")}


def ref_visible_literals(site):
    method = ref_enclosing_method_node(site.unit, site.node)
    return string_literals(method if method is not None else site.node)


def ref_declared_builders(site):
    names = set()
    scopes = []
    if site.unit is not None and site.node is not None:
        method = ref_enclosing_method_node(site.unit, site.node)
        if method is not None:
            scopes.append(method)
    scopes.extend(site.context)
    for scope in scopes:
        for node in scope.walk():
            type_node = None
            if node.kind in ("local_variable_declaration",
                             "field_declaration"):
                type_node = next((c for c in node.children
                                  if c.kind == "type_identifier"), None)
            if type_node is None:
                continue
            if str(type_node.value or "") in ("StringBuilder",
                                              "StringBuffer"):
                for decl in node.children:
                    if decl.kind == "variable_declarator":
                        names.add(str(decl.children[0].value))
    return names


def ref_builders(scope):
    """Names declared as StringBuilder/StringBuffer within ``scope``."""
    names = set()
    for node in scope.walk():
        if node.kind not in ("local_variable_declaration",
                             "field_declaration"):
            continue
        type_node = next((c for c in node.children
                          if c.kind == "type_identifier"), None)
        if type_node is not None and str(type_node.value or "") in (
                "StringBuilder", "StringBuffer"):
            names.update(str(decl.children[0].value)
                         for decl in node.children
                         if decl.kind == "variable_declarator")
    return names


def ref_field_modifiers(site, name):
    for member in site.context:
        if member.kind != "field_declaration":
            continue
        for decl in member.children:
            if decl.kind == "variable_declarator" \
                    and str(decl.children[0].value) == name:
                mods = next((c.value for c in member.children
                             if c.kind == "modifiers"), ())
                return mods if isinstance(mods, tuple) else ()
    return ()


def ref_find_unit_method(unit, name):
    for node in unit.root.walk():
        if node.kind == "method_declaration":
            mname = next((c.value for c in node.children
                          if c.kind == "identifier"), None)
            if mname == name:
                return node
    return None


def ref_line_of(text, offset):
    return text.count("\n", 0, offset) + 1


# -- units ------------------------------------------------------------------

NESTED_SRC = '''
package p;
import javax.crypto.Cipher;
public class Outer extends Base {
    static final String MODE = "AES/CBC/PKCS5Padding";
    private StringBuilder log = new StringBuilder();
    Outer() { this(MODE); }
    Outer(String m) { StringBuffer sb = new StringBuffer(m); }
    public native String nat(int k);
    String pick(int i) { return i > 0 ? "DES" : MODE; }
    void run() throws Exception {
        Cipher.getInstance(pick(1));
        Runnable r = new Runnable() {
            public void run() {
                StringBuilder inner = new StringBuilder("x");
                Cipher.getInstance(inner.toString());
            }
        };
        class Local {
            String pick(int i) { return "RC4"; }
            void go() throws Exception { Cipher.getInstance(pick(2)); }
        }
    }
    static class Inner {
        String pick(int i) { return "AES"; }
        void run() throws Exception { Cipher.getInstance(Mode.B.name()); }
        class Deeper {
            void run() throws Exception { Cipher.getInstance(nat(3)); }
        }
    }
    enum Mode {
        A("AES"), B("DES");
        private final String v;
        Mode(String v) { this.v = v; }
        String get() { return v; }
    }
}
class Base {
    static final String BASE = "RC2";
    String pick(int i) { return BASE; }
}
interface Shape { String pick(int i); }
'''

# Declarations with no whitespace between them: a member's end offset is
# the next member's start offset.
TOUCHING_SRC = (
    "import javax.crypto.Cipher;"
    "class T{abstract void a();void checkServerTrusted(X509Certificate[] c,"
    "String s){}native String n();void b(){Cipher.getInstance(n());}}"
    "class U{void c(){}void d(){Cipher.getInstance(\"DES\");}}")


# No indentation: sites and declarations start lines, and sites span lines.
FLUSH_SRC = (
    "import javax.crypto.Cipher;\nclass F implements X509TrustManager {\n"
    "public void checkServerTrusted(X509Certificate[] c,\nString a) {\n}\n"
    "void m() throws Exception {\nCipher.getInstance(\n\"DES\");\n"
    "Cipher\n.getInstance(\"AES\");\n}\n}\n")


def _generated(n_classes: int) -> str:
    """Same-named methods in several classes, nested and anonymous."""
    parts = ["import javax.crypto.Cipher;"]
    for k in range(n_classes):
        parts.append(f'''
class C{k} {{
    static String KEY = "K{k}";
    String name() {{ return "AES/ECB/PKCS5Padding"; }}
    void use() throws Exception {{ Cipher.getInstance(name() + KEY); }}
    static class S{k} {{
        String name() {{ return "DES"; }}
        native String secret();
        void use() throws Exception {{
            StringBuilder b = new StringBuilder();
            Cipher.getInstance(b.append(name()).toString());
        }}
    }}
    Object anon() {{
        return new Object() {{
            String name() {{ return "RC4"; }}
            void use() throws Exception {{ Cipher.getInstance(name()); }}
        }};
    }}
}}
enum E{k} {{ X{k}, Y{k}; }}''')
    return "\n".join(parts)


def _units():
    sources = {name: value for name, value in vars(conftest).items()
               if name.endswith("_SRC") and isinstance(value, str)}
    sources["NESTED_SRC"] = NESTED_SRC
    sources["TOUCHING_SRC"] = TOUCHING_SRC
    sources["FLUSH_SRC"] = FLUSH_SRC
    sources["GENERATED_SRC"] = _generated(4)
    return [pytest.param(parse_unit(f"{name}.java", src), id=name)
            for name, src in sorted(sources.items())]


# -- lookups equal their references -----------------------------------------

@pytest.mark.parametrize("unit", _units())
def test_enclosing_method_matches_reference(unit):
    index = unit_index(unit)
    for node in unit.root.walk():
        assert index.enclosing_method(node) \
            is ref_enclosing_method_node(unit, node)


@pytest.mark.parametrize("unit", _units())
def test_ingest_enclosing_matches_reference(unit):
    index = unit_index(unit)
    for node in unit.root.walk():
        cls_name, _, ctx = ref_ingest_enclosing(unit, node)
        body = index.enclosing_type_body(node)
        if body is None:
            assert (cls_name, ctx) == ("?", [])
        else:
            assert body.children is ctx
            assert index.type_of_body[id(body)][1] == cls_name
    for site in extract_sites(unit):
        _, _, ctx = ref_ingest_enclosing(unit, site.node)
        if site.type_body is None:
            assert ctx == []
        else:
            assert site.type_body.children is ctx
        assert site.method is ref_enclosing_method_node(unit, site.node)
        assert site.start_line == ref_line_of(unit.text, site.node.start)
        assert site.end_line == ref_line_of(
            unit.text, max(site.node.start, site.node.end - 1))


@pytest.mark.parametrize("unit", _units())
def test_unit_facts_match_reference(unit):
    index = unit_index(unit)
    assert index.method_names == ref_unit_method_names(unit)
    assert index.native_methods == ref_unit_native_methods(unit)
    assert index.enum_constants == ref_enum_constant_names(unit)


@pytest.mark.parametrize("unit", _units())
def test_name_lookups_match_reference(unit):
    index = unit_index(unit)
    type_names = {name for _, name, _ in ref_class_stack(unit.root)}
    for name in sorted(type_names | {"Missing", "?"}):
        assert index.first_type.get(name) is ref_find_class(unit, name)
    for name in sorted(ref_unit_method_names(unit) | {"missing"}):
        assert index.first_method.get(name) \
            is ref_find_unit_method(unit, name)


@pytest.mark.parametrize("unit", _units())
def test_member_table_matches_linear_scans(unit):
    """Each body's field and method entries are what a linear scan of its
    members, its direct same-unit supertypes' and its enclosing bodies'
    finds first."""
    index = unit_index(unit)
    for _, _, body in ref_class_stack(unit.root):
        members = ref_class_members(unit, body)
        facts = index.member_facts(body)
        names = {str(d.children[0].value) for m in members
                 if m.kind == "field_declaration"
                 for d in m.children if d.kind == "variable_declarator"}
        assert set(facts.declarators) == names
        for name in sorted(names | {"missing"}):
            expected = ref_field(members, name)
            found = facts.declarators.get(name)
            init = facts.initializer(name)
            if expected is None:
                assert found is None and init is None
            else:
                assert found[0] is expected[0] and found[1] is expected[1]
                children = expected[1].children
                assert init is None if len(children) < 2 else \
                    init[0] is expected[0] and init[1] is children[1]
        keys = {(ref_decl_name(m), ref_arity(m)) for m in members
                if m.kind == "method_declaration"}
        assert set(facts.methods) == keys
        for name, count in sorted(keys | {("missing", 0)}, key=str):
            assert facts.methods.get((name, count)) \
                is ref_method(members, name, count)


@pytest.mark.parametrize("unit", _units())
def test_subtree_literals_and_builders_match_reference(unit):
    index = unit_index(unit)
    for starts in (index.literal_starts, index.builder_starts):
        assert starts == sorted(starts)
    for node in unit.root.walk():
        assert set(index.literals_in(node)) == string_literals(node)
        assert set(index.builders_in(node)) == ref_builders(node)


@pytest.mark.parametrize("unit", _units())
def test_site_lookups_match_reference(unit):
    index = unit_index(unit)
    for site in extract_sites(unit):
        # The references read the class body's members from the reference
        # scope, not from the site.
        ref_site = SimpleNamespace(
            unit=unit, node=site.node,
            context=ref_ingest_enclosing(unit, site.node)[2])
        engine = _Abstract(_Ctx(ResolutionBudget()), unit, site)
        assert engine.class_body is ref_site_class_body(unit, ref_site)
        assert _declared_builders(site) == ref_declared_builders(ref_site)
        assert visible_literals(site) == ref_visible_literals(site)
        facts = index.member_facts(site.type_body)
        fields = [m for m in ref_site.context
                  if m.kind == "field_declaration"]
        assert list(facts.fields) == fields
        names = {str(d.children[0].value) for m in fields
                 for d in m.children if d.kind == "variable_declarator"}
        for name in sorted(names | {"missing"}):
            assert facts.field_modifiers.get(name, ()) \
                == ref_field_modifiers(ref_site, name)
        for name in sorted(ref_enum_constant_names(unit) | {"missing"}):
            assert engine._enum_constant(name) \
                == ref_enum_constant(unit, name)


def test_bench_corpus_matches_reference(bench_corpus):
    root, _ = bench_corpus
    checks = (test_enclosing_method_matches_reference,
              test_ingest_enclosing_matches_reference,
              test_unit_facts_match_reference,
              test_name_lookups_match_reference,
              test_member_table_matches_linear_scans,
              test_subtree_literals_and_builders_match_reference,
              test_site_lookups_match_reference,
              check_walk_and_index)
    for path in sorted(root.rglob("*.java")):
        unit = parse_unit(str(path), path.read_text(encoding="utf-8"))
        for check in checks:
            check(unit)


# -- the walk and every index field against a reference walk ---------------

def ref_preorder(node) -> list:
    """Pre-order by recursion: the order `SyntaxNode.walk` must keep."""
    nodes = [node]
    for child in node.children:
        nodes += ref_preorder(child)
    return nodes


def ref_decl_name(decl):
    ident = next((c for c in decl.children if c.kind == "identifier"), None)
    return None if ident is None or ident.value is None else str(ident.value)


def ref_index_fields(unit) -> dict:
    """Every field a `UnitIndex` builds, each by its own pass over the
    nodes of a recursive pre-order walk."""
    nodes = ref_preorder(unit.root)
    types = []
    for node in nodes:
        body = next((c for c in node.children
                     if c.kind in ("class_body", "enum_body")), None)
        if node.kind in ("class_declaration", "interface_declaration",
                         "enum_declaration") and body is not None:
            types.append((node, ref_decl_name(node), body))
    first_method, first_type = {}, {}
    for node in nodes:
        if node.kind == "method_declaration" \
                and ref_decl_name(node) is not None:
            first_method.setdefault(ref_decl_name(node), node)
    for decl, name, _ in types:
        if name:
            first_type.setdefault(name, decl)
    literals = [n for n in nodes if n.kind == "string_literal"
                and isinstance(n.value, str)]
    builders = [(node, decl) for node in nodes
                if node.kind in ("local_variable_declaration",
                                 "field_declaration")
                and str(next((c.value for c in node.children
                              if c.kind == "type_identifier"), None) or "")
                in ("StringBuilder", "StringBuffer")
                for decl in node.children if decl.kind == "variable_declarator"]
    return {
        "method_decls": [n for n in nodes if n.kind in (
            "method_declaration", "constructor_declaration")],
        "types": types,
        "method_names": ref_unit_method_names(unit),
        "native_methods": ref_unit_native_methods(unit),
        "first_method": first_method,
        "enum_constants": ref_enum_constant_names(unit),
        "site_candidates": [n for n in nodes if n.kind in (
            "method_invocation", "object_creation_expression",
            "method_declaration")],
        "literal_starts": [n.start for n in literals],
        "literal_values": [n.value for n in literals],
        "builder_starts": [n.start for n, _ in builders],
        "builder_ends": [n.end for n, _ in builders],
        "builder_vars": [str(d.children[0].value) for _, d in builders],
        "type_of_body": {id(body): (decl, name)
                         for decl, name, body in types},
        "named_types": [t for t in types if t[1]],
        "first_type": first_type,
    }


# What a `UnitIndex` fills on demand, not in its walk.
INDEX_CACHES = {"_member_facts", "_methods", "_type_bodies", "_write_facts",
                "compiled", "enum_models"}


def ref_scopes(node, body_ids: set, body=None, method=None,
               out=None) -> dict:
    """For each node, by id: the nearest type declaration's body and the
    nearest method or constructor, itself included, it lies within."""
    out = {} if out is None else out
    if node.kind in ("method_declaration", "constructor_declaration"):
        method = node
    if id(node) in body_ids:
        body = node
    out[id(node)] = body, method
    for child in node.children:
        ref_scopes(child, body_ids, body, method, out)
    return out


def _ids(value):
    """``value`` with each node replaced by its identity."""
    if isinstance(value, SyntaxNode):
        return ("node", id(value))
    if isinstance(value, (list, tuple)):
        return type(value)(map(_ids, value))
    if isinstance(value, dict):
        return {key: _ids(item) for key, item in value.items()}
    return value


def check_walk_and_index(unit) -> None:
    nodes = ref_preorder(unit.root)
    assert _ids(unit.root.walk()) == _ids(nodes)
    assert _ids(unit.root.descendants()) == _ids(nodes[1:])
    assert unit.root.named_node_count() == len(nodes) - 1
    index = unit_index(unit)
    expected = ref_index_fields(unit)
    assert set(vars(index)) == set(expected) | INDEX_CACHES
    for field, value in expected.items():
        assert _ids(getattr(index, field)) == _ids(value), field
    scopes = ref_scopes(unit.root, {id(body) for _, _, body
                                    in expected["types"]})
    for node in expected["site_candidates"]:
        body, method = scopes[id(node)]
        assert index.enclosing_type_body(node) is body
        assert index.enclosing_method(node) is method
    for site in extract_sites(unit):
        assert site.start_line == ref_line_of(unit.text, site.offset)
        assert site.end_line == ref_line_of(
            unit.text, max(site.offset, site.node.end - 1))


@pytest.mark.parametrize("unit", _units())
def test_walk_and_index_match_reference_walk(unit):
    check_walk_and_index(unit)


def test_walk_and_index_match_reference_walk_on_test_sources():
    """The conftest and ``interp_snippets`` sources, the bench corpus of
    seed 0, and the front-end fuzz's token mutants of them."""
    for name, text in _sources():
        check_walk_and_index(parse_unit(f"{name}.java", text))
    for name, text in mutants():
        check_walk_and_index(parse_unit(f"{name}.java", text))


@pytest.mark.parametrize("workload", ["many-small", "one-large-unit",
                                      "string-encryption"])
def test_walk_and_index_match_reference_walk_on_workloads(workload,
                                                          tmp_path):
    corpora.generate(workload, tmp_path, 1)
    for path in sorted(tmp_path.rglob("*.java")):
        check_walk_and_index(parse_unit(str(path),
                                        path.read_text(encoding="utf-8")))


ENUM_SITES_SRC = (
    "import javax.crypto.Cipher;\nclass S {\n"
    + "".join(f"    void m{k}() throws Exception {{"
              " Cipher.getInstance(E.X.alg); }\n" for k in range(5))
    + '}\nenum E { X("DES"); final String alg;'
    " E(String a) { this.alg = a; } }\n")


def test_enum_model_is_built_once_per_unit(monkeypatch):
    built = []
    original = interp._enum_model

    def counting(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(interp, "_enum_model", counting)
    sites = extract_sites(parse_unit("S.java", ENUM_SITES_SRC))
    assert [resolve_site(site).candidates for site in sites] \
        == [{"DES"}] * 5
    assert len(built) == 1


def test_index_is_dropped_with_its_unit():
    unit = parse_unit("A.java", NESTED_SRC)
    index = weakref.ref(unit_index(unit))
    assert index() is unit_index(unit)
    del unit
    assert index() is None


def test_index_follows_the_unit_analyzed():
    first = parse_unit("A.java", NESTED_SRC)
    second = parse_unit("B.java", TOUCHING_SRC)
    assert unit_index(first) is unit_index(first)
    assert "Mode" in unit_index(first).first_type
    assert "Mode" not in unit_index(second).first_type
    assert "Mode" in unit_index(first).first_type


# -- cost per site stays flat as the unit grows -----------------------------

def _large_unit(n_methods: int) -> str:
    """One class of ``n_methods`` site-holding methods, in the shapes of a
    decompiled class: literals, locals, fields, helpers, trust managers."""
    body = ['    static final String MODE = "AES/CBC/PKCS5Padding";',
            '    String helper(int k) { return k > 0 ? "DES" : MODE; }']
    for i in range(n_methods):
        shape = i % 5
        if shape == 0:
            stmt = 'Cipher.getInstance("AES/ECB/PKCS5Padding");'
        elif shape == 1:
            stmt = f'String t{i} = "RSA/ECB/PKCS1Padding"; ' \
                   f'Cipher.getInstance(t{i});'
        elif shape == 2:
            stmt = 'Cipher.getInstance(MODE + "");'
        elif shape == 3:
            stmt = f'Cipher.getInstance(helper({i}));'
        else:
            body.append(f'''    class Tm{i} implements X509TrustManager {{
        public void checkServerTrusted(X509Certificate[] c, String a) {{
            Log.d("tm", a);
        }}
    }}''')
            continue
        body.append(f"    void m{i}() throws Exception {{ {stmt} }}")
    return ("import javax.crypto.Cipher;\npublic class Big {\n"
            + "\n".join(body) + "\n}\n")


def _else_if_chain(n_branches: int) -> str:
    """One method whose ``else if`` chain holds a site in every branch, the
    shape of a decompiled string switch."""
    algorithms = ("AES/CBC/PKCS5Padding", "DES", "RC4", "AES/GCM/NoPadding")
    lines = ["public class Chain {",
             "    Cipher pick(String s) throws Exception {",
             "        StringBuilder sb = new StringBuilder();",
             "        Cipher c = null;"]
    for i in range(n_branches):
        head = "if" if i == 0 else "} else if"
        lines.append(f'        {head} (s.equals("k{i}")) {{')
        lines.append("            c = Cipher.getInstance("
                     f'"{algorithms[i % len(algorithms)]}");')
    lines += ["        }", "        return c;", "    }", "}"]
    return "\n".join(lines) + "\n"


def _walk_visits(source: str, monkeypatch) -> int:
    unit = parse_unit("Big.java", source)
    visits = 0
    original = SyntaxNode.walk

    def counting_walk(self):
        nonlocal visits
        nodes = original(self)
        visits += len(nodes)
        return nodes

    with monkeypatch.context() as patch:
        patch.setattr(SyntaxNode, "walk", counting_walk)
        for site in extract_sites(unit):
            analyze_site(site)
    return visits


def test_walk_visits_grow_linearly(monkeypatch):
    small = _walk_visits(_large_unit(50), monkeypatch)
    large = _walk_visits(_large_unit(200), monkeypatch)
    # Linear growth gives 4x; one whole-unit walk per site gives ~16x.
    assert large <= 5 * small, (small, large)


def test_method_walks_grow_linearly(monkeypatch):
    small = _walk_visits(_else_if_chain(300), monkeypatch)
    large = _walk_visits(_else_if_chain(1200), monkeypatch)
    # Linear growth gives 4x; one walk of the enclosing method per site
    # (its literals, its StringBuilder names) gives ~16x.
    assert large <= 5 * small, (small, large)


def _ternary_locals(n_pairs: int) -> str:
    """One method that ``n_pairs`` times sets a fresh local to a ternary
    of literals and passes it to a site."""
    pair = 'String t{0} = c ? "AES" : "DES"; Cipher.getInstance(t{0});'
    return ("import javax.crypto.Cipher;\npublic class Pairs {\n"
            "    void m(boolean c) throws Exception {\n"
            + "".join(f"        {pair.format(k)}\n" for k in range(n_pairs))
            + "    }\n}\n")


def test_local_walks_grow_linearly(monkeypatch):
    built = []
    original = WriteFacts.__init__

    def counting_init(self, decl):
        built.append(decl)
        original(self, decl)

    monkeypatch.setattr(WriteFacts, "__init__", counting_init)
    small = _walk_visits(_ternary_locals(50), monkeypatch)
    large = _walk_visits(_ternary_locals(200), monkeypatch)
    # Linear growth gives 4x; walking the method per site for its local's
    # definitions, or per statement run before it, gives ~16x.
    assert large <= 5 * small, (small, large)
    # One table for the method of each unit, however many sites read it.
    assert [decl.kind for decl in built] == ["method_declaration"] * 2


@pytest.mark.parametrize("workload", ["one-large-unit", "string-encryption"])
def test_each_node_is_walked_about_twice(workload, tmp_path, monkeypatch):
    """The whole pipeline walks each named node of a benchmark corpus
    about twice: once for its unit's index, once more for the per-site
    subtrees classify and rules read. Walking each site's enclosing method
    for its literals and StringBuilder names costs 5.35 and 7.17 visits
    per node on these corpora."""
    corpora.generate(workload, tmp_path, 1)
    original = SyntaxNode.walk
    nodes = visits = 0

    def counting_walk(self):
        nonlocal visits
        for node in original(self):
            visits += 1
            yield node

    def counting_parse(path, text):
        nonlocal nodes
        unit = parse_unit(path, text)
        nodes += sum(1 for _ in original(unit.root))
        return unit

    monkeypatch.setattr(ingest, "parse_unit", counting_parse)
    monkeypatch.setattr(SyntaxNode, "walk", counting_walk)
    monkeypatch.setattr(report, "_usable_cpus", lambda: 1)
    analyze_corpus(tmp_path)
    assert visits <= 4 * nodes, visits / nodes
