"""Parser: token decoding, tree shape, node counts, error recovery."""

from __future__ import annotations

import string

import pytest
from hypothesis import given, settings, strategies as st

from jcascan.javaparse import parse_unit, tokenize
from jcascan.syntax import ANONYMOUS_KINDS, node_at, string_literals

from conftest import CHARAT_SRC, TERNARY_SRC, TRUST_EMPTY_SRC, parse


def _arg_list(src: str):
    unit = parse(src)
    for node in unit.root.walk():
        if node.kind == "method_invocation" \
                and node.value == "getInstance":
            return node.children[-1]
    raise AssertionError("no getInstance call found")


class TestTokenizer:
    def test_string_escapes(self):
        toks = [t for t in tokenize(r'"a\nb\tA\\"') if t.kind == "string"]
        assert toks[0].value == "a\nb\tA\\"

    def test_char_literal(self):
        toks = [t for t in tokenize(r"'\n'") if t.kind == "char"]
        assert toks[0].value == "\n"

    def test_comments_skipped(self):
        kinds = [t.kind for t in tokenize("a /* x */ b // y\n c")]
        assert kinds.count("ident") == 3

    def test_numeric_literals(self):
        toks = tokenize("0x1F 12 3.5f 1_000")
        values = [t.value for t in toks if t.kind in ("int", "float")]
        assert 31 in values and 12 in values and 1000 in values


class TestTreeShape:
    def test_single_literal_counts_one_named_node(self):
        args = _arg_list(
            'class A { void m() throws Exception {'
            ' Cipher c = Cipher.getInstance("DES"); } }')
        assert args.named_node_count() == 1

    def test_method_call_counts_three(self):
        args = _arg_list(
            "class A { void m() throws Exception {"
            " Cipher c = Cipher.getInstance(getTransformation()); } }")
        # method_invocation + identifier + argument_list
        assert args.named_node_count() == 3

    def test_ternary_identifier_counts_four(self):
        args = _arg_list(
            "class A { void m(boolean z2) throws Exception {"
            " Cipher c = Cipher.getInstance("
            "z2 ? CBC_PADDING : CBC_NOPADDING); } }")
        assert args.named_node_count() == 4

    def test_empty_args_count_zero(self):
        args = _arg_list(
            "class A { void m() throws Exception {"
            " Cipher c = AESCipher.getInstance(); } }")
        assert args.named_node_count() == 0

    def test_no_anonymous_nodes_in_tree(self):
        unit = parse(CHARAT_SRC)
        for node in unit.root.walk():
            assert node.kind not in ANONYMOUS_KINDS

    def test_ternary_has_three_children(self):
        unit = parse(TERNARY_SRC)
        terns = [n for n in unit.root.walk()
                 if n.kind == "ternary_expression"]
        assert terns and all(len(t.children) == 3 for t in terns)

    def test_enhanced_for_parses(self):
        unit = parse(TRUST_EMPTY_SRC)
        assert not unit.parse_failed

    def test_array_initializer(self):
        unit = parse("class A { int[] a = {1, 2, 3}; }")
        inits = [n for n in unit.root.walk()
                 if n.kind == "array_initializer"]
        assert len(inits) == 1 and len(inits[0].children) == 3

    def test_string_literal_value_decoded(self):
        unit = parse(r'class A { String s = "aBc"; }')
        assert "aBc" in string_literals(unit.root)

    def test_node_at_finds_innermost(self):
        src = 'class A { void m() { int x = 1; } }'
        unit = parse(src)
        offset = src.index("1")
        node = node_at(unit.root, offset, offset + 1)
        assert node.kind == "decimal_integer_literal"


class TestRecovery:
    def test_recovers_after_garbage_member(self):
        src = ('class A { ??? !!! ;\n'
               'void m() throws Exception {'
               ' Cipher c = Cipher.getInstance("DES"); } }')
        unit = parse_unit("Broken.java", src)
        assert not unit.parse_failed
        assert any(n.kind == "parse_error" for n in unit.root.walk())
        assert any(n.kind == "method_invocation" for n in unit.root.walk())

    def test_unparseable_unit_flagged(self):
        unit = parse_unit("Junk.java", "%%%% ???? ++++")
        assert unit.parse_failed

    def test_empty_source(self):
        unit = parse_unit("Empty.java", "")
        assert unit.parse_failed or not unit.root.children

    def test_nesting_within_limit_parses_without_warning(self):
        nested = "(" * 60 + '"AES"' + ")" * 60
        unit = parse_unit("Deep.java", "class A { void m() { "
                          f"Cipher.getInstance({nested}); }} }}")
        assert unit.warnings == []
        assert string_literals(unit.root) == {"AES"}

    def test_nesting_beyond_limit_becomes_parse_error(self):
        nested = "(" * 100 + "1" + ")" * 100
        unit = parse_unit("Deep.java", "class A { void m() { x = "
                          f"{nested}; m(); }} }}")
        assert len(unit.warnings) == 1
        assert "nested deeper" in unit.warnings[0].message
        kinds = [n.kind for n in unit.root.walk()]
        assert "parse_error" in kinds and "method_invocation" in kinds


def _shape(node) -> str:
    """Binary and instanceof structure of an expression, parenthesized."""
    if node.kind == "binary_expression":
        left, right = node.children
        return f"({_shape(left)} {node.value} {_shape(right)})"
    if node.kind == "instanceof_expression":
        return f"({_shape(node.children[0])} instanceof {node.children[1].value})"
    return node.text


class TestOperatorPrecedence:
    @pytest.mark.parametrize("expr, shape", [
        ("a + b * c - d", "((a + (b * c)) - d)"),
        ("a || b && c | d ^ e & f", "(a || (b && (c | (d ^ (e & f)))))"),
        ("a == b < c << d + e", "(a == (b < (c << (d + e))))"),
        ("a < b instanceof T == c", "(((a < b) instanceof T) == c)"),
        ("a && b instanceof T", "(a && (b instanceof T))"),
        ("a - b - c * d / e", "((a - b) - ((c * d) / e))"),
    ])
    def test_binary_tree_shape(self, expr, shape):
        unit = parse(f"class A {{ void m() {{ x = {expr}; }} }}")
        assign = unit.root.find_all("assignment_expression")[0]
        assert _shape(assign.children[1]) == shape

    def test_tighter_operator_after_instanceof_ends_expression(self):
        # `x instanceof T >> 1` is not Java; the parser must stop at `>>`
        # rather than bind it to the instanceof operand.
        unit = parse("class A { void m() { x = y instanceof T >> 1; } }")
        assert any(n.kind == "parse_error" for n in unit.root.walk())


_ident = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)
_lit = st.text(alphabet=string.ascii_letters + "/-", min_size=0,
               max_size=12)


class TestProperties:
    @given(name=_ident, lit=_lit)
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_literal_value(self, name, lit):
        src = f'class A {{ String {name} = "{lit}"; }}'
        unit = parse_unit("P.java", src)
        assert not unit.parse_failed
        assert lit in string_literals(unit.root)

    @given(parts=st.lists(_lit, min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_concatenation_node_spans_nest(self, parts):
        expr = " + ".join(f'"{p}"' for p in parts)
        src = f"class A {{ void m() {{ String s = {expr}; }} }}"
        unit = parse_unit("P.java", src)
        assert not unit.parse_failed
        lits = [n for n in unit.root.walk() if n.kind == "string_literal"]
        assert len(lits) == len(parts)
        # spans are well-formed and nested within the unit
        for node in unit.root.walk():
            assert 0 <= node.start <= node.end <= len(src)
            for child in node.children:
                assert node.start <= child.start <= child.end <= node.end
