"""Parser: token decoding, tree shape, node counts, error recovery."""

from __future__ import annotations

import string
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from jcascan.ingest import extract_sites
from jcascan.javaparse import (MAX_EXPRESSION_DEPTH, MAX_STATEMENT_DEPTH,
                               Parser, Token, parse_unit, tokenize)

import conftest
from conftest import (CHARAT_SRC, TERNARY_SRC, TRUST_EMPTY_SRC, parse,
                      pipeline, string_literals)

# Kinds that must never appear in a tree: the named-node discipline.
ANONYMOUS_KINDS = frozenset(
    {",", ";", "(", ")", "{", "}", "[", "]", ".", "+", "-", "?", ":",
     "if", "else", "for", "while", "return", "new", "class", "=",
     "comment", "whitespace"}
)


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

    def test_one_eof_and_lookahead_past_both_ends(self):
        assert [t.kind for t in tokenize("x")] == ["ident", "eof"]
        parser = Parser("A.java", "x")
        assert parser.kinds[parser.pos - 1] == "eof"
        parser.advance()
        assert parser.kinds[parser.advance()] == "eof"
        assert parser.kinds[parser.pos] \
            == parser.kinds[parser.pos + 2] == "eof"

    def test_numeric_literals(self):
        toks = tokenize("0x1F 12 3.5f 1_000")
        values = [t.value for t in toks if t.kind in ("int", "float")]
        assert 31 in values and 12 in values and 1000 in values

    def test_parser_builds_no_token(self, monkeypatch):
        """The parser reads the lexer's lists in place: parsing every
        conftest source builds no ``Token``; ``tokenize`` builds them."""
        built = []
        init = Token.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(Token, "__init__", counted)
        for name, text in sorted(vars(conftest).items()):
            if name.endswith("_SRC") and isinstance(text, str):
                parse_unit(f"{name}.java", text)
        assert built == []
        tokenize("x")
        assert built == [("ident", "x", 0, 1, None), ("eof", "", 1, 1, None)]


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

    def test_field_declarator_spans_its_dims(self):
        """A field's C-style dims belong to its declarator, as a local's
        do, with or without an initializer."""
        unit = parse("class A { int a[][], b; String c[] = null; }")
        assert [d.text for d in unit.root.find_all("variable_declarator")] \
            == ["a[][]", "b", "c[] = null"]

    def test_string_literal_value_decoded(self):
        unit = parse(r'class A { String s = "aBc"; }')
        assert "aBc" in string_literals(unit.root)


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

    # The method is a class member (level 1) and its body's statements
    # start at level 2, so `x();` inside MAX_STATEMENT_DEPTH - 2 nested
    # blocks sits at the last accepted level.
    @pytest.mark.parametrize("blocks,warnings", [
        (MAX_STATEMENT_DEPTH - 2, 0), (MAX_STATEMENT_DEPTH - 1, 1),
        (2000, 1)])
    def test_statement_nesting_limit(self, blocks, warnings):
        nested = "{ " * blocks + "x(); " + "} " * blocks
        unit = parse_unit("Deep.java", "class A { void m() { "
                          f"{nested} m(); }} }}")
        assert len(unit.warnings) == warnings
        if warnings:
            assert "statement nested deeper" in unit.warnings[0].message
        calls = [n.value for n in unit.root.walk()
                 if n.kind == "method_invocation"]
        assert calls == (["x", "m"] if not warnings else ["m"])

    def test_member_nesting_beyond_limit_becomes_parse_error(self):
        nested = "class B { " * 300 + "} " * 300
        unit = parse_unit("Deep.java", f"class A {{ {nested} void m() {{ }} }}")
        assert len(unit.warnings) == 1
        assert any(n.kind == "method_declaration" for n in unit.root.walk())

    @pytest.mark.parametrize("expression", [
        "- " * 1000 + "1", "(int) " * 1000 + "1", "! " * 1000 + "b",
        "++ " * 1000 + "i", "b ? " * 1000 + "1" + " : 2" * 1000,
    ], ids=["minus", "cast", "not", "increment", "ternary-then"])
    def test_operator_chains_beyond_limit_become_parse_error(self,
                                                             expression):
        unit = parse_unit("Deep.java", "class A { void m() { "
                          f"x = {expression}; m(); }} }}")
        assert len(unit.warnings) == 1
        assert "nested deeper" in unit.warnings[0].message
        assert any(n.kind == "method_invocation" and n.value == "m"
                   for n in unit.root.walk())

    @pytest.mark.parametrize("statement,links", [
        ("x = " + "b ? 1 : " * 1000 + "2;", 1001),
        ("x = " + "i = " * 1000 + "1;", 1001),
        ("x = " + "b ? 1 : i = " * 1000 + "2;", 2001),
        ("if (b) x(); else " * 1000 + "x();", 1000),
    ], ids=["ternary-else", "assignment", "ternary-assignment", "else-if"])
    def test_right_nested_chains_parse_in_full(self, statement, links):
        unit = parse_unit("Chain.java", "class A { void m() { "
                          f"{statement} m(); }} }}")
        assert unit.warnings == []
        nodes = [n for n in unit.root.walk() if n.kind in (
            "ternary_expression", "assignment_expression", "if_statement")]
        assert len(nodes) == links
        # Each link is the last child of the one before it.
        for outer, inner in zip(nodes, nodes[1:]):
            assert outer.children[-1] is inner
            assert outer.end == inner.end
        assert [n.value for n in unit.root.walk()
                if n.kind == "method_invocation"].count("m") == 1

    def test_operator_chain_within_limit_parses(self):
        chain = "- " * (MAX_EXPRESSION_DEPTH - 1) + "1"
        unit = parse_unit("Deep.java", f"class A {{ int x = {chain}; }}")
        assert unit.warnings == []
        assert sum(n.kind == "unary_expression"
                   for n in unit.root.walk()) == MAX_EXPRESSION_DEPTH - 1

    def test_nested_array_initializer_beyond_limit(self):
        init = "{" * 1000 + "1" + "}" * 1000
        unit = parse_unit("Deep.java", "class A { int[] a = "
                          f"{init}; void m() {{ }} }}")
        assert len(unit.warnings) == 1
        assert any(n.kind == "method_declaration" for n in unit.root.walk())



def _outline(node, depth: int = 0) -> list[str]:
    """One ``kind 'text'`` line per node in pre-order, indented by depth,
    with `` = value`` where the value is not the node's text."""
    line = "  " * depth + f"{node.kind} {node.text!r}"
    if node.value is not None and node.value != node.text:
        line += f" = {node.value!r}"
    return [line] + [line for child in node.children
                     for line in _outline(child, depth + 1)]


# Constructs no golden input holds, with the trees they parse to.
_PINNED = {
    "switch-labels": (
        "switch (k) { case 1: a(); case 2: default: b(); }"
        " switch (k) { case 1 -> a(); default -> { b(); } }", """
        block '{ switch (k) { case 1: a(); case 2: default: b(); } switch (k) { case 1 -> a(); default -> { b(); } } }'
          switch_statement 'switch (k) { case 1: a(); case 2: default: b(); }'
            identifier 'k'
            expression_statement 'a();'
              method_invocation 'a()' = 'a'
                identifier 'a'
                argument_list '()'
            expression_statement 'b();'
              method_invocation 'b()' = 'b'
                identifier 'b'
                argument_list '()'
          switch_statement 'switch (k) { case 1 -> a(); default -> { b(); } }'
            identifier 'k'
            expression_statement 'a();'
              method_invocation 'a()' = 'a'
                identifier 'a'
                argument_list '()'
            block '{ b(); }'
              expression_statement 'b();'
                method_invocation 'b()' = 'b'
                  identifier 'b'
                  argument_list '()'"""),
    "final": (
        "final int x = 1; for (final String s : q) { }"
        " try (final Reader r = open(); Writer w = make()) { }"
        " catch (final IOException | RuntimeException e) { }", """
        block '{ final int x = 1; for (final String s : q) { } try (final Reader r = open(); Writer w = make()) { } catch (final IOException | RuntimeException e) { } }'
          local_variable_declaration 'final int x = 1;'
            type_identifier 'int'
            variable_declarator 'x = 1'
              identifier 'x'
              decimal_integer_literal '1' = 1
          enhanced_for_statement 'for (final String s : q) { }'
            type_identifier 'String'
            identifier 's'
            identifier 'q'
            block '{ }'
          try_statement 'try (final Reader r = open(); Writer w = make()) { } catch (final IOException | RuntimeException e) { }'
            local_variable_declaration 'final Reader r = open()'
              type_identifier 'Reader'
              variable_declarator 'r = open()'
                identifier 'r'
                method_invocation 'open()' = 'open'
                  identifier 'open'
                  argument_list '()'
            local_variable_declaration 'Writer w = make()'
              type_identifier 'Writer'
              variable_declarator 'w = make()'
                identifier 'w'
                method_invocation 'make()' = 'make'
                  identifier 'make'
                  argument_list '()'
            block '{ }'
            catch_clause 'catch (final IOException | RuntimeException e) { }'
              type_identifier 'IOException'
              type_identifier 'RuntimeException'
              identifier 'e'
              block '{ }'"""),
    "local-dims": (
        "int a[] = {1}, b, c[][];", """
        block '{ int a[] = {1}, b, c[][]; }'
          local_variable_declaration 'int a[] = {1}, b, c[][];'
            type_identifier 'int'
            variable_declarator 'a[] = {1}'
              identifier 'a'
              array_initializer '{1}'
                decimal_integer_literal '1' = 1
            variable_declarator 'b'
              identifier 'b'
            variable_declarator 'c[][]'
              identifier 'c'"""),
    # JLS §15.16: a signed operand follows a primitive type's cast only.
    "signed-casts": (
        "j = (short) -i; k = (long) ++i; n = (T) -x;", """
        block '{ j = (short) -i; k = (long) ++i; n = (T) -x; }'
          expression_statement 'j = (short) -i;'
            assignment_expression 'j = (short) -i' = '='
              identifier 'j'
              cast_expression '(short) -i' = 'short'
                type_identifier 'short'
                unary_expression '-i' = '-'
                  identifier 'i'
          expression_statement 'k = (long) ++i;'
            assignment_expression 'k = (long) ++i' = '='
              identifier 'k'
              cast_expression '(long) ++i' = 'long'
                type_identifier 'long'
                update_expression '++i' = '++'
                  identifier 'i'
          expression_statement 'n = (T) -x;'
            assignment_expression 'n = (T) -x' = '='
              identifier 'n'
              binary_expression '(T) -x' = '-'
                parenthesized_expression '(T)'
                  identifier 'T'
                identifier 'x'"""),
    "class-literals": (
        "f(int.class, void.class, byte[].class, String[].class);", """
        block '{ f(int.class, void.class, byte[].class, String[].class); }'
          expression_statement 'f(int.class, void.class, byte[].class, String[].class);'
            method_invocation 'f(int.class, void.class, byte[].class, String[].class)' = 'f'
              identifier 'f'
              argument_list '(int.class, void.class, byte[].class, String[].class)'
                class_literal 'int.class'
                  type_identifier 'int'
                class_literal 'void.class'
                  type_identifier 'void'
                class_literal 'byte[].class'
                  type_identifier 'byte[]'
                class_literal 'String[].class'
                  type_identifier 'String[]'"""),
    "array-type-literals": (
        "f(java.lang.String[].class, Map.Entry[].class, int[]::new,"
        " String[][]::new);", """
        block '{ f(java.lang.String[].class, Map.Entry[].class, int[]::new, String[][]::new); }'
          expression_statement 'f(java.lang.String[].class, Map.Entry[].class, int[]::new, String[][]::new);'
            method_invocation 'f(java.lang.String[].class, Map.Entry[].class, int[]::new, String[][]::new)' = 'f'
              identifier 'f'
              argument_list '(java.lang.String[].class, Map.Entry[].class, int[]::new, String[][]::new)'
                class_literal 'java.lang.String[].class'
                  type_identifier 'java.lang.String[]'
                class_literal 'Map.Entry[].class'
                  type_identifier 'Map.Entry[]'
                method_reference 'int[]::new'
                  type_identifier 'int[]'
                  identifier 'new'
                method_reference 'String[][]::new'
                  type_identifier 'String[][]'
                  identifier 'new'"""),
}

_PINNED_TYPES = {
    "enum-implements": (
        "public enum E implements A, B { X(1), Y { int f() { return 2; } };"
        " int g; }", """
        program 'public enum E implements A, B { X(1), Y { int f() { return 2; } }; int g; }'
          enum_declaration 'public enum E implements A, B { X(1), Y { int f() { return 2; } }; int g; }'
            modifiers 'public' = ('public',)
            identifier 'E'
            type_identifier 'A'
            type_identifier 'B'
            enum_body '{ X(1), Y { int f() { return 2; } }; int g; }'
              enum_constant 'X(1)'
                identifier 'X'
                argument_list '(1)'
                  decimal_integer_literal '1' = 1
              enum_constant 'Y { int f() { return 2; } }'
                identifier 'Y'
              field_declaration 'int g;'
                type_identifier 'int'
                variable_declarator 'g'
                  identifier 'g'"""),
    "interface-extends": (
        "abstract interface I<T> extends A, B<T> { void m(); }", """
        program 'abstract interface I<T> extends A, B<T> { void m(); }'
          interface_declaration 'abstract interface I<T> extends A, B<T> { void m(); }'
            modifiers 'abstract' = ('abstract',)
            identifier 'I'
            type_identifier 'A'
            type_identifier 'B'
            class_body '{ void m(); }'
              method_declaration 'void m();'
                type_identifier 'void'
                identifier 'm'
                formal_parameters '()'"""),
    "final-parameters": (
        "class A { void m(final int p, final String... q) { } }", """
        program 'class A { void m(final int p, final String... q) { } }'
          class_declaration 'class A { void m(final int p, final String... q) { } }'
            identifier 'A'
            class_body '{ void m(final int p, final String... q) { } }'
              method_declaration 'void m(final int p, final String... q) { }'
                type_identifier 'void'
                identifier 'm'
                formal_parameters '(final int p, final String... q)'
                  formal_parameter 'final int p'
                    type_identifier 'int'
                    identifier 'p'
                  formal_parameter 'final String... q'
                    type_identifier 'String'
                    identifier 'q'
                block '{ }'"""),
}


class TestDecompiledShapes:
    """Casts of a signed operand to a primitive type, as decompilers write
    key bytes, and array types in class literals and constructor
    references: java 17 prints each value, and javac counts each site."""

    @pytest.mark.parametrize("statements, argument, value", [
        ("int i = 3; int j = (short) -i;", '"" + j', "-3"),
        ("long a = (int) +1;", '"" + a', "1"),
        ("int i = 3; int b = (int) ++i;", '"" + b + i', "44"),
        ("char c = (char) -1;", '"" + (int) c', "65535"),
        ("long d = (long) -1;", '"" + d', "-1"),
    ])
    def test_signed_primitive_cast_values(self, statements, argument, value):
        _, resolved, _, _ = pipeline(
            "import javax.crypto.Cipher;\nclass A { void m() throws Exception"
            f" {{ {statements} Cipher.getInstance({argument}); }} }}\n")
        assert resolved.candidates == {value}
        assert not resolved.residuals

    @pytest.mark.parametrize("members, statements, sites", [
        ("static final byte[] K = {(byte) -86, 12};",
         'Cipher.getInstance("AES");', 1),
        ("", "SecretKeySpec k = new SecretKeySpec("
         'new byte[]{(byte) -86, 12}, "AES"); Cipher.getInstance("AES");', 2),
    ])
    def test_signed_byte_keys_keep_their_sites(self, members, statements,
                                               sites):
        unit = parse(f"class A {{ {members} void m() throws Exception"
                     f" {{ {statements} }} }}")
        assert unit.warnings == []
        assert len(extract_sites(unit)) == sites


    @pytest.mark.parametrize("statement", [
        'h(java.lang.String[].class, Cipher.getInstance("DES"));',
        'h(Map.Entry[].class, Cipher.getInstance("AES"));',
        'g(int[]::new, Cipher.getInstance("DES"));',
        'g(String[]::new, Cipher.getInstance("AES"));',
    ])
    def test_array_type_literals_keep_their_sites(self, statement):
        unit = parse("class A { void m() throws Exception"
                     f" {{ {statement} }} }}")
        assert unit.warnings == []
        assert len(extract_sites(unit)) == 1


class TestPinnedShapes:
    @pytest.mark.parametrize("name", sorted(_PINNED))
    def test_statements(self, name):
        body, expected = _PINNED[name]
        unit = parse_unit("P.java", f"class A {{ void m() {{ {body} }} }}")
        assert unit.warnings == []
        block = unit.root.find_all("block")[0]
        assert _outline(block) == textwrap.dedent(expected).split("\n")[1:]

    @pytest.mark.parametrize("name", sorted(_PINNED_TYPES))
    def test_types(self, name):
        src, expected = _PINNED_TYPES[name]
        unit = parse_unit("P.java", src)
        assert unit.warnings == []
        assert _outline(unit.root) == textwrap.dedent(expected).split("\n")[1:]


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
