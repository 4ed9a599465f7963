"""String-value resolution: oracle fixtures, residuals, budgets,
and soundness against an independent brute-force evaluator."""

from __future__ import annotations

import string
import sys

import pytest
from hypothesis import given, settings, strategies as st

from jcascan.classify import classify
from jcascan.javaparse import MAX_STATEMENT_DEPTH, parse_unit
from jcascan.ingest import extract_sites
from jcascan.resolve import (DEPTH_EXCEEDED, EXTERNAL_INPUT, NATIVE,
                             NETWORK, UNKNOWN, ResolutionBudget,
                             has_encrypted_param_pattern, resolve_site,
                             visible_literals)
from jcascan.rules import check_site

from conftest import (BASE64_SRC, BYTE_LOOP_SRC, CHARAT_SRC,
                      ENCRYPTED_PARAM_SRC, ENUM_SRC, KEY_BASE64_SRC,
                      KEY_LITERAL_SRC, NATIVE_SRC, NESTED_TERNARY_SRC,
                      REPLACE_SRC, STRINGBUFFER_SRC, STRINGBUILDER_SRC,
                      TERNARY_SRC, XOR_SRC, pipeline, site_of, sites_of)


def resolve_src(src: str):
    return resolve_site(site_of(src))


class TestOracleFixtures:
    """Each fixture's candidate set was cross-checked by evaluating the
    same Java expressions by hand / with an independent interpreter."""

    def test_charat_build(self):
        r = resolve_src(CHARAT_SRC)
        assert r.candidates == {"AES/ECB/NoPadding"}
        assert not r.residuals

    def test_xor_decode(self):
        r = resolve_src(XOR_SRC)
        assert r.candidates == {"AES/ECB/PKCS5Padding"}
        assert not r.residuals

    def test_base64_direct(self):
        r = resolve_src(BASE64_SRC)
        assert r.candidates == {"DES/CBC/PKCS5Padding"}

    def test_byte_array_loop(self):
        r = resolve_src(BYTE_LOOP_SRC)
        assert r.candidates == {"AES"}

    def test_ternary_union(self):
        r = resolve_src(TERNARY_SRC)
        assert r.candidates == {"AES/GCM/NoPadding", "AES"}

    def test_stringbuffer(self):
        r = resolve_src(STRINGBUFFER_SRC)
        assert r.candidates == {"DESede/CBC/NoPadding"}

    def test_stringbuilder_fragments(self):
        r = resolve_src(STRINGBUILDER_SRC)
        assert r.candidates == {"AES/ECB/PKCS7Padding"}

    def test_nested_ternary(self):
        r = resolve_src(NESTED_TERNARY_SRC)
        assert r.candidates == {"RSA/ECB/OAEPWithSHA-1AndMGF1Padding",
                                "RSA/ECB/PKCS1Padding"}

    def test_replace(self):
        r = resolve_src(REPLACE_SRC)
        assert r.candidates == {"DES"}

    def test_enum_constant_payload(self):
        r = resolve_src(ENUM_SRC)
        assert r.candidates == {"DES/ECB/PKCS5Padding"}

    def test_native_residual(self):
        r = resolve_src(NATIVE_SRC)
        assert r.candidates == set()
        assert NATIVE in r.residuals

    def test_key_literal_bytes(self):
        r = resolve_src(KEY_LITERAL_SRC)
        assert any(isinstance(v, bytes)
                   and v == b"oejkdirztefhnvscxhdmdzedfotuabje"
                   for v in r.raw_candidates)

    def test_key_base64_bytes(self):
        r = resolve_src(KEY_BASE64_SRC)
        raw = [v for v in r.raw_candidates if isinstance(v, bytes)]
        assert raw and len(raw[0]) == 64


class TestResiduals:
    def test_external_input_param(self):
        src = ('import javax.crypto.Cipher;\n'
               'class A { void m(String t) throws Exception {'
               ' Cipher.getInstance(t); } }')
        r = resolve_site(site_of(src))
        assert not r.candidates
        assert EXTERNAL_INPUT in r.residuals

    def test_network_source(self):
        src = ('import javax.crypto.Cipher;\n'
               'class A { void m(java.net.HttpURLConnection c)'
               ' throws Exception {'
               ' Cipher.getInstance(c.getHeaderField("algo")); } }')
        r = resolve_site(site_of(src))
        assert NETWORK in r.residuals

    def test_unknown_call(self):
        src = ('import javax.crypto.Cipher;\n'
               'class A { void m() throws Exception {'
               ' Cipher.getInstance(Other.lookup()); } }')
        r = resolve_site(site_of(src))
        assert not r.candidates
        assert r.residuals  # some residual explains the missing value

    def test_candidate_cap(self):
        # 2^5 = 32 combinations exceeds the 16-candidate budget
        parts = " + ".join(f'(b{i} ? "a{i}" : "b{i}")' for i in range(5))
        src = ('import javax.crypto.Cipher;\n'
               'class A { void m(boolean b0, boolean b1, boolean b2,'
               ' boolean b3, boolean b4) throws Exception {'
               f' Cipher.getInstance({parts}); }} }}')
        r = resolve_site(site_of(src))
        assert len(r.candidates) <= 16
        assert DEPTH_EXCEEDED in r.residuals

    def test_indirection_budget(self):
        hops = "".join(
            f'static String h{i}() {{ return h{i + 1}(); }}\n'
            for i in range(12)) + 'static String h12() { return "DES"; }\n'
        src = ('import javax.crypto.Cipher;\n'
               f'class A {{ {hops} void m() throws Exception {{'
               ' Cipher.getInstance(h0()); } }')
        r = resolve_site(site_of(src),
                         ResolutionBudget(max_indirection=2,
                                          max_call_depth=2))
        assert "DES" not in r.candidates
        assert DEPTH_EXCEEDED in r.residuals


def _method(params: str, argument: str) -> str:
    return ('import javax.crypto.Cipher;\nimport android.util.Base64;\n'
            f'class A {{ void m({params}) throws Exception {{'
            f' Cipher.getInstance({argument}); }} }}')


def _five(names: str) -> str:
    """A nested ternary over the parameters ``f0`` … ``f3`` with the five
    values ``names[0]`` … ``names[4]``."""
    return "".join(f'f{i} ? "{c}" : ' for i, c in enumerate(names[:4])) \
        + f'"{names[4]}"'


class TestOneLibraryModel:
    """A library call gets the interpreter's answer whether the site is
    resolved concretely or, because of a ternary or a parameter, over
    candidate sets."""

    @pytest.mark.parametrize("argument,candidates", [
        ('Math.abs(f ? -1 : 1) + "AES"', {"1AES"}),
        ("String.copyValueOf(f ? new char[]{'D'} : new char[]{'A'})"
         ' + "ES"', {"DES", "AES"}),
        ('new String(f ? "DESede".toCharArray() : "AES/GCM".toCharArray(),'
         " 0, 3)", {"DES", "AES"}),
    ])
    def test_library_call_over_a_ternary(self, argument, candidates):
        r = resolve_site(site_of(_method("boolean f", argument)))
        assert r.candidates == candidates
        assert not r.residuals

    def test_builder_of_a_parameter_keeps_its_residual(self):
        r = resolve_site(site_of(_method(
            "String p", 'new StringBuilder(p).append("/ECB").toString()')))
        assert r.candidates == set()
        assert r.residuals == {EXTERNAL_INPUT}

    @pytest.mark.parametrize("argument", [
        'new String("DES".getBytes(), p)',
        'String.valueOf("DES", p)',
    ])
    def test_an_argument_the_library_does_not_read_keeps_the_value(
            self, argument):
        """An argument past the ones the library function reads gives its
        residual, but its lack of a value leaves the call's value."""
        r = resolve_site(site_of(_method("String p", argument)))
        assert r.candidates == {"DES"}
        assert r.residuals == {EXTERNAL_INPUT}

    def test_format_over_many_combinations_keeps_the_first_in_order(self):
        # 5 x 5 x 5 = 125 combinations: all are formatted, and the cap
        # keeps the 16 first in order, whatever the hash seed.
        params = ", ".join(f"boolean f{i}" for i in range(4))
        r = resolve_site(site_of(_method(params, (
            f'String.format("%s/%s/%s", {_five("ABCDE")}, {_five("FGHIJ")},'
            f' {_five("KLMNO")})'))))
        everything = sorted(f"{a}/{b}/{c}" for a in "ABCDE"
                            for b in "FGHIJ" for c in "KLMNO")
        assert r.candidates == set(everything[:16])
        assert r.residuals == {DEPTH_EXCEEDED}

    def test_field_without_initializer_shadows_the_superclass_field(self):
        src = ('import javax.crypto.Cipher;\n'
               'class A { static String t = "AES"; }\n'
               'class B extends A { static String t;'
               ' void m() throws Exception { Cipher.getInstance(t); } }')
        r = resolve_site(site_of(src))
        assert r.candidates == set()
        assert r.residuals == {UNKNOWN}

    @pytest.mark.parametrize("argument,candidates", [
        ('String.valueOf("DESede".toCharArray(), 0, 3)', {"DES"}),
        ('String.copyValueOf("DESede".toCharArray(), 1, 2)', {"ES"}),
        ('String.valueOf(f ? "DESede".toCharArray()'
         ' : "AES/GCM".toCharArray(), 0, 3)', {"DES", "AES"}),
    ])
    def test_value_of_a_char_range_slices(self, argument, candidates):
        r = resolve_site(site_of(_method("boolean f", argument)))
        assert r.candidates == candidates
        assert not r.residuals

    @pytest.mark.parametrize("argument", [
        # Java throws StringIndexOutOfBoundsException for each of these.
        'String.valueOf("DESede".toCharArray(), 3, 10)',
        'String.valueOf("DESede".toCharArray(), -1, 3)',
        'String.copyValueOf("DESede".toCharArray(), 2, -1)',
        'new String("DESede".toCharArray(), 4, 3)',
    ])
    def test_char_range_out_of_bounds_is_unknown(self, argument):
        r = resolve_site(site_of(_method("", argument)))
        assert r.candidates == set()
        assert r.residuals == {UNKNOWN}

    @pytest.mark.parametrize("argument,candidates", [
        ('new String("DESede".getBytes(), 0, 3)', {"DES"}),
        ("new String(new byte[]{68, 69, 83, 101}, 0, 3)", {"DES"}),
        ('new String("xDESede".getBytes(), 1, 3, "UTF-8")', {"DES"}),
        ('new String(Base64.decode("REVTZWRl", 0), 3, 3)', {"ede"}),
        ('new String(f ? "DESede".getBytes() : "AES/GCM".getBytes(), 0, 3)',
         {"DES", "AES"}),
        ('h("DESede")', {"DES"}),
    ])
    def test_a_byte_range_slices(self, argument, candidates):
        """The ``(byte[], int offset, int count)`` forms, directly and
        through a helper the interpreter runs."""
        src = _method("boolean f", argument).replace(
            "class A {", "class A { static String h(String s) {"
            " return new String(s.getBytes(), 0, 3); }")
        r = resolve_site(site_of(src))
        assert r.candidates == candidates
        assert not r.residuals

    @pytest.mark.parametrize("argument", [
        # Java throws StringIndexOutOfBoundsException for each of these.
        'new String("DESede".getBytes(), 2, 40)',
        'new String("DESede".getBytes(), -1, 3)',
        'new String(new byte[]{68, 69, 83}, 1, 3, "UTF-8")',
        # The deprecated hibyte form is not modelled.
        'new String("DESede".getBytes(), 0, 0, 3)',
    ])
    def test_byte_range_out_of_bounds_or_hibyte_is_unknown(self, argument):
        r = resolve_site(site_of(_method("", argument)))
        assert r.candidates == set()
        assert r.residuals == {UNKNOWN}

    @pytest.mark.parametrize("argument,candidates", [
        ('new StringBuilder(new StringBuilder("AES")).toString()', {"AES"}),
        ('new StringBuffer(new StringBuffer("DES").append("ede"))'
         ".toString()", {"DESede"}),
        ('new StringBuilder(f ? new StringBuilder("AES")'
         ' : new StringBuilder("DES")).toString()', {"AES", "DES"}),
        ("new StringBuilder(16).toString()", {""}),
    ])
    def test_builder_of_a_builder_takes_its_text(self, argument, candidates):
        r = resolve_site(site_of(_method("boolean f", argument)))
        assert r.candidates == candidates
        assert not r.residuals

    @pytest.mark.parametrize("args", [
        '"%20000000s", "x"', '"%065537d", 7', '"%.70000d", 7',
        pytest.param('"%' + "9" * 5000 + 's", "x"', id="5000-digit-width")])
    def test_format_refuses_a_width_past_the_array_bound(self, args):
        r = resolve_site(site_of(_method("", f"String.format({args})")))
        assert r.candidates == set()
        assert r.residuals == {UNKNOWN}

    def test_format_precision_on_a_string_only_cuts(self):
        # A precision on %s can only shorten the output, so it is not
        # bounded.
        r = resolve_site(site_of(_method(
            "", 'String.format("%.70000s", "AES") + String.format("%.1s",'
            ' "DES")')))
        assert r.candidates == {"AESD"}
        assert not r.residuals

    def test_android_base64_with_named_default_flags(self):
        r = resolve_site(site_of(_method(
            "", 'new String(Base64.decode("REVT", Base64.DEFAULT))')))
        assert r.candidates == {"DES"}
        assert not r.residuals


def _under_frames(frames: int, fn):
    """``fn()`` called ``frames`` Python frames deeper than here."""
    return fn() if frames == 0 else _under_frames(frames - 1, fn)


class TestDeepChains:
    @pytest.mark.parametrize("frames", [0, 300, 600])
    def test_left_deep_concat_does_not_depend_on_the_stack(self, frames):
        # 399 literals and a parameter: a left-deep chain of 399 links,
        # whose resolution must not depend on the caller's stack depth.
        chain = " + ".join(['"a"'] * 399 + ["p"])
        site = site_of(_method("String p", chain))
        r = _under_frames(frames, lambda: resolve_site(site))
        assert r.candidates == set()
        assert r.residuals == {EXTERNAL_INPUT}


class TestVisibility:
    def test_charat_value_not_visible(self):
        site = site_of(CHARAT_SRC)
        r = resolve_site(site)
        lits = visible_literals(site, r)
        assert "AES/ECB/NoPadding" not in lits
        assert "AES/GCM/NoPadding" in lits

    def test_plain_literal_visible(self):
        src = ('import javax.crypto.Cipher;\n'
               'class A { void m() throws Exception {'
               ' Cipher.getInstance("DES"); } }')
        site = site_of(src)
        r = resolve_site(site)
        assert "DES" in visible_literals(site, r)

    def test_encrypted_param_pattern(self):
        assert has_encrypted_param_pattern(site_of(ENCRYPTED_PARAM_SRC))

    def test_no_encrypted_pattern_on_plain_call(self):
        src = ('import javax.crypto.Cipher;\n'
               'class A { void m() throws Exception {'
               ' Cipher.getInstance(Config.algo()); } }')
        assert not has_encrypted_param_pattern(site_of(src))


_word = st.text(alphabet=string.ascii_letters + "/", min_size=0,
                max_size=8)


class TestProperties:
    @given(parts=st.lists(_word, min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_concat_soundness(self, parts):
        """Concrete concatenations resolve to exactly the runtime value."""
        expr = " + ".join(f'"{p}"' for p in parts)
        src = ('import javax.crypto.Cipher;\n'
               'class A { void m() throws Exception {'
               f' Cipher.getInstance({expr}); }} }}')
        r = resolve_site(site_of(src))
        assert r.candidates == {"".join(parts)}
        assert not r.residuals

    @given(a=_word, b=_word)
    @settings(max_examples=60, deadline=None)
    def test_ternary_is_union(self, a, b):
        src = ('import javax.crypto.Cipher;\n'
               'class A { void m(boolean z) throws Exception {'
               f' Cipher.getInstance(z ? "{a}" : "{b}"); }} }}')
        r = resolve_site(site_of(src))
        assert r.candidates == {a, b}

    @given(text=st.text(alphabet=string.ascii_letters + "/",
                        min_size=1, max_size=12),
           start=st.integers(min_value=0, max_value=11))
    @settings(max_examples=60, deadline=None)
    def test_substring_soundness(self, text, start):
        if start >= len(text):
            return
        src = ('import javax.crypto.Cipher;\n'
               'class A { void m() throws Exception {'
               f' Cipher.getInstance("{text}".substring({start})); }} }}')
        r = resolve_site(site_of(src))
        assert r.candidates == {text[start:]}


def _builder_src(statements: str) -> str:
    return ('import javax.crypto.Cipher;\n'
            'class B { void m(String p, boolean c) throws Exception {\n'
            '    StringBuilder sb = new StringBuilder();\n'
            f'    {statements}\n'
            '    Cipher.getInstance(sb.toString()); } }\n')


class TestBuilderLocal:
    """A builder local is not read from its declaration alone."""

    def test_appended_parameter_leaves_a_residual(self):
        _, resolved, _, findings = pipeline(
            _builder_src('sb.append(p); sb.append("/ECB");'))
        assert "" not in resolved.candidates
        assert resolved.residuals == {EXTERNAL_INPUT}
        assert "R9" not in {f.rule_id for f in findings}

    def test_all_constant_appends_resolve(self):
        r = resolve_site(site_of(_builder_src(
            'sb.append("AES"); sb.append("/ECB/PKCS5Padding");')))
        assert r.candidates == {"AES/ECB/PKCS5Padding"}
        assert not r.residuals

    def test_statement_appends_fold_over_candidates(self):
        r = resolve_site(site_of(_builder_src(
            'sb.append("AES"); sb.append(c ? "/ECB" : "/CBC");')))
        assert r.candidates == {"AES/ECB", "AES/CBC"}
        assert not r.residuals

    def test_other_mentions_leave_only_a_residual(self):
        r = resolve_site(site_of(_builder_src(
            'if (c) { sb.append("DES"); }')))
        assert r.candidates == set()
        assert r.residuals == {UNKNOWN}

    def test_builder_under_a_ternary_is_not_its_declaration(self):
        """A ternary in the argument skips the interpreter's region run;
        the builder's statements before the site still count, and java 17
        prints AES and AES/GCM/NoPadding."""
        src = ('import javax.crypto.Cipher;\n'
               'class B { void m(boolean c) throws Exception {\n'
               '    StringBuilder sb = new StringBuilder("DES");\n'
               '    sb.setLength(0); sb.append("AES");\n'
               '    Cipher.getInstance(sb.toString()'
               ' + (c ? "" : "/GCM/NoPadding")); } }\n')
        _, resolved, _, findings = pipeline(src)
        assert resolved.candidates == {"AES", "AES/GCM/NoPadding"}
        assert not resolved.residuals
        assert [f.rule_id for f in findings] == ["R4"]

    @pytest.mark.parametrize("statements, argument, values", [
        ('StringBuilder sb = new StringBuilder("ES"); sb.insert(0, "D");',
         'sb.toString() + (c ? "" : "x")', {"DES", "DESx"}),
        ('StringBuilder sb = new StringBuilder("AES");',
         'sb.length() + (c ? "" : "x")', {"3", "3x"}),
        ('StringBuilder sb = new StringBuilder("DESx"); sb.deleteCharAt(3);',
         'sb.toString() + (c ? "" : "/ECB")', {"DES", "DES/ECB"}),
        ('StringBuilder sb = new StringBuilder("DES");',
         'sb.charAt(0) + (c ? "" : "x")', {"D", "Dx"}),
    ], ids=["insert", "length", "deleteCharAt", "charAt"])
    def test_builder_methods_under_a_ternary(self, statements, argument,
                                             values):
        """Under an argument ternary a builder's candidate runs through
        the builder methods the interpreter runs. java 17 prints each
        value."""
        r = resolve_site(site_of(
            'import javax.crypto.Cipher;\n'
            'class B { void m(boolean c) throws Exception {\n'
            f'    {statements}\n'
            f'    Cipher.getInstance({argument}); }} }}\n'))
        assert r.candidates == values
        assert not r.residuals

    def test_appends_under_a_ternary_fold(self):
        r = resolve_site(site_of(
            'import javax.crypto.Cipher;\n'
            'class B { void m(boolean c) throws Exception {\n'
            '    StringBuilder sb = new StringBuilder();\n'
            '    sb.append("AES");\n'
            '    Cipher.getInstance(sb.toString()'
            ' + (c ? "" : "/GCM/NoPadding")); } }\n'))
        assert r.candidates == {"AES", "AES/GCM/NoPadding"}
        assert not r.residuals


def _array_src(statements: str, argument: str = "new String(b)") -> str:
    return ('import javax.crypto.Cipher;\n'
            'class A { void m(int p, boolean c) throws Exception {\n'
            '    byte[] b = {68, 69, 83};\n'
            f'    {statements}\n'
            f'    Cipher.getInstance({argument}); }} }}\n')


class TestArrayLocal:
    """Where the interpreter gives up, an array local with an element
    write between its declaration and the use is not read from its
    declaration alone."""

    @pytest.mark.parametrize("statements", [
        "b[0] = (byte) p;",
        "if (c) { b[0] = 65; }",
        "if (c) { b[0]++; }",
    ])
    def test_element_write_leaves_a_residual(self, statements):
        _, resolved, _, findings = pipeline(_array_src(statements))
        assert resolved.candidates == set()
        assert resolved.residuals == {UNKNOWN}
        assert findings == []

    def test_element_write_under_a_ternary_leaves_a_residual(self):
        """A ternary in the argument skips the interpreter's region run,
        so a write that would have run counts too."""
        _, resolved, _, findings = pipeline(_array_src(
            "b[0] = 65;", 'new String(b) + (c ? "" : "/GCM/NoPadding")'))
        assert resolved.candidates == set()
        assert resolved.residuals == {UNKNOWN}
        assert findings == []

    @pytest.mark.parametrize("statements, value", [
        ("b[0] = 65;", "AES"),
        ("if (c) { p++; }", "DES"),
    ])
    def test_writes_that_run_resolve(self, statements, value):
        r = resolve_site(site_of(_array_src(statements)))
        assert r.candidates == {value}
        assert not r.residuals


def _branch_src(statements: str, use: str = "Cipher.getInstance(t);") -> str:
    return ('import javax.crypto.Cipher;\n'
            'class T { void m(String p, boolean c, boolean d)'
            ' throws Exception {\n'
            f'    {statements}\n'
            f'    {use} }} }}\n')


# A ternary in the argument skips the interpreter's region run, so the
# local is read by the rules under test even where the region run would
# give its value.
_UNRUN = 'Cipher.getInstance(t + (d ? "" : ""));'


class TestDefinitionInABranch:
    """A definition in a branch, loop or try that does not hold the use may
    not have run: the value before that statement counts too, unless every
    way through the statement defines the local."""

    def test_branch_joins_the_value_before_it(self):
        _, resolved, _, findings = pipeline(_branch_src(
            'String t = "DES";'
            ' if (p.isEmpty()) { t = "AES/GCM/NoPadding"; }'))
        assert resolved.candidates == {"AES/GCM/NoPadding", "DES"}
        assert not resolved.residuals
        assert [f.rule_id for f in findings] == ["R1"]

    @pytest.mark.parametrize("statements", [
        't = "A"; if (c) t = "B"; if (d) t = "C";',
        't = "A"; while (c) { t = "B"; } for (char k : p.toCharArray()) {'
        ' t = "C"; }',
    ])
    def test_each_branch_in_a_chain_counts(self, statements):
        r = resolve_site(site_of(_branch_src(f"String t; {statements}")))
        assert r.candidates == {"A", "B", "C"}
        assert not r.residuals

    def test_no_definition_before_the_branch_is_unknown(self):
        r = resolve_site(site_of(_branch_src(
            'String t; if (p.isEmpty()) t = "DES";')))
        assert r.candidates == {"DES"}
        assert r.residuals == {UNKNOWN}

    def test_every_branch_defining_drops_the_value_before(self):
        _, resolved, _, findings = pipeline(_branch_src(
            'String t = "DES"; if (p.isEmpty()) { t = "AES"; }'
            ' else { t = "AES/CBC/PKCS5Padding"; }'))
        assert resolved.candidates == {"AES", "AES/CBC/PKCS5Padding"}
        assert not resolved.residuals
        assert "R1" not in {f.rule_id for f in findings}

    @pytest.mark.parametrize("statements, values", [
        ('if (c) { t = "A"; } else if (d) { t = "B"; } else { t = "C"; }',
         {"A", "B", "C"}),
        ('if (c) { t = "A"; } else if (d) { t = "B"; }', {"A", "B", "DES"}),
        ('if (c) { t = "A"; } else { return; }', {"A"}),
        ('try { t = "A"; } catch (Exception e) { t = "B"; }', {"A", "B"}),
        ('try { t = "A"; p.wait(); t = "B"; } catch (Exception e) { }',
         {"A", "B", "DES"}),
        ('try { t = "A"; } catch (Exception e) { } finally { t = "B"; }',
         {"B"}),
        ('{ t = "A"; }', {"A"}),
        ('synchronized (p) { t = "A"; }', {"A"}),
        ('do { t = "A"; } while (c);', {"A"}),
        ('while (c) { t = "A"; t = "B"; }', {"B", "DES"}),
    ])
    def test_what_a_statement_leaves(self, statements, values):
        r = resolve_site(site_of(_branch_src(
            f'String t = "DES"; {statements}', _UNRUN)))
        assert r.candidates == values
        assert not r.residuals

    @pytest.mark.parametrize("statements", [
        'switch (p.length()) { case 1: t = "A"; break; default: t = "B"; }',
        'while (c) { t = "A"; break; }',
        'for (int i = 0; i < 3; i++) { if (c) continue; t = "A"; }',
    ])
    def test_unfollowed_shapes_leave_only_a_residual(self, statements):
        """The tree keeps no case labels and no jump targets."""
        _, resolved, _, findings = pipeline(_branch_src(
            f'String t = "DES"; {statements}', _UNRUN))
        assert resolved.candidates == set()
        assert resolved.residuals == {UNKNOWN}
        assert findings == []

    def test_definition_at_the_nesting_limit(self):
        """The rule recurses once or twice per statement level, within the
        parser's limit of MAX_STATEMENT_DEPTH levels."""
        ifs = (MAX_STATEMENT_DEPTH - 2) // 2
        site = site_of(_branch_src('String t = "DES"; ' + "if (c) { " * ifs
                                   + 't = "AES";' + " }" * ifs, _UNRUN))
        assert site.unit.warnings == []
        r = _under_frames(600, lambda: resolve_site(site))
        assert r.candidates == {"AES", "DES"}
        assert not r.residuals

    @pytest.mark.parametrize("statement, values", [
        ('if (c) { if (d) { t = "AES"; } USE }', {"AES", "DES"}),
        ('if (c) { t = "AES"; } else { USE }', {"DES"}),
        ('while (c) { USE t = "AES"; }', {"AES", "DES"}),
        ('try { t = "AES"; p.wait(); } catch (Exception e) { USE }',
         {"AES", "DES"}),
        ('try { t = "AES"; p.wait(); } finally { USE }', {"AES", "DES"}),
    ])
    def test_use_inside_a_statement(self, statement, values):
        """Each enclosing statement adds what may run in it before the
        use: not the other branch of an ``if``, but an earlier pass of a
        loop and any part of what a ``try`` guards."""
        r = resolve_site(site_of(_branch_src(
            'String t = "DES"; ' + statement.replace("USE", _UNRUN), "")))
        assert r.candidates == values
        assert not r.residuals


class TestDeclaredType:
    """A local's declared primitive type holds its value: an int
    parameter, loop variable or local that holds a char updates to an int,
    a char one stays a char. java 17 prints each expected value."""

    @pytest.mark.parametrize("members, statements, argument, value", [
        ("", "int i = 'B';", '"A" + i', "A66"),
        ("", "int i = 'B'; i++;", '"A" + i', "A67"),
        ("", "char c = 65;", '"" + c + "ES"', "AES"),
        ("", "char c = 'A'; c++;", '"" + c + "ES"', "BES"),
        ("", "char c = 'A'; c--;", '"" + c + "ES"', "@ES"),
        ("", "char c = 'A'; c += 3;", '"" + c + "ES"', "DES"),
        ('static String f(int k) { k++; return "X" + k; }', "",
         "f('A')", "X66"),
        ('static String f(char k) { k++; return "X" + k; }', "",
         "f('A')", "XB"),
        ("", 'String s = ""; for (int v : "AB".toCharArray())'
         " { v++; s += v; }", "s", "6667"),
        ("", 'String s = ""; for (char v : "AB".toCharArray())'
         " { v++; s += v; }", "s", "BC"),
        ("", "int i = 0; char c = 'A'; i = c; i++;", '"A" + i', "A66"),
        ("", "int i = 0; char c = 'A'; i = c; i += 2;", '"A" + i', "A67"),
        ("", "int m = 0; if (m > 0) { new Runnable() { public void run()"
         " { char m = 'A'; } }; } m++;", '"A" + m', "A1"),
        ("", "char[] x = {'A'}; x[0]++;", '"" + x[0] + "ES"', "BES"),
        ("", "char[] x = {'A'}; x[0]--;", '"" + x[0] + "ES"', "@ES"),
        ('static String f(int k) { return "X" + k; }', "", "f('A')", "X65"),
        ("", 'String s = ""; for (int v : "AB".toCharArray()) s += v;', "s",
         "6566"),
    ])
    def test_a_primitive_local_keeps_its_type(self, members, statements,
                                              argument, value):
        _, resolved, _, _ = pipeline(
            f"import javax.crypto.Cipher;\nclass A {{ {members}\n"
            "void m() throws Exception"
            f" {{ {statements} Cipher.getInstance({argument}); }} }}\n")
        assert resolved.candidates == {value}
        assert not resolved.residuals


    @pytest.mark.parametrize("statements, argument, values", [
        ("int i = 'B';", "i", {"A66", "A66x"}),
        ("char c = 'A'; int i = 0; i = c;", "i", {"A65", "A65x"}),
        ("char c = 66;", "c", {"AB", "ABx"}),
        ("long n = 'C';", "n", {"A67", "A67x"}),
    ])
    def test_a_reaching_definition_takes_the_declared_type(
            self, statements, argument, values):
        """The ternary leaves the argument to the set-valued resolver,
        whose definition of the local takes the local's type."""
        _, resolved, _, _ = pipeline(
            "import javax.crypto.Cipher;\nclass A { void m(boolean d)"
            f" throws Exception {{ {statements} Cipher.getInstance("
            f'"A" + {argument} + (d ? "" : "x")); }} }}\n')
        assert resolved.candidates == values
        assert not resolved.residuals


class TestFinally:
    """``finally`` runs however its ``try`` completes: on a ``continue``,
    a ``return`` and a throw from a ``catch`` too (JLS 14.20.2). java 17
    prints each expected value."""

    @pytest.mark.parametrize("members, statements, argument, value", [
        ("", 'String s = ""; for (int i = 0; i < 3; i++) { try {'
         ' if (i == 1) continue; s += i; } finally { s += "-"; } }',
         '"RC4" + s', "RC40--2-"),
        ('static String f(StringBuilder b) { try { return "A"; }'
         ' finally { b.append("ES"); } }',
         "StringBuilder b = new StringBuilder(); String t = f(b);",
         "t + b", "AES"),
        ("", 'String s = "A"; try { try { throw new RuntimeException(); }'
         " catch (RuntimeException e) { throw new IllegalStateException(); }"
         ' finally { s += "E"; } } catch (IllegalStateException e)'
         ' { s += "S"; }', "s", "AES"),
    ], ids=["continue", "return", "throw-from-catch"])
    def test_finally_runs_on_a_jump(self, members, statements, argument,
                                    value):
        _, resolved, _, _ = pipeline(
            f"import javax.crypto.Cipher;\nclass A {{ {members}\n"
            "void m() throws Exception"
            f" {{ {statements} Cipher.getInstance({argument}); }} }}\n")
        assert resolved.candidates == {value}
        assert not resolved.residuals


def _update_bytecodes(updates: int) -> int:
    """Bytecodes jcascan runs to resolve a site after ``updates`` lines
    of ``i++;``, each of which asks the declared type of ``i``."""
    site = site_of("import javax.crypto.Cipher;\nclass A {"
                   " void m() throws Exception { int i = 0; "
                   + "i++; " * updates
                   + 'Cipher.getInstance("AES" + i); } }\n')
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def on_call(frame, event, arg):
        if "jcascan" not in frame.f_code.co_filename:
            return None
        frame.f_trace_opcodes = True
        return local

    tracer = sys.gettrace()
    sys.settrace(on_call)
    try:
        resolved = resolve_site(site)
    finally:
        sys.settrace(tracer)
    assert resolved.candidates == {f"AES{updates}"}
    return count


def test_declared_types_grow_linearly():
    """Each update reads the method's one declared-type table; walking
    the method's prefix per update grows quadratically (~16x)."""
    small = _update_bytecodes(100)
    large = _update_bytecodes(400)
    assert large <= 5 * small, (small, large)


def _member_src(argument: str, outer: str = "", members: str = "") -> str:
    return ('import javax.crypto.Cipher;\n'
            f'class A {{ {members}\n'
            '  void m(boolean c) throws Exception {\n'
            f'    Cipher.getInstance({argument}); }} }}\n{outer}')


class TestMemberAndArrayRules:
    """The set-valued resolver's own member and array rules: a ternary in
    the argument, or in a field's initializer, keeps the interpreter from
    giving the value, so these read the resolver's rules alone."""

    @pytest.mark.parametrize("argument, outer, members, label", [
        ('Config.ALG + (c ? "/CBC/PKCS5Padding" : "")',
         'class Config { static final String ALG = "DES"; }', "", "STATIC"),
        ('this.alg + (c ? "/CBC/PKCS5Padding" : "")', "",
         'final String alg = "DES";', "THIS"),
    ], ids=["static", "this"])
    def test_field_initializer(self, argument, outer, members, label):
        _, resolved, labels, findings = pipeline(
            _member_src(argument, outer, members))
        assert resolved.candidates == {"DES", "DES/CBC/PKCS5Padding"}
        assert not resolved.residuals
        assert labels.labels == {"CONCT", label, "TEROP"}
        assert [f.rule_id for f in findings] == ["R1", "R1", "R5"]

    def test_enum_constant_payload(self):
        _, resolved, labels, _ = pipeline(_member_src(
            'E.X.alg + (c ? "/CBC" : "")',
            'enum E { X("DES"); final String alg;'
            ' E(String a) { this.alg = a; } }'))
        assert resolved.candidates == {"DES", "DES/CBC"}
        assert not resolved.residuals
        assert "ENUM" in labels.labels

    def test_array_initializer(self):
        r = resolve_site(site_of(_member_src(
            "new String(new char[]{'D','E','S'}) + (c ? \"/CBC\" : \"\")")))
        assert r.candidates == {"DES", "DES/CBC"}
        assert not r.residuals

    def test_static_field_with_a_ternary_initializer(self):
        _, resolved, labels, findings = pipeline(_member_src(
            "Config2.ALG",
            "class Config2 { static final boolean F = true;"
            ' static final String ALG = F ? "DES" : "AES"; }'))
        assert resolved.candidates == {"AES", "DES"}
        assert not resolved.residuals
        assert labels.labels == {"STATIC"}
        assert [f.rule_id for f in findings] == ["R4", "R1"]


ENUM_CALL_SRC = """import javax.crypto.Cipher;
enum E { X("DES"), Y("AES"); final String a; E(String a) { this.a = a; }
  String alg() { return a + "/ECB/NoPadding"; } native String nat();
  String with(String s) { return a + s; }
  String prop() { return System.getProperty("k"); } }
class A { void m(boolean c, String p) throws Exception {
  String t = %s;
  Cipher.getInstance(t); } }
"""


class TestLiftedOperations:
    """An operation over candidate sets runs the interpreter's closure of
    it once per combination of its operands' values, so it gives what the
    interpreter gives when the operands are constants."""

    def test_an_array_element_over_a_ternary_gives_each_array(self):
        # Java builds "DES" or "AES".
        r = resolve_site(site_of(_member_src(
            "new String(new char[]{c ? 'D' : 'A', 'E', 'S'})")))
        assert r.candidates == {"DES", "AES"}
        assert not r.residuals

    def test_an_argument_keeps_its_marker_on_a_receiver_without_value(self):
        _, resolved, _, findings = pipeline(_member_src(
            "o.m(n(1))", members="Object o; native String n(int i);"))
        assert resolved.candidates == set()
        assert resolved.residuals == {UNKNOWN, NATIVE}
        assert [f.rule_id for f in findings] == ["R8"]

    def test_a_method_an_enum_constant_runs_is_noted(self):
        # The call is in the local's definition, not in the argument, so
        # only the trace shows it.
        _, resolved, labels, _ = pipeline(
            ENUM_CALL_SRC % "(c ? E.X : E.Y).alg()")
        assert resolved.candidates == {"DES/ECB/NoPadding",
                                       "AES/ECB/NoPadding"}
        assert not resolved.residuals
        assert "METHOD" in labels.labels

    def test_an_enum_constant_by_its_bare_name(self):
        # As under ``import static E.*``: the name is no local or field.
        _, resolved, labels, _ = pipeline(_member_src(
            'X.alg + (c ? "/CBC" : "")',
            'enum E { X("DES"); final String alg;'
            ' E(String a) { this.alg = a; } }'))
        assert resolved.candidates == {"DES", "DES/CBC"}
        assert not resolved.residuals
        assert "ENUM" in labels.labels

    def test_an_enum_constant_method_with_an_open_argument_returns(self):
        # Not run concretely: the union of its return expressions.
        _, resolved, labels, _ = pipeline(ENUM_CALL_SRC % "E.X.with(p)")
        assert resolved.candidates == set()
        assert resolved.residuals == {EXTERNAL_INPUT, UNKNOWN}
        assert "METHOD" in labels.labels
        assert "method-returns" in [s.rule for s in resolved.trace]

    def test_an_enum_constant_method_reading_a_property(self):
        _, resolved, labels, _ = pipeline(ENUM_CALL_SRC % "E.X.prop()")
        assert resolved.candidates == set()
        assert resolved.residuals == {EXTERNAL_INPUT}
        assert "METHOD" in labels.labels

    def test_a_native_method_of_an_enum_constant_is_marked(self):
        _, resolved, labels, findings = pipeline(ENUM_CALL_SRC % "E.X.nat()")
        assert resolved.candidates == set()
        assert resolved.residuals == {NATIVE}
        assert "NATIVE" in labels.labels
        assert [f.rule_id for f in findings] == ["R8"]


NESTED_SRC = """import javax.crypto.Cipher;
class Outer {
    static final String ALG = "DES";
    static String k() { return "AES"; }
    static class Inner {
        void m() throws Exception {
            Cipher.getInstance(k());
            Cipher.getInstance(ALG);
        }
    }
}
"""

THIS_WRITE_SRC = """import javax.crypto.Cipher;
class F {
    String k = "AES/GCM/NoPadding";
    void m() throws Exception {
        this.k = "DES";
        Cipher.getInstance(this.k);
    }
}
"""


class TestClassState:
    """Members a site's class reads from outside its own body, and what
    the statements before the site write to them; the values are those
    ``java`` prints for the same code."""

    @pytest.mark.parametrize("index, value, rule", [
        (0, "AES", "R4"), (1, "DES", "R1")], ids=["method", "field"])
    def test_nested_class_reads_its_enclosing_class(self, index, value,
                                                    rule):
        site = sites_of(NESTED_SRC)[index]
        resolved = resolve_site(site)
        assert resolved.candidates == {value}
        assert not resolved.residuals
        labels = classify(site, resolved)
        assert [f.rule_id for f in check_site(site, resolved, labels)] \
            == [rule]

    def test_a_this_write_before_the_site_reaches_it(self):
        _, resolved, _, findings = pipeline(THIS_WRITE_SRC)
        assert resolved.candidates == {"DES"}
        assert not resolved.residuals
        assert [f.rule_id for f in findings] == ["R1"]


class TestTrace:
    def test_trace_names_rules(self):
        r = resolve_src(STRINGBUFFER_SRC)
        rules = {step.rule for step in r.trace}
        assert rules  # at least one named rule
        assert all(isinstance(step.rule, str) and step.rule
                   for step in r.trace)

    def test_base64_trace_step(self):
        r = resolve_src(BASE64_SRC)
        assert any(step.rule == "base64-decode" for step in r.trace)

    def test_a_decode_over_candidates_is_one_trace_step(self):
        # Each combination decodes, and the step is kept once.
        r = resolve_site(site_of(_method(
            "boolean f", 'new String(Base64.decode(f ? "REVT" : "QUVT", 0))')))
        assert r.candidates == {"DES", "AES"}
        assert [s.rule for s in r.trace].count("base64-decode") == 1
