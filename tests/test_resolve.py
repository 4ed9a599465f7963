"""String-value resolution: oracle fixtures, residuals, budgets,
and soundness against an independent brute-force evaluator."""

from __future__ import annotations

import string

import pytest
from hypothesis import given, settings, strategies as st

from jcascan.javaparse import parse_unit
from jcascan.ingest import extract_sites
from jcascan.resolve import (DEPTH_EXCEEDED, EXTERNAL_INPUT, NATIVE,
                             NETWORK, UNKNOWN, ResolutionBudget,
                             has_encrypted_param_pattern, resolve_site,
                             visible_literals)

from conftest import (BASE64_SRC, BYTE_LOOP_SRC, CHARAT_SRC,
                      ENCRYPTED_PARAM_SRC, ENUM_SRC, KEY_BASE64_SRC,
                      KEY_LITERAL_SRC, NATIVE_SRC, NESTED_TERNARY_SRC,
                      REPLACE_SRC, STRINGBUFFER_SRC, STRINGBUILDER_SRC,
                      TERNARY_SRC, XOR_SRC, site_of)


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
