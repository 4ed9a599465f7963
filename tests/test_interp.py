"""The concrete interpreter, tick for tick.

``interp_golden.json`` holds, for every restrictive site in the conftest
snippets, the bench corpus (seed 0) and the hand-written decoders of
``interp_snippets.py``, what the resolver produced before the interpreter
was compiled into closures: the step count ``_Ctx.steps`` after
``_Abstract.resolve``, the candidates, residuals and raw values, and the
trace rule names. Each site is recorded under the default budget and under
two budgets that run out part way, at half and a fifth of its step count,
so a tick moved anywhere in an evaluation changes a record. Regenerate it
only from an interpreter whose records are to be trusted:
``PYTHONPATH=src python tests/test_interp.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import conftest
import interp_snippets
from jcascan import bench
from jcascan.ingest import RESTRICTIVE, extract_sites
from jcascan.javaparse import parse_unit
from jcascan.report import analyze_site
from jcascan.resolve import (ResolutionBudget, _Abstract, _BudgetExhausted,
                             _Ctx, resolve_site)
from jcascan.syntax import decl_name

GOLDEN = Path(__file__).with_name("interp_golden.json")


def _sources() -> list[tuple[str, str]]:
    """(path, source) of every file the golden records cover."""
    out = [(f"conftest/{name}", text)
           for name, text in sorted(vars(conftest).items())
           if name.endswith("_SRC") and isinstance(text, str)]
    out += [(f"snippets/{name}", text)
            for name, text in interp_snippets.SNIPPETS.items()]
    out += [(f"bench/{variant.file}", variant.source)
            for case in bench.build_cases(0) for variant in case.variants]
    return out


def _record(key: str, site, budget: ResolutionBudget) -> dict:
    ctx = _Ctx(budget)
    try:
        _Abstract(ctx, site.unit, site).resolve(site.subtree.children[0])
    except _BudgetExhausted:
        pass
    resolved = resolve_site(site, budget)
    return {"site": key, "max_steps": budget.max_steps, "steps": ctx.steps,
            "candidates": sorted(resolved.candidates),
            "residuals": sorted(resolved.residuals),
            "raw": sorted(map(repr, resolved.raw_candidates)),
            "trace": " ".join(step.rule for step in resolved.trace)}


def records() -> list[dict]:
    out = []
    for path, text in _sources():
        for site in extract_sites(parse_unit(path, text)):
            if site.api.category != RESTRICTIVE \
                    or not site.subtree.children:
                continue
            key = f"{path}:{site.offset}"
            full = _record(key, site, ResolutionBudget())
            out.append(full)
            for part in (2, 5):
                out.append(_record(key, site, ResolutionBudget(
                    max_steps=max(1, full["steps"] // part))))
    return out


def test_golden_records_cover_every_shape():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    sites = {r["site"] for r in golden}
    assert len(sites) * 3 == len(golden)
    assert {r["site"].split("/")[0] for r in golden} \
        == {"conftest", "snippets", "bench"}
    traces = " ".join(r["trace"] for r in golden).split()
    assert {"base64-decode", "enum-constant", "concrete-eval",
            "method-body"} <= set(traces)
    exhausted = [r for r in golden if r["max_steps"] == 10_000
                 and r["steps"] == 10_001]
    assert len(exhausted) >= 2


def test_interpreter_matches_golden_records():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    current = records()
    assert [r["site"] for r in current] == [r["site"] for r in golden]
    for now, then in zip(current, golden):
        assert now == then, now["site"]


def _steps_and_result(source: str):
    """Step count after `_Abstract.resolve` and the resolved value of the
    last site in ``source``, under the default budget."""
    unit = parse_unit("Chain.java", source)
    site = extract_sites(unit)[-1]
    ctx = _Ctx(ResolutionBudget())
    try:
        _Abstract(ctx, unit, site).resolve(site.subtree.children[0])
    except _BudgetExhausted:
        pass
    return ctx.steps, resolve_site(site)


def _static_else_if(branches: int) -> str:
    chain = " else ".join(f'if (k == "c{i}") x = "RC4";'
                          for i in range(branches))
    return ("import javax.crypto.Cipher;\nclass Chain {\n"
            '    static String k = "AES";\n'
            "    void m() throws Exception {\n"
            f'        String x = "DES";\n        {chain}\n'
            "        Cipher.getInstance(x);\n    }\n}\n")


@pytest.mark.parametrize("branches,steps,candidates,residuals", [
    # Five steps per link (the link, its test, both operands and the
    # static field's initializer): the chain runs in full.
    (1500, 7504, {"DES"}, set()),
    # Over the 10,000-step budget: exhausted by steps, not by the stack.
    (2000, 10_001, set(), {"DEPTH_EXCEEDED"}),
])
def test_else_if_chain_runs_in_one_frame(branches, steps, candidates,
                                         residuals):
    """An ``else if`` chain costs no Python frame per link, so how far it
    runs depends on the step budget alone."""
    got_steps, resolved = _steps_and_result(_static_else_if(branches))
    assert got_steps == steps
    assert resolved.candidates == candidates
    assert resolved.residuals == residuals


def _sixteen(var: str, prefix: str) -> str:
    """A ternary chain over ``var`` with 16 string branches."""
    return " : ".join(f'{var} == {i} ? "{prefix}{i}"' for i in range(15)) \
        + f' : "{prefix}15"'


LIFT_SRC = ("import javax.crypto.Cipher;\n"
            'enum E { X("DES"), Y("AES"); final String a;'
            " E(String a) { this.a = a; }\n"
            '  String alg() { return a + "/ECB"; } }\n'
            "class Wide { void m(int c, int d) throws Exception {\n"
            f"  String a = {_sixteen('c', 'A')};\n"
            f"  String b = {_sixteen('d', 'B')};\n"
            "  Cipher.getInstance(%s); } }\n")


@pytest.mark.parametrize("argument,steps,count,residuals", [
    # 16 x 16 combinations, one closure run each, capped at 16 values.
    ("a + b", 166, 16, {"DEPTH_EXCEEDED"}),
    # Each constant runs the method body concretely, as a call of the
    # unit's method does.
    ("(c == 0 ? E.X : E.Y).alg()", 24, 2, set()),
])
def test_a_lift_costs_the_steps_of_its_nodes_not_of_its_combinations(
        argument, steps, count, residuals):
    """An operation over candidate sets is counted once per node reached,
    as when it resolved each node by a rule of its own; running its
    closure once per combination costs no step."""
    got_steps, resolved = _steps_and_result(LIFT_SRC % argument)
    assert got_steps == steps
    assert len(resolved.candidates) == count
    assert resolved.residuals == residuals


@pytest.mark.parametrize("loop,value", [
    ("do { n++; } while (++i < 4);", "AES4"),
    ("do { n++; if (n == 2) continue; } while (++i < 4);", "AES4"),
    ("while (++i < 4) { n++; }", "AES3"),
])
def test_loop_condition_runs_once_per_iteration(loop, value):
    """A loop condition with a side effect runs it once per test, as in
    Java; a ``do`` loop tests only after each run of its body."""
    source = ("import javax.crypto.Cipher;\nclass Loop {\n"
              "    void m() throws Exception {\n"
              f"        int i = 0; int n = 0; {loop}\n"
              '        Cipher.getInstance("AES" + n);\n    }\n}\n')
    _, resolved = _steps_and_result(source)
    assert resolved.candidates == {value}
    assert resolved.residuals == set()


@pytest.mark.parametrize("statements,value", [
    ("int k = i++; n = k + i;", "AES1"),
    ("do { n++; } while (i++ < 3);", "AES4"),
])
def test_postfix_update_yields_the_old_value(statements, value):
    """``i++`` and ``i--`` yield the value before the update, ``++i`` and
    ``--i`` the value after it."""
    source = ("import javax.crypto.Cipher;\nclass Loop {\n"
              "    void m() throws Exception {\n"
              f"        int i = 0; int n = 0; {statements}\n"
              '        Cipher.getInstance("AES" + n);\n    }\n}\n')
    _, resolved = _steps_and_result(source)
    assert resolved.candidates == {value}
    assert resolved.residuals == set()


@pytest.mark.parametrize("statements,candidates,residuals", [
    ('String s = f(5);', set(), {"UNKNOWN"}),
    ('String s = "AES"; try { a[2]++; s = "RC4"; }'
     ' catch (Exception e) { s = s + "/ECB"; }', {"AES/ECB"}, set()),
])
def test_element_write_past_the_end_throws(statements, candidates,
                                           residuals):
    """Writing past an array's end throws, as in Java: a helper that does
    so returns nothing, and a ``catch`` clause runs."""
    source = ("import javax.crypto.Cipher;\nclass Oob {\n"
              "    String f(int i) {\n"
              "        int[] a = new int[2]; a[i] = 1; return \"AES\" + a[0];"
              "\n    }\n"
              "    void m() throws Exception {\n"
              f"        int[] a = new int[2]; {statements}\n"
              "        Cipher.getInstance(s);\n    }\n}\n")
    _, resolved = _steps_and_result(source)
    assert resolved.candidates == candidates
    assert resolved.residuals == residuals


def _under_frames(depth: int, fn):
    """``fn()`` called with ``depth`` more frames on the stack."""
    return fn() if depth == 0 else _under_frames(depth - 1, fn)


@pytest.mark.parametrize("extra_frames", [0, 300, 600])
def test_long_concatenation_resolves_at_any_stack_depth(extra_frames):
    """A left-deep chain of 400 concatenations is evaluated as a fold, so
    its value does not depend on how deep the caller's stack is."""
    source = ("import javax.crypto.Cipher;\nclass Chain {\n"
              "    void m() throws Exception {\n"
              "        Cipher.getInstance(" + " + ".join(['"a"'] * 400)
              + ");\n    }\n}\n")
    site = extract_sites(parse_unit("Chain.java", source))[0]
    analysis = _under_frames(extra_frames, lambda: analyze_site(site))
    assert analysis.candidates == ["a" * 400]
    assert analysis.residuals == []


@pytest.mark.parametrize("extra_frames", [0, 300, 600])
@pytest.mark.parametrize("start,candidates,residuals", [
    ('"b"', ["b" + "a" * 399], []),
    ("p", [], ["EXTERNAL_INPUT"]),
])
def test_long_receiver_chain_resolves_at_any_stack_depth(
        extra_frames, start, candidates, residuals):
    """A receiver chain of 401 calls runs in one frame, concretely and
    abstractly, so its value does not depend on how deep the caller's
    stack is."""
    source = ("import javax.crypto.Cipher;\nclass Chain {\n"
              "    void m(String p) throws Exception {\n"
              f"        Cipher.getInstance(new StringBuilder({start})"
              + '.append("a")' * 399 + ".toString());\n    }\n}\n")
    site = extract_sites(parse_unit("Chain.java", source))[0]
    analysis = _under_frames(extra_frames, lambda: analyze_site(site))
    assert analysis.candidates == candidates
    assert analysis.residuals == residuals


@pytest.mark.parametrize("extra_frames", [0, 300, 600])
def test_long_ternary_chain_resolves_at_any_stack_depth(extra_frames):
    """A chain of 1000 ternaries ``c ? v0 : c ? v1 : …`` is resolved in one
    frame; its 1001 candidates are capped innermost first, which keeps the
    16 least."""
    values = [f"v{i:04d}" for i in range(1001)]
    chain = "".join(f'c ? "{v}" : ' for v in values[:-1]) + f'"{values[-1]}"'
    source = ("import javax.crypto.Cipher;\nclass Chain {\n"
              "    void m(boolean c) throws Exception {\n"
              f"        Cipher.getInstance({chain});\n    }}\n}}\n")
    site = extract_sites(parse_unit("Chain.java", source))[0]
    analysis = _under_frames(extra_frames, lambda: analyze_site(site))
    assert analysis.candidates == values[:16]
    assert analysis.residuals == ["DEPTH_EXCEEDED"]


@pytest.mark.parametrize("extra_frames", [0, 300, 600])
def test_long_assignment_chain_runs_at_any_stack_depth(extra_frames):
    """A chain of 1000 assignments ``a0 = a1 = … = "DES"`` runs in one
    frame, so the site keeps its value and its R1 finding."""
    names = [f"a{i}" for i in range(1000)]
    source = ("import javax.crypto.Cipher;\nclass Chain {\n"
              "    void m() throws Exception {\n"
              f"        String {', '.join(names)};\n"
              f"        {' = '.join(names)} = \"DES\";\n"
              "        Cipher.getInstance(a0);\n    }\n}\n")
    site = extract_sites(parse_unit("Chain.java", source))[0]
    analysis = _under_frames(extra_frames, lambda: analyze_site(site))
    assert analysis.candidates == ["DES"]
    assert analysis.residuals == []
    assert [f.rule_id for f in analysis.findings] == ["R1"]


@pytest.mark.parametrize("statements,candidates", [
    ('String s; s = new StringBuilder("DE").append("S").toString();',
     ["DES"]),
    ('String s; String t = " des "; s = t.trim().toUpperCase();', ["DES"]),
    ('String s, r; s = r = new StringBuilder("DE").append("S")'
     '.toString();', ["DES"]),
    ('StringBuilder b = new StringBuilder("DE"); String s;'
     ' s = (b = b.append("S")).toString().trim();', ["DES"]),
])
def test_assignment_and_call_chains_nest(statements, candidates):
    """An assignment whose right-hand side is a call chain, and a call chain
    whose receiver is an assignment, each run as their own links."""
    source = ("import javax.crypto.Cipher;\nclass Nest {\n"
              "    void m() throws Exception {\n"
              f"        {statements}\n"
              "        Cipher.getInstance(s);\n    }\n}\n")
    analysis = analyze_site(extract_sites(parse_unit("Nest.java",
                                                     source))[0])
    assert analysis.candidates == candidates
    assert analysis.residuals == []
    assert [f.rule_id for f in analysis.findings] == ["R1"]


@pytest.mark.parametrize("snippet,method,value", [
    ("Loops.java", "infiniteFor", "AES5"),
    ("Exceptions.java", "breakInTry", "RC40-1-2--"),
])
def test_snippet_sites_give_java_17_values(snippet, method, value):
    """java 17 prints ``value`` at the site of ``method``: a ``for (;;)``
    loop runs as ``while (true)`` does, and ``finally`` runs on a
    ``break``."""
    unit = parse_unit(snippet, interp_snippets.SNIPPETS[snippet])
    (site,) = [s for s in extract_sites(unit)
               if s.method is not None and decl_name(s.method) == method]
    resolved = resolve_site(site)
    assert resolved.candidates == {value}
    assert not resolved.residuals


@pytest.mark.parametrize("path,text", [
    pair for pair in _sources() if pair[0].startswith("snippets/")])
def test_snippets_parse_cleanly(path, text):
    unit = parse_unit(path, text)
    assert not unit.warnings
    assert any(s.api.category == RESTRICTIVE for s in extract_sites(unit))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(records(), indent=0, ensure_ascii=True)
                      + "\n", encoding="utf-8")
