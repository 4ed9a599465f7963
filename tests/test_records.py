"""The record classes of the scan path: constructor order, keywords and
defaults, field-wise equality and hashing, the ``repr`` of the values the
resolver orders by it, and a ``pickle`` round trip for what a forked worker
sends back."""

from __future__ import annotations

import ast
import importlib
import pickle
import pkgutil
from pathlib import Path

import pytest

import jcascan
from jcascan.classify import ArgumentSignature, LabelSet
from jcascan.complexity import SamplePlan, Stratum
from jcascan.ingest import ApiKind, CustomApi, InvocationSite
from jcascan.interp import TraceStep
from jcascan.javamodel import Char, CharArray, EnumConst, SBuf
from jcascan.javaparse import Token
from jcascan.report import SiteAnalysis
from jcascan.resolve import ResolutionBudget, ResolvedValue, _VS
from jcascan.rules import MisuseFinding, Transformation
from jcascan.syntax import (MemberFacts, ParseWarning, Record, SourceUnit,
                            SyntaxNode, unit_index)

NODE = SyntaxNode("identifier", 0, 1, value="a", source="a")
API = ApiKind("RESTRICTIVE_CIPHER_GETINSTANCE", "restrictive")
SITE = InvocationSite("A.java:3", API, "A.java", 3, None,
                      receiver_text="Cipher", start_line=2, end_line=2)
FINDING = MisuseFinding("A.java:3", "R1", "error", "broken cipher",
                        effective_value="DES", evidence=["DES"])

# (class, positional arguments in constructor order, defaults of the
# fields left out, a field and a value that make an unequal record,
# slotted, hashable)
RECORDS = [
    (Token, ("ident", "x", 0, 1), {"value": None}, ("end", 2), True, False),
    (SyntaxNode, ("identifier", 0, 1),
     {"children": [], "value": None, "source": ""}, ("kind", "x"),
     True, False),
    (ParseWarning, ("A.java", 0, "PARSE_FAILED"), {}, ("offset", 1),
     True, False),
    (SourceUnit, ("A.java", "a", NODE), {"warnings": []}, ("text", "b"),
     False, False),
    (ApiKind, ("X", "restrictive"), {}, ("category", "flexible"),
     False, True),
    (CustomApi, (API,), {"receiver": None, "method": None, "arity": None},
     ("arity", 2), False, True),
    (InvocationSite, ("A.java:3", API, "A.java", 3, None),
     {"unit": None, "node": None, "type_body": None, "method": None,
      "receiver_text": "", "start_line": 0, "end_line": 0},
     ("offset", 4), True, False),
    (TraceStep, ("local-def", (0, 1)), {"intermediate": ""},
     ("span", (0, 2)), False, True),
    (Char, (65,), {}, ("cp", 66), True, True),
    (CharArray, ("AES",), {}, ("text", "DES"), False, True),
    (SBuf, ("AES",), {}, ("text", "DES"), False, True),
    (EnumConst, ("Mode", "ECB"), {"fields": ()}, ("const_name", "CBC"),
     False, True),
    (ResolutionBudget, (),
     {"max_indirection": 2, "max_candidates": 16, "max_steps": 10_000,
      "max_call_depth": 8}, ("max_steps", 5), False, True),
    (ResolvedValue, ({"AES"}, set()),
     {"trace": [], "raw_candidates": set(), "touched_literals": set()},
     ("residuals", {"UNKNOWN"}), False, False),
    (_VS, ({"AES"}, set()), {}, ("values", {"DES"}), False, False),
    (LabelSet, ({"CONSTANT"}, "restrictive"), {}, ("category", "flexible"),
     False, False),
    (ArgumentSignature, ((("identifier", 1),),), {},
     ("histogram", ()), False, True),
    (MisuseFinding, ("A.java:3", "R1", "error", "m"),
     {"effective_value": None, "evidence": [], "evasive": False},
     ("evasive", True), True, False),
    (Transformation, ("AES", "CBC", "PKCS5Padding"), {}, ("padding", None),
     False, True),
    (SiteAnalysis, (SITE, 3, 0.477121, ["CONSTANT"], {"string_literal": 1},
                    ["DES"], [], [FINDING]), {}, ("d", 4), True, False),
    (Stratum, (1, 3), {"sample_size": 0, "member_ids": []},
     ("population", 4), False, False),
    (SamplePlan, (0.95, 0.05, 1, [Stratum(1, 3)], ["A.java:3"]), {},
     ("seed", 2), False, False),
    (MemberFacts, ((NODE,), {"a": ("static",)}, {"a": (NODE, NODE)},
                   {("f", 0): NODE}), {}, ("fields", ()), False, False),
]

# Constructor parameter names, in order.
FIELDS = {
    Token: ("kind", "text", "start", "end", "value"),
    SyntaxNode: ("kind", "start", "end", "children", "value", "source"),
    ParseWarning: ("path", "offset", "message"),
    SourceUnit: ("path", "text", "root", "warnings"),
    ApiKind: ("name", "category"),
    CustomApi: ("kind", "receiver", "method", "arity"),
    InvocationSite: ("id", "api", "path", "offset", "subtree", "unit",
                     "node", "type_body", "method", "receiver_text",
                     "start_line", "end_line"),
    TraceStep: ("rule", "span", "intermediate"),
    Char: ("cp",),
    CharArray: ("text",),
    SBuf: ("text",),
    EnumConst: ("enum_name", "const_name", "fields"),
    ResolutionBudget: ("max_indirection", "max_candidates", "max_steps",
                       "max_call_depth"),
    ResolvedValue: ("candidates", "residuals", "trace", "raw_candidates",
                    "touched_literals"),
    _VS: ("values", "residuals"),
    LabelSet: ("labels", "category"),
    ArgumentSignature: ("histogram",),
    MisuseFinding: ("site_id", "rule_id", "severity", "message",
                    "effective_value", "evidence", "evasive"),
    Transformation: ("algorithm", "mode", "padding"),
    SiteAnalysis: ("site", "d", "score", "labels", "signature",
                   "candidates", "residuals", "findings"),
    Stratum: ("key", "population", "sample_size", "member_ids"),
    SamplePlan: ("confidence", "margin", "seed", "strata", "selected_ids"),
    MemberFacts: ("fields", "field_modifiers", "declarators", "methods"),
}


def _ids(record) -> str:
    return record[0].__name__


def test_every_record_is_listed():
    assert [r[0] for r in RECORDS] == list(FIELDS)


def test_every_record_subclass_is_pinned():
    """A new `Record` subclass anywhere in the package joins the pins."""
    for module in pkgutil.iter_modules(jcascan.__path__):
        importlib.import_module(f"jcascan.{module.name}")
    subclasses, todo = set(), [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            subclasses.add(cls)
            todo.append(cls)
    assert subclasses == set(FIELDS)


def test_only_the_record_base_defines_equality():
    """Outside `bench`, which keeps its dataclasses, no class writes its
    own field-wise ``__eq__``, ``__hash__`` or ``_values``."""
    copies = []
    for path in sorted(Path(jcascan.__file__).parent.glob("*.py")):
        if path.name == "bench.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or cls.name == "Record":
                continue
            for item in cls.body:
                if isinstance(item, ast.FunctionDef):
                    names = [item.name]
                elif isinstance(item, ast.Assign):
                    names = [t.id for t in item.targets
                             if isinstance(t, ast.Name)]
                else:
                    continue
                copies += [f"{path.name}:{cls.name}.{name}" for name in names
                           if name in ("__eq__", "__hash__", "_values")]
    assert copies == []


@pytest.mark.parametrize("record", RECORDS, ids=_ids)
def test_constructor_order_keywords_and_defaults(record):
    cls, args, defaults, _, slotted, _ = record
    names = FIELDS[cls]
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    for obj in (by_position, by_keyword):
        for name, value in zip(names, args):
            assert getattr(obj, name) is value
        for name, value in defaults.items():
            assert getattr(obj, name) == value
            assert type(getattr(obj, name)) is type(value)
    assert set(names) == set(names[:len(args)]) | set(defaults)
    # A mutable default is made per instance, never shared.
    for name, value in defaults.items():
        if isinstance(value, (list, set)):
            assert getattr(by_position, name) is not getattr(by_keyword,
                                                              name)
    with pytest.raises(TypeError):
        cls(*args, *defaults.values(), None)
    assert hasattr(by_position, "__dict__") is not slotted


@pytest.mark.parametrize("record", RECORDS, ids=_ids)
def test_equality_and_hash_are_field_wise(record):
    cls, args, _, (name, other), _, hashable = record
    names = FIELDS[cls]
    a = cls(*args)
    b = cls(**dict(zip(names, args)))
    c = cls(**{**dict(zip(names, args)), name: other})
    assert a == b and not a != b
    assert a != c and not a == c
    assert a != object() and not a == object()
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b, c}) == 2
    else:
        assert cls.__hash__ is None


@pytest.mark.parametrize("record", [r for r in RECORDS if r[5]], ids=_ids)
def test_hash_is_the_field_tuple_hash(record):
    """Set order over hashed values stays what it was."""
    cls, args = record[:2]
    obj = cls(*args)
    assert hash(obj) == hash(tuple(getattr(obj, n) for n in FIELDS[cls]))


def test_member_facts_compare_by_field():
    a = MemberFacts((NODE,), {"a": ("static",)}, {}, {})
    assert a == MemberFacts((NODE,), {"a": ("static",)}, {}, {})
    assert a != MemberFacts((), {"a": ("static",)}, {}, {})
    assert a != MemberFacts((NODE,), {"a": ("static",)}, {}, {("f", 0): NODE})
    with pytest.raises(TypeError):
        hash(a)
    assert MemberFacts.of([]) == MemberFacts((), {}, {}, {})


def test_unit_equality_ignores_its_index():
    a = SourceUnit("A.java", "a", NODE)
    b = SourceUnit("A.java", "a", NODE)
    assert a._index is None
    unit_index(a)
    assert a._index is not None and a == b


def test_budget_defaults_are_class_attributes_and_checked():
    """`jcascan scan` reads its option defaults from the class."""
    assert (ResolutionBudget.max_indirection, ResolutionBudget.max_candidates,
            ResolutionBudget.max_steps, ResolutionBudget.max_call_depth) \
        == (2, 16, 10_000, 8)
    for name in FIELDS[ResolutionBudget]:
        with pytest.raises(ValueError):
            ResolutionBudget(**{name: 0})


@pytest.mark.parametrize("value, text", [
    (Char(65), "Char(cp=65)"),
    (CharArray("AES"), "CharArray(text='AES')"),
    (SBuf("A'S"), "SBuf(text=\"A'S\")"),
    (EnumConst("Mode", "ECB", (("bits", 128),)),
     "EnumConst(enum_name='Mode', const_name='ECB', "
     "fields=(('bits', 128),))"),
])
def test_value_repr(value, text):
    """The resolver orders candidates by ``repr`` after their preview."""
    assert repr(value) == text


def test_api_kind_prints_its_name():
    assert str(API) == "RESTRICTIVE_CIPHER_GETINSTANCE"


def test_detached_site_keeps_everything_but_the_tree():
    site = InvocationSite("A.java:3", API, "A.java", 3, NODE,
                          unit=SourceUnit("A.java", "a", NODE), node=NODE,
                          type_body=NODE, method=NODE,
                          receiver_text="Cipher", start_line=2, end_line=3)
    copy = site.detached()
    assert copy is not site
    assert [getattr(copy, n) for n in FIELDS[InvocationSite]] \
        == ["A.java:3", API, "A.java", 3, None, None, None, None, None,
            "Cipher", 2, 3]
    assert site.subtree is NODE and site.unit is not None


@pytest.mark.parametrize("value", [
    SiteAnalysis(SITE, 3, 0.477121, ["CONSTANT"], {"string_literal": 1},
                 ["DES"], ["UNKNOWN"], [FINDING]),
    SITE, API, FINDING, ParseWarning("A.java", 0, "PARSE_FAILED"),
], ids=lambda v: type(v).__name__)
def test_worker_results_survive_pickle(value):
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(value, protocol))
        assert type(copy) is type(value) and copy == value
