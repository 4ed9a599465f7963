"""Named-node syntax trees for Java source.

The trees produced here contain only *named* nodes: every node corresponds
to a grammar construct (class_declaration, method_invocation, string_literal,
...). Punctuation, keywords, and other anonymous tokens are consumed during
parsing and never appear as nodes.

Node kind names follow the tree-sitter-java convention (snake_case) so that
argument signatures such as ``{'identifier': 3, 'ternary_expression': 1}``
read naturally.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

# Kinds that must never appear in a tree. Used by property tests to check
# the named-node discipline.
ANONYMOUS_KINDS = frozenset(
    {",", ";", "(", ")", "{", "}", "[", "]", ".", "+", "-", "?", ":",
     "if", "else", "for", "while", "return", "new", "class", "=",
     "comment", "whitespace"}
)

# Leaf kinds that carry a value rather than children.
LITERAL_KINDS = frozenset(
    {"string_literal", "character_literal", "decimal_integer_literal",
     "hex_integer_literal", "decimal_floating_point_literal",
     "true", "false", "null_literal"}
)

TYPE_DECLARATION_KINDS = ("class_declaration", "interface_declaration",
                          "enum_declaration")
METHOD_KINDS = ("method_declaration", "constructor_declaration")


@dataclass
class SyntaxNode:
    """One named node: a kind, a source span, and ordered named children."""

    kind: str
    start: int
    end: int
    children: list["SyntaxNode"] = field(default_factory=list)
    # Decoded value for literal leaves (unescaped string, int, ...).
    value: object = None
    # Back-reference to the full source text for .text slicing.
    source: str = ""

    @property
    def text(self) -> str:
        return self.source[self.start:self.end]

    def walk(self) -> Iterator["SyntaxNode"]:
        """Pre-order traversal including self."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def descendants(self) -> Iterator["SyntaxNode"]:
        for child in self.children:
            yield from child.walk()

    def find_all(self, kind: str) -> list["SyntaxNode"]:
        return [n for n in self.walk() if n.kind == kind]

    def named_node_count(self) -> int:
        """Number of named nodes strictly inside this node."""
        return sum(1 for _ in self.descendants())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SyntaxNode({self.kind}, {self.start}:{self.end})"


@dataclass
class ParseWarning:
    """A non-fatal parse problem, recorded per node or per file."""

    path: str
    offset: int
    message: str


@dataclass
class SourceUnit:
    """A parsed Java file: path, text, and the normalized named-node tree."""

    path: str
    text: str
    root: SyntaxNode
    warnings: list[ParseWarning] = field(default_factory=list)

    @property
    def parse_failed(self) -> bool:
        return self.root.kind == "parse_failed"


def node_at(root: SyntaxNode, start: int, end: int) -> SyntaxNode | None:
    """Locate the smallest node covering [start, end), if any."""
    best: SyntaxNode | None = None
    node = root
    while True:
        if node.start <= start and end <= node.end:
            best = node
            for child in node.children:
                if child.start <= start and end <= child.end:
                    node = child
                    break
            else:
                return best
        else:
            return best


def string_literals(node: SyntaxNode) -> set[str]:
    """Decoded values of all string literals within ``node`` (inclusive)."""
    return {n.value for n in node.walk()
            if n.kind == "string_literal" and isinstance(n.value, str)}


# -- declaration parts ---------------------------------------------------

def child_of_kind(node: SyntaxNode, *kinds: str) -> SyntaxNode | None:
    """The first direct child whose kind is one of ``kinds``."""
    return next((c for c in node.children if c.kind in kinds), None)


def decl_name(decl: SyntaxNode) -> str | None:
    """Name of a type, method or constructor declaration."""
    ident = child_of_kind(decl, "identifier")
    return None if ident is None or ident.value is None else str(ident.value)


def type_body(decl: SyntaxNode) -> SyntaxNode | None:
    return child_of_kind(decl, "class_body", "enum_body")


def method_body(decl: SyntaxNode) -> SyntaxNode | None:
    return child_of_kind(decl, "block")


def method_params(decl: SyntaxNode) -> list[str]:
    """Parameter names of a method or constructor declaration."""
    params = child_of_kind(decl, "formal_parameters")
    if params is None:
        return []
    return [str(p.children[1].value) for p in params.children
            if p.kind == "formal_parameter" and len(p.children) >= 2]


def modifier_words(decl: SyntaxNode) -> tuple[str, ...]:
    mods = child_of_kind(decl, "modifiers")
    return mods.value if mods is not None and isinstance(mods.value, tuple) \
        else ()


# -- per-unit index --------------------------------------------------------

class _Nesting:
    """Nodes whose spans nest or are disjoint, as within one tree.

    ``innermost`` returns the smallest node covering a span, the same node
    a scan of every node would pick, in time logarithmic in their number.
    """

    def __init__(self, nodes: list[SyntaxNode]):
        self.nodes = sorted(nodes, key=lambda n: n.start)
        self.starts = [n.start for n in self.nodes]
        # Index of the innermost node enclosing each node, or -1.
        self.parent: list[int] = []
        self.ending_at: dict[int, list[SyntaxNode]] = {}
        open_: list[int] = []
        for i, node in enumerate(self.nodes):
            while open_ and self.nodes[open_[-1]].end < node.end:
                open_.pop()
            self.parent.append(open_[-1] if open_ else -1)
            open_.append(i)
            self.ending_at.setdefault(node.end, []).append(node)

    def innermost(self, start: int, end: int) -> SyntaxNode | None:
        """Smallest node with ``node.start <= start`` and ``end <= node.end``."""
        # Every covering node encloses the last node starting at or before
        # ``start``, except one that ends exactly at ``start`` (zero width).
        i = bisect_right(self.starts, start) - 1
        while i >= 0 and self.nodes[i].end < end:
            i = self.parent[i]
        found = [self.nodes[i]] if i >= 0 else []
        if start == end:
            found.extend(n for n in self.ending_at.get(start, ())
                         if n.start <= start)
        return min(found, key=lambda n: n.end - n.start, default=None)


class UnitIndex:
    """Whole-unit lookups gathered in one pre-order walk of a unit's tree.

    Analysis helpers that need facts about the whole compilation unit
    (enclosing declarations, same-unit methods and types, enum constants,
    line numbers) read them here instead of walking the tree per site.
    """

    def __init__(self, unit: SourceUnit):
        self.text = unit.text
        # Method and constructor declarations in pre-order.
        self.method_decls: list[SyntaxNode] = []
        # (declaration, name or None, body) for every type declaration
        # with a body, in pre-order.
        self.types: list[tuple[SyntaxNode, str | None, SyntaxNode]] = []
        self.method_names: set[str] = set()
        self.native_methods: set[str] = set()
        self.first_method: dict[str, SyntaxNode] = {}
        self.enum_constants: set[str] = set()
        for node in unit.root.walk():
            kind = node.kind
            if kind in METHOD_KINDS:
                self.method_decls.append(node)
                if kind != "method_declaration":
                    continue
                name = decl_name(node)
                if name is None:
                    continue
                self.first_method.setdefault(name, node)
                if name:
                    self.method_names.add(name)
                    if "native" in modifier_words(node):
                        self.native_methods.add(name)
            elif kind in TYPE_DECLARATION_KINDS:
                body = type_body(node)
                if body is not None:
                    self.types.append((node, decl_name(node), body))
            elif kind == "enum_constant":
                self.enum_constants.add(str(node.children[0].value))

        self.type_of_body = {id(body): (decl, name)
                             for decl, name, body in self.types}
        # Name-based lookups see only named declarations.
        self.named_types = [t for t in self.types if t[1]]
        self.first_type: dict[str, SyntaxNode] = {}
        self.member_body: dict[int, SyntaxNode] = {}
        for decl, name, body in self.named_types:
            self.first_type.setdefault(name, decl)
            for member in body.children:
                self.member_body.setdefault(id(member), body)
        self._member_facts: dict[int, tuple[list, MemberFacts]] = {}

    @cached_property
    def methods(self) -> _Nesting:
        return _Nesting(self.method_decls)

    @cached_property
    def type_bodies(self) -> _Nesting:
        return _Nesting([body for _, _, body in self.types])

    @cached_property
    def member_methods(self) -> _Nesting:
        """Methods and constructors declared directly in a type body."""
        return _Nesting([m for _, _, body in self.types
                         for m in body.children if m.kind in METHOD_KINDS])

    @cached_property
    def _line_starts(self) -> list[int]:
        starts = [0]
        find = self.text.find
        i = find("\n")
        while i >= 0:
            starts.append(i + 1)
            i = find("\n", i + 1)
        return starts

    def line_of(self, offset: int) -> int:
        """1-based line number of a source offset."""
        return bisect_right(self._line_starts, offset)

    def enclosing_method(self, node: SyntaxNode) -> SyntaxNode | None:
        """Smallest method or constructor declaration containing ``node``,
        anonymous-class methods included."""
        return self.methods.innermost(node.start, node.end)

    def named_owner(self, body: SyntaxNode) -> SyntaxNode | None:
        """The named type declaration whose body is ``body``."""
        decl, name = self.type_of_body.get(id(body), (None, None))
        return decl if name else None

    def member_facts(self, members: list[SyntaxNode]) -> MemberFacts:
        """Facts about ``members`` (a class body's children), gathered once
        per list."""
        cached = self._member_facts.get(id(members))
        if cached is None or cached[0] is not members:
            cached = (members, MemberFacts.of(members))
            self._member_facts[id(members)] = cached
        return cached[1]


@dataclass(frozen=True)
class MemberFacts:
    """What per-site analysis reads from the members of a class body."""

    fields: tuple[SyntaxNode, ...]
    # Field name -> modifier words of the first declaration naming it.
    field_modifiers: dict[str, tuple[str, ...]]
    # Names declared as StringBuilder/StringBuffer anywhere in the members.
    builders: frozenset[str]

    @staticmethod
    def of(members: list[SyntaxNode]) -> MemberFacts:
        fields = tuple(m for m in members if m.kind == "field_declaration")
        modifiers: dict[str, tuple[str, ...]] = {}
        for member in fields:
            for decl in member.children:
                if decl.kind == "variable_declarator":
                    modifiers.setdefault(str(decl.children[0].value),
                                         modifier_words(member))
        return MemberFacts(fields, modifiers, frozenset(
            name for member in members for name in builder_names(member)))


def member_facts(unit: SourceUnit | None,
                 members: list[SyntaxNode]) -> MemberFacts:
    """``MemberFacts`` of a site's context, from the unit's index if any."""
    if unit is None:
        return MemberFacts.of(members)
    return unit_index(unit).member_facts(members)


def builder_names(scope: SyntaxNode) -> set[str]:
    """Local and field names declared as StringBuilder/StringBuffer in
    ``scope``."""
    names: set[str] = set()
    for node in scope.walk():
        if node.kind not in ("local_variable_declaration",
                             "field_declaration"):
            continue
        type_node = child_of_kind(node, "type_identifier")
        if type_node is not None and str(type_node.value or "") in (
                "StringBuilder", "StringBuffer"):
            names.update(str(decl.children[0].value) for decl in node.children
                         if decl.kind == "variable_declarator")
    return names


# The index of the unit analyzed last, dropped together with that unit.
# Sites are analyzed in (path, offset) order, so one entry serves every
# site of a unit; keeping more would hold every unit's index alive for as
# long as its sites are.
_last_index: tuple[weakref.ref[SourceUnit], UnitIndex] | None = None


def unit_index(unit: SourceUnit) -> UnitIndex:
    """The index of ``unit``, built on first use and kept until another
    unit is indexed or ``unit`` is freed."""
    global _last_index
    cached = _last_index
    if cached is None or cached[0]() is not unit:
        cached = _last_index = (weakref.ref(unit, _drop_index),
                                UnitIndex(unit))
    return cached[1]


def _drop_index(ref: weakref.ref[SourceUnit]) -> None:
    global _last_index
    if _last_index is not None and _last_index[0] is ref:
        _last_index = None
