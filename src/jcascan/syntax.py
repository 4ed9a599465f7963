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

from bisect import bisect_left, bisect_right
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

TYPE_DECLARATION_KINDS = ("class_declaration", "interface_declaration",
                          "enum_declaration")
METHOD_KINDS = ("method_declaration", "constructor_declaration")
# Kinds of the nodes an invocation site can be.
SITE_KINDS = frozenset({"method_invocation", "object_creation_expression",
                        "method_declaration"})


@dataclass(slots=True)
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


@dataclass(slots=True)
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
    # The unit's `UnitIndex`, built by `unit_index` on first use.
    _index: UnitIndex | None = field(default=None, init=False, repr=False,
                                     compare=False)

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
    """Whole-unit facts gathered in the one pre-order walk of a unit's tree.

    Analysis helpers that need facts about the whole compilation unit
    (enclosing declarations, same-unit methods and types, enum constants,
    line numbers) or about a subtree (its string literals, its
    StringBuilder/StringBuffer names) read them here instead of walking the
    tree. Each unit builds its index on first use and keeps it
    (`unit_index`), so the index lives exactly as long as its unit.
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
        # The nodes `ingest.extract_sites` matches against, in pre-order.
        self.site_candidates: list[SyntaxNode] = []
        # Start offset and value of every string literal, and span and
        # declared name of every StringBuilder/StringBuffer local or field,
        # in pre-order: a subtree's entries are a run of the starts inside
        # its span (`literals_in`, `builders_in`).
        self.literal_starts: list[int] = []
        self.literal_values: list[str] = []
        self.builder_starts: list[int] = []
        self.builder_ends: list[int] = []
        self.builder_vars: list[str] = []
        for node in unit.root.walk():
            kind = node.kind
            if kind == "string_literal":
                if isinstance(node.value, str):
                    self.literal_starts.append(node.start)
                    self.literal_values.append(node.value)
                continue
            if kind in SITE_KINDS:
                self.site_candidates.append(node)
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
            elif kind in ("local_variable_declaration", "field_declaration"):
                type_node = child_of_kind(node, "type_identifier")
                if type_node is not None and str(type_node.value or "") in (
                        "StringBuilder", "StringBuffer"):
                    for decl in node.children:
                        if decl.kind == "variable_declarator":
                            self.builder_starts.append(node.start)
                            self.builder_ends.append(node.end)
                            self.builder_vars.append(
                                str(decl.children[0].value))

        self.type_of_body = {id(body): (decl, name)
                             for decl, name, body in self.types}
        # Name-based lookups see only named declarations.
        self.named_types = [t for t in self.types if t[1]]
        self.first_type: dict[str, SyntaxNode] = {}
        for decl, name, _ in self.named_types:
            self.first_type.setdefault(name, decl)
        self._member_facts: dict[int, MemberFacts] = {}

    @cached_property
    def methods(self) -> _Nesting:
        return _Nesting(self.method_decls)

    @cached_property
    def type_bodies(self) -> _Nesting:
        return _Nesting([body for _, _, body in self.types])

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

    def literals_in(self, node: SyntaxNode) -> list[str]:
        """Values of the string literals within ``node`` (inclusive), in
        source order: `string_literals` without a walk."""
        starts = self.literal_starts
        return self.literal_values[bisect_left(starts, node.start):
                                   bisect_left(starts, node.end)]

    def builders_in(self, node: SyntaxNode) -> list[str]:
        """Local and field names declared as StringBuilder/StringBuffer
        within ``node`` (inclusive), in source order."""
        starts = self.builder_starts
        lo = bisect_left(starts, node.start)
        hi = bisect_left(starts, node.end, lo)
        # Declarations that start where ``node`` starts but enclose it come
        # first in pre-order.
        while lo < hi and self.builder_ends[lo] > node.end:
            lo += 1
        return self.builder_vars[lo:hi]

    def member_facts(self, body: SyntaxNode | None) -> MemberFacts:
        """Facts about the members of a type body of this unit, gathered
        once per body; a site outside every type body (``None``) has
        none."""
        if body is None:
            return _NO_MEMBERS
        facts = self._member_facts.get(id(body))
        if facts is None:
            facts = self._member_facts[id(body)] = MemberFacts.of(
                body.children)
        return facts


@dataclass(frozen=True)
class MemberFacts:
    """What per-site analysis reads from the members of a class body."""

    fields: tuple[SyntaxNode, ...]
    # Field name -> modifier words of the first declaration naming it.
    field_modifiers: dict[str, tuple[str, ...]]

    @staticmethod
    def of(members: list[SyntaxNode]) -> MemberFacts:
        fields = tuple(m for m in members if m.kind == "field_declaration")
        modifiers: dict[str, tuple[str, ...]] = {}
        for member in fields:
            for decl in member.children:
                if decl.kind == "variable_declarator":
                    modifiers.setdefault(str(decl.children[0].value),
                                         modifier_words(member))
        return MemberFacts(fields, modifiers)


_NO_MEMBERS = MemberFacts((), {})


def unit_index(unit: SourceUnit) -> UnitIndex:
    """The index of ``unit``, built on first use and kept by the unit."""
    if unit._index is None:
        unit._index = UnitIndex(unit)
    return unit._index
