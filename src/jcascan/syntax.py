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
from operator import attrgetter

TYPE_DECLARATION_KINDS = ("class_declaration", "interface_declaration",
                          "enum_declaration")
METHOD_KINDS = ("method_declaration", "constructor_declaration")
# Kinds of the nodes an invocation site can be.
SITE_KINDS = frozenset({"method_invocation", "object_creation_expression",
                        "method_declaration"})


class Record:
    """A value compared field by field, as a dataclass compares.

    ``_fields`` names the fields in constructor order: the class's own
    ``__slots__``, unless it names them itself. ``==`` returns
    ``NotImplemented`` for another class. ``hashable=True`` hashes the field
    tuple; ``value_repr=True`` prints ``Name(field=value, ...)``.
    """

    __slots__ = ()

    def __init_subclass__(cls, hashable=False, value_repr=False) -> None:
        fields = cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        # The field tuple, read in C; attrgetter gives one field bare.
        get = attrgetter(*fields)
        cls._values = property(get if len(fields) > 1
                               else lambda self: (get(self),))
        if not hashable:
            cls.__hash__ = None
        if value_repr:
            cls.__repr__ = Record._value_repr

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def _value_repr(self) -> str:
        values = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({values})"


class SyntaxNode(Record):
    """One named node: a kind, a source span, and ordered named children."""

    __slots__ = ("kind", "start", "end", "children", "value", "source")

    def __init__(self, kind: str, start: int, end: int,
                 children: list[SyntaxNode] | None = None,
                 value: object = None, source: str = "") -> None:
        self.kind = kind
        self.start = start
        self.end = end
        self.children = [] if children is None else children
        # Decoded value for literal leaves (unescaped string, int, ...).
        self.value = value
        # Back-reference to the full source text for .text slicing.
        self.source = source

    @property
    def text(self) -> str:
        return self.source[self.start:self.end]

    def walk(self) -> list[SyntaxNode]:
        """This node and every node inside it, in pre-order."""
        nodes = []
        stack = [self]
        while stack:
            node = stack.pop()
            nodes.append(node)
            if node.children:
                stack += reversed(node.children)
        return nodes

    def descendants(self) -> list[SyntaxNode]:
        nodes: list[SyntaxNode] = []
        for child in self.children:
            nodes += child.walk()
        return nodes

    def find_all(self, kind: str) -> list[SyntaxNode]:
        return [n for n in self.walk() if n.kind == kind]

    def named_node_count(self) -> int:
        """Number of named nodes strictly inside this node."""
        return len(self.descendants())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SyntaxNode({self.kind}, {self.start}:{self.end})"


class ParseWarning(Record):
    """A non-fatal parse problem, recorded per node or per file."""

    __slots__ = ("path", "offset", "message")

    def __init__(self, path: str, offset: int, message: str) -> None:
        self.path = path
        self.offset = offset
        self.message = message


class SourceUnit(Record):
    """A parsed Java file: path, text, and the normalized named-node tree."""

    _fields = ("path", "text", "root", "warnings")

    def __init__(self, path: str, text: str, root: SyntaxNode,
                 warnings: list[ParseWarning] | None = None) -> None:
        self.path = path
        self.text = text
        self.root = root
        self.warnings = [] if warnings is None else warnings
        # The unit's `UnitIndex`, built by `unit_index` on first use.
        self._index: UnitIndex | None = None

    @property
    def parse_failed(self) -> bool:
        return self.root.kind == "parse_failed"


# -- declaration parts ---------------------------------------------------

def child_of_kind(node: SyntaxNode, *kinds: str) -> SyntaxNode | None:
    """The first direct child whose kind is one of ``kinds``."""
    for child in node.children:
        if child.kind in kinds:
            return child
    return None


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

# The kinds `UnitIndex` records something of; its walk passes the others.
_INDEXED_KINDS = SITE_KINDS | {
    "string_literal", "enum_constant", "local_variable_declaration",
    "field_declaration", *METHOD_KINDS, *TYPE_DECLARATION_KINDS}


class _Nesting:
    """Nodes in pre-order whose spans nest or are disjoint, as in a tree.

    ``innermost`` returns the smallest node covering a span, the same node
    a scan of every node would pick, in time logarithmic in their number.
    """

    def __init__(self, nodes: list[SyntaxNode]):
        self.nodes = nodes  # in pre-order, so by start offset
        self.starts: list[int] = []
        # Index of the innermost node enclosing each node, or -1.
        self.parent: list[int] = []
        self.ending_at: dict[int, list[SyntaxNode]] = {}
        open_: list[int] = []
        for i, node in enumerate(nodes):
            while open_ and nodes[open_[-1]].end < node.end:
                open_.pop()
            self.starts.append(node.start)
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
        found = self.nodes[i] if i >= 0 else None
        if start == end:
            for node in self.ending_at.get(start, ()):
                if node.start <= start and (
                        found is None
                        or node.end - node.start < found.end - found.start):
                    found = node
        return found


class UnitIndex:
    """Whole-unit facts gathered in the one pre-order walk of a unit's tree.

    Analysis helpers that need facts about the whole compilation unit
    (enclosing declarations, same-unit methods and types, enum constants)
    or about a subtree (its string literals, its StringBuilder/StringBuffer
    names) read them here instead of walking the tree. Each unit builds its
    index on first use and keeps it (`unit_index`), so the index lives
    exactly as long as its unit.
    """

    def __init__(self, unit: SourceUnit):
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
        # `SyntaxNode.walk`'s pre-order, without its list.
        stack = [unit.root]
        while stack:
            node = stack.pop()
            if node.children:
                stack += reversed(node.children)
            kind = node.kind
            if kind not in _INDEXED_KINDS:
                continue
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
        self._write_facts: dict[int, WriteFacts] = {}
        # Built on first use: a unit with no site needs neither.
        self._methods: _Nesting | None = None
        self._type_bodies: _Nesting | None = None
        # The concrete interpreter's closures for this unit, shared by
        # every site of it (see `interp._Interp.code`), and its enum
        # models, by id of the enum declaration (`interp._Interp.enum_model`).
        self.compiled: dict = {}
        self.enum_models: dict = {}

    def enclosing_method(self, node: SyntaxNode) -> SyntaxNode | None:
        """Smallest method or constructor declaration containing ``node``,
        anonymous-class methods included."""
        if self._methods is None:
            self._methods = _Nesting(self.method_decls)
        return self._methods.innermost(node.start, node.end)

    def enclosing_type_body(self, node: SyntaxNode) -> SyntaxNode | None:
        """Body of the smallest type declaration containing ``node``, named
        or not; anonymous class bodies are not type declarations'."""
        if self._type_bodies is None:
            self._type_bodies = _Nesting([body for _, _, body in self.types])
        return self._type_bodies.innermost(node.start, node.end)

    def named_owner(self, body: SyntaxNode) -> SyntaxNode | None:
        """The named type declaration whose body is ``body``."""
        decl, name = self.type_of_body.get(id(body), (None, None))
        return decl if name else None

    def literals_in(self, node: SyntaxNode) -> list[str]:
        """Values of the string literals within ``node`` (inclusive), in
        source order, with no walk of ``node``."""
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
        """The member table of a type body of this unit, built once per
        body; a site outside every type body (``None``) has none. The
        supertypes a named body's table reads are the first same-unit type
        declarations named by its declaration's type identifiers; the
        enclosing table is that of the type body around its declaration."""
        if body is None:
            return _NO_MEMBERS
        facts = self._member_facts.get(id(body))
        if facts is None:
            inherited: list[SyntaxNode] = []
            owner = self.named_owner(body)
            for sup in owner.children if owner is not None else ():
                decl = self.first_type.get(str(sup.value).split("<")[0]) \
                    if sup.kind == "type_identifier" else None
                if decl is not None:
                    inherited += type_body(decl).children
            decl = self.type_of_body.get(id(body), (None,))[0]
            outer = self.enclosing_type_body(decl) \
                if decl is not None else None
            facts = self._member_facts[id(body)] = MemberFacts.of(
                body.children, inherited, self.member_facts(outer))
        return facts

    def write_facts(self, decl: SyntaxNode) -> WriteFacts:
        """What writes the locals of a method, constructor or field
        declaration of this unit, gathered once per declaration."""
        facts = self._write_facts.get(id(decl))
        if facts is None:
            facts = self._write_facts[id(decl)] = WriteFacts(decl)
        return facts


class MemberFacts(Record):
    """The members of a class body, gathered once per body: the one table
    that decides which declaration a member name of the class means.

    ``fields`` and ``field_modifiers`` read the body's own members only.
    ``declarators`` and ``methods`` read its own members first, then those
    of each direct same-unit supertype in turn, then the table of the
    enclosing type body, and keep the first match: a nested class sees
    the members of the classes around it.
    """

    _fields = ("fields", "field_modifiers", "declarators", "methods")

    def __init__(self, fields: tuple[SyntaxNode, ...],
                 field_modifiers: dict[str, tuple[str, ...]],
                 declarators: dict[str, tuple[SyntaxNode, SyntaxNode]],
                 methods: dict[tuple[str | None, int], SyntaxNode]) -> None:
        self.fields = fields
        # Field name -> modifier words of the first declaration naming it.
        self.field_modifiers = field_modifiers
        # Field name -> (field declaration, the first declarator naming it).
        self.declarators = declarators
        # (name, parameter count) -> the first method declaration.
        self.methods = methods

    @staticmethod
    def of(own: list[SyntaxNode], inherited: list[SyntaxNode] = (),
           enclosing: MemberFacts | None = None) -> MemberFacts:
        declarators: dict[str, tuple[SyntaxNode, SyntaxNode]] = {}
        methods: dict[tuple[str | None, int], SyntaxNode] = {}

        def add(members) -> None:
            for member in members:
                if member.kind == "method_declaration":
                    methods.setdefault(
                        (decl_name(member), len(method_params(member))),
                        member)
                elif member.kind == "field_declaration":
                    for decl in member.children:
                        if decl.kind == "variable_declarator":
                            declarators.setdefault(
                                str(decl.children[0].value), (member, decl))
        add(own)
        modifiers = {name: modifier_words(member)
                     for name, (member, _) in declarators.items()}
        add(inherited)
        if enclosing is not None:
            for name, found in enclosing.declarators.items():
                declarators.setdefault(name, found)
            for key, method in enclosing.methods.items():
                methods.setdefault(key, method)
        return MemberFacts(
            tuple(m for m in own if m.kind == "field_declaration"),
            modifiers, declarators, methods)

    def initializer(self, name: str) -> tuple[SyntaxNode, SyntaxNode] | None:
        """(declaration, initializer) of the first field ``name``, or None
        if that field has no initializer."""
        found = self.declarators.get(name)
        if found is None or len(found[1].children) < 2:
            return None
        return found[0], found[1].children[1]


_NO_MEMBERS = MemberFacts((), {}, {}, {})

_start = attrgetter("start")


class WriteFacts:
    """What writes the locals of one method, constructor or field
    declaration, from one walk of it, in source order: the one place that
    decides what writes a local. Each table keeps its reader's rule:

    - ``defs``, per name: declarators with an initializer and ``=``
      assignments to the bare name; ``jumps``: each ``break`` and
      ``continue``. Neither counts nested class bodies.
    - ``element_writes`` (``name[i] = …``, ``name[i]++``), ``mentions``.
    - ``rhs_of``: right-hand sides of declarators and of assignments of
      any operator to the bare name; ``reads``: their identifiers, each
      for the innermost right-hand side holding it.
    - ``writes``: (start, name) of each declarator, assignment or update
      target (an array's name for an element) and identifier receiver.
    """

    def __init__(self, decl: SyntaxNode) -> None:
        defs = self.defs = {}
        jumps = self.jumps = []
        element_writes = self.element_writes = {}
        mentions = self.mentions = {}
        writes = self.writes = []
        reads = self.reads = {}
        rhs_of = self.rhs_of = {}
        # (node, the name of the innermost right-hand side holding it,
        # whether a nested class body holds it), in pre-order.
        stack: list = [(decl, None, False)]
        while stack:
            node, owner, nested = stack.pop()
            kind = node.kind
            if kind == "identifier":
                mentions.setdefault(node.value, []).append(node)
                if owner is not None:
                    reads.setdefault(owner, set()).add(node.value)
                continue
            children = node.children
            # The name ``node`` may write, and the one whose right-hand
            # side ``children[1]`` is (at ``stack[-2]`` once pushed).
            written = defined = None
            if kind == "variable_declarator":
                written = children[0].value
                if len(children) > 1:
                    defined = written
                    if not nested:
                        defs.setdefault(written, []).append(node)
            elif kind == "assignment_expression" \
                    or kind == "update_expression":
                target = children[0]
                if target.kind == "array_access" \
                        and target.children[0].kind == "identifier":
                    written = target.children[0].value
                    element_writes.setdefault(written, []).append(node)
                elif target.kind == "identifier":
                    written = target.value
                    if kind == "assignment_expression":
                        defined = written
                        if node.value == "=" and not nested:
                            defs.setdefault(written, []).append(node)
            elif kind == "method_invocation" and len(children) == 3 \
                    and children[0].kind == "identifier":
                written = children[0].value
            elif (kind == "break_statement"
                  or kind == "continue_statement") and not nested:
                jumps.append(node)
            elif kind == "class_body":
                nested = True
            if written is not None:
                writes.append((node.start, written))
            for child in reversed(children):
                stack.append((child, owner, nested))
            if defined is not None:
                rhs_of.setdefault(defined, []).append(children[1])
                stack[-2] = (children[1], defined, nested)

    @staticmethod
    def between(table: dict[str, list[SyntaxNode]], name: str, start: int,
                end: int) -> list[SyntaxNode]:
        """The nodes of ``table[name]`` that start in ``[start, end)``."""
        nodes = table.get(name, [])
        return nodes[bisect_left(nodes, start, key=_start):
                     bisect_left(nodes, end, key=_start)]

    def written_in(self, node: SyntaxNode) -> set[str]:
        """The names the nodes that start within ``node`` may write."""
        writes = self.writes
        lo = bisect_left(writes, (node.start,))
        return {name for _, name
                in writes[lo:bisect_left(writes, (node.end,), lo)]}


def unit_index(unit: SourceUnit) -> UnitIndex:
    """The index of ``unit``, built on first use and kept by the unit."""
    if unit._index is None:
        unit._index = UnitIndex(unit)
    return unit._index
