"""Recover the effective string values an argument expression can take.

Arguments to crypto APIs in decompiled code are frequently built at runtime:
concatenation, StringBuilder/StringBuffer chains, charAt arithmetic, Base64
blobs, XOR loops, ternaries, helper methods. One evaluator, the concrete
interpreter (`interp`), computes them with the one model of the Java
operators, library calls and string built-ins in `javamodel`:

* it executes the method body before the site, and the helpers it calls,
  under a step budget when every input is a compile-time constant;
* where a ternary or a parameter leaves a value open, the set-valued
  resolver here decides only where candidate sets and residual markers
  come from: it unions ternary branches, follows local, field and enum
  definitions and user methods up to an indirection budget, and marks
  parameters, network and external reads and native methods. Every other
  expression it lifts: the interpreter's closure of the expression runs
  once per combination of one candidate per operand, in a fixed order, up
  to a bounded number.

Anything outside the supported operation set degrades to an explicit
residual marker rather than a guess.
"""

from __future__ import annotations

import itertools
import re

from .ingest import InvocationSite
from .interp import (ENUM_CONSTANT, _LITERALS, TraceStep, _BudgetExhausted,
                     _Break, _Continue, _Ctx, _Interp, _JavaThrow, _Return,
                     _converts, _literal)
from .javamodel import (Builder, CharArray, EnumConst, JArray, SBuf,
                        _MISSING, _NotConcrete, _android_base64, _as_int,
                        _cast, _frozen, _object_parts, _preview, library_call,
                        library_new)
# Re-exported: classification reads BASE64_DECODE from here.
from .javamodel import BASE64_DECODE  # noqa: F401
from .syntax import (Record, SourceUnit, SyntaxNode, WriteFacts,
                     method_body, method_params, modifier_words, unit_index)

# Residual markers.
UNKNOWN = "UNKNOWN"
NATIVE = "NATIVE"
NETWORK = "NETWORK"
EXTERNAL_INPUT = "EXTERNAL_INPUT"
DEPTH_EXCEEDED = "DEPTH_EXCEEDED"

# Trace-step rule names that classification reads back (with
# ENUM_CONSTANT and BASE64_DECODE, which the interpreter notes too).
STATIC_FIELD = "static-field"
NATIVE_CALL = "native-call"
METHOD_BODY = "method-body"
METHOD_RETURNS = "method-returns"

_NETWORK_METHODS = {"readLine", "getInputStream", "openStream",
                    "openConnection", "getResponseMessage", "getHeaderField"}
_EXTERNAL_METHODS = {"getStringExtra", "getProperty", "getParameter",
                     "getText", "getPreference"}


class ResolutionBudget(Record, hashable=True):
    # The defaults, which `jcascan scan` reads from the class.
    max_indirection = 2
    max_candidates = 16
    max_steps = 10_000
    max_call_depth = 8

    _fields = ("max_indirection", "max_candidates", "max_steps",
               "max_call_depth")

    def __init__(self, max_indirection: int = max_indirection,
                 max_candidates: int = max_candidates,
                 max_steps: int = max_steps,
                 max_call_depth: int = max_call_depth) -> None:
        if min(max_indirection, max_candidates, max_steps,
               max_call_depth) <= 0:
            raise ValueError("budget fields must be positive")
        self.max_indirection = max_indirection
        self.max_candidates = max_candidates
        self.max_steps = max_steps
        self.max_call_depth = max_call_depth


class ResolvedValue(Record):
    _fields = ("candidates", "residuals", "trace", "raw_candidates",
               "touched_literals")

    def __init__(self, candidates: set[str], residuals: set[str],
                 trace: list[TraceStep] | None = None,
                 raw_candidates: set | None = None,
                 touched_literals: set[str] | None = None) -> None:
        self.candidates = candidates
        self.residuals = residuals
        self.trace = [] if trace is None else trace
        # May include bytes.
        self.raw_candidates = set() if raw_candidates is None \
            else raw_candidates
        self.touched_literals = set() if touched_literals is None \
            else touched_literals

    @property
    def concrete(self) -> bool:
        return bool(self.candidates) and not self.residuals


# -- abstract, set-valued resolver ----------------------------------------

class _VS(Record):
    """A set of concrete values plus residual markers."""

    _fields = ("values", "residuals")

    def __init__(self, values: set, residuals: set) -> None:
        self.values = values
        self.residuals = residuals

    @staticmethod
    def of(*values) -> "_VS":
        return _VS(set(values), set())

    @staticmethod
    def residual(*markers: str) -> "_VS":
        return _VS(set(), set(markers))

    def union(self, other: "_VS") -> "_VS":
        return _VS(self.values | other.values,
                   self.residuals | other.residuals)


def _ordered(values) -> list:
    """``values`` in an order that does not depend on set iteration."""
    return sorted(values, key=lambda v: (_preview(v), repr(v)))


def _snapshot(value):
    """An interpreter value as an immutable candidate."""
    return SBuf(value.text) if isinstance(value, Builder) else _frozen(value)


def _thawed(value):
    """A candidate as a value the interpreter runs on: a builder snapshot
    as a fresh builder of its text."""
    return Builder(value.text) if isinstance(value, SBuf) else value


_LOOPS = ("while_statement", "for_statement", "enhanced_for_statement")


def _inside(nodes: list[SyntaxNode], *within: SyntaxNode) -> list[SyntaxNode]:
    return [n for n in nodes
            if any(w.start <= n.start and n.end <= w.end for w in within)]


def _last_defs(node: SyntaxNode, defs: list[SyntaxNode],
               jumps: list[SyntaxNode]) -> tuple[list, bool]:
    """The definitions among ``defs``, a local's, that may be the last to
    run in ``node`` when control leaves it for what follows, and whether
    every such path runs one. None stands for a value not followed: a
    shape with a ``break`` or ``continue`` (from the tree alone, its
    target is not known) or a ``switch`` (the tree keeps no case labels).
    A ``return`` or ``throw``, or a block that ends in one, never reaches
    what follows."""
    inner = _inside(defs, node)
    if not inner:
        while node.kind == "block" and node.children:
            node = node.children[-1]
        return [], node.kind in ("return_statement", "throw_statement")
    if node.kind == "switch_statement" or _inside(jumps, node):
        return [None], True
    if node.kind == "if_statement":
        last, always = [], len(node.children) == 3
        for branch in node.children[1:]:
            found, runs = _last_defs(branch, defs, jumps)
            last += found
            always = always and runs
        if always:
            return last, True
        found, runs = _last_defs(node.children[0], defs, jumps)
        return last + found, runs
    if node.kind in _LOOPS:
        # The body, the last child, may run any number of times; a
        # definition in the header may run after the body's.
        body = node.children[-1]
        if len(_inside(inner, body)) < len(inner):
            return inner, False
        return _last_defs(body, defs, jumps)[0], False
    if node.kind == "try_statement":
        parts = list(node.children)
        final = parts.pop() if parts[-1].kind == "finally_clause" else None
        catches = [p for p in parts if p.kind == "catch_clause"]
        tried = parts[:len(parts) - len(catches)]
        last, runs = _seq(tried, defs, jumps)
        for catch in catches:
            found, caught = _last_defs(catch.children[-1], defs, jumps)
            if not caught:
                # The catch may follow any part of what it guards.
                found += _inside(defs, *tried)
            last += found
            runs = runs and caught
        if final is not None:
            found, always = _last_defs(final.children[0], defs, jumps)
            return (found, True) if always else (found + last, runs)
        return last, runs
    if node.kind in ("block", "do_statement", "synchronized_statement"):
        return _seq(node.children, defs, jumps)
    # Within one expression or declaration, the definition that ends
    # last (the outer one of two nested) runs last.
    return [max(inner, key=lambda d: (d.end, -d.start))], True


def _seq(nodes: list[SyntaxNode], defs: list[SyntaxNode],
         jumps: list[SyntaxNode]) -> tuple[list, bool]:
    """`_last_defs` of ``nodes`` run one after another."""
    last: list = []
    for node in reversed(nodes):
        found, runs = _last_defs(node, defs, jumps)
        last += found
        if runs:
            return last, True
    return last, False


def _reaching_defs(body: SyntaxNode, defs: list[SyntaxNode],
                   jumps: list[SyntaxNode], use: SyntaxNode) -> list:
    """The definitions among ``defs``, a local's in ``body``, that may give
    it its value at ``use``, with None for a value not followed (see
    `_last_defs`) or for a path from the start of ``body`` that defines
    it nowhere. From ``use`` up to ``body``, each enclosing node adds what
    may run in it before the node that holds ``use``: its earlier children
    in turn, until one always defines the local; only the condition of an
    ``if``; what a ``try`` guards, any part of it, before a ``catch`` or
    ``finally``; every definition in a loop, which an earlier pass may
    have run; and in a ``switch``, its subject, or None if an earlier case
    holds a definition."""
    path = [(body, 0)]
    while path[-1][0] is not use:
        node = path[-1][0]
        step = next(((c, i) for i, c in enumerate(node.children)
                     if c.start <= use.start and use.end <= c.end), None)
        if step is None:
            break
        path.append(step)
    reaching: list = []
    for (parent, _), (child, at) in zip(reversed(path[:-1]),
                                        reversed(path[1:])):
        earlier = parent.children[:at]
        if parent.kind in _LOOPS or parent.kind == "do_statement":
            reaching += _inside(defs, parent)
            continue
        if parent.kind == "try_statement" \
                and child.kind in ("catch_clause", "finally_clause"):
            reaching += _inside(defs, *(
                p for p in earlier if p.kind != "catch_clause"
                or child.kind == "finally_clause"))
            continue
        if parent.kind == "if_statement":
            earlier = earlier[:1]
        elif parent.kind == "switch_statement":
            if _inside(defs, *earlier[1:]):
                return reaching + [None]
            earlier = earlier[:1]
        found, runs = _seq(earlier, defs, jumps)
        reaching += found
        if runs:
            return reaching
    return reaching + [None]


# The operations whose value the set-valued resolver gets by lifting the
# interpreter's closure of them over their operands (`_Abstract._lift`).
_LIFTED = frozenset({
    "binary_expression", "cast_expression", "unary_expression",
    "array_access", "array_creation_expression", "array_initializer",
    "object_creation_expression", "method_invocation", "field_access"})


# How `_Abstract._lift` reads an operand's set (`_evaluated`).
_READ, _UNREAD, _FLAGS = "read", "unread", "flags"


def _evaluated(node: SyntaxNode) -> list[tuple[SyntaxNode, str]]:
    """The operands of ``node``, a `_LIFTED` kind, in the order Java
    evaluates them but a call's receiver last, each with how it is read:
    `_READ`; `_UNREAD`, an argument past a library function's ``reads``
    (all of a constructor the model does not know); or `_FLAGS`, those
    of ``android.util.Base64.decode``."""
    kind = node.kind
    if kind == "object_creation_expression":
        library = library_new(node)
        reads = 0 if library is None else library[1]
        return [(arg, _READ if i < reads else _UNREAD)
                for i, arg in enumerate(_object_parts(node))]
    if kind == "method_invocation":
        args = node.children[-1].children
        library = library_call(node)
        if library is None:   # a receiver's method (`_decided`)
            return [(part, _READ) for part in args + node.children[:1]]
        fn, reads, _ = library
        hows = [_READ] * reads
        if fn is _android_base64 and reads == 2:
            hows[1] = _FLAGS
        return [(arg, hows[i] if i < reads else _UNREAD)
                for i, arg in enumerate(args)]
    if kind == "field_access":
        return [(node.children[0], _READ)]
    # Past the type of a cast or an array creation.
    skip = kind in ("cast_expression", "array_creation_expression")
    return [(part, _READ) for part in _flat(node.children[skip:])]


def _flat(parts: list[SyntaxNode]) -> list[SyntaxNode]:
    """``parts`` with each array initializer, nested ones too, in place of
    its elements."""
    return [leaf for part in parts for leaf in (
        _flat(part.children) if part.kind == "array_initializer" else [part])]


def _source(node: SyntaxNode) -> tuple[str, str] | None:
    """The trace rule and residual marker of a call that reads the
    network or external input, or None."""
    name = str(node.value)
    recv_text = node.children[0].text if len(node.children) == 3 else ""
    if name in _NETWORK_METHODS or "Socket" in recv_text \
            or "Http" in recv_text or recv_text.split(".")[-1] == "URL":
        return "network-source", NETWORK
    if name in _EXTERNAL_METHODS:
        return "external-source", EXTERNAL_INPUT
    return None


def _android_flags(vs: _VS) -> int:
    """The flags of ``android.util.Base64.decode`` as this resolver reads
    them: anything but exactly one int counts as 0 (``DEFAULT``), so
    ``Base64.decode(s, Base64.DEFAULT)`` decodes though ``DEFAULT`` names
    no value here."""
    if len(vs.values) == 1:
        try:
            return _as_int(next(iter(vs.values)))
        except _NotConcrete:
            pass
    return 0


class _Abstract:
    def __init__(self, ctx: _Ctx, unit: SourceUnit, site: InvocationSite):
        self.ctx = ctx
        self.unit = unit
        # The site's type body, if that type is named.
        body = site.type_body
        self.class_body = body if body is not None \
            and unit_index(unit).named_owner(body) is not None else None
        self.interp = _Interp(ctx, unit, self.class_body)
        self.types = unit_index(unit).first_type

    # --- top level ---

    def resolve(self, expr: SyntaxNode, depth: int = 0,
                locals_env: dict[str, _VS] | None = None) -> _VS:
        self.ctx.tick()
        locals_env = locals_env or {}

        # Union semantics for ternaries anywhere in the expression: handled
        # by structural recursion, so skip whole-expression concrete
        # evaluation when one is present.
        has_ternary = any(n.kind == "ternary_expression"
                          for n in expr.walk())
        if not has_ternary and not locals_env:
            concrete = self._try_region_concrete(expr)
            if concrete is not _MISSING:
                return concrete

        return self._resolve_node(expr, depth, locals_env)

    def _try_region_concrete(self, expr: SyntaxNode):
        method = unit_index(self.unit).enclosing_method(expr)
        if method is None or method_body(method) is None:
            return _MISSING
        saved_steps = self.ctx.steps
        env: dict = {}
        fields: dict = {}
        try:
            self.interp.run_region(method, expr, env, fields)
            value = _snapshot(self.interp.eval(expr, env, fields))
        except (_NotConcrete, _Return, _Break, _Continue, _JavaThrow):
            self.ctx.steps = min(self.ctx.steps,
                                 saved_steps + 1000)
            return _MISSING
        except _BudgetExhausted:
            return _VS.residual(DEPTH_EXCEEDED)
        self.ctx.note("concrete-eval", expr, _preview(value))
        return _VS.of(value)

    # --- structural rules ---

    def _resolve_node(self, node: SyntaxNode, depth: int,
                      env: dict[str, _VS]) -> _VS:
        self.ctx.tick()
        kind = node.kind
        if kind in _LITERALS:
            if kind == "string_literal":
                self.ctx.note("literal", node, str(node.value))
            return _VS.of(_literal(node))
        if kind == "parenthesized_expression":
            return self._resolve_node(node.children[0], depth, env)
        if not self._decided(node):
            return self._lift(node, depth, env)
        if kind == "ternary_expression":
            return self._resolve_ternary(node, depth, env)
        if kind == "identifier":
            return self._resolve_identifier(node, depth, env)
        if kind == "field_access":
            return self._resolve_field_access(node, depth, env)
        if kind == "method_invocation":
            return self._resolve_call(node, depth, env)
        return _VS.residual(UNKNOWN)

    def _cap(self, vs: _VS, node: SyntaxNode) -> _VS:
        if len(vs.values) > self.ctx.budget.max_candidates:
            self.ctx.note("candidate-cap", node,
                          f"capped at {self.ctx.budget.max_candidates}")
            ordered = _ordered(vs.values)
            return _VS(set(ordered[:self.ctx.budget.max_candidates]),
                       vs.residuals | {DEPTH_EXCEEDED})
        return vs

    def _decided(self, node: SyntaxNode) -> bool:
        """Whether `_resolve_node` decides ``node`` by a rule of its own
        rather than by lifting the interpreter's closure of it."""
        kind = node.kind
        if kind == "field_access":
            obj = node.children[0]
            return obj.kind == "this" or (obj.kind == "identifier"
                                          and str(obj.value) in self.types)
        if kind == "method_invocation":
            return _source(node) is not None \
                or self._user_class(node) is not _MISSING
        return kind not in _LIFTED

    def _lift(self, node: SyntaxNode, depth: int, env: dict[str, _VS]) -> _VS:
        """`_lift_call` of ``node``, an operation, over the sets of its
        operands (`_evaluated`), each resolved in turn: an unread argument
        is one null with its residuals, and flags are the one value
        `_android_flags` reads. An operand that is an operation, such as a
        link of ``a + b + …`` or ``x.f().g()…``, ticks as `_resolve_node`
        would and is lifted in the same frame, in nested calls' order."""
        stack = [(node, _evaluated(node), [])]
        while True:
            part, operands, sets = stack[-1]
            if len(sets) < len(operands):
                operand, how = operands[len(sets)]
                if how is _READ and not self._decided(operand):
                    self.ctx.tick()
                    stack.append((operand, _evaluated(operand), []))
                    continue
                vs = self._resolve_node(operand, depth, env)
                sets.append(vs if how is _READ
                            else _VS({None}, vs.residuals) if how is _UNREAD
                            else _VS.of(_android_flags(vs)))
                continue
            stack.pop()
            value = self._lift_call(part, [op for op, _ in operands], sets,
                                    depth)
            if not stack:
                return value
            stack[-1][2].append(value)

    def _lift_call(self, node: SyntaxNode, operands: list[SyntaxNode],
                   sets: list[_VS], depth: int) -> _VS:
        """`_lift_one` of ``node``, but a method of the unit called on an
        enum constant, the last operand's value, is `_resolve_user_call`'s
        with the constant's fields."""
        if node.kind != "method_invocation" or not operands \
                or operands[-1] is not node.children[0]:
            return self._lift_one(node, operands, sets)
        args, receiver = sets[:-1], sets[-1]
        enums = [] if str(node.value) in ("name", "toString") else [
            c for c in _ordered(receiver.values)
            if isinstance(c, EnumConst) and c.enum_name in self.types]
        if not enums:
            return self._lift_one(node, operands, sets)
        rest = _VS(receiver.values.difference(enums), receiver.residuals)
        out = self._lift_one(node, operands, args + [rest]) \
            if rest.values else _VS(set(), set(rest.residuals))
        for const in enums:
            out = out.union(self._resolve_user_call(
                self.types[const.enum_name], node, args, depth,
                dict(const.fields)))
        return self._cap(out, node)

    def _lift_one(self, node: SyntaxNode, operands: list[SyntaxNode],
                  sets: list[_VS]) -> _VS:
        """``node``'s closure (`_Interp.lifted`, which costs the site no
        step) run once per combination of one value of each of ``sets``,
        those of its ``operands``, in a fixed order, with the residuals of
        every operand. Past ``max_candidates²`` combinations the rest are
        dropped and DEPTH_EXCEEDED marked; a combination the closure cannot
        evaluate marks UNKNOWN; the result is capped."""
        code = self.interp.lifted(node, operands)
        # An identifier is bound by name too, as closures test names.
        keys = [(id(op), str(op.value) if op.kind == "identifier" else None)
                for op in operands]
        out = _VS(set(), set().union(*(vs.residuals for vs in sets)))
        combos = itertools.product(*(_ordered(vs.values) for vs in sets))
        trace = self.ctx.trace
        # The steps earlier combinations noted: a later one's repeat of a
        # step is dropped, so a decode over n candidates is one step.
        seen: set = set()
        for combo in itertools.islice(combos,
                                      self.ctx.budget.max_candidates ** 2):
            scope = {}
            for (key, name), value in zip(keys, combo):
                scope[key] = value = _thawed(value)
                if name is not None:
                    scope[name] = value
            mark = len(trace)
            try:
                out.values.add(_snapshot(code(scope, {})))
            except (_NotConcrete, _Break, _Continue, _JavaThrow):
                out.residuals.add(UNKNOWN)
            noted = [(step.rule, step.span) for step in trace[mark:]]
            trace[mark:] = [step for step, key in zip(trace[mark:], noted)
                            if key not in seen]
            seen.update(noted)
        if next(combos, None) is not None:
            out.residuals.add(DEPTH_EXCEEDED)
        if not out.values and not out.residuals:
            out.residuals.add(UNKNOWN)
        return self._cap(out, node)

    def _resolve_ternary(self, node: SyntaxNode, depth: int,
                         env: dict[str, _VS]) -> _VS:
        """The union of both branches. A chain ``c ? a : d ? b : …`` runs in
        one frame, in the order nested calls would take: each link ticks
        and resolves its ``then`` top-down, then the last ``else`` is
        resolved and each link's union is capped, innermost first."""
        links = [node]
        thens = [self.resolve(node.children[1], depth, env)]
        while links[-1].children[2].kind == "ternary_expression":
            links.append(links[-1].children[2])
            # `resolve` and `_resolve_node` of the link.
            self.ctx.tick(2)
            thens.append(self.resolve(links[-1].children[1], depth, env))
        value = self.resolve(links[-1].children[2], depth, env)
        for link, then in zip(reversed(links), reversed(thens)):
            value = self._cap(then.union(value), link)
            self.ctx.note("ternary-union", link,
                          f"{len(value.values)} candidates")
        return value

    # --- names ---

    def _resolve_identifier(self, node: SyntaxNode, depth: int,
                            env: dict[str, _VS]) -> _VS:
        name = str(node.value)
        if name in env:
            return env[name]
        method = unit_index(self.unit).enclosing_method(node)
        if method is not None:
            if name in method_params(method):
                self.ctx.note("external-input", node, name)
                return _VS.residual(EXTERNAL_INPUT)
            facts = unit_index(self.unit).write_facts(method)
            defs = facts.defs.get(name)
            if defs and defs[0].start < node.start:
                if depth >= self.ctx.budget.max_indirection + 1:
                    return _VS.residual(DEPTH_EXCEEDED)
                return self._resolve_local(method, name, facts, node, depth)
        field = self._resolve_field(name, None, depth, "field-def", name)
        if field is not None:
            return field
        enum_val = self._enum_constant(name)
        if enum_val is not None:
            self.ctx.note(ENUM_CONSTANT, node, name)
            return _VS.of(enum_val)
        return _VS.residual(UNKNOWN)

    def _resolve_local(self, method: SyntaxNode, name: str,
                       facts: WriteFacts, use: SyntaxNode,
                       depth: int) -> _VS:
        """The local ``name`` at ``use``: the union of the definitions
        that may reach it (`_reaching_defs`), the latest first, each
        converted to the local's declared primitive type, and ``UNKNOWN``
        for a value not followed."""
        reaching = _reaching_defs(method_body(method), facts.defs[name],
                                  facts.jumps, use)
        convert, elem = _converts(str(
            facts.declared_type(name, use.start) or ""))
        value = _VS(set(), set())
        for _, holder in sorted({d.start: d for d in reaching
                                 if d is not None}.items(), reverse=True):
            definition = holder.children[1]
            self.ctx.note("local-def", definition, name)
            self.ctx.touch(self.unit, definition)
            if name in unit_index(self.unit).builders_in(method):
                found = self._resolve_builder(method, name, facts,
                                              definition, use, depth)
            elif facts.between(facts.element_writes, name, definition.end,
                               use.start):
                found = _VS.residual(UNKNOWN)
            else:
                found = self.resolve(definition, depth + 1, {})
                if convert is not None:
                    found = _VS({_cast(elem, v) if type(v) is convert
                                 else v for v in found.values},
                                found.residuals)
            value = self._cap(value.union(found), definition)
        if any(d is None for d in reaching):
            value = value.union(_VS.residual(UNKNOWN))
        return value

    def _resolve_builder(self, method: SyntaxNode, name: str,
                         facts: WriteFacts, definition: SyntaxNode,
                         use: SyntaxNode, depth: int) -> _VS:
        """A builder local at ``use``: its definition's value through the
        statement-level call chains on it in between, such as
        ``sb.append(p);``. Any other mention in between may change it
        unseen and leaves only a residual."""
        body = method_body(method)
        calls = []
        for node in facts.between(facts.mentions, name, definition.end,
                                  use.start):
            stmt = next((s for s in body.children
                         if s.start <= node.start <= s.end), None)
            if stmt is None or stmt.kind != "expression_statement" \
                    or stmt.start < definition.end or stmt.end > use.start:
                return _VS.residual(UNKNOWN)
            call = root = stmt.children[0]
            while root.kind == "method_invocation" \
                    and len(root.children) == 3:
                root = root.children[0]
            if root is not node or call is node:
                return _VS.residual(UNKNOWN)
            calls.append(call)
        value = self.resolve(definition, depth + 1, {})
        for call in calls:
            self.ctx.touch(self.unit, call)
            value = self.resolve(call, depth + 1, {name: value})
        return value

    def _resolve_field(self, name: str, cls: SyntaxNode | None, depth: int,
                       rule: str, shown: str) -> _VS | None:
        """The value of the initializer of the first field ``name`` of
        ``cls`` (default: the site's class), noted as ``rule`` with
        ``shown``; None if that field has no initializer."""
        found = self.interp.members(cls).initializer(name)
        if found is None:
            return None
        init = found[1]
        if depth >= self.ctx.budget.max_indirection + 1:
            return _VS.residual(DEPTH_EXCEEDED)
        self.ctx.note(rule, init, shown)
        self.ctx.touch(self.unit, init)
        return self.resolve(init, depth + 1, {})

    def _enum_constant(self, name: str) -> EnumConst | None:
        """The first enum of the unit, in pre-order, declaring the constant
        ``name``, as its model gives it; or None."""
        index = unit_index(self.unit)
        if name not in index.enum_constants:
            return None
        for decl, _, _ in index.named_types:
            if decl.kind != "enum_declaration":
                continue
            model = self.interp.enum_model(decl)
            if name in model:
                return model[name]
        return None

    def _resolve_field_access(self, node: SyntaxNode, depth: int,
                              env: dict[str, _VS]) -> _VS:
        obj, name_node = node.children
        name = str(name_node.value)
        if obj.kind == "this":
            field = self._resolve_field(name, None, depth, "field-def",
                                        "this." + name)
            return _VS.residual(UNKNOWN) if field is None else field
        cls = self.types.get(str(obj.value)) \
            if obj.kind == "identifier" else None
        if cls is not None:
            if cls.kind == "enum_declaration":
                model = self.interp.enum_model(cls)
                if name in model:
                    self.ctx.note(ENUM_CONSTANT, node, name)
                    return _VS.of(model[name])
            field = self._resolve_field(name, cls, depth, STATIC_FIELD,
                                        f"{obj.value}.{name}")
            if field is not None:
                return field
        return self._lift(node, depth, env)

    # --- calls ---

    def _user_class(self, node: SyntaxNode):
        """The class whose method ``node`` calls, if it is no library
        method (`library_call`): None, the site's class, for an unqualified
        call, or the unit's type whose name is the receiver; else
        _MISSING."""
        if library_call(node) is not None:
            return _MISSING
        if len(node.children) != 3:
            return None
        receiver = node.children[0]
        cls = self.types.get(str(receiver.value)) \
            if receiver.kind == "identifier" else None
        return _MISSING if cls is None else cls

    def _resolve_call(self, node: SyntaxNode, depth: int,
                      env: dict[str, _VS]) -> _VS:
        """A call `_decided` decides: a network or external read, or a
        method of the unit (`_user_class`)."""
        source = _source(node)
        if source is not None:
            rule, marker = source
            self.ctx.note(rule, node, str(node.value))
            return _VS.residual(marker)
        arg_sets = [self._resolve_node(a, depth, env)
                    for a in node.children[-1].children]
        return self._resolve_user_call(self._user_class(node), node,
                                       arg_sets, depth)

    def _resolve_user_call(self, cls: SyntaxNode | None, node: SyntaxNode,
                           arg_sets: list[_VS], depth: int,
                           this_fields: dict[str, object] | None = None
                           ) -> _VS:
        name = str(node.value)
        decl = self.interp.members(cls).methods.get((name, len(arg_sets)))
        if decl is None:
            self.ctx.note("unresolved-call", node, name)
            return _VS.residual(UNKNOWN)
        if "native" in modifier_words(decl):
            self.ctx.note(NATIVE_CALL, node, name)
            return _VS.residual(NATIVE)
        if method_body(decl) is None:
            return _VS.residual(UNKNOWN)
        self.ctx.touch(self.unit, decl)

        # Fully concrete arguments: execute the body. Interpreter frames
        # consume the step/call-depth budget rather than indirection hops,
        # so nested concrete helpers still resolve under the default budget.
        if all(len(vs.values) == 1 and not vs.residuals for vs in arg_sets):
            args = [_thawed(next(iter(vs.values))) for vs in arg_sets]
            saved = self.ctx.steps
            try:
                value = _snapshot(self.interp.call_method(decl, args,
                                                          this_fields))
                self.ctx.note(METHOD_BODY, node,
                              f"{name} -> {_preview(value)}")
                return _VS.of(value)
            except _NotConcrete:
                self.ctx.steps = min(self.ctx.steps, saved + 2000)
            except (_Break, _Continue, _JavaThrow):
                return _VS.residual(UNKNOWN)
            except _BudgetExhausted:
                return _VS.residual(DEPTH_EXCEEDED)

        # Abstract fallback: union of return expressions, one hop.
        if depth >= self.ctx.budget.max_indirection + 1:
            return _VS.residual(DEPTH_EXCEEDED)
        self.ctx.note(METHOD_RETURNS, node, name)
        params = method_params(decl)
        env = dict(zip(params, arg_sets))
        body_block = method_body(decl)
        out = _VS(set(), set())
        for ret in body_block.find_all("return_statement"):
            if not ret.children:
                continue
            out = out.union(self.resolve(ret.children[0], depth + 1, env))
        if not out.values and not out.residuals:
            out.residuals.add(UNKNOWN)
        return self._cap(out, node)


# -- public API ------------------------------------------------------------

def resolve(expr: SyntaxNode, site: InvocationSite,
            budget: ResolutionBudget | None = None) -> ResolvedValue:
    """Resolve one expression within a site's unit to candidate strings."""
    budget = budget or ResolutionBudget()
    ctx = _Ctx(budget)
    engine = _Abstract(ctx, site.unit, site)
    try:
        vs = engine.resolve(expr)
    except _BudgetExhausted:
        vs = _VS.residual(DEPTH_EXCEEDED)
    except RecursionError:
        vs = _VS.residual(DEPTH_EXCEEDED)
    candidates = set()
    raw = set()
    for value in vs.values:
        if isinstance(value, SBuf):
            value = value.text
        raw.add(value if not isinstance(value, (JArray, Builder)) else
                _preview(value))
        if isinstance(value, str):
            candidates.add(value)
        elif isinstance(value, CharArray):
            candidates.add(value.text)
    residuals = set(vs.residuals)
    # Concrete but not a string (e.g. key bytes): raw only, no UNKNOWN.
    if not candidates and not raw and not residuals:
        residuals.add(UNKNOWN)
    return ResolvedValue(candidates=candidates, residuals=residuals,
                         trace=list(ctx.trace), raw_candidates=raw,
                         touched_literals=set(ctx.visible))


def resolve_site(site: InvocationSite,
                 budget: ResolutionBudget | None = None) -> ResolvedValue:
    """Resolve the value-bearing first argument of a restrictive site."""
    if site.subtree.kind != "argument_list" or not site.subtree.children:
        return ResolvedValue(set(), {UNKNOWN})
    return resolve(site.subtree.children[0], site, budget)


def visible_literals(site: InvocationSite,
                     resolved: ResolvedValue | None = None) -> set[str]:
    """String literals lexically present at the site: the enclosing method
    plus every definition the resolver touched."""
    scope = site.method if site.method is not None else site.node
    out = set(unit_index(site.unit).literals_in(scope))
    if resolved is not None:
        out |= resolved.touched_literals
    return out


_ENCRYPTED_CALL = re.compile(
    r"\b(?:\w*[Dd]ecrypt\w*|doFinal"
    r"|\w*(?:[Gg]cm|GCM|[Aa]es|AES|[Cc]rypt|[Cc]ipher)\w*\s*\.\s*decode"
    r")\s*\(")


def _may_encrypt(text: str) -> bool:
    """Whether ``text`` holds ``ecrypt``, ``doFinal`` or ``decode``, as
    every `_ENCRYPTED_CALL` match does."""
    return "ecrypt" in text or "doFinal" in text or "decode" in text


def _encrypted_call(text: str) -> bool:
    """Whether ``text`` holds an `_ENCRYPTED_CALL`; text that cannot hold
    one (`_may_encrypt`) skips the search."""
    return _may_encrypt(text) and _ENCRYPTED_CALL.search(text) is not None


def _feeds_encrypted(facts: WriteFacts, arg_ids: set[str]) -> bool:
    """Whether a definition (`WriteFacts.rhs_of`) that the identifiers
    ``arg_ids`` reach, through the identifiers of definitions' right-hand
    sides, holds a decrypt-style call. One search of each outermost
    right-hand side reached: an inner one's identifiers are reached
    through its name, and its calls are inside the outer one."""
    reads, rhs_of = facts.reads, facts.rhs_of
    seen = set(arg_ids)
    todo = list(seen)
    while todo:
        fresh = reads.get(todo.pop(), set()) - seen
        seen |= fresh
        todo.extend(fresh)
    reached = sorted((rhs for name in seen for rhs in rhs_of.get(name, ())),
                     key=lambda rhs: (rhs.start, -rhs.end))
    searched_to = -1
    for rhs in reached:
        if rhs.end <= searched_to:
            continue   # inside a right-hand side already searched
        if _encrypted_call(rhs.text):
            return True
        searched_to = rhs.end
    return False


def has_encrypted_param_pattern(site: InvocationSite) -> bool:
    """Heuristic for arguments produced by decrypting hard-coded data.

    True when a decrypt-style call (``decrypt*`` / ``doFinal``) appears in
    the argument itself or in a definition feeding one of its identifiers,
    in the enclosing method or a field declaration of the site's class.
    Every right-hand side searched is inside its declaration, so a
    declaration whose text cannot hold a match (`_may_encrypt`) builds no
    `WriteFacts`.
    """
    if _encrypted_call(site.subtree.text):
        return True
    arg_ids = {str(n.value) for n in site.subtree.walk()
               if n.kind == "identifier"}
    if not arg_ids:
        return False
    index = unit_index(site.unit)
    decls = index.member_facts(site.type_body).fields
    if site.method is not None:
        decls = (site.method, *decls)
    return any(_feeds_encrypted(index.write_facts(decl), arg_ids)
               for decl in decls if _may_encrypt(decl.text))
