"""Recover the effective string values an argument expression can take.

Arguments to crypto APIs in decompiled code are frequently built at runtime:
concatenation, StringBuilder/StringBuffer chains, charAt arithmetic, Base64
blobs, XOR loops, ternaries, helper methods. One model of the Java
operators, library calls and string built-ins, in `javamodel`, evaluates
them:

* the concrete interpreter (`interp`) executes the method body before the
  site, and the helpers it calls, under a step budget when every input is a
  compile-time constant; it compiles each statement and expression into a
  closure once per unit, so decoder loops run without re-dispatching on
  node kind and the sites of a file share their helpers' closures;
* where a ternary or a parameter leaves a value open, the set-valued
  resolver here unions ternary branches, follows local/field/method
  definitions up to an indirection budget, and lifts the same functions
  over candidate sets: each is applied to every combination of one
  candidate per argument, in a fixed order, up to a bounded number.

Anything outside the supported operation set degrades to an explicit
residual marker rather than a guess.
"""

from __future__ import annotations

import itertools
import re

from .ingest import InvocationSite
from .interp import (ENUM_CONSTANT, TraceStep, _BudgetExhausted, _Break,
                     _Continue, _Ctx, _Interp, _JavaThrow, _Return)
from .javamodel import (UNARY, Builder, Char, CharArray, EnumConst, JArray,
                        SBuf, _INT_ARITH, _INT_COMPARE, _MISSING,
                        _NotConcrete, _android_base64, _as_int, _binary_op,
                        _cast, _elem_of, _frozen, _load, _preview,
                        _string_builtin, library_call, library_new)
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


def _android_flags(vs: _VS) -> _VS:
    """The flags of ``android.util.Base64.decode`` as this resolver reads
    them: anything but exactly one int counts as 0 (``DEFAULT``), so
    ``Base64.decode(s, Base64.DEFAULT)`` decodes though ``DEFAULT`` names
    no value here."""
    if len(vs.values) == 1:
        try:
            return _VS.of(_as_int(next(iter(vs.values))))
        except _NotConcrete:
            pass
    return _VS.of(0)


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
        if kind == "string_literal":
            self.ctx.note("literal", node, str(node.value))
            return _VS.of(node.value)
        if kind == "character_literal":
            return _VS.of(Char(ord(str(node.value))))
        if kind in ("decimal_integer_literal", "hex_integer_literal"):
            return _VS.of(node.value)
        if kind in ("true", "false"):
            return _VS.of(node.value)
        if kind == "null_literal":
            return _VS.of(None)
        if kind == "parenthesized_expression":
            return self._resolve_node(node.children[0], depth, env)
        if kind == "ternary_expression":
            return self._resolve_ternary(node, depth, env)
        if kind == "binary_expression":
            return self._resolve_binary(node, depth, env)
        if kind == "cast_expression":
            inner = self._resolve_node(node.children[1], depth, env)
            target = str(node.value or "")
            return self._lift(lambda args: _cast(target, args[0]), [inner],
                              node)
        if kind == "unary_expression":
            inner = self._resolve_node(node.children[0], depth, env)
            apply = UNARY.get(str(node.value))
            if apply is None:
                return _VS.residual(UNKNOWN)
            return self._lift(lambda args: apply(args[0]), [inner], node)
        if kind == "identifier":
            return self._resolve_identifier(node, depth, env)
        if kind == "field_access":
            return self._resolve_field_access(node, depth, env)
        if kind == "method_invocation":
            return self._resolve_call(node, depth, env)
        if kind == "object_creation_expression":
            return self._resolve_new(node, depth, env)
        if kind == "array_creation_expression" or kind == "array_initializer":
            return self._resolve_array(node, depth, env)
        if kind == "array_access":
            arr = self._resolve_node(node.children[0], depth, env)
            idx = self._resolve_node(node.children[1], depth, env)
            return self._lift(lambda args: _load(args[0], _as_int(args[1])),
                              [arr, idx], node)
        return _VS.residual(UNKNOWN)

    def _cap(self, vs: _VS, node: SyntaxNode) -> _VS:
        if len(vs.values) > self.ctx.budget.max_candidates:
            self.ctx.note("candidate-cap", node,
                          f"capped at {self.ctx.budget.max_candidates}")
            ordered = _ordered(vs.values)
            return _VS(set(ordered[:self.ctx.budget.max_candidates]),
                       vs.residuals | {DEPTH_EXCEEDED})
        return vs

    def _lift(self, fn, arg_sets: list[_VS], node: SyntaxNode,
              rule: str | None = None, reads: int | None = None) -> _VS:
        """``fn`` of one candidate of each of the first ``reads`` (default:
        all) argument sets, over their combinations in a fixed order, with
        the residuals of every argument. Past ``max_candidates²``
        combinations the rest are dropped and the result is marked
        DEPTH_EXCEEDED; a combination ``fn`` cannot evaluate marks it
        UNKNOWN. ``rule`` names the trace step of a result."""
        out = _VS(set(), set().union(*(vs.residuals for vs in arg_sets)))
        combos = itertools.product(*(_ordered(vs.values)
                                     for vs in arg_sets[:reads]))
        for combo in itertools.islice(combos,
                                      self.ctx.budget.max_candidates ** 2):
            try:
                out.values.add(_snapshot(fn(combo)))
            except _NotConcrete:
                out.residuals.add(UNKNOWN)
        if next(combos, None) is not None:
            out.residuals.add(DEPTH_EXCEEDED)
        if not out.values and not out.residuals:
            out.residuals.add(UNKNOWN)
        out = self._cap(out, node)
        if rule is not None and out.values:
            self.ctx.note(rule, node, _preview(next(iter(out.values))))
        return out

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

    def _resolve_binary(self, node: SyntaxNode, depth: int,
                        env: dict[str, _VS]) -> _VS:
        """A left-deep chain such as ``a + b + … + z`` in one frame, in the
        order nested calls would take: the links tick top-down, then each
        right operand is resolved and its link applied, innermost first."""
        links = [node]
        while links[-1].children[0].kind == "binary_expression":
            links.append(links[-1].children[0])
            self.ctx.tick()
        value = self._resolve_node(links[-1].children[0], depth, env)
        for link in reversed(links):
            right = self._resolve_node(link.children[1], depth, env)
            op = str(link.value)
            if op not in _INT_ARITH and op not in _INT_COMPARE:
                value = _VS.residual(UNKNOWN)
                continue
            apply = _binary_op(op)[0]
            value = self._lift(lambda args: apply(*args), [value, right],
                               link, "concat" if op == "+" else None)
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
        that may reach it (`_reaching_defs`), the latest first, and
        ``UNKNOWN`` for a value not followed."""
        reaching = _reaching_defs(method_body(method), facts.defs[name],
                                  facts.jumps, use)
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
        base = self._resolve_node(obj, depth, env)
        out = _VS(set(), set(base.residuals))
        for value in base.values:
            if isinstance(value, EnumConst):
                bound = value.field_value(name)
                if bound is not None:
                    out.values.add(bound)
                    continue
            out.residuals.add(UNKNOWN)
        if not out.values and not out.residuals:
            out.residuals.add(UNKNOWN)
        return out

    # --- calls ---

    def _resolve_new(self, node: SyntaxNode, depth: int,
                     env: dict[str, _VS]) -> _VS:
        args_node = next((c for c in node.children
                          if c.kind == "argument_list"), None)
        arg_sets = [self._resolve_node(a, depth, env)
                    for a in (args_node.children if args_node else [])]
        library = library_new(node)
        if library is None:
            return _VS.residual(UNKNOWN)
        fn, reads, rule = library
        return self._lift(fn, arg_sets, node, rule, reads)

    def _resolve_array(self, node: SyntaxNode, depth: int,
                       env: dict[str, _VS]) -> _VS:
        init = node if node.kind == "array_initializer" else next(
            (c for c in node.children if c.kind == "array_initializer"), None)
        if init is None:
            return _VS.residual(UNKNOWN)
        elem = "int"
        if node.kind == "array_creation_expression":
            elem = _elem_of(str(node.children[0].value or ""))
        items = []
        for child in init.children:
            vs = self._resolve_node(child, depth, env)
            if len(vs.values) != 1 or vs.residuals:
                return _VS.residual(UNKNOWN)
            items.append(next(iter(vs.values)))
        kind = elem if elem != "object" else "int"
        try:
            return _VS.of(JArray(items, kind).freeze())
        except _NotConcrete:
            return _VS.residual(UNKNOWN)

    def _resolve_call(self, node: SyntaxNode, depth: int,
                      env: dict[str, _VS]) -> _VS:
        """A call, and a receiver chain ``x.f().g()…`` in one frame, in
        the order nested calls would take: the links' own rules and
        arguments top-down, each link ticking as it is reached, then the
        innermost receiver, then each link's call on its receiver's
        values, innermost first."""
        links: list[tuple[SyntaxNode, list[_VS]]] = []
        while True:
            value, arg_sets = self._call_head(node, depth, env)
            if value is not None:
                break
            links.append((node, arg_sets))
            receiver = node.children[0]
            if receiver.kind != "method_invocation":
                value = self._resolve_node(receiver, depth, env)
                break
            self.ctx.tick()
            node = receiver
        for node, arg_sets in reversed(links):
            value = self._call_on(value, node, arg_sets, depth)
        return value

    def _call_head(self, node: SyntaxNode, depth: int, env: dict[str, _VS]
                   ) -> tuple[_VS | None, list[_VS]]:
        """The value of a call its receiver's value does not decide, or
        None; and the call's argument values."""
        name = str(node.value)
        args_node = node.children[-1]
        receiver = node.children[0] if len(node.children) == 3 else None
        recv_text = receiver.text if receiver is not None else ""
        recv_base = recv_text.split(".")[-1] if recv_text else ""

        if name in _NETWORK_METHODS or "Socket" in recv_text \
                or "Http" in recv_text or recv_base == "URL":
            self.ctx.note("network-source", node, name)
            return _VS.residual(NETWORK), []
        if name in _EXTERNAL_METHODS:
            self.ctx.note("external-source", node, name)
            return _VS.residual(EXTERNAL_INPUT), []

        arg_sets = [self._resolve_node(a, depth, env)
                    for a in args_node.children]

        library = library_call(node)
        if library is not None:
            fn, reads, rule = library
            if fn is _android_base64 and reads == 2:
                arg_sets[1] = _android_flags(arg_sets[1])
            return self._lift(fn, arg_sets, node, rule, reads), arg_sets

        # Unqualified call: method of the site's class.
        if receiver is None:
            return self._resolve_user_call(None, name, args_node, arg_sets,
                                           node, depth), arg_sets
        if receiver.kind == "identifier":
            user_class = self.types.get(str(receiver.value))
            if user_class is not None:
                return self._resolve_user_call(user_class, name, args_node,
                                               arg_sets, node,
                                               depth), arg_sets
        return None, arg_sets

    def _call_on(self, base: _VS, node: SyntaxNode, arg_sets: list[_VS],
                 depth: int) -> _VS:
        """An instance call on each of its receiver's values."""
        name = str(node.value)
        args_node = node.children[-1]
        out = _VS(set(), set(base.residuals))
        for value in base.values:
            partial = self._instance_call(value, name, args_node, arg_sets,
                                          node, depth)
            out = out.union(partial)
        if not out.values and not out.residuals:
            out.residuals.add(UNKNOWN)
        return self._cap(out, node)

    def _instance_call(self, base, name: str, args_node: SyntaxNode,
                       arg_sets: list[_VS], node: SyntaxNode,
                       depth: int) -> _VS:
        if isinstance(base, EnumConst):
            if name in ("name", "toString"):
                return _VS.of(base.const_name)
            cls = self.types.get(base.enum_name)
            if cls is not None:
                return self._resolve_user_call(
                    cls, name, args_node, arg_sets, node, depth,
                    this_fields=dict(base.fields))
            return _VS.residual(UNKNOWN)
        return self._lift(lambda args: _string_builtin(base, name, args),
                          arg_sets, node, "string-op")

    def _resolve_user_call(self, cls: SyntaxNode | None, name: str,
                           args_node: SyntaxNode, arg_sets: list[_VS],
                           node: SyntaxNode, depth: int,
                           this_fields: dict[str, object] | None = None
                           ) -> _VS:
        decl = self.interp.members(cls).methods.get(
            (name, len(args_node.children)))
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
            args = [next(iter(vs.values)) for vs in arg_sets]
            saved = self.ctx.steps
            try:
                value = _snapshot(self.interp.call_method(
                    decl, list(args), this_fields))
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


def _encrypted_call(text: str) -> bool:
    """Whether ``text`` holds an `_ENCRYPTED_CALL`. Every match holds
    ``ecrypt``, ``doFinal`` or ``decode``, so text with none of them skips
    the search."""
    return ("ecrypt" in text or "doFinal" in text or "decode" in text) \
        and _ENCRYPTED_CALL.search(text) is not None


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
    """
    if _encrypted_call(site.subtree.text):
        return True
    arg_ids = {str(n.value) for n in site.subtree.walk()
               if n.kind == "identifier"}
    if not arg_ids:
        return False
    index = unit_index(site.unit)
    if site.method is not None \
            and _feeds_encrypted(index.write_facts(site.method), arg_ids):
        return True
    return any(_feeds_encrypted(index.write_facts(member), arg_ids)
               for member in index.member_facts(site.type_body).fields)
