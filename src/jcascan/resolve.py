"""Recover the effective string values an argument expression can take.

Arguments to crypto APIs in decompiled code are frequently built at runtime:
concatenation, StringBuilder/StringBuffer chains, charAt arithmetic, Base64
blobs, XOR loops, ternaries, helper methods. This module evaluates such
expressions with two cooperating engines:

* an abstract, set-valued resolver (here) that unions ternary branches,
  follows local/field/method definitions up to an indirection budget, and
  applies string/decoding operations over candidate sets;
* a bounded concrete interpreter (`interp`) that executes the method body
  before the site, and the helpers it calls, under a step budget when every
  input is a compile-time constant; it compiles each statement and
  expression into a closure once per site, so decoder loops run without
  re-dispatching on node kind.

Anything outside the supported operation set degrades to an explicit
residual marker rather than a guess.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .ingest import InvocationSite
from .interp import (BASE64_DECODE, ENUM_CONSTANT, Builder, Char,
                     CharArray, EnumConst, JArray, SBuf, TraceStep,
                     _ANDROID_URL_SAFE, _MISSING, _BudgetExhausted, _Break,
                     _Continue, _Ctx, _Interp, _JavaThrow, _NotConcrete,
                     _Return, _arith, _as_int, _base64_decode, _cast,
                     _class_members, _compare, _decode_bytes, _elem_of,
                     _enum_model, _find_class, _java_format, _jstr, _load,
                     _preview, _string_builtin)
from .syntax import (SourceUnit, SyntaxNode, decl_name, member_facts,
                     method_body, method_params, modifier_words, type_body,
                     unit_index)

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


@dataclass(frozen=True)
class ResolutionBudget:
    max_indirection: int = 2
    max_candidates: int = 16
    max_steps: int = 10_000
    max_call_depth: int = 8

    def __post_init__(self) -> None:
        if min(self.max_indirection, self.max_candidates,
               self.max_steps, self.max_call_depth) <= 0:
            raise ValueError("budget fields must be positive")


@dataclass
class ResolvedValue:
    candidates: set[str]
    residuals: set[str]
    trace: list[TraceStep] = field(default_factory=list)
    raw_candidates: set = field(default_factory=set)   # may include bytes
    touched_literals: set[str] = field(default_factory=set)

    @property
    def concrete(self) -> bool:
        return bool(self.candidates) and not self.residuals


# -- unit-level lookups --------------------------------------------------

def enclosing_method_node(unit: SourceUnit,
                          node: SyntaxNode) -> SyntaxNode | None:
    """Smallest method or constructor declaration containing ``node``."""
    return unit_index(unit).enclosing_method(node)


# -- abstract, set-valued resolver ----------------------------------------

@dataclass
class _VS:
    """A set of concrete values plus residual markers."""
    values: set
    residuals: set

    @staticmethod
    def of(*values) -> "_VS":
        return _VS(set(values), set())

    @staticmethod
    def residual(*markers: str) -> "_VS":
        return _VS(set(), set(markers))

    def union(self, other: "_VS") -> "_VS":
        return _VS(self.values | other.values,
                   self.residuals | other.residuals)


class _Abstract:
    def __init__(self, ctx: _Ctx, unit: SourceUnit, site: InvocationSite):
        self.ctx = ctx
        self.unit = unit
        self.site = site
        self.class_body = self._site_class_body()
        self.interp = _Interp(ctx, unit, self.class_body)

    def _site_class_body(self) -> SyntaxNode | None:
        """The body of the innermost type declaration holding the site, if
        that type is named."""
        index = unit_index(self.unit)
        node = self.site.node
        body = index.type_bodies.innermost(node.start, node.end)
        return body if body is not None and index.named_owner(body) \
            else None

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
        method = enclosing_method_node(self.unit, expr)
        if method is None:
            return _MISSING
        body = method_body(method)
        if body is None:
            return _MISSING
        saved_steps = self.ctx.steps
        env: dict = {}
        try:
            self.interp.run_region(body, expr, env, {})
            value = self.interp.eval(expr, env, {})
        except (_NotConcrete, _Return, _Break, _Continue, _JavaThrow):
            self.ctx.steps = min(self.ctx.steps,
                                 saved_steps + 1000)
            return _MISSING
        except _BudgetExhausted:
            return _VS.residual(DEPTH_EXCEEDED)
        if isinstance(value, JArray):
            value = value.freeze()
        if isinstance(value, Builder):
            value = SBuf(value.text)
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
            then = self.resolve(node.children[1], depth, env)
            other = self.resolve(node.children[2], depth, env)
            union = self._cap(then.union(other), node)
            self.ctx.note("ternary-union", node,
                          f"{len(union.values)} candidates")
            return union
        if kind == "binary_expression":
            return self._resolve_binary(node, depth, env)
        if kind == "cast_expression":
            inner = self._resolve_node(node.children[1], depth, env)
            return self._map_values(inner, lambda v: _cast(
                str(node.value or ""), v))
        if kind == "unary_expression":
            inner = self._resolve_node(node.children[0], depth, env)
            op = str(node.value)
            if op == "-":
                return self._map_values(inner, lambda v: -_as_int(v))
            if op == "+":
                return self._map_values(inner, _as_int)
            return _VS.residual(UNKNOWN)
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
            return self._cross(arr, idx, node,
                               lambda a, i: _load(a, _as_int(i)))
        return _VS.residual(UNKNOWN)

    def _cap(self, vs: _VS, node: SyntaxNode) -> _VS:
        if len(vs.values) > self.ctx.budget.max_candidates:
            self.ctx.note("candidate-cap", node,
                          f"capped at {self.ctx.budget.max_candidates}")
            ordered = sorted(vs.values, key=_preview)
            return _VS(set(ordered[:self.ctx.budget.max_candidates]),
                       vs.residuals | {DEPTH_EXCEEDED})
        return vs

    def _map_values(self, vs: _VS, fn) -> _VS:
        out = _VS(set(), set(vs.residuals))
        for value in vs.values:
            try:
                out.values.add(fn(value))
            except _NotConcrete:
                out.residuals.add(UNKNOWN)
        if not out.values and not out.residuals:
            out.residuals.add(UNKNOWN)
        return out

    def _cross(self, a: _VS, b: _VS, node: SyntaxNode, fn) -> _VS:
        out = _VS(set(), a.residuals | b.residuals)
        for va in a.values:
            for vb in b.values:
                try:
                    out.values.add(fn(va, vb))
                except _NotConcrete:
                    out.residuals.add(UNKNOWN)
        if not out.values and not out.residuals:
            out.residuals.add(UNKNOWN)
        return self._cap(out, node)

    def _resolve_binary(self, node: SyntaxNode, depth: int,
                        env: dict[str, _VS]) -> _VS:
        op = str(node.value)
        left = self._resolve_node(node.children[0], depth, env)
        right = self._resolve_node(node.children[1], depth, env)
        if op == "+":
            result = self._cross(left, right, node,
                                 lambda a, b: _arith("+", a, b))
            if result.values:
                self.ctx.note("concat", node,
                              _preview(next(iter(result.values))))
            return result
        if op in ("-", "*", "/", "%", "^", "&", "|", "<<", ">>", ">>>"):
            return self._cross(left, right, node,
                               lambda a, b: _arith(op, a, b))
        if op in ("==", "!=", "<", ">", "<=", ">="):
            return self._cross(left, right, node,
                               lambda a, b: _compare(op, a, b))
        return _VS.residual(UNKNOWN)

    # --- names ---

    def _resolve_identifier(self, node: SyntaxNode, depth: int,
                            env: dict[str, _VS]) -> _VS:
        name = str(node.value)
        if name in env:
            return env[name]
        method = enclosing_method_node(self.unit, node)
        if method is not None:
            if name in method_params(method):
                self.ctx.note("external-input", node, name)
                return _VS.residual(EXTERNAL_INPUT)
            definition = self._last_local_def(method, name, node.start)
            if definition is not None:
                if depth >= self.ctx.budget.max_indirection + 1:
                    return _VS.residual(DEPTH_EXCEEDED)
                self.ctx.note("local-def", definition, name)
                self.ctx.touch(self.unit, definition)
                return self.resolve(definition, depth + 1, {})
        field_init = self._field_init(name)
        if field_init is not None:
            if depth >= self.ctx.budget.max_indirection + 1:
                return _VS.residual(DEPTH_EXCEEDED)
            self.ctx.note("field-def", field_init, name)
            self.ctx.touch(self.unit, field_init)
            return self.resolve(field_init, depth + 1, {})
        enum_val = self._enum_constant(name)
        if enum_val is not None:
            self.ctx.note(ENUM_CONSTANT, node, name)
            return _VS.of(enum_val)
        return _VS.residual(UNKNOWN)

    def _last_local_def(self, method: SyntaxNode, name: str,
                        before: int) -> SyntaxNode | None:
        body = method_body(method)
        if body is None:
            return None
        best: SyntaxNode | None = None
        best_pos = -1
        for n in body.walk():
            if n.kind == "variable_declarator" and len(n.children) > 1 \
                    and str(n.children[0].value) == name \
                    and n.start < before and n.start > best_pos:
                best, best_pos = n.children[1], n.start
            elif n.kind == "assignment_expression" \
                    and n.children[0].kind == "identifier" \
                    and str(n.children[0].value) == name \
                    and str(n.value) == "=" \
                    and n.start < before and n.start > best_pos:
                best, best_pos = n.children[1], n.start
        return best

    def _field_init(self, name: str,
                    class_body: SyntaxNode | None = None) -> SyntaxNode | None:
        body = class_body if class_body is not None else self.class_body
        if body is None:
            return None
        for member in _class_members(self.unit, body):
            if member.kind != "field_declaration":
                continue
            for decl in member.children:
                if decl.kind == "variable_declarator" \
                        and str(decl.children[0].value) == name \
                        and len(decl.children) > 1:
                    return decl.children[1]
        return None

    def _enum_constant(self, name: str) -> EnumConst | None:
        index = unit_index(self.unit)
        if name not in index.enum_constants:
            return None
        for decl, _, _ in index.named_types:
            if decl.kind != "enum_declaration":
                continue
            model = _enum_model(self.unit, decl)
            if name in model:
                return model[name]
        return None

    def _resolve_field_access(self, node: SyntaxNode, depth: int,
                              env: dict[str, _VS]) -> _VS:
        obj, name_node = node.children
        name = str(name_node.value)
        if obj.kind == "this":
            field_init = self._field_init(name)
            if field_init is not None:
                if depth >= self.ctx.budget.max_indirection + 1:
                    return _VS.residual(DEPTH_EXCEEDED)
                self.ctx.note("field-def", field_init, "this." + name)
                self.ctx.touch(self.unit, field_init)
                return self.resolve(field_init, depth + 1, {})
            return _VS.residual(UNKNOWN)
        if obj.kind == "identifier":
            cls = _find_class(self.unit, str(obj.value))
            if cls is not None:
                if cls.kind == "enum_declaration":
                    model = _enum_model(self.unit, cls)
                    if name in model:
                        self.ctx.note(ENUM_CONSTANT, node, name)
                        return _VS.of(model[name])
                cbody = type_body(cls)
                init = self._field_init(name, cbody)
                if init is not None:
                    if depth >= self.ctx.budget.max_indirection + 1:
                        return _VS.residual(DEPTH_EXCEEDED)
                    self.ctx.note(STATIC_FIELD, init,
                                  f"{obj.value}.{name}")
                    self.ctx.touch(self.unit, init)
                    return self.resolve(init, depth + 1, {})
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
        type_name = str(node.children[0].value or "").split(".")[-1]
        args_node = next((c for c in node.children
                          if c.kind == "argument_list"), None)
        arg_sets = [self._resolve_node(a, depth, env)
                    for a in (args_node.children if args_node else [])]
        if type_name == "String":
            if not arg_sets:
                return _VS.of("")
            first = arg_sets[0]
            residuals = set().union(*(a.residuals for a in arg_sets))
            out = _VS(set(), residuals)
            for value in first.values:
                try:
                    if isinstance(value, bytes):
                        out.values.add(_decode_bytes(value))
                    elif isinstance(value, CharArray):
                        out.values.add(value.text)
                    elif isinstance(value, tuple):
                        out.values.add("".join(
                            chr(int(v) % 256) for v in value))
                    elif isinstance(value, str):
                        out.values.add(value)
                    else:
                        out.residuals.add(UNKNOWN)
                except (_NotConcrete, ValueError, TypeError):
                    out.residuals.add(UNKNOWN)
            if out.values:
                self.ctx.note("new-string", node,
                              _preview(next(iter(out.values))))
            if not out.values and not out.residuals:
                out.residuals.add(UNKNOWN)
            return out
        if type_name in ("StringBuilder", "StringBuffer"):
            if arg_sets and arg_sets[0].values:
                out = _VS(set(), arg_sets[0].residuals)
                for value in arg_sets[0].values:
                    if isinstance(value, str):
                        out.values.add(SBuf(value))
                    elif isinstance(value, int):
                        out.values.add(SBuf(""))
                    else:
                        out.residuals.add(UNKNOWN)
                return out
            return _VS.of(SBuf(""))
        return _VS.residual(UNKNOWN)

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
        arr = JArray(items, elem if elem != "object" else "int")
        return _VS.of(arr.freeze())

    def _resolve_call(self, node: SyntaxNode, depth: int,
                      env: dict[str, _VS]) -> _VS:
        name = str(node.value)
        args_node = node.children[-1]
        receiver = node.children[0] if len(node.children) == 3 else None
        recv_text = receiver.text if receiver is not None else ""
        recv_base = recv_text.split(".")[-1] if recv_text else ""

        if name in _NETWORK_METHODS or "Socket" in recv_text \
                or "Http" in recv_text or recv_base == "URL":
            self.ctx.note("network-source", node, name)
            return _VS.residual(NETWORK)
        if name in _EXTERNAL_METHODS:
            self.ctx.note("external-source", node, name)
            return _VS.residual(EXTERNAL_INPUT)

        arg_sets = [self._resolve_node(a, depth, env)
                    for a in args_node.children]

        # Static library calls.
        if name == "toChars" and recv_base == "Character":
            return self._apply_unary(arg_sets, node, "char-decode",
                                     lambda v: CharArray(
                                         chr(_as_int(v) & 0x10FFFF)))
        if name == "decode" and recv_base == "Base64":
            flags = 0
            if len(arg_sets) > 1 and len(arg_sets[1].values) == 1:
                try:
                    flags = _as_int(next(iter(arg_sets[1].values)))
                except _NotConcrete:
                    flags = 0
            return self._apply_unary(
                arg_sets[:1], node, BASE64_DECODE,
                lambda v: _base64_decode(_jstr(v),
                                         bool(flags & _ANDROID_URL_SAFE)))
        if name == "decode" and receiver is not None \
                and receiver.kind == "method_invocation" \
                and str(receiver.value) in ("getDecoder", "getUrlDecoder",
                                            "getMimeDecoder"):
            url_safe = str(receiver.value) == "getUrlDecoder"
            return self._apply_unary(
                arg_sets[:1], node, BASE64_DECODE,
                lambda v: _base64_decode(_jstr(v), url_safe))
        if recv_base == "String" and name == "format" and arg_sets:
            return self._format_call(arg_sets, node)
        if recv_base == "String" and name == "valueOf" and arg_sets:
            return self._apply_unary(arg_sets[:1], node, "string-op",
                                     _value_of)
        if recv_base == "Integer" and name in ("parseInt", "valueOf"):
            return self._apply_unary(arg_sets[:1], node, "string-op",
                                     lambda v: int(_jstr(v).strip()))

        # Instance calls on resolvable receivers.
        if receiver is not None:
            user_class = None
            if receiver.kind == "identifier":
                user_class = _find_class(self.unit, str(receiver.value))
            if user_class is not None:
                return self._resolve_user_call(user_class, name, args_node,
                                               arg_sets, node, depth)
            base = self._resolve_node(receiver, depth, env)
            out = _VS(set(), set(base.residuals))
            for value in base.values:
                partial = self._instance_call(value, name, args_node,
                                              arg_sets, node, depth)
                out = out.union(partial)
            if not out.values and not out.residuals:
                out.residuals.add(UNKNOWN)
            return self._cap(out, node)

        # Unqualified call: method of the site's class.
        return self._resolve_user_call(None, name, args_node, arg_sets,
                                       node, depth)

    def _apply_unary(self, arg_sets: list[_VS], node: SyntaxNode,
                     rule: str, fn) -> _VS:
        if not arg_sets:
            return _VS.residual(UNKNOWN)
        vs = arg_sets[0]
        out = _VS(set(), set(vs.residuals))
        for value in vs.values:
            try:
                out.values.add(fn(value))
            except (_NotConcrete, ValueError):
                out.residuals.add(UNKNOWN)
        if out.values:
            self.ctx.note(rule, node, _preview(next(iter(out.values))))
        if not out.values and not out.residuals:
            out.residuals.add(UNKNOWN)
        return out

    def _format_call(self, arg_sets: list[_VS], node: SyntaxNode) -> _VS:
        fmt = arg_sets[0]
        rest = arg_sets[1:]
        residuals = set().union(*(a.residuals for a in arg_sets))
        combos: list[list] = [[]]
        for vs in rest:
            if not vs.values:
                return _VS(set(), residuals | {UNKNOWN})
            combos = [prev + [v] for prev in combos for v in vs.values]
            if len(combos) > self.ctx.budget.max_candidates:
                combos = combos[:self.ctx.budget.max_candidates]
                residuals.add(DEPTH_EXCEEDED)
        out = _VS(set(), residuals)
        for fval in fmt.values:
            for combo in combos:
                try:
                    out.values.add(_java_format(_jstr(fval), combo))
                except _NotConcrete:
                    out.residuals.add(UNKNOWN)
        if out.values:
            self.ctx.note("string-format", node,
                          _preview(next(iter(out.values))))
        if not out.values and not out.residuals:
            out.residuals.add(UNKNOWN)
        return self._cap(out, node)

    def _instance_call(self, base, name: str, args_node: SyntaxNode,
                       arg_sets: list[_VS], node: SyntaxNode,
                       depth: int) -> _VS:
        if isinstance(base, EnumConst):
            if name in ("name", "toString"):
                return _VS.of(base.const_name)
            cls = _find_class(self.unit, base.enum_name)
            if cls is not None:
                return self._resolve_user_call(
                    cls, name, args_node, arg_sets, node, depth,
                    this_fields=dict(base.fields))
            return _VS.residual(UNKNOWN)
        combos: list[list] = [[]]
        for vs in arg_sets:
            if vs.residuals or not vs.values:
                return _VS.residual(*(vs.residuals or {UNKNOWN}))
            combos = [prev + [v] for prev in combos for v in vs.values]
            if len(combos) > self.ctx.budget.max_candidates:
                return _VS.residual(DEPTH_EXCEEDED)
        out = _VS(set(), set())
        for combo in combos:
            try:
                result = _string_builtin(base, name, list(combo))
            except _NotConcrete:
                out.residuals.add(UNKNOWN)
                continue
            if result is _MISSING:
                out.residuals.add(UNKNOWN)
            else:
                if isinstance(result, Builder):
                    result = SBuf(result.text)
                if isinstance(result, JArray):
                    result = result.freeze()
                out.values.add(result)
        if out.values:
            self.ctx.note("string-op", node,
                          f"{name} -> {_preview(next(iter(out.values)))}")
        if not out.values and not out.residuals:
            out.residuals.add(UNKNOWN)
        return out

    def _resolve_user_call(self, cls: SyntaxNode | None, name: str,
                           args_node: SyntaxNode, arg_sets: list[_VS],
                           node: SyntaxNode, depth: int,
                           this_fields: dict[str, object] | None = None
                           ) -> _VS:
        body = type_body(cls) if cls is not None else None
        members = _class_members(self.unit, body) if body is not None else (
            _class_members(self.unit, self.class_body)
            if self.class_body is not None else [])
        decl = None
        for member in members:
            if member.kind == "method_declaration" \
                    and decl_name(member) == name \
                    and len(method_params(member)) == len(args_node.children):
                decl = member
                break
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
                value = self.interp.call_method(
                    decl, list(args), this_fields)
                if isinstance(value, JArray):
                    value = value.freeze()
                if isinstance(value, Builder):
                    value = SBuf(value.text)
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


def _value_of(value):
    if isinstance(value, CharArray):
        return value.text
    if isinstance(value, tuple):
        raise _NotConcrete
    return _jstr(value)


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
    if not candidates and not residuals:
        if raw:
            # Concrete but not a string (e.g. key bytes): keep raw only.
            pass
        else:
            residuals.add(UNKNOWN)
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
    index = unit_index(site.unit)
    method = index.enclosing_method(site.node)
    out = set(index.literals_in(method if method is not None else site.node))
    if resolved is not None:
        out |= resolved.touched_literals
    return out


_ENCRYPTED_CALL = re.compile(
    r"\b(?:\w*[Dd]ecrypt\w*|doFinal"
    r"|\w*(?:[Gg]cm|GCM|[Aa]es|AES|[Cc]rypt|[Cc]ipher)\w*\s*\.\s*decode"
    r")\s*\(")


def _definition(node: SyntaxNode) -> tuple[str, SyntaxNode] | None:
    """(name, right-hand side) when ``node`` assigns a local name."""
    if node.kind == "variable_declarator" and len(node.children) > 1:
        return str(node.children[0].value), node.children[1]
    if node.kind == "assignment_expression" \
            and node.children[0].kind == "identifier":
        return str(node.children[0].value), node.children[1]
    return None


def _feeds_encrypted(scope: SyntaxNode, arg_ids: set[str]) -> bool:
    """Whether a definition in ``scope`` that the identifiers ``arg_ids``
    reach, through the identifiers of definitions' right-hand sides, holds
    a decrypt-style call.

    Linear in the scope: one walk, then one search of each outermost
    right-hand side reached. Each identifier counts for the innermost
    definition whose right-hand side holds it; an outer definition reaches
    an inner one's identifiers through the inner name, which is one of its
    own, and a call inside an inner right-hand side is inside the outer.
    """
    reads: dict[str, set[str]] = {}          # name → identifiers read
    rhs_of: dict[str, list[SyntaxNode]] = {}  # name → right-hand sides
    owner: dict[int, str | None] = {id(scope): None}
    for node in scope.walk():
        name = owner.pop(id(node))
        if node.kind == "identifier" and name is not None:
            reads[name].add(str(node.value))
        for child in node.children:
            owner[id(child)] = name
        defined = _definition(node)
        if defined is not None:
            target, rhs = defined
            owner[id(rhs)] = target
            reads.setdefault(target, set())
            rhs_of.setdefault(target, []).append(rhs)
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
        if _ENCRYPTED_CALL.search(rhs.text):
            return True
        searched_to = rhs.end
    return False


def has_encrypted_param_pattern(site: InvocationSite) -> bool:
    """Heuristic for arguments produced by decrypting hard-coded data.

    True when a decrypt-style call (``decrypt*`` / ``doFinal``) appears in
    the argument itself or in a definition feeding one of its identifiers,
    in the enclosing method or a field declaration of the site's class.
    """
    if _ENCRYPTED_CALL.search(site.subtree.text):
        return True
    arg_ids = {str(n.value) for n in site.subtree.walk()
               if n.kind == "identifier"}
    if not arg_ids:
        return False
    method = enclosing_method_node(site.unit, site.node)
    if method is not None and _feeds_encrypted(method, arg_ids):
        return True
    return any(_feeds_encrypted(member, arg_ids)
               for member in member_facts(site.unit, site.context).fields)
