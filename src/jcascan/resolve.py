"""Recover the effective string values an argument expression can take.

Arguments to crypto APIs in decompiled code are frequently built at runtime:
concatenation, StringBuilder/StringBuffer chains, charAt arithmetic, Base64
blobs, XOR loops, ternaries, helper methods. This module evaluates such
expressions with two cooperating engines:

* an abstract, set-valued resolver that unions ternary branches, follows
  local/field/method definitions up to an indirection budget, and applies
  string/decoding operations over candidate sets;
* a bounded concrete interpreter that executes straight-line method bodies
  and loops (step-budgeted) when every input is a compile-time constant —
  this is what untangles XOR loops and index-juggling builders.

Anything outside the supported operation set degrades to an explicit
residual marker rather than a guess.
"""

from __future__ import annotations

import base64
import binascii
import re
from dataclasses import dataclass, field

from .ingest import InvocationSite
from .syntax import (SourceUnit, SyntaxNode, child_of_kind, decl_name,
                     member_facts, method_body, method_params,
                     modifier_words, string_literals, type_body, unit_index)

# Residual markers.
UNKNOWN = "UNKNOWN"
NATIVE = "NATIVE"
NETWORK = "NETWORK"
EXTERNAL_INPUT = "EXTERNAL_INPUT"
DEPTH_EXCEEDED = "DEPTH_EXCEEDED"

# Trace-step rule names that classification reads back.
STATIC_FIELD = "static-field"
ENUM_CONSTANT = "enum-constant"
BASE64_DECODE = "base64-decode"
NATIVE_CALL = "native-call"
METHOD_BODY = "method-body"
METHOD_RETURNS = "method-returns"

_NETWORK_METHODS = {"readLine", "getInputStream", "openStream",
                    "openConnection", "getResponseMessage", "getHeaderField"}
_EXTERNAL_METHODS = {"getStringExtra", "getProperty", "getParameter",
                     "getText", "getPreference"}

_ANDROID_URL_SAFE = 8  # android.util.Base64.URL_SAFE bit


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


@dataclass(frozen=True)
class TraceStep:
    rule: str
    span: tuple[int, int]
    intermediate: str = ""


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


# -- value model ---------------------------------------------------------

@dataclass(frozen=True)
class Char:
    cp: int


@dataclass(frozen=True)
class CharArray:
    text: str


@dataclass(frozen=True)
class SBuf:
    """Immutable snapshot of a StringBuilder/StringBuffer value."""
    text: str


@dataclass(frozen=True)
class EnumConst:
    enum_name: str
    const_name: str
    fields: tuple[tuple[str, object], ...] = ()

    def field_value(self, name: str) -> object:
        for key, val in self.fields:
            if key == name:
                return val
        return None


class JArray:
    """Mutable array for the concrete interpreter."""

    def __init__(self, items: list, elem: str = "int"):
        self.items = items
        self.elem = elem  # int | byte | char | object

    def freeze(self):
        if self.elem == "char":
            return CharArray("".join(
                chr(v.cp if isinstance(v, Char) else int(v))
                for v in self.items))
        if self.elem == "byte":
            return bytes((int(v) + 256) % 256 for v in self.items)
        return tuple(self.items)


class Builder:
    """Mutable StringBuilder/StringBuffer for the concrete interpreter."""

    def __init__(self, initial: str = ""):
        self.text = initial


class _NotConcrete(Exception):
    pass


class _BudgetExhausted(Exception):
    pass


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _JavaThrow(Exception):
    pass


def _jstr(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, Char):
        return chr(value.cp)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, CharArray):
        return value.text
    if isinstance(value, SBuf):
        return value.text
    if isinstance(value, EnumConst):
        return value.const_name
    if value is None:
        return "null"
    raise _NotConcrete


def _as_int(value) -> int:
    if isinstance(value, bool):
        raise _NotConcrete
    if isinstance(value, int):
        return value
    if isinstance(value, Char):
        return value.cp
    raise _NotConcrete


def _truncate_div(a: int, b: int) -> int:
    if b == 0:
        raise _NotConcrete
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _arith(op: str, a, b):
    if op == "+":
        if isinstance(a, str) or isinstance(b, str):
            return _jstr(a) + _jstr(b)
        return _as_int(a) + _as_int(b)
    ia, ib = _as_int(a), _as_int(b)
    if op == "-":
        return ia - ib
    if op == "*":
        return ia * ib
    if op == "/":
        return _truncate_div(ia, ib)
    if op == "%":
        if ib == 0:
            raise _NotConcrete
        return ia - _truncate_div(ia, ib) * ib
    if op == "^":
        return ia ^ ib
    if op == "&":
        return ia & ib
    if op == "|":
        return ia | ib
    if op == "<<":
        return ia << (ib & 31)
    if op == ">>":
        return ia >> (ib & 31)
    if op == ">>>":
        return (ia % (1 << 32)) >> (ib & 31)
    raise _NotConcrete


def _compare(op: str, a, b) -> bool:
    if op in ("==", "!="):
        if isinstance(a, (str, bool)) or isinstance(b, (str, bool)) \
                or a is None or b is None:
            eq = a == b
        else:
            eq = _as_int(a) == _as_int(b)
        return eq if op == "==" else not eq
    ia, ib = _as_int(a), _as_int(b)
    return {"<": ia < ib, ">": ia > ib,
            "<=": ia <= ib, ">=": ia >= ib}[op]


def _java_format(fmt: str, args: list) -> str:
    out = []
    idx = 0
    i = 0
    while i < len(fmt):
        c = fmt[i]
        if c != "%":
            out.append(c)
            i += 1
            continue
        j = i + 1
        while j < len(fmt) and fmt[j] in "-+ 0123456789.#,":
            j += 1
        if j >= len(fmt):
            raise _NotConcrete
        conv = fmt[j]
        spec = fmt[i:j + 1]
        if conv == "%":
            out.append("%")
            i = j + 1
            continue
        if conv == "n":
            out.append("\n")
            i = j + 1
            continue
        if idx >= len(args):
            raise _NotConcrete
        arg = args[idx]
        idx += 1
        if conv in "sS":
            out.append((spec[:-1] + "s") % _jstr(arg))
        elif conv in "dxXo":
            out.append((spec[:-1] + conv.lower()) % _as_int(arg))
        elif conv == "c":
            out.append(_jstr(arg)[:1])
        else:
            raise _NotConcrete
        i = j + 1
    return "".join(out)


def _base64_decode(data: str, url_safe: bool) -> bytes:
    cleaned = re.sub(r"\s+", "", data)
    if len(cleaned) % 4 != 0:
        raise _NotConcrete
    try:
        if url_safe:
            return base64.urlsafe_b64decode(cleaned)
        return base64.b64decode(cleaned, validate=True)
    except (binascii.Error, ValueError):
        raise _NotConcrete from None


def _decode_bytes(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        return raw.decode("latin-1")


# -- unit-level lookups --------------------------------------------------

def _find_class(unit: SourceUnit, name: str) -> SyntaxNode | None:
    """The first named type declaration called ``name``, in pre-order."""
    return unit_index(unit).first_type.get(name)


def enclosing_method_node(unit: SourceUnit,
                          node: SyntaxNode) -> SyntaxNode | None:
    """Smallest method or constructor declaration containing ``node``."""
    return unit_index(unit).enclosing_method(node)


def _class_members(unit: SourceUnit, class_body: SyntaxNode):
    """Members of the class plus its direct same-unit superclass."""
    members = list(class_body.children)
    owner = unit_index(unit).named_owner(class_body)
    if owner is not None:
        supers = [c for c in owner.children if c.kind == "type_identifier"]
        for sup in supers:
            sup_decl = _find_class(unit, str(sup.value).split("<")[0])
            if sup_decl is not None:
                sup_body = type_body(sup_decl)
                if sup_body is not None:
                    members.extend(sup_body.children)
    return members


def _enum_model(unit: SourceUnit, enum_decl: SyntaxNode) -> dict[str, EnumConst]:
    """Map constant name → EnumConst with constructor-bound fields."""
    name = decl_name(enum_decl) or "?"
    body = child_of_kind(enum_decl, "enum_body")
    if body is None:
        return {}
    ctor = child_of_kind(body, "constructor_declaration")
    param_names = method_params(ctor) if ctor is not None else []
    # this.field = param assignments in the constructor body.
    field_of_param: dict[str, str] = {}
    if ctor is not None:
        cbody = method_body(ctor)
        if cbody is not None:
            for stmt in cbody.find_all("assignment_expression"):
                lhs, rhs = stmt.children[0], stmt.children[1]
                if lhs.kind == "field_access" and lhs.children[0].kind == "this" \
                        and rhs.kind == "identifier" \
                        and str(rhs.value) in param_names:
                    field_of_param[str(rhs.value)] = str(lhs.children[1].value)
    out: dict[str, EnumConst] = {}
    for const in body.children:
        if const.kind != "enum_constant":
            continue
        cname = str(const.children[0].value)
        args = next((c for c in const.children
                     if c.kind == "argument_list"), None)
        bound: list[tuple[str, object]] = []
        if args is not None:
            for pname, arg in zip(param_names, args.children):
                fname = field_of_param.get(pname)
                if fname is None:
                    continue
                if arg.kind == "string_literal":
                    bound.append((fname, arg.value))
                elif arg.kind in ("decimal_integer_literal",
                                  "hex_integer_literal"):
                    bound.append((fname, arg.value))
                elif arg.kind == "character_literal":
                    bound.append((fname, Char(ord(str(arg.value)))))
        out[cname] = EnumConst(name, cname, tuple(bound))
    return out


# -- shared resolution context -------------------------------------------

class _Ctx:
    def __init__(self, budget: ResolutionBudget):
        self.budget = budget
        self.steps = 0
        self.trace: list[TraceStep] = []
        self.visible: set[str] = set()

    def tick(self, n: int = 1) -> None:
        self.steps += n
        if self.steps > self.budget.max_steps:
            raise _BudgetExhausted

    def note(self, rule: str, node: SyntaxNode, intermediate: str = "") -> None:
        if len(self.trace) < 200:
            self.trace.append(TraceStep(rule, (node.start, node.end),
                                        intermediate))

    def touch(self, node: SyntaxNode) -> None:
        self.visible |= string_literals(node)


# -- concrete interpreter --------------------------------------------------

def _written_names(stmt: SyntaxNode) -> set[str]:
    """Names a statement may write: declared vars, assignment targets,
    update targets, and identifier receivers of mutating calls."""
    out: set[str] = set()
    for node in stmt.walk():
        if node.kind == "variable_declarator":
            out.add(str(node.children[0].value))
        elif node.kind == "assignment_expression":
            lhs = node.children[0]
            if lhs.kind == "identifier":
                out.add(str(lhs.value))
            elif lhs.kind == "array_access" \
                    and lhs.children[0].kind == "identifier":
                out.add(str(lhs.children[0].value))
        elif node.kind == "update_expression" \
                and node.children[0].kind == "identifier":
            out.add(str(node.children[0].value))
        elif node.kind == "method_invocation" and len(node.children) == 3 \
                and node.children[0].kind == "identifier":
            out.add(str(node.children[0].value))
    return out


class _Interp:
    """Executes concrete Java statements under a step budget."""

    def __init__(self, ctx: _Ctx, unit: SourceUnit,
                 class_body: SyntaxNode | None):
        self.ctx = ctx
        self.unit = unit
        self.class_body = class_body
        self.call_depth = 0

    # --- entry points ---

    def call_method(self, decl: SyntaxNode, args: list,
                    this_fields: dict[str, object] | None = None):
        if self.call_depth >= self.ctx.budget.max_call_depth:
            raise _NotConcrete
        body = method_body(decl)
        if body is None:
            raise _NotConcrete
        params = method_params(decl)
        if len(params) != len(args):
            raise _NotConcrete
        env = dict(zip(params, args))
        self.call_depth += 1
        try:
            self.exec_block(body, env, this_fields or {})
        except _Return as ret:
            return ret.value
        finally:
            self.call_depth -= 1
        return None

    def run_region(self, body: SyntaxNode, stop_before: SyntaxNode,
                   env: dict, fields: dict) -> None:
        """Execute top-level statements of ``body`` preceding the one that
        contains ``stop_before``.

        A statement that cannot be executed concretely poisons (unbinds)
        every variable it might write, instead of aborting the region;
        later reads of a poisoned variable fail on their own.
        """
        for stmt in body.children:
            if stmt.start <= stop_before.start <= stmt.end:
                return
            try:
                self.exec_stmt(stmt, env, fields)
            except (_NotConcrete, _JavaThrow):
                for name in _written_names(stmt):
                    env.pop(name, None)
            except (_Return, _Break, _Continue):
                raise _NotConcrete from None

    # --- statements ---

    def exec_block(self, block: SyntaxNode, env: dict, fields: dict) -> None:
        for stmt in block.children:
            self.exec_stmt(stmt, env, fields)

    def exec_stmt(self, stmt: SyntaxNode, env: dict, fields: dict) -> None:
        self.ctx.tick()
        kind = stmt.kind
        if kind == "local_variable_declaration":
            elem = self._elem_of(str(stmt.children[0].value or ""))
            for decl in stmt.children[1:]:
                if decl.kind != "variable_declarator":
                    continue
                name = str(decl.children[0].value)
                if len(decl.children) > 1:
                    init = decl.children[1]
                    if init.kind == "array_initializer":
                        env[name] = self._array_from_initializer(
                            init, env, fields, elem)
                    else:
                        env[name] = self.eval(init, env, fields)
                else:
                    env[name] = None
            return
        if kind == "expression_statement":
            self.eval(stmt.children[0], env, fields)
            return
        if kind == "block":
            self.exec_block(stmt, env, fields)
            return
        if kind == "if_statement":
            cond = self.eval(stmt.children[0], env, fields)
            if not isinstance(cond, bool):
                raise _NotConcrete
            branches = stmt.children[1:]
            if cond and branches:
                self.exec_stmt(branches[0], env, fields)
            elif not cond and len(branches) > 1:
                self.exec_stmt(branches[1], env, fields)
            return
        if kind == "for_statement":
            self._exec_for(stmt, env, fields)
            return
        if kind == "enhanced_for_statement":
            self._exec_enhanced_for(stmt, env, fields)
            return
        if kind in ("while_statement", "do_statement"):
            self._exec_while(stmt, env, fields, do=kind == "do_statement")
            return
        if kind == "return_statement":
            value = self.eval(stmt.children[0], env, fields) \
                if stmt.children else None
            raise _Return(value)
        if kind == "break_statement":
            raise _Break
        if kind == "continue_statement":
            raise _Continue
        if kind == "throw_statement":
            raise _JavaThrow
        if kind == "try_statement":
            self._exec_try(stmt, env, fields)
            return
        if kind == "synchronized_statement":
            self.exec_block(stmt.children[-1], env, fields)
            return
        if kind in ("assert_statement",):
            return
        raise _NotConcrete

    def _exec_for(self, stmt: SyntaxNode, env: dict, fields: dict) -> None:
        n_init, has_cond, n_upd, has_body = stmt.value
        children = stmt.children
        inits = children[:n_init]
        cond = children[n_init] if has_cond else None
        upd_start = n_init + (1 if has_cond else 0)
        updates = children[upd_start:upd_start + n_upd]
        body = children[-1] if has_body else None
        for init in inits:
            self.exec_stmt(init, env, fields) \
                if init.kind == "local_variable_declaration" \
                else self.eval(init, env, fields)
        while True:
            self.ctx.tick()
            if cond is not None:
                test = self.eval(cond, env, fields)
                if not isinstance(test, bool):
                    raise _NotConcrete
                if not test:
                    return
            if body is not None:
                try:
                    self.exec_stmt(body, env, fields)
                except _Break:
                    return
                except _Continue:
                    pass
            for update in updates:
                self.eval(update, env, fields)
            if cond is None and not updates:
                raise _NotConcrete

    def _exec_enhanced_for(self, stmt: SyntaxNode, env: dict,
                           fields: dict) -> None:
        _, name_node, iterable = stmt.children[0], stmt.children[1], \
            stmt.children[2]
        body = stmt.children[3] if len(stmt.children) > 3 else None
        seq = self.eval(iterable, env, fields)
        items: list
        if isinstance(seq, JArray):
            items = list(seq.items)
        elif isinstance(seq, (tuple, bytes)):
            items = list(seq)
        elif isinstance(seq, CharArray):
            items = [Char(ord(c)) for c in seq.text]
        elif isinstance(seq, str):
            items = [Char(ord(c)) for c in seq]
        else:
            raise _NotConcrete
        name = str(name_node.value)
        for item in items:
            self.ctx.tick()
            env[name] = item
            if body is not None:
                try:
                    self.exec_stmt(body, env, fields)
                except _Break:
                    return
                except _Continue:
                    continue

    def _exec_while(self, stmt: SyntaxNode, env: dict, fields: dict,
                    do: bool) -> None:
        cond = stmt.children[-1] if do else stmt.children[0]
        body = stmt.children[0] if do and len(stmt.children) > 1 else (
            stmt.children[1] if not do and len(stmt.children) > 1 else None)
        first = True
        while True:
            self.ctx.tick()
            if not (do and first):
                test = self.eval(cond, env, fields)
                if not isinstance(test, bool):
                    raise _NotConcrete
                if not test:
                    return
            if body is not None:
                try:
                    self.exec_stmt(body, env, fields)
                except _Break:
                    return
                except _Continue:
                    pass
            if do:
                first = False
                test = self.eval(cond, env, fields)
                if not isinstance(test, bool):
                    raise _NotConcrete
                if not test:
                    return

    def _exec_try(self, stmt: SyntaxNode, env: dict, fields: dict) -> None:
        blocks = [c for c in stmt.children if c.kind == "block"]
        catches = [c for c in stmt.children if c.kind == "catch_clause"]
        final = next((c for c in stmt.children
                      if c.kind == "finally_clause"), None)
        try:
            for extra in stmt.children:
                if extra.kind == "local_variable_declaration":
                    self.exec_stmt(extra, env, fields)
            if blocks:
                self.exec_block(blocks[0], env, fields)
        except _JavaThrow:
            if catches:
                cblock = next(c for c in catches[0].children
                              if c.kind == "block")
                self.exec_block(cblock, env, fields)
            else:
                if final is not None:
                    self.exec_block(final.children[0], env, fields)
                raise
        if final is not None:
            self.exec_block(final.children[0], env, fields)

    # --- expressions ---

    @staticmethod
    def _elem_of(type_text: str) -> str:
        base = type_text.rstrip("[]")
        return base if base in ("int", "byte", "char", "short", "long") \
            else "object"

    def _array_from_initializer(self, init: SyntaxNode, env: dict,
                                fields: dict, elem: str) -> JArray:
        items = [self.eval(c, env, fields) if c.kind != "array_initializer"
                 else self._array_from_initializer(c, env, fields, elem)
                 for c in init.children]
        return JArray(items, elem if elem != "object" else "int")

    def eval(self, node: SyntaxNode, env: dict, fields: dict):
        self.ctx.tick()
        kind = node.kind
        if kind == "string_literal":
            return node.value
        if kind == "character_literal":
            return Char(ord(str(node.value)))
        if kind in ("decimal_integer_literal", "hex_integer_literal",
                    "decimal_floating_point_literal"):
            return node.value
        if kind in ("true", "false"):
            return node.value
        if kind == "null_literal":
            return None
        if kind == "identifier":
            name = str(node.value)
            if name in env:
                return env[name]
            if name in fields:
                return fields[name]
            found = self._static_field(name)
            if found is not _MISSING:
                return found
            raise _NotConcrete
        if kind == "parenthesized_expression":
            return self.eval(node.children[0], env, fields)
        if kind == "binary_expression":
            op = str(node.value)
            if op == "&&":
                left = self.eval(node.children[0], env, fields)
                if not isinstance(left, bool):
                    raise _NotConcrete
                return left and self._as_bool(node.children[1], env, fields)
            if op == "||":
                left = self.eval(node.children[0], env, fields)
                if not isinstance(left, bool):
                    raise _NotConcrete
                return left or self._as_bool(node.children[1], env, fields)
            a = self.eval(node.children[0], env, fields)
            b = self.eval(node.children[1], env, fields)
            if op in ("==", "!=", "<", ">", "<=", ">="):
                return _compare(op, a, b)
            return _arith(op, a, b)
        if kind == "unary_expression":
            val = self.eval(node.children[0], env, fields)
            op = str(node.value)
            if op == "-":
                return -_as_int(val)
            if op == "+":
                return _as_int(val)
            if op == "~":
                return ~_as_int(val)
            if op == "!":
                if not isinstance(val, bool):
                    raise _NotConcrete
                return not val
            raise _NotConcrete
        if kind == "update_expression":
            return self._eval_update(node, env, fields)
        if kind == "assignment_expression":
            return self._eval_assign(node, env, fields)
        if kind == "ternary_expression":
            # Ternaries always resolve to the union of both branches (the
            # abstract layer owns that rule), so never pick one here.
            raise _NotConcrete
        if kind == "cast_expression":
            target = str(node.value or "")
            val = self.eval(node.children[1], env, fields)
            if target == "char":
                return Char(_as_int(val) & 0xFFFF)
            if target == "byte":
                return ((_as_int(val) + 128) % 256) - 128
            if target in ("int", "long", "short"):
                return _as_int(val)
            return val
        if kind == "array_access":
            arr = self.eval(node.children[0], env, fields)
            idx = _as_int(self.eval(node.children[1], env, fields))
            return self._load(arr, idx)
        if kind == "array_creation_expression":
            return self._eval_new_array(node, env, fields)
        if kind == "array_initializer":
            return self._array_from_initializer(node, env, fields, "int")
        if kind == "object_creation_expression":
            return self._eval_new_object(node, env, fields)
        if kind == "method_invocation":
            return self._eval_call(node, env, fields)
        if kind == "field_access":
            return self._eval_field_access(node, env, fields)
        if kind == "this":
            raise _NotConcrete
        raise _NotConcrete

    def _as_bool(self, node: SyntaxNode, env: dict, fields: dict) -> bool:
        val = self.eval(node, env, fields)
        if not isinstance(val, bool):
            raise _NotConcrete
        return val

    @staticmethod
    def _load(arr, idx: int):
        if isinstance(arr, JArray):
            if not 0 <= idx < len(arr.items):
                raise _NotConcrete
            return arr.items[idx]
        if isinstance(arr, (tuple, bytes)):
            if not 0 <= idx < len(arr):
                raise _NotConcrete
            return arr[idx]
        if isinstance(arr, CharArray):
            if not 0 <= idx < len(arr.text):
                raise _NotConcrete
            return Char(ord(arr.text[idx]))
        raise _NotConcrete

    def _eval_update(self, node: SyntaxNode, env: dict, fields: dict):
        target = node.children[0]
        delta = 1 if str(node.value) == "++" else -1
        if target.kind == "identifier":
            name = str(target.value)
            if name not in env:
                raise _NotConcrete
            env[name] = _as_int(env[name]) + delta
            return env[name]
        if target.kind == "array_access":
            arr = self.eval(target.children[0], env, fields)
            idx = _as_int(self.eval(target.children[1], env, fields))
            if not isinstance(arr, JArray) or not 0 <= idx < len(arr.items):
                raise _NotConcrete
            arr.items[idx] = _as_int(arr.items[idx]) + delta
            return arr.items[idx]
        raise _NotConcrete

    def _eval_assign(self, node: SyntaxNode, env: dict, fields: dict):
        lhs, rhs = node.children
        op = str(node.value)
        value = self.eval(rhs, env, fields)

        def combined(old):
            if op == "=":
                return value
            return _arith(op[:-1], old, value)

        if lhs.kind == "identifier":
            name = str(lhs.value)
            old = env.get(name) if op != "=" else None
            if op != "=" and name not in env:
                raise _NotConcrete
            env[name] = combined(old)
            return env[name]
        if lhs.kind == "array_access":
            arr = self.eval(lhs.children[0], env, fields)
            idx = _as_int(self.eval(lhs.children[1], env, fields))
            if not isinstance(arr, JArray) or not 0 <= idx < len(arr.items):
                raise _NotConcrete
            new = combined(arr.items[idx])
            if arr.elem == "char" and isinstance(new, int):
                new = Char(new & 0xFFFF)
            arr.items[idx] = new
            return new
        if lhs.kind == "field_access" and lhs.children[0].kind == "this":
            fname = str(lhs.children[1].value)
            fields[fname] = combined(fields.get(fname))
            return fields[fname]
        raise _NotConcrete

    def _eval_new_array(self, node: SyntaxNode, env: dict, fields: dict):
        type_node = node.children[0]
        elem = self._elem_of(str(type_node.value or ""))
        init = next((c for c in node.children
                     if c.kind == "array_initializer"), None)
        if init is not None:
            return self._array_from_initializer(init, env, fields, elem)
        dims = [c for c in node.children[1:]
                if c.kind != "array_initializer"]
        if len(dims) == 1:
            size = _as_int(self.eval(dims[0], env, fields))
            if size < 0 or size > 65536:
                raise _NotConcrete
            fill = Char(0) if elem == "char" else 0
            return JArray([fill] * size, elem)
        raise _NotConcrete

    def _eval_new_object(self, node: SyntaxNode, env: dict, fields: dict):
        type_name = str(node.children[0].value or "")
        args_node = next((c for c in node.children
                          if c.kind == "argument_list"), None)
        args = [self.eval(a, env, fields)
                for a in (args_node.children if args_node else [])]
        base = type_name.split(".")[-1]
        if base == "String":
            if not args:
                return ""
            first = args[0]
            if isinstance(first, JArray):
                first = first.freeze()
            if isinstance(first, bytes):
                return _decode_bytes(first)
            if isinstance(first, CharArray):
                if len(args) == 3:
                    off, cnt = _as_int(args[1]), _as_int(args[2])
                    return first.text[off:off + cnt]
                return first.text
            if isinstance(first, tuple):
                return "".join(chr(int(v) % 256) for v in first)
            if isinstance(first, str):
                return first
            raise _NotConcrete
        if base in ("StringBuilder", "StringBuffer"):
            if args and isinstance(args[0], str):
                return Builder(args[0])
            if args and isinstance(args[0], int):
                return Builder("")
            return Builder("")
        raise _NotConcrete

    def _eval_field_access(self, node: SyntaxNode, env: dict, fields: dict):
        obj, name_node = node.children
        name = str(name_node.value)
        if obj.kind == "this":
            if name in fields:
                return fields[name]
            found = self._static_field(name)
            if found is not _MISSING:
                return found
            raise _NotConcrete
        if obj.kind == "identifier":
            cname = str(obj.value)
            if name == "length":
                base = self.eval(obj, env, fields) if cname in env else None
                if isinstance(base, JArray):
                    return len(base.items)
                if isinstance(base, (tuple, bytes)):
                    return len(base)
                if isinstance(base, CharArray):
                    return len(base.text)
            cls = _find_class(self.unit, cname)
            if cls is not None:
                if cls.kind == "enum_declaration":
                    model = _enum_model(self.unit, cls)
                    if name in model:
                        self.ctx.note(ENUM_CONSTANT, node, name)
                        return model[name]
                found = self._static_field(name, cls)
                if found is not _MISSING:
                    return found
            try:
                base = self.eval(obj, env, fields)
            except _NotConcrete:
                raise
            if isinstance(base, EnumConst):
                val = base.field_value(name)
                if val is not None:
                    return val
            raise _NotConcrete
        base = self.eval(obj, env, fields)
        if name == "length":
            if isinstance(base, JArray):
                return len(base.items)
            if isinstance(base, (tuple, bytes)):
                return len(base)
            if isinstance(base, CharArray):
                return len(base.text)
        if isinstance(base, EnumConst):
            val = base.field_value(name)
            if val is not None:
                return val
        raise _NotConcrete

    def _static_field(self, name: str, cls: SyntaxNode | None = None):
        body = type_body(cls) if cls is not None else None
        members = _class_members(self.unit, body) if body is not None else (
            _class_members(self.unit, self.class_body)
            if self.class_body is not None else [])
        for member in members:
            if member.kind != "field_declaration":
                continue
            for decl in member.children:
                if decl.kind != "variable_declarator":
                    continue
                if str(decl.children[0].value) != name:
                    continue
                if len(decl.children) < 2:
                    return _MISSING
                self.ctx.touch(member)
                init = decl.children[1]
                if init.kind == "array_initializer":
                    type_node = next((c for c in member.children
                                      if c.kind == "type_identifier"), None)
                    elem = self._elem_of(str(type_node.value or "")) \
                        if type_node is not None else "int"
                    return self._array_from_initializer(init, {}, {}, elem)
                return self.eval(init, {}, {})
        return _MISSING

    # --- calls ---

    def _eval_call(self, node: SyntaxNode, env: dict, fields: dict):
        name = str(node.value)
        args_node = node.children[-1]
        has_receiver = len(node.children) == 3
        receiver = node.children[0] if has_receiver else None

        # Static library calls keyed on the receiver text.
        recv_text = receiver.text if receiver is not None else ""
        if name == "toChars" and recv_text.endswith("Character"):
            cp = _as_int(self.eval(args_node.children[0], env, fields))
            return CharArray(chr(cp & 0x10FFFF))
        if recv_text.split(".")[-1] == "Base64" and name == "decode":
            data = self.eval(args_node.children[0], env, fields)
            flags = 0
            if len(args_node.children) > 1:
                flags = _as_int(self.eval(args_node.children[1], env, fields))
            decoded = _base64_decode(_jstr(data),
                                     bool(flags & _ANDROID_URL_SAFE))
            self.ctx.note(BASE64_DECODE, node, _preview(decoded))
            return decoded
        if name == "decode" and receiver is not None \
                and receiver.kind == "method_invocation" \
                and str(receiver.value) in ("getDecoder", "getUrlDecoder",
                                            "getMimeDecoder"):
            data = self.eval(args_node.children[0], env, fields)
            decoded = _base64_decode(_jstr(data),
                                     str(receiver.value) == "getUrlDecoder")
            self.ctx.note(BASE64_DECODE, node, _preview(decoded))
            return decoded
        if recv_text.split(".")[-1] == "String" and name in ("valueOf",
                                                             "format",
                                                             "copyValueOf"):
            args = [self.eval(a, env, fields) for a in args_node.children]
            if name == "format":
                return _java_format(_jstr(args[0]), args[1:])
            first = args[0]
            if isinstance(first, JArray):
                first = first.freeze()
            if isinstance(first, CharArray):
                return first.text
            return _jstr(first)
        if recv_text.split(".")[-1] == "Integer" and name in ("parseInt",
                                                              "valueOf"):
            text = _jstr(self.eval(args_node.children[0], env, fields))
            try:
                return int(text.strip())
            except ValueError:
                raise _NotConcrete from None
        if recv_text.split(".")[-1] == "Math" and name in ("min", "max",
                                                           "abs"):
            args = [_as_int(self.eval(a, env, fields))
                    for a in args_node.children]
            return {"min": min, "max": max, "abs": lambda *a: abs(a[0])}[
                name](*args)

        # Instance calls.
        if receiver is not None:
            if receiver.kind == "identifier" \
                    and str(receiver.value) not in env \
                    and str(receiver.value) not in fields:
                cls = _find_class(self.unit, str(receiver.value))
                if cls is not None:
                    return self._call_user(cls, name, args_node, env, fields)
                raise _NotConcrete
            base = self.eval(receiver, env, fields)
            args = [self.eval(a, env, fields) for a in args_node.children]
            result = _string_builtin(base, name, args)
            if result is not _MISSING:
                return result
            if isinstance(base, EnumConst):
                if name in ("name", "toString"):
                    return base.const_name
                cls = _find_class(self.unit, base.enum_name)
                if cls is not None:
                    return self._call_user(cls, name, args_node, env, fields,
                                           this_fields=dict(base.fields),
                                           evaluated=args)
            raise _NotConcrete

        # Unqualified call: same-class (or superclass) method, or a
        # this-bound callable.
        return self._call_user(None, name, args_node, env, fields)

    def _call_user(self, cls: SyntaxNode | None, name: str,
                   args_node: SyntaxNode, env: dict, fields: dict,
                   this_fields: dict[str, object] | None = None,
                   evaluated: list | None = None):
        body = type_body(cls) if cls is not None else None
        members = _class_members(self.unit, body) if body is not None else (
            _class_members(self.unit, self.class_body)
            if self.class_body is not None else [])
        n_args = len(args_node.children)
        decl = None
        for member in members:
            if member.kind == "method_declaration" \
                    and decl_name(member) == name \
                    and len(method_params(member)) == n_args:
                decl = member
                break
        if decl is None:
            raise _NotConcrete
        if "native" in modifier_words(decl) or method_body(decl) is None:
            raise _NotConcrete
        self.ctx.touch(decl)
        args = evaluated if evaluated is not None else [
            self.eval(a, env, fields) for a in args_node.children]
        return self.call_method(decl, args,
                                this_fields if this_fields is not None
                                else fields)


_MISSING = object()


def _string_builtin(base, name: str, args: list):
    """String / StringBuilder / array built-ins; _MISSING if not one."""
    if isinstance(base, Builder):
        if name == "append":
            if args:
                arg = args[0]
                if isinstance(arg, JArray):
                    arg = arg.freeze()
                base.text += _jstr(arg)
            return base
        if name == "toString":
            return base.text
        if name == "reverse":
            base.text = base.text[::-1]
            return base
        if name == "insert" and len(args) == 2:
            pos = _as_int(args[0])
            base.text = base.text[:pos] + _jstr(args[1]) + base.text[pos:]
            return base
        if name == "length":
            return len(base.text)
        if name == "charAt":
            idx = _as_int(args[0])
            if not 0 <= idx < len(base.text):
                raise _NotConcrete
            return Char(ord(base.text[idx]))
        if name == "deleteCharAt":
            idx = _as_int(args[0])
            base.text = base.text[:idx] + base.text[idx + 1:]
            return base
        if name == "setLength":
            base.text = base.text[:_as_int(args[0])]
            return base
        return _MISSING
    if isinstance(base, SBuf):
        if name == "append":
            arg = args[0]
            if isinstance(arg, JArray):
                arg = arg.freeze()
            return SBuf(base.text + _jstr(arg))
        if name == "toString":
            return base.text
        if name == "reverse":
            return SBuf(base.text[::-1])
        return _MISSING
    if isinstance(base, str):
        if name == "charAt":
            idx = _as_int(args[0])
            if not 0 <= idx < len(base):
                raise _NotConcrete
            return Char(ord(base[idx]))
        if name == "length":
            return len(base)
        if name == "substring":
            start = _as_int(args[0])
            end = _as_int(args[1]) if len(args) > 1 else len(base)
            if not 0 <= start <= end <= len(base):
                raise _NotConcrete
            return base[start:end]
        if name == "replace":
            return base.replace(_jstr(args[0]), _jstr(args[1]))
        if name == "replaceAll":
            try:
                return re.sub(_jstr(args[0]), _jstr(args[1]), base)
            except re.error:
                raise _NotConcrete from None
        if name == "concat":
            return base + _jstr(args[0])
        if name == "trim" or name == "strip":
            return base.strip()
        if name == "toLowerCase":
            return base.lower()
        if name == "toUpperCase":
            return base.upper()
        if name == "toString" or name == "intern":
            return base
        if name == "toCharArray":
            return CharArray(base)
        if name == "getBytes":
            return base.encode("utf-8")
        if name == "indexOf":
            return base.find(_jstr(args[0]),
                             _as_int(args[1]) if len(args) > 1 else 0)
        if name == "lastIndexOf":
            return base.rfind(_jstr(args[0]))
        if name in ("equals", "equalsIgnoreCase"):
            other = args[0]
            if not isinstance(other, str):
                return False
            return base.lower() == other.lower() \
                if name == "equalsIgnoreCase" else base == other
        if name == "contains":
            return _jstr(args[0]) in base
        if name == "startsWith":
            return base.startswith(_jstr(args[0]))
        if name == "endsWith":
            return base.endswith(_jstr(args[0]))
        if name == "isEmpty":
            return base == ""
        if name == "split":
            try:
                parts = re.split(_jstr(args[0]), base)
            except re.error:
                raise _NotConcrete from None
            return JArray(parts, "object")
        if name == "valueOf":
            return _jstr(args[0]) if args else base
        return _MISSING
    if isinstance(base, (JArray, CharArray, tuple, bytes)):
        return _MISSING
    return _MISSING


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
        self.site_method = enclosing_method_node(unit, site.node) \
            if site.node is not None else None

    def _site_class_body(self) -> SyntaxNode | None:
        """The named type body the site's context members belong to."""
        if not self.site.context:
            return None
        return unit_index(self.unit).member_body.get(id(self.site.context[0]))

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
            return self._map_values(inner, lambda v: self._cast(
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
                               lambda a, i: _Interp._load(a, _as_int(i)))
        return _VS.residual(UNKNOWN)

    @staticmethod
    def _cast(target: str, value):
        if target == "char":
            return Char(_as_int(value) & 0xFFFF)
        if target == "byte":
            return ((_as_int(value) + 128) % 256) - 128
        if target in ("int", "long", "short"):
            return _as_int(value)
        return value

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
                self.ctx.touch(definition)
                return self.resolve(definition, depth + 1, {})
        field_init = self._field_init(name)
        if field_init is not None:
            if depth >= self.ctx.budget.max_indirection + 1:
                return _VS.residual(DEPTH_EXCEEDED)
            self.ctx.note("field-def", field_init, name)
            self.ctx.touch(field_init)
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
                self.ctx.touch(field_init)
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
                    self.ctx.touch(init)
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
            elem = _Interp._elem_of(str(node.children[0].value or ""))
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
                [arg_sets[0]], node, BASE64_DECODE,
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
        self.ctx.touch(decl)

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


def _preview(value) -> str:
    try:
        text = _jstr(value)
    except _NotConcrete:
        text = repr(value)
    return text if len(text) <= 48 else text[:45] + "..."


# -- public API ------------------------------------------------------------

def resolve(expr: SyntaxNode, site: InvocationSite,
            budget: ResolutionBudget | None = None) -> ResolvedValue:
    """Resolve one expression within a site's unit to candidate strings."""
    budget = budget or ResolutionBudget()
    if site.unit is None:
        return ResolvedValue(set(), {UNKNOWN})
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
    out: set[str] = set()
    if site.unit is not None and site.node is not None:
        index = unit_index(site.unit)
        method = index.enclosing_method(site.node)
        out |= index.method_literals(method) if method is not None \
            else string_literals(site.node)
    if resolved is not None:
        out |= resolved.touched_literals
    return out


_ENCRYPTED_CALL = re.compile(
    r"\b(?:\w*[Dd]ecrypt\w*|doFinal"
    r"|\w*(?:[Gg]cm|GCM|[Aa]es|AES|[Cc]rypt|[Cc]ipher)\w*\s*\.\s*decode"
    r")\s*\(")


def has_encrypted_param_pattern(site: InvocationSite) -> bool:
    """Heuristic for arguments produced by decrypting hard-coded data.

    True when a decrypt-style call (``decrypt*`` / ``doFinal``) appears in
    the argument itself or in a definition feeding one of its identifiers.
    """
    if _ENCRYPTED_CALL.search(site.subtree.text):
        return True
    arg_ids = {str(n.value) for n in site.subtree.walk()
               if n.kind == "identifier"}
    if not arg_ids:
        return False

    def feeds(scope: SyntaxNode) -> bool:
        # Transitive: follow identifier definitions until a fixed point.
        ids = set(arg_ids)
        defs: list[tuple[str, SyntaxNode]] = []
        for decl in scope.find_all("variable_declarator"):
            if len(decl.children) > 1:
                defs.append((str(decl.children[0].value), decl.children[1]))
        for assign in scope.find_all("assignment_expression"):
            lhs = assign.children[0]
            if lhs.kind == "identifier":
                defs.append((str(lhs.value), assign.children[1]))
        changed = True
        while changed:
            changed = False
            for name, rhs in defs:
                if name not in ids:
                    continue
                if _ENCRYPTED_CALL.search(rhs.text):
                    return True
                rhs_ids = {str(n.value) for n in rhs.walk()
                           if n.kind == "identifier"}
                if not rhs_ids <= ids:
                    ids |= rhs_ids
                    changed = True
        return False

    if site.unit is not None and site.node is not None:
        method = enclosing_method_node(site.unit, site.node)
        if method is not None and feeds(method):
            return True
    return any(feeds(member)
               for member in member_facts(site.unit, site.context).fields)
