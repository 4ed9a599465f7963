"""The concrete interpreter: runs the statements before a site, and the
helper methods it calls, when every input is a compile-time constant.

This is what untangles XOR loops and index-juggling builders. Each
statement or expression is compiled once per site, the first time it runs,
into a closure ``fn(interp, env, fields)``: its kind, operator, names,
receiver-text tests and the closures of its children are fixed then, so a
decoder loop that runs ten thousand steps dispatches on node kind once per
node instead of once per step. `_Interp` keeps the closures, keyed by node
identity, for the one site it serves.

Compilation walks a subtree with an explicit stack, and a left-deep
operator chain or an ``else if`` chain runs as one loop, so neither the
compiler nor such a chain takes a Python frame per link. Every closure
ticks the step budget where a tree walk would: once per statement, once
per expression evaluated and once per loop iteration, so a budget runs
out on the same step.

The operators, library calls and string built-ins here are the one model of
the Java library: the set-valued resolver in `resolve` applies the same
functions to each combination of candidate values.
"""

from __future__ import annotations

import base64
import binascii
import operator
import re
from dataclasses import dataclass
from functools import partial

from .syntax import (SourceUnit, SyntaxNode, child_of_kind, decl_name,
                     method_body, method_params, modifier_words, type_body,
                     unit_index)

# Trace-step rule names the interpreter notes (classification reads them).
ENUM_CONSTANT = "enum-constant"
BASE64_DECODE = "base64-decode"

_ANDROID_URL_SAFE = 8  # android.util.Base64.URL_SAFE bit
# The most elements a new array, and the most characters a format width or
# integer precision, may ask for; past it the value is not concrete.
_MAX_LENGTH = 65536


@dataclass(frozen=True)
class TraceStep:
    rule: str
    span: tuple[int, int]
    intermediate: str = ""


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


_MISSING = object()


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


def _preview(value) -> str:
    try:
        text = _jstr(value)
    except _NotConcrete:
        text = repr(value)
    return text if len(text) <= 48 else text[:45] + "..."


def _as_int(value) -> int:
    if type(value) is int:   # not bool
        return value
    if isinstance(value, Char):
        return value.cp
    raise _NotConcrete


def _truncate_div(a: int, b: int) -> int:
    if b == 0:
        raise _NotConcrete
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


_INT_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": _truncate_div,
              "%": lambda a, b: a - _truncate_div(a, b) * b,
              "^": operator.xor, "&": operator.and_, "|": operator.or_,
              "<<": lambda a, b: a << (b & 31),
              ">>": lambda a, b: a >> (b & 31),
              ">>>": lambda a, b: (a % (1 << 32)) >> (b & 31)}
_INT_COMPARE = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
                ">": operator.gt, "<=": operator.le, ">=": operator.ge}


def _arith(op: str, a, b):
    if op == "+" and (isinstance(a, str) or isinstance(b, str)):
        return _jstr(a) + _jstr(b)
    ia, ib = _as_int(a), _as_int(b)
    if op not in _INT_ARITH:
        raise _NotConcrete
    return _INT_ARITH[op](ia, ib)


def _compare(op: str, a, b) -> bool:
    if op in ("==", "!="):
        if isinstance(a, (str, bool)) or isinstance(b, (str, bool)) \
                or a is None or b is None:
            eq = a == b
        else:
            eq = _as_int(a) == _as_int(b)
        return eq if op == "==" else not eq
    return _INT_COMPARE[op](_as_int(a), _as_int(b))


def _binary_op(op: str):
    """A non-logical binary operator as (function of any two values,
    function of two Python ints, not bools, with the same result)."""
    if op in _INT_COMPARE:
        return partial(_compare, op), _INT_COMPARE[op]
    apply = partial(_arith, op)
    return apply, _INT_ARITH.get(op, apply)


def _cast(target: str, value):
    if target == "char":
        return Char(_as_int(value) & 0xFFFF)
    if target == "byte":
        return ((_as_int(value) + 128) % 256) - 128
    if target in ("int", "long", "short"):
        return _as_int(value)
    return value


def _too_long(digits: str) -> bool:
    """Whether a run of decimal digits counts past ``_MAX_LENGTH``; a run
    too long for ``int`` to read counts past it."""
    digits = digits.lstrip("0")
    return len(digits) > len(str(_MAX_LENGTH)) or \
        int(digits or "0") > _MAX_LENGTH


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
        # A width pads the output, and so does a precision on the integer
        # conversions (Python's % zero-pads); a precision on %s only cuts.
        width, _, precision = spec[1:-1].partition(".")
        padded = [width, precision] if conv in "dxXo" else [width]
        if any(_too_long(n) for part in padded
               for n in re.findall(r"\d+", part)):
            raise _NotConcrete
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
        try:
            if conv in "sS":
                out.append((spec[:-1] + "s") % _jstr(arg))
            elif conv in "dxXo":
                out.append((spec[:-1] + conv.lower()) % _as_int(arg))
            elif conv == "c":
                out.append(_jstr(arg)[:1])
            else:
                raise _NotConcrete
        except ValueError:   # a Java flag Python's % lacks, such as ","
            raise _NotConcrete from None
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


def _elem_of(type_text: str) -> str:
    base = type_text.rstrip("[]")
    return base if base in ("int", "byte", "char", "short", "long") \
        else "object"


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


def _length(base):
    """``.length`` of an array value, or None."""
    if isinstance(base, JArray):
        return len(base.items)
    if isinstance(base, (tuple, bytes)):
        return len(base)
    if isinstance(base, CharArray):
        return len(base.text)
    return None


# -- the Java library ------------------------------------------------------
#
# One model of the static library calls and constructors both engines
# know: `library_call` and `library_new` tell them apart, by name, receiver
# text and argument count, and give a pure function of the evaluated
# argument values. The interpreter applies it to one value per argument;
# the abstract resolver lifts it over each argument's candidate set.

def _frozen(value):
    return value.freeze() if isinstance(value, JArray) else value


def _to_chars(args: list):
    return CharArray(chr(_as_int(args[0]) & 0x10FFFF))


def _android_base64(args: list) -> bytes:
    flags = _as_int(args[1]) if len(args) > 1 else 0
    return _base64_decode(_jstr(args[0]), bool(flags & _ANDROID_URL_SAFE))


def _java_base64(url_safe: bool, args: list) -> bytes:
    return _base64_decode(_jstr(args[0]), url_safe)


def _range(array, args: list):
    """The slice of ``array`` that the ``(array, int offset, int count)``
    forms take."""
    off, cnt = _as_int(args[1]), _as_int(args[2])
    if off < 0 or cnt < 0 or off + cnt > len(array):
        raise _NotConcrete   # Java's StringIndexOutOfBoundsException
    return array[off:off + cnt]


def _string_of(args: list) -> str:
    first = _frozen(args[0])
    if len(args) == 3:
        if not isinstance(first, CharArray):
            raise _NotConcrete
        return _range(first.text, args)
    return _jstr(first)


def _format(args: list) -> str:
    return _java_format(_jstr(args[0]), args[1:])


def _parse_int(args: list) -> int:
    try:
        return int(_jstr(args[0]).strip())
    except ValueError:
        raise _NotConcrete from None


def _math(apply, args: list) -> int:
    return apply(*[_as_int(a) for a in args])


_DECODER_FACTORIES = ("getDecoder", "getUrlDecoder", "getMimeDecoder")
# name -> (function of the int arguments, the fewest arguments it takes)
_MATH = {"min": (min, 2), "max": (max, 2), "abs": (lambda *a: abs(a[0]), 1)}


def library_call(node: SyntaxNode):
    """The static library method ``node`` calls, as (fn, reads, rule): the
    call's value is ``fn`` of its evaluated arguments, which reads only the
    first ``reads`` of them; ``rule`` names the trace step of a result.
    None when ``node`` calls no such method or passes too few arguments."""
    name = str(node.value)
    count = len(node.children[-1].children)
    if len(node.children) != 3 or not count:
        return None
    receiver = node.children[0]
    recv_text = receiver.text
    recv_base = recv_text.split(".")[-1]
    if name == "toChars" and recv_text.endswith("Character"):
        return _to_chars, 1, "char-decode"
    if name == "decode" and recv_base == "Base64":
        return _android_base64, min(count, 2), BASE64_DECODE
    if name == "decode" and receiver.kind == "method_invocation" \
            and str(receiver.value) in _DECODER_FACTORIES:
        return (partial(_java_base64, str(receiver.value) == "getUrlDecoder"),
                1, BASE64_DECODE)
    if recv_base == "String" and name == "format":
        return _format, count, "string-format"
    if recv_base == "String" and name in ("valueOf", "copyValueOf"):
        return _string_of, 3 if count == 3 else 1, "string-op"
    if recv_base == "Integer" and name in ("parseInt", "valueOf"):
        return _parse_int, 1, "string-op"
    if recv_base == "Math" and name in _MATH and count >= _MATH[name][1]:
        return partial(_math, _MATH[name][0]), count, "math-op"
    return None


def _new_string(args: list) -> str:
    """``new String(...)`` of a string or an array, or of the slice the
    ``(array, int offset, int count)`` and ``(byte[], int offset, int
    count, String charset)`` forms take; the deprecated ``(byte[], int
    hibyte, int offset, int count)`` form is not modelled."""
    if not args:
        return ""
    first = _frozen(args[0])
    if len(args) == 3 and isinstance(first, CharArray):
        return _range(first.text, args)
    if len(args) > 2:
        hibyte = len(args) == 4 and not isinstance(args[3], str)
        if hibyte or not isinstance(first, (bytes, tuple)):
            raise _NotConcrete
        first = _range(first, args)
    if isinstance(first, bytes):
        return _decode_bytes(first)
    if isinstance(first, CharArray):
        return first.text
    if isinstance(first, tuple):
        return "".join(chr(_as_int(v) % 256) for v in first)
    if isinstance(first, str):
        return first
    raise _NotConcrete


def _new_builder(args: list) -> Builder:
    """A new builder: the text of a string or builder argument (the
    ``CharSequence`` constructor), else empty (the capacity one)."""
    first = args[0] if args else None
    if isinstance(first, str):
        return Builder(first)
    if isinstance(first, (Builder, SBuf)):
        return Builder(first.text)
    return Builder("")


def library_new(node: SyntaxNode):
    """The library constructor ``node`` calls, as (fn, reads, rule) like
    `library_call`; None for a type the model does not know."""
    base = str(node.children[0].value or "").split(".")[-1]
    count = len(_object_parts(node))
    if base == "String":
        return _new_string, count if count in (3, 4) else min(count, 1), \
            "new-string"
    if base in ("StringBuilder", "StringBuffer"):
        return _new_builder, min(count, 1), None
    return None


# -- unit-level lookups --------------------------------------------------

def _find_class(unit: SourceUnit, name: str) -> SyntaxNode | None:
    """The first named type declaration called ``name``, in pre-order."""
    return unit_index(unit).first_type.get(name)


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
    """One site's step count, trace and touched literals, shared by the
    abstract resolver and the interpreter."""

    def __init__(self, budget):
        self.budget = budget
        self.steps = 0
        self.trace: list[TraceStep] = []
        self.visible: set[str] = set()

    def tick(self, n: int = 1) -> None:
        """Count ``n`` steps. Past the budget, the count stops on the step
        one at a time would have stopped on."""
        self.steps += n
        if self.steps > self.budget.max_steps:
            self.steps = max(self.steps - n + 1, self.budget.max_steps + 1)
            raise _BudgetExhausted

    def note(self, rule: str, node: SyntaxNode, intermediate: str = "") -> None:
        if len(self.trace) < 200:
            self.trace.append(TraceStep(rule, (node.start, node.end),
                                        intermediate))

    def touch(self, unit: SourceUnit, node: SyntaxNode) -> None:
        """Count the string literals of ``node``, in ``unit``, as visible."""
        self.visible.update(unit_index(unit).literals_in(node))


# -- the interpreter -------------------------------------------------------

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
    """Executes concrete Java statements for one site under its step
    budget, from closures compiled once per node."""

    def __init__(self, ctx: _Ctx, unit: SourceUnit,
                 class_body: SyntaxNode | None):
        self.ctx = ctx
        self.unit = unit
        self.class_body = class_body
        self.call_depth = 0
        self.enums: dict[int, dict[str, EnumConst]] = {}
        # id(node) → closure; (id(initializer), elem) → array builder;
        # (id(block),) → the block's statements without its own tick.
        self.compiled: dict = {}

    # --- entry points ---

    def code(self, node: SyntaxNode):
        """The closure of ``node``, compiled with its subtree on first use."""
        fn = self.compiled.get(id(node))
        if fn is not None:
            return fn
        compiled = self.compiled
        stack = [(node, False)]
        while stack:
            item, ready = stack.pop()
            if id(item) in compiled:
                continue
            if ready:
                compile_fn = _COMPILERS.get(item.kind, _c_unsupported)
                compiled[id(item)] = compile_fn(self, item)
                continue
            stack.append((item, True))
            if item.kind in _COMPILERS:
                stack.extend((part, False)
                             for part in _PARTS.get(item.kind, _children)(item)
                             if id(part) not in compiled)
        return compiled[id(node)]

    def eval(self, node: SyntaxNode, env: dict, fields: dict):
        return self.code(node)(self, env, fields)

    def body(self, block: SyntaxNode):
        """A block's statements, run without the block statement's tick."""
        key = (id(block),)
        fn = self.compiled.get(key)
        if fn is None:
            self.code(block)
            fn = self.compiled[key] = _sequence(self.compiled, block)
        return fn

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
        run = self.body(body)
        self.call_depth += 1
        try:
            run(self, env, this_fields or {})
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
                self.code(stmt)(self, env, fields)
            except (_NotConcrete, _JavaThrow):
                for name in _written_names(stmt):
                    env.pop(name, None)
            except (_Return, _Break, _Continue):
                raise _NotConcrete from None

    # --- class members ---

    def _members_of(self, cls: SyntaxNode | None) -> list[SyntaxNode]:
        body = type_body(cls) if cls is not None else None
        if body is not None:
            return _class_members(self.unit, body)
        return _class_members(self.unit, self.class_body) \
            if self.class_body is not None else []

    def field(self, name: str, cls: SyntaxNode | None = None):
        """(field declaration, declarator) of the first field ``name`` of
        ``cls`` (default: the site's class), or None."""
        for member in self._members_of(cls):
            if member.kind != "field_declaration":
                continue
            for decl in member.children:
                if decl.kind == "variable_declarator" \
                        and str(decl.children[0].value) == name:
                    return member, decl
        return None

    def method(self, name: str, count: int,
               cls: SyntaxNode | None = None) -> SyntaxNode | None:
        """The first method ``name`` of ``cls`` (default: the site's class)
        taking ``count`` parameters."""
        return next((m for m in self._members_of(cls)
                     if m.kind == "method_declaration"
                     and decl_name(m) == name
                     and len(method_params(m)) == count), None)

    def enum_model(self, enum_decl: SyntaxNode) -> dict[str, EnumConst]:
        model = self.enums.get(id(enum_decl))
        if model is None:
            model = self.enums[id(enum_decl)] = _enum_model(self.unit,
                                                            enum_decl)
        return model

    def static_field(self, name: str, cls: SyntaxNode | None = None):
        """Value of field ``name``'s initializer in ``cls`` (default: the
        site's class), evaluated afresh; _MISSING if there is none."""
        found = self.field(name, cls)
        if found is None or len(found[1].children) < 2:
            return _MISSING
        member, decl = found
        self.ctx.touch(self.unit, member)
        init = decl.children[1]
        if init.kind != "array_initializer":
            return self.code(init)(self, {}, {})
        type_node = child_of_kind(member, "type_identifier")
        elem = _elem_of(str(type_node.value or "")) \
            if type_node is not None else "int"
        key = (id(init), elem)
        build = self.compiled.get(key)
        if build is None:
            self.code(init)
            build = self.compiled[key] = _array_builder(
                self.compiled, init, elem)
        return build(self, {}, {})

    def call_user(self, cls: SyntaxNode | None, name: str, arg_fns: list,
                  env: dict, fields: dict,
                  this_fields: dict[str, object] | None = None,
                  evaluated: list | None = None):
        """Runs the first method ``name`` of ``cls`` (default: the site's
        class) taking as many parameters as there are arguments."""
        decl = self.method(name, len(arg_fns), cls)
        if decl is None:
            raise _NotConcrete
        if "native" in modifier_words(decl) or method_body(decl) is None:
            raise _NotConcrete
        self.ctx.touch(self.unit, decl)
        if evaluated is None:
            evaluated = []
            for fn in arg_fns:
                evaluated.append(fn(self, env, fields))
        return self.call_method(decl, evaluated,
                                this_fields if this_fields is not None
                                else fields)


def _sequence(compiled: dict, block: SyntaxNode):
    codes = [compiled[id(stmt)] for stmt in block.children]
    if len(codes) == 1:
        return codes[0]

    def run(interp, env, fields):
        for fn in codes:
            fn(interp, env, fields)
    return run


def _array_builder(compiled: dict, init: SyntaxNode, elem: str):
    """Builds a JArray from an initializer's elements. The initializer
    itself takes no step; each element expression takes its own."""
    parts = [_array_builder(compiled, c, elem)
             if c.kind == "array_initializer" else compiled[id(c)]
             for c in init.children]
    kind = elem if elem != "object" else "int"

    def build(interp, env, fields):
        items = []
        for fn in parts:
            items.append(fn(interp, env, fields))
        return JArray(items, kind)
    return build


# -- the compiler ----------------------------------------------------------
#
# `_COMPILERS[kind](interp, node)` returns the closure of a node whose parts
# (`_PARTS`, by default its children) are already compiled. A kind with no
# compiler ticks and gives up, as does an unsupported shape of a known kind.

def _children(node: SyntaxNode) -> list[SyntaxNode]:
    return node.children


def _c_unsupported(interp, node):
    ctx, limit = interp.ctx, interp.ctx.budget.max_steps

    def unsupported(interp, env, fields):
        ctx.steps += 1
        if ctx.steps > limit:
            raise _BudgetExhausted
        raise _NotConcrete
    return unsupported


def _c_constant(interp, node):
    ctx, limit = interp.ctx, interp.ctx.budget.max_steps
    kind = node.kind
    value = Char(ord(str(node.value))) if kind == "character_literal" \
        else None if kind == "null_literal" else node.value

    def constant(interp, env, fields):
        ctx.steps += 1
        if ctx.steps > limit:
            raise _BudgetExhausted
        return value
    return constant


def _c_identifier(interp, node):
    ctx, limit = interp.ctx, interp.ctx.budget.max_steps
    name = str(node.value)

    def identifier(interp, env, fields):
        ctx.steps += 1
        if ctx.steps > limit:
            raise _BudgetExhausted
        if name in env:
            return env[name]
        if name in fields:
            return fields[name]
        found = interp.static_field(name)
        if found is not _MISSING:
            return found
        raise _NotConcrete
    return identifier


def _innermost(node: SyntaxNode) -> SyntaxNode:
    while node.kind == "parenthesized_expression":
        node = node.children[0]
    return node


def _c_parenthesized(interp, node):
    ctx, limit = interp.ctx, interp.ctx.budget.max_steps
    levels = 0
    while node.kind == "parenthesized_expression":
        node = node.children[0]
        levels += 1
    inner = interp.compiled[id(node)]

    def parenthesized(interp, env, fields):
        ctx.steps += levels
        if ctx.steps > limit:
            ctx.steps -= levels
            ctx.tick(levels)
        return inner(interp, env, fields)
    return parenthesized


def _chain(node: SyntaxNode):
    """Leftmost operand and (operator, right operand) links of a left-deep
    chain of binary expressions, read in a loop."""
    links = []
    while node.kind == "binary_expression":
        links.append((str(node.value), node.children[1]))
        node = node.children[0]
    links.reverse()
    return node, links


def _binary_parts(node: SyntaxNode) -> list[SyntaxNode]:
    first, links = _chain(node)
    return [first] + [right for _, right in links]


def _c_binary(interp, node):
    """A chain of n binary expressions takes its n steps first, as nested
    evaluation does on its way down the left spine, then folds."""
    ctx, limit = interp.ctx, interp.ctx.budget.max_steps
    compiled = interp.compiled
    first, links = _chain(node)
    first = compiled[id(first)]
    # (short-circuit value, operator on values, operator on ints, right
    # operand): && stops on false and || on true; arithmetic and
    # comparisons never stop.
    steps = [(False, None, None, compiled[id(right)]) if op == "&&" else
             (True, None, None, compiled[id(right)]) if op == "||" else
             (None, *_binary_op(op), compiled[id(right)])
             for op, right in links]
    if len(steps) == 1 and steps[0][0] is None:
        _, apply, on_ints, second = steps[0]

        def binary(interp, env, fields):
            ctx.steps += 1
            if ctx.steps > limit:
                raise _BudgetExhausted
            a = first(interp, env, fields)
            b = second(interp, env, fields)
            if type(a) is int and type(b) is int:
                return on_ints(a, b)
            return apply(a, b)
        return binary
    count = len(steps)

    def chain(interp, env, fields):
        ctx.steps += count
        if ctx.steps > limit:
            ctx.steps -= count
            ctx.tick(count)
        value = first(interp, env, fields)
        for stop, apply, on_ints, right in steps:
            if stop is None:
                b = right(interp, env, fields)
                value = on_ints(value, b) \
                    if type(value) is int and type(b) is int \
                    else apply(value, b)
                continue
            if not isinstance(value, bool):
                raise _NotConcrete
            if value is not stop:
                value = right(interp, env, fields)
                if not isinstance(value, bool):
                    raise _NotConcrete
        return value
    return chain


def _not(value) -> bool:
    if not isinstance(value, bool):
        raise _NotConcrete
    return not value


# prefix operator → its function of the operand's value
UNARY = {"-": lambda v: -_as_int(v), "+": _as_int, "~": lambda v: ~_as_int(v),
         "!": _not}


def _c_unary(interp, node):
    ctx, limit = interp.ctx, interp.ctx.budget.max_steps
    operand = interp.compiled[id(node.children[0])]
    apply = UNARY.get(str(node.value))

    def unary(interp, env, fields):
        ctx.steps += 1
        if ctx.steps > limit:
            raise _BudgetExhausted
        value = operand(interp, env, fields)
        if apply is None:
            raise _NotConcrete
        return apply(value)
    return unary


def _c_update(interp, node):
    """``++i`` yields the updated value and ``i++`` the one before; the
    parser starts a postfix update where its operand starts."""
    ctx, limit = interp.ctx, interp.ctx.budget.max_steps
    target = node.children[0]
    delta = 1 if str(node.value) == "++" else -1
    postfix = node.start == target.start
    if target.kind == "identifier":
        name = str(target.value)

        def update_local(interp, env, fields):
            ctx.steps += 1
            if ctx.steps > limit:
                raise _BudgetExhausted
            if name not in env:
                raise _NotConcrete
            old = env[name]
            env[name] = value = _as_int(old) + delta
            return old if postfix else value
        return update_local
    if target.kind == "array_access":
        array, index = (interp.compiled[id(c)] for c in target.children)

        def update_element(interp, env, fields):
            ctx.steps += 1
            if ctx.steps > limit:
                raise _BudgetExhausted
            arr = array(interp, env, fields)
            idx = _as_int(index(interp, env, fields))
            if not isinstance(arr, JArray) or not 0 <= idx < len(arr.items):
                raise _NotConcrete
            old = arr.items[idx]
            arr.items[idx] = value = _as_int(old) + delta
            return old if postfix else value
        return update_element
    return _c_unsupported(interp, node)


def _c_assignment(interp, node):
    ctx, limit = interp.ctx, interp.ctx.budget.max_steps
    compiled = interp.compiled
    lhs, rhs = node.children
    rhs = compiled[id(rhs)]
    op = str(node.value)
    combine = None if op == "=" else partial(_arith, op[:-1])
    if lhs.kind == "identifier":
        name = str(lhs.value)
        if combine is None:
            def assign_local(interp, env, fields):
                ctx.steps += 1
                if ctx.steps > limit:
                    raise _BudgetExhausted
                env[name] = value = rhs(interp, env, fields)
                return value
            return assign_local

        def combine_local(interp, env, fields):
            ctx.steps += 1
            if ctx.steps > limit:
                raise _BudgetExhausted
            value = rhs(interp, env, fields)
            if name not in env:
                raise _NotConcrete
            env[name] = value = combine(env[name], value)
            return value
        return combine_local
    if lhs.kind == "array_access":
        array, index = (compiled[id(c)] for c in lhs.children)

        def assign_element(interp, env, fields):
            ctx.steps += 1
            if ctx.steps > limit:
                raise _BudgetExhausted
            value = rhs(interp, env, fields)
            arr = array(interp, env, fields)
            idx = _as_int(index(interp, env, fields))
            if not isinstance(arr, JArray) or not 0 <= idx < len(arr.items):
                raise _NotConcrete
            if combine is not None:
                value = combine(arr.items[idx], value)
            if arr.elem == "char" and isinstance(value, int):
                value = Char(value & 0xFFFF)
            arr.items[idx] = value
            return value
        return assign_element
    if lhs.kind == "field_access" and lhs.children[0].kind == "this":
        fname = str(lhs.children[1].value)

        def assign_field(interp, env, fields):
            ctx.steps += 1
            if ctx.steps > limit:
                raise _BudgetExhausted
            value = rhs(interp, env, fields)
            if combine is not None:
                value = combine(fields.get(fname), value)
            fields[fname] = value
            return value
        return assign_field

    def assign_other(interp, env, fields):
        ctx.steps += 1
        if ctx.steps > limit:
            raise _BudgetExhausted
        rhs(interp, env, fields)
        raise _NotConcrete
    return assign_other


def _c_cast(interp, node):
    ctx, limit = interp.ctx, interp.ctx.budget.max_steps
    target = str(node.value or "")
    operand = interp.compiled[id(node.children[1])]

    def cast(interp, env, fields):
        ctx.steps += 1
        if ctx.steps > limit:
            raise _BudgetExhausted
        return _cast(target, operand(interp, env, fields))
    return cast


def _c_array_access(interp, node):
    ctx, limit = interp.ctx, interp.ctx.budget.max_steps
    array, index = (interp.compiled[id(c)] for c in node.children)

    def array_access(interp, env, fields):
        ctx.steps += 1
        if ctx.steps > limit:
            raise _BudgetExhausted
        arr = array(interp, env, fields)
        return _load(arr, _as_int(index(interp, env, fields)))
    return array_access


def _c_array_creation(interp, node):
    ctx, limit = interp.ctx, interp.ctx.budget.max_steps
    elem = _elem_of(str(node.children[0].value or ""))
    init = child_of_kind(node, "array_initializer")
    if init is not None:
        build = _array_builder(interp.compiled, init, elem)

        def new_initialized(interp, env, fields):
            ctx.steps += 1
            if ctx.steps > limit:
                raise _BudgetExhausted
            return build(interp, env, fields)
        return new_initialized
    dims = [c for c in node.children[1:] if c.kind != "array_initializer"]
    if len(dims) != 1:
        return _c_unsupported(interp, node)
    size = interp.compiled[id(dims[0])]
    fill = Char(0) if elem == "char" else 0

    def new_array(interp, env, fields):
        ctx.steps += 1
        if ctx.steps > limit:
            raise _BudgetExhausted
        n = _as_int(size(interp, env, fields))
        if n < 0 or n > _MAX_LENGTH:
            raise _NotConcrete
        return JArray([fill] * n, elem)
    return new_array


def _c_array_initializer(interp, node):
    ctx, limit = interp.ctx, interp.ctx.budget.max_steps
    build = _array_builder(interp.compiled, node, "int")

    def initializer(interp, env, fields):
        ctx.steps += 1
        if ctx.steps > limit:
            raise _BudgetExhausted
        return build(interp, env, fields)
    return initializer


def _new_unsupported(args: list):
    raise _NotConcrete


def _object_parts(node: SyntaxNode) -> list[SyntaxNode]:
    args = child_of_kind(node, "argument_list")
    return args.children if args is not None else []


def _c_object_creation(interp, node):
    ctx, limit = interp.ctx, interp.ctx.budget.max_steps
    arg_fns = [interp.compiled[id(a)] for a in _object_parts(node)]
    library = library_new(node)
    create = library[0] if library is not None else _new_unsupported

    def new_object(interp, env, fields):
        ctx.steps += 1
        if ctx.steps > limit:
            raise _BudgetExhausted
        args = []
        for fn in arg_fns:
            args.append(fn(interp, env, fields))
        return create(args)
    return new_object


def _c_field_access(interp, node):
    ctx, limit = interp.ctx, interp.ctx.budget.max_steps
    unit = interp.unit
    obj, name_node = node.children
    name = str(name_node.value)
    if obj.kind == "this":
        def this_field(interp, env, fields):
            ctx.steps += 1
            if ctx.steps > limit:
                raise _BudgetExhausted
            if name in fields:
                return fields[name]
            found = interp.static_field(name)
            if found is not _MISSING:
                return found
            raise _NotConcrete
        return this_field
    base_fn = interp.compiled[id(obj)]
    if obj.kind != "identifier":
        def member(interp, env, fields):
            ctx.steps += 1
            if ctx.steps > limit:
                raise _BudgetExhausted
            base = base_fn(interp, env, fields)
            if name == "length":
                length = _length(base)
                if length is not None:
                    return length
            if isinstance(base, EnumConst):
                val = base.field_value(name)
                if val is not None:
                    return val
            raise _NotConcrete
        return member
    cname = str(obj.value)
    cls = _find_class(unit, cname)

    def named_member(interp, env, fields):
        ctx.steps += 1
        if ctx.steps > limit:
            raise _BudgetExhausted
        if name == "length":
            length = _length(base_fn(interp, env, fields)) \
                if cname in env else None
            if length is not None:
                return length
        if cls is not None:
            if cls.kind == "enum_declaration":
                model = interp.enum_model(cls)
                if name in model:
                    ctx.note(ENUM_CONSTANT, node, name)
                    return model[name]
            found = interp.static_field(name, cls)
            if found is not _MISSING:
                return found
        base = base_fn(interp, env, fields)
        if isinstance(base, EnumConst):
            val = base.field_value(name)
            if val is not None:
                return val
        raise _NotConcrete
    return named_member


def _call_parts(node: SyntaxNode) -> list[SyntaxNode]:
    receiver = [node.children[0]] if len(node.children) == 3 else []
    return receiver + node.children[-1].children


def _c_call(interp, node):
    """A library call runs the function `library_call` finds for it; the
    rest, a library call with too few arguments among them, are built-ins
    of the receiver's value or user methods."""
    ctx, limit = interp.ctx, interp.ctx.budget.max_steps
    unit = interp.unit
    name = str(node.value)
    arg_fns = [interp.compiled[id(a)] for a in node.children[-1].children]
    receiver = node.children[0] if len(node.children) == 3 else None

    library = library_call(node)
    if library is not None:
        apply, _, rule = library
        # The interpreter notes only the rule classification reads back.
        noted = rule == BASE64_DECODE

        def library_fn(interp, env, fields):
            ctx.steps += 1
            if ctx.steps > limit:
                raise _BudgetExhausted
            args = []
            for fn in arg_fns:
                args.append(fn(interp, env, fields))
            value = apply(args)
            if noted:
                ctx.note(rule, node, _preview(value))
            return value
        return library_fn

    if receiver is None:
        # Unqualified call: same-class (or superclass) method, or a
        # this-bound callable.
        def call_own(interp, env, fields):
            ctx.steps += 1
            if ctx.steps > limit:
                raise _BudgetExhausted
            return interp.call_user(None, name, arg_fns, env, fields)
        return call_own

    base_fn = interp.compiled[id(receiver)]
    ops = {kind: table[name] for kind, table in _BUILTINS.items()
           if name in table
           and len(arg_fns) >= _FEWEST_ARGS.get((kind, name), 0)}
    named = str(receiver.value) if receiver.kind == "identifier" else None
    named_cls = _find_class(unit, named) if named is not None else None

    def call_on(interp, env, fields):
        ctx.steps += 1
        if ctx.steps > limit:
            raise _BudgetExhausted
        if named is not None and named not in env and named not in fields:
            if named_cls is not None:
                return interp.call_user(named_cls, name, arg_fns, env,
                                        fields)
            raise _NotConcrete
        base = base_fn(interp, env, fields)
        args = []
        for fn in arg_fns:
            args.append(fn(interp, env, fields))
        op = ops.get(type(base))
        if op is not None:
            result = op(base, args)
            if result is not _MISSING:
                return result
        if isinstance(base, EnumConst):
            if name in ("name", "toString"):
                return base.const_name
            cls = _find_class(unit, base.enum_name)
            if cls is not None:
                return interp.call_user(cls, name, arg_fns, env, fields,
                                        this_fields=dict(base.fields),
                                        evaluated=args)
        raise _NotConcrete
    return call_on


# --- statements ---

def _c_local_declaration(interp, node):
    ctx, limit = interp.ctx, interp.ctx.budget.max_steps
    compiled = interp.compiled
    elem = _elem_of(str(node.children[0].value or ""))
    declared = []
    for decl in node.children[1:]:
        if decl.kind != "variable_declarator":
            continue
        init = decl.children[1] if len(decl.children) > 1 else None
        declared.append((
            str(decl.children[0].value),
            None if init is None else _array_builder(compiled, init, elem)
            if init.kind == "array_initializer" else compiled[id(init)]))

    def declare(interp, env, fields):
        ctx.steps += 1
        if ctx.steps > limit:
            raise _BudgetExhausted
        for name, init in declared:
            env[name] = None if init is None else init(interp, env, fields)
    return declare


def _declaration_parts(node: SyntaxNode) -> list[SyntaxNode]:
    return [d.children[1] for d in node.children[1:]
            if d.kind == "variable_declarator" and len(d.children) > 1]


def _c_expression_statement(interp, node):
    ctx, limit = interp.ctx, interp.ctx.budget.max_steps
    expr = interp.compiled[id(node.children[0])]

    def expression_statement(interp, env, fields):
        ctx.steps += 1
        if ctx.steps > limit:
            raise _BudgetExhausted
        expr(interp, env, fields)
    return expression_statement


def _c_block(interp, node):
    ctx, limit = interp.ctx, interp.ctx.budget.max_steps
    codes = [interp.compiled[id(stmt)] for stmt in node.children]

    def block(interp, env, fields):
        ctx.steps += 1
        if ctx.steps > limit:
            raise _BudgetExhausted
        for fn in codes:
            fn(interp, env, fields)
    return block


def _if_links(node: SyntaxNode):
    """(condition, then-branch or None) per link of an ``else if`` chain,
    read in a loop, and the final else-branch or None. Like the
    statement's own children, an empty then-branch leaves the else-branch
    second."""
    links = []
    while True:
        branches = node.children[1:]
        links.append((node.children[0], branches[0] if branches else None))
        other = branches[1] if len(branches) > 1 else None
        if other is None or other.kind != "if_statement":
            return links, other
        node = other


def _if_parts(node: SyntaxNode) -> list[SyntaxNode]:
    links, other = _if_links(node)
    parts = [n for link in links for n in link if n is not None]
    return parts + ([other] if other is not None else [])


def _c_if(interp, node):
    """Each link of an ``else if`` chain takes its step when reached, as
    nested statements do, but the chain runs in one frame."""
    ctx, limit = interp.ctx, interp.ctx.budget.max_steps
    compiled = interp.compiled
    links, other = _if_links(node)
    links = [(compiled[id(cond)], None if then is None else compiled[id(then)])
             for cond, then in links]
    other = None if other is None else compiled[id(other)]

    def if_statement(interp, env, fields):
        for cond, then in links:
            ctx.steps += 1
            if ctx.steps > limit:
                raise _BudgetExhausted
            test = cond(interp, env, fields)
            if not isinstance(test, bool):
                raise _NotConcrete
            if test:
                if then is not None:
                    then(interp, env, fields)
                return
        if other is not None:
            other(interp, env, fields)
    return if_statement


def _c_for(interp, node):
    ctx, limit = interp.ctx, interp.ctx.budget.max_steps
    compiled = interp.compiled
    n_init, has_cond, n_upd, has_body = node.value
    children = node.children
    inits = [compiled[id(c)] for c in children[:n_init]]
    cond = compiled[id(children[n_init])] if has_cond else None
    upd_start = n_init + (1 if has_cond else 0)
    updates = [compiled[id(c)] for c in children[upd_start:upd_start + n_upd]]
    body = compiled[id(children[-1])] if has_body else None

    def for_statement(interp, env, fields):
        ctx.steps += 1
        if ctx.steps > limit:
            raise _BudgetExhausted
        for init in inits:
            init(interp, env, fields)
        while True:
            ctx.steps += 1
            if ctx.steps > limit:
                raise _BudgetExhausted
            if cond is not None:
                test = cond(interp, env, fields)
                if not isinstance(test, bool):
                    raise _NotConcrete
                if not test:
                    return
            if body is not None:
                try:
                    body(interp, env, fields)
                except _Break:
                    return
                except _Continue:
                    pass
            for update in updates:
                update(interp, env, fields)
            if cond is None and not updates:
                raise _NotConcrete
    return for_statement


def _c_enhanced_for(interp, node):
    ctx, limit = interp.ctx, interp.ctx.budget.max_steps
    compiled = interp.compiled
    name = str(node.children[1].value)
    iterable = compiled[id(node.children[2])]
    body = compiled[id(node.children[3])] if len(node.children) > 3 else None

    def enhanced_for(interp, env, fields):
        ctx.steps += 1
        if ctx.steps > limit:
            raise _BudgetExhausted
        seq = iterable(interp, env, fields)
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
        for item in items:
            ctx.steps += 1
            if ctx.steps > limit:
                raise _BudgetExhausted
            env[name] = item
            if body is not None:
                try:
                    body(interp, env, fields)
                except _Break:
                    return
                except _Continue:
                    continue
    return enhanced_for


def _c_while(interp, node):
    ctx, limit = interp.ctx, interp.ctx.budget.max_steps
    compiled = interp.compiled
    do = node.kind == "do_statement"
    children = node.children
    cond = compiled[id(children[-1] if do else children[0])]
    body = None if len(children) < 2 else compiled[id(children[0] if do
                                                      else children[1])]

    def test(interp, env, fields) -> bool:
        value = cond(interp, env, fields)
        if not isinstance(value, bool):
            raise _NotConcrete
        return value

    def loop(interp, env, fields):
        ctx.steps += 1
        if ctx.steps > limit:
            raise _BudgetExhausted
        # A do loop runs its body once before the first test.
        tested = not do
        while True:
            ctx.steps += 1
            if ctx.steps > limit:
                raise _BudgetExhausted
            if tested and not test(interp, env, fields):
                return
            tested = True
            if body is not None:
                try:
                    body(interp, env, fields)
                except _Break:
                    return
                except _Continue:
                    pass
    return loop


def _c_return(interp, node):
    ctx, limit = interp.ctx, interp.ctx.budget.max_steps
    value = interp.compiled[id(node.children[0])] if node.children else None

    def return_statement(interp, env, fields):
        ctx.steps += 1
        if ctx.steps > limit:
            raise _BudgetExhausted
        raise _Return(value(interp, env, fields)
                      if value is not None else None)
    return return_statement


def _c_raise(exc: type[Exception]):
    def compile_raise(interp, node):
        ctx, limit = interp.ctx, interp.ctx.budget.max_steps

        def jump(interp, env, fields):
            ctx.steps += 1
            if ctx.steps > limit:
                raise _BudgetExhausted
            raise exc
        return jump
    return compile_raise


def _try_parts(node: SyntaxNode) -> list[SyntaxNode]:
    decls = [c for c in node.children
             if c.kind == "local_variable_declaration"]
    block = child_of_kind(node, "block")
    catch = child_of_kind(node, "catch_clause")
    final = child_of_kind(node, "finally_clause")
    return decls + [b for b in (block,
                                catch and child_of_kind(catch, "block"),
                                final and final.children[0]) if b]


def _c_try(interp, node):
    """Runs the try block, the first catch block on a Java throw, and the
    finally block on normal completion or an uncaught throw."""
    ctx, limit = interp.ctx, interp.ctx.budget.max_steps
    compiled = interp.compiled
    decls = [compiled[id(c)] for c in node.children
             if c.kind == "local_variable_declaration"]
    block = child_of_kind(node, "block")
    catch = child_of_kind(node, "catch_clause")
    final = child_of_kind(node, "finally_clause")
    block = _sequence(compiled, block) if block is not None else None
    catch = _sequence(compiled, child_of_kind(catch, "block")) \
        if catch is not None else None
    final = _sequence(compiled, final.children[0]) \
        if final is not None else None

    def try_statement(interp, env, fields):
        ctx.steps += 1
        if ctx.steps > limit:
            raise _BudgetExhausted
        try:
            for decl in decls:
                decl(interp, env, fields)
            if block is not None:
                block(interp, env, fields)
        except _JavaThrow:
            if catch is None:
                if final is not None:
                    final(interp, env, fields)
                raise
            catch(interp, env, fields)
        if final is not None:
            final(interp, env, fields)
    return try_statement


def _c_synchronized(interp, node):
    ctx, limit = interp.ctx, interp.ctx.budget.max_steps
    block = _sequence(interp.compiled, node.children[-1])

    def synchronized(interp, env, fields):
        ctx.steps += 1
        if ctx.steps > limit:
            raise _BudgetExhausted
        block(interp, env, fields)
    return synchronized


def _c_assert(interp, node):
    ctx, limit = interp.ctx, interp.ctx.budget.max_steps

    def assert_statement(interp, env, fields):
        ctx.steps += 1
        if ctx.steps > limit:
            raise _BudgetExhausted
    return assert_statement


_COMPILERS = {
    "string_literal": _c_constant, "character_literal": _c_constant,
    "decimal_integer_literal": _c_constant,
    "hex_integer_literal": _c_constant,
    "decimal_floating_point_literal": _c_constant,
    "true": _c_constant, "false": _c_constant, "null_literal": _c_constant,
    "identifier": _c_identifier,
    "parenthesized_expression": _c_parenthesized,
    "binary_expression": _c_binary,
    "unary_expression": _c_unary,
    "update_expression": _c_update,
    "assignment_expression": _c_assignment,
    "cast_expression": _c_cast,
    "array_access": _c_array_access,
    "array_creation_expression": _c_array_creation,
    "array_initializer": _c_array_initializer,
    "object_creation_expression": _c_object_creation,
    "method_invocation": _c_call,
    "field_access": _c_field_access,
    "local_variable_declaration": _c_local_declaration,
    "expression_statement": _c_expression_statement,
    "block": _c_block,
    "if_statement": _c_if,
    "for_statement": _c_for,
    "enhanced_for_statement": _c_enhanced_for,
    "while_statement": _c_while,
    "do_statement": _c_while,
    "return_statement": _c_return,
    "break_statement": _c_raise(_Break),
    "continue_statement": _c_raise(_Continue),
    "throw_statement": _c_raise(_JavaThrow),
    "try_statement": _c_try,
    "synchronized_statement": _c_synchronized,
    "assert_statement": _c_assert,
}

# The nodes each kind's compiler reads the closures of, when not all of
# its children: chains read every link's operands but not the inner links
# themselves, and a throw, assert or ternary evaluates nothing.
_PARTS = {
    "parenthesized_expression": lambda node: [_innermost(node)],
    "binary_expression": _binary_parts,
    "cast_expression": lambda node: node.children[1:],
    "object_creation_expression": _object_parts,
    "method_invocation": _call_parts,
    "field_access": lambda node: node.children[:1],
    "local_variable_declaration": _declaration_parts,
    "if_statement": _if_parts,
    "enhanced_for_statement": lambda node: node.children[2:],
    "try_statement": _try_parts,
    "synchronized_statement": lambda node: node.children[-1:],
    "throw_statement": lambda node: [],
    "assert_statement": lambda node: [],
}


# -- built-in methods of string values ------------------------------------
#
# name → fn(receiver, evaluated args), per receiver type, so a compiled
# call looks its method up once. A function may return _MISSING for
# argument shapes it does not model.

def _builder_append(base: Builder, args: list):
    if args:
        arg = args[0]
        if isinstance(arg, JArray):
            arg = arg.freeze()
        base.text += _jstr(arg)
    return base


def _builder_reverse(base: Builder, args: list):
    base.text = base.text[::-1]
    return base


def _builder_insert(base: Builder, args: list):
    if len(args) != 2:
        return _MISSING
    pos = _as_int(args[0])
    base.text = base.text[:pos] + _jstr(args[1]) + base.text[pos:]
    return base


def _char_at(text: str, args: list) -> Char:
    idx = _as_int(args[0])
    if not 0 <= idx < len(text):
        raise _NotConcrete
    return Char(ord(text[idx]))


def _builder_delete_char_at(base: Builder, args: list):
    idx = _as_int(args[0])
    base.text = base.text[:idx] + base.text[idx + 1:]
    return base


def _builder_set_length(base: Builder, args: list):
    base.text = base.text[:_as_int(args[0])]
    return base


def _sbuf_append(base: SBuf, args: list):
    arg = args[0]
    if isinstance(arg, JArray):
        arg = arg.freeze()
    return SBuf(base.text + _jstr(arg))


def _substring(base: str, args: list):
    start = _as_int(args[0])
    end = _as_int(args[1]) if len(args) > 1 else len(base)
    if not 0 <= start <= end <= len(base):
        raise _NotConcrete
    return base[start:end]


def _regex(fn):
    def apply(base: str, args: list):
        try:
            return fn(base, args)
        except re.error:
            raise _NotConcrete from None
    return apply


def _equals(base: str, args: list):
    other = args[0]
    return isinstance(other, str) and base == other


def _equals_ignore_case(base: str, args: list):
    other = args[0]
    return isinstance(other, str) and base.lower() == other.lower()


_BUILDER_OPS = {
    "append": _builder_append,
    "toString": lambda base, args: base.text,
    "reverse": _builder_reverse,
    "insert": _builder_insert,
    "length": lambda base, args: len(base.text),
    "charAt": lambda base, args: _char_at(base.text, args),
    "deleteCharAt": _builder_delete_char_at,
    "setLength": _builder_set_length,
}
_SBUF_OPS = {
    "append": _sbuf_append,
    "toString": lambda base, args: base.text,
    "reverse": lambda base, args: SBuf(base.text[::-1]),
}
_STR_OPS = {
    "charAt": _char_at,
    "length": lambda base, args: len(base),
    "substring": _substring,
    "replace": lambda base, args: base.replace(_jstr(args[0]),
                                               _jstr(args[1])),
    "replaceAll": _regex(lambda base, args: re.sub(
        _jstr(args[0]), _jstr(args[1]), base)),
    "concat": lambda base, args: base + _jstr(args[0]),
    "trim": lambda base, args: base.strip(),
    "strip": lambda base, args: base.strip(),
    "toLowerCase": lambda base, args: base.lower(),
    "toUpperCase": lambda base, args: base.upper(),
    "toString": lambda base, args: base,
    "intern": lambda base, args: base,
    "toCharArray": lambda base, args: CharArray(base),
    "getBytes": lambda base, args: base.encode("utf-8"),
    "indexOf": lambda base, args: base.find(
        _jstr(args[0]), _as_int(args[1]) if len(args) > 1 else 0),
    "lastIndexOf": lambda base, args: base.rfind(_jstr(args[0])),
    "equals": _equals,
    "equalsIgnoreCase": _equals_ignore_case,
    "contains": lambda base, args: _jstr(args[0]) in base,
    "startsWith": lambda base, args: base.startswith(_jstr(args[0])),
    "endsWith": lambda base, args: base.endswith(_jstr(args[0])),
    "isEmpty": lambda base, args: base == "",
    "split": _regex(lambda base, args: JArray(
        re.split(_jstr(args[0]), base), "object")),
    "valueOf": lambda base, args: _jstr(args[0]) if args else base,
}
_BUILTINS = {Builder: _BUILDER_OPS, SBuf: _SBUF_OPS, str: _STR_OPS}
# The fewest arguments of each built-in that reads any, by (receiver type,
# name); a call with fewer is not one of the built-ins.
_FEWEST_ARGS = {
    **{(Builder, name): 1 for name in ("charAt", "deleteCharAt",
                                       "setLength")},
    (SBuf, "append"): 1,
    **{(str, name): 1 for name in (
        "charAt", "substring", "concat", "indexOf", "lastIndexOf", "equals",
        "equalsIgnoreCase", "contains", "startsWith", "endsWith", "split")},
    (str, "replace"): 2,
    (str, "replaceAll"): 2,
}


def _string_builtin(base, name: str, args):
    """Built-in ``name`` of a String / StringBuilder / StringBuffer value;
    _NotConcrete if it is not one or does not model these arguments."""
    op = _BUILTINS.get(type(base), {}).get(name)
    if op is None or len(args) < _FEWEST_ARGS.get((type(base), name), 0):
        raise _NotConcrete
    result = op(base, args)
    if result is _MISSING:
        raise _NotConcrete
    return result
