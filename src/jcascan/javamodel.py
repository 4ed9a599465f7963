"""The one model of Java values and of the Java library that both engines
apply: the values the concrete interpreter computes (chars, char arrays,
builders and their snapshots, enum constants, arrays), the operators, the
static library calls and constructors (`library_call`, `library_new`) and
the built-in methods of string and builder values. The interpreter in
`interp` applies each to one value per argument; the set-valued resolver
in `resolve` lifts it over each argument's candidate set.
"""

from __future__ import annotations

import base64
import binascii
import operator
import re
from functools import partial

from .syntax import Record, SyntaxNode, child_of_kind

# Trace-step rule name of a decoded Base64 value (classification reads it).
BASE64_DECODE = "base64-decode"

_ANDROID_URL_SAFE = 8  # android.util.Base64.URL_SAFE bit
# The most elements a new array, and the most characters a format width or
# integer precision, may ask for; past it the value is not concrete.
_MAX_LENGTH = 65536


# -- value model ---------------------------------------------------------

class Char(Record, hashable=True, value_repr=True):
    """A char value, slotted and equal, hashed and printed by its code
    point."""

    __slots__ = ("cp",)

    def __init__(self, cp: int) -> None:
        self.cp = cp


class CharArray(Record, hashable=True, value_repr=True):
    _fields = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


class SBuf(Record, hashable=True, value_repr=True):
    """Immutable snapshot of a StringBuilder/StringBuffer value."""

    _fields = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


class EnumConst(Record, hashable=True, value_repr=True):
    _fields = ("enum_name", "const_name", "fields")

    def __init__(self, enum_name: str, const_name: str,
                 fields: tuple[tuple[str, object], ...] = ()) -> None:
        self.enum_name = enum_name
        self.const_name = const_name
        self.fields = fields

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
        """The array as a value; a char or byte array that holds anything
        but numbers, or a char past Unicode, is not concrete."""
        try:
            if self.elem == "char":
                return CharArray("".join([
                    chr(v.cp if isinstance(v, Char) else v)
                    for v in self.items]))
            if self.elem == "byte":
                return bytes([(v.cp if isinstance(v, Char) else v) & 0xFF
                              for v in self.items])
        except (TypeError, ValueError):
            raise _NotConcrete from None
        return tuple(self.items)


class Builder:
    """Mutable StringBuilder/StringBuffer for the concrete interpreter."""

    def __init__(self, initial: str = ""):
        self.text = initial


class _NotConcrete(Exception):
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


def _not(value) -> bool:
    if not isinstance(value, bool):
        raise _NotConcrete
    return not value


# prefix operator → its function of the operand's value
UNARY = {"-": lambda v: -_as_int(v), "+": _as_int, "~": lambda v: ~_as_int(v),
         "!": _not}


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


def _object_parts(node: SyntaxNode) -> list[SyntaxNode]:
    args = child_of_kind(node, "argument_list")
    return args.children if args is not None else []


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
