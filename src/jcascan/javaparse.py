"""Tolerant Java lexer and recursive-descent parser.

Produces normalized named-node trees (see syntax.py): anonymous tokens such
as punctuation and keywords are consumed here and never become nodes. The
grammar coverage targets decompiled Android/Java sources: classes,
interfaces, enums, fields, methods, the usual statements, and the full
expression grammar including ternaries, casts, string concatenation,
array creation, and lambdas.

The lexer reads whitespace, comments, ASCII identifiers, operators and
string literals with no escape with one compiled regex, in one
``finditer`` pass up to each other literal; those literals, and text from
a non-ASCII character on, it reads by hand. It fills parallel lists of
token kinds, texts, offsets and values, which the parser reads in place;
``tokenize`` builds ``Token`` records from them. It never raises: a
malformed literal (an escape cut off by the end of the file, a digit
escape without an octal digit, ``0x`` without digits, a decimal literal
too long for ``int``, a digit that is no decimal digit) still becomes a
token, with a parse warning.

Parsing is error-tolerant: a malformed member or statement becomes a
``parse_error`` node and a warning record; the rest of the file still
parses. Only a file with no recoverable declarations at all is flagged
``parse_failed``.
"""

from __future__ import annotations

import re
from collections.abc import Callable

from .syntax import ParseWarning, Record, SourceUnit, SyntaxNode

PRIMITIVE_TYPES = {"boolean", "byte", "char", "short", "int", "long",
                   "float", "double", "void"}

MODIFIER_WORDS = {"public", "protected", "private", "static", "final",
                  "abstract", "native", "synchronized", "transient",
                  "volatile", "strictfp", "default"}

KEYWORDS = PRIMITIVE_TYPES | MODIFIER_WORDS | {
    "class", "interface", "enum", "extends", "implements", "package",
    "import", "new", "return", "if", "else", "for", "while", "do",
    "switch", "case", "break", "continue", "throw", "throws", "try",
    "catch", "finally", "this", "super", "instanceof", "null", "true",
    "false", "assert",
}

# Expressions nest at most MAX_EXPRESSION_DEPTH deep: each parenthesis,
# argument list, index, lambda body, ternary middle operand, prefix
# operator, cast and nested array initializer opens a level. Statements
# and class members nest at most MAX_STATEMENT_DEPTH deep. Chains that nest
# only on the right (`else if`, `c ? a : d ? b : …`, `a = b = …`) are read
# in loops and cost no level per link, like left-deep operator chains.
# Deeper input becomes a parse_error node and a warning instead of
# exhausting the interpreter's recursion limit: both limits reached at
# once, in the costliest shape (lambda arguments inside nested local
# classes), take about 620 stack frames in the parser and fewer in every
# later layer, under the default limit of 1000 (tests/test_cli.py checks
# that case).
MAX_EXPRESSION_DEPTH = 64
MAX_STATEMENT_DEPTH = 48
_TOO_DEEP = f"expression nested deeper than {MAX_EXPRESSION_DEPTH} levels"

# One match reads the whitespace and comments before a token and, if it is
# an ASCII identifier, an operator or a string literal with no backslash,
# the token itself, the longest operator first. What it leaves, `_lex`
# reads by hand: other string literals, char and number literals (a `.`
# before a digit starts one), and everything from a non-ASCII character
# on. An identifier matches only whole and followed by an ASCII character
# (`abé` is read by hand, never as `ab`).
_TOKEN = re.compile(
    r"(?:\s+|//[^\n]*\n?|/\*(?s:.*?\*/|.*))*"
    r"(?:(?P<ident>[A-Za-z_$][A-Za-z0-9_$]*(?![A-Za-z0-9_$]|[^\x00-\x7f]))"
    r"|(?P<op>>>>=|>>>|>>=|<<=|->|::|\+\+|--|&&|\|\||[=!<>+\-*/%&|^]="
    r"|<<|>>|\.(?![0-9]|[^\x00-\x7f])|(?![\sA-Za-z0-9_$\"'.])[\x00-\x7f])"
    r"|(?P<string>\"[^\"\\\n]*\"))?")

# By quote: a literal's characters up to its quote, a backslash or newline.
_QUOTED_RUN = {q: re.compile(f"[^{q}\\\\\n]*").match for q in "\"'"}

# Enough eof tokens after the last one for the parser's furthest
# lookahead, ``self.texts[self.pos + 2]``, from the first eof.
_LOOKAHEAD = 2

# The token kind of each of _TOKEN's groups, by its index.
_GROUP_KINDS = (None, "ident", "op", "string")


class Token(Record):
    __slots__ = ("kind", "text", "start", "end", "value")

    def __init__(self, kind: str, text: str, start: int, end: int,
                 value: object = None) -> None:
        self.kind = kind   # ident, string, char, int, float, op, eof
        self.text = text
        self.start = start
        self.end = end
        self.value = value


class ParseError(Exception):
    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


_HEX4 = re.compile(r"[0-9a-fA-F]{4}")
_SIMPLE_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f",
                   "'": "'", '"': '"', "\\": "\\", "s": " "}


def _decode_escapes(body: str) -> tuple[str, bool]:
    """The value of a literal's body, and whether every escape in it is
    valid. An octal escape reads up to three digits when its first is 0–3,
    else up to two (JLS §3.10.7). A ``\\u`` without four hex digits, a
    digit escape without an octal digit (a backslash and ``8``) and an
    unknown escape are invalid, and stand for the character after the
    backslash."""
    out = []
    valid = True
    i = 0
    while i < len(body):
        c = body[i]
        if c != "\\":
            out.append(c)
            i += 1
            continue
        i += 1
        if i >= len(body):
            out.append("\\")
            break
        e = body[i]
        if e in _SIMPLE_ESCAPES:
            out.append(_SIMPLE_ESCAPES[e])
            i += 1
            continue
        if e == "u":
            j = i + 1
            while j < len(body) and body[j] == "u":
                j += 1
            if _HEX4.match(body, j):
                out.append(chr(int(body[j:j + 4], 16)))
                i = j + 4
                continue
        elif e in "01234567":
            j = i + 1
            last = i + (3 if e in "0123" else 2)
            while j < min(last, len(body)) and body[j] in "01234567":
                j += 1
            out.append(chr(int(body[i:j], 8)))
            i = j
            continue
        valid = False
        out.append(e)
        i += 1
    return "".join(out), valid


def _lex(text: str, problems: list[tuple[int, str]]
         ) -> tuple[list[str], list[str], list[int], list[int], list[object]]:
    """The tokens of ``text`` as parallel lists of kinds, texts, starts,
    ends and values, ending in one ``eof`` token and _LOOKAHEAD more. Never
    raises: a malformed literal still becomes a token, and an ``(offset,
    message)`` pair is appended to ``problems``."""
    kinds, texts, starts, ends = [], [], [], []
    add_kind, add_text, add_start, add_end = (
        kinds.append, texts.append, starts.append, ends.append)
    read: list[tuple[int, object]] = []  # (index, value), read by hand

    def append(kind: str, start: int, end: int, value: object = None) -> None:
        read.append((len(kinds), value))
        add_kind(kind)
        add_text(text[start:end])
        add_start(start)
        add_end(end)

    finditer = _TOKEN.finditer
    i = 0
    n = len(text)
    while True:
        # The regex's tokens up to the next one it leaves, or the end: its
        # match there reads no token.
        for m in finditer(text, i):
            group = m.lastindex
            if group is None:
                break
            start, end = m.span(group)
            if group == 3:  # a string, its value its text between quotes
                read.append((len(kinds), text[start + 1:end - 1]))
            add_kind(_GROUP_KINDS[group])
            add_text(m[group])
            add_start(start)
            add_end(end)
        i = m.end()
        if i == n:
            break
        c = text[i]
        if c == '"' or c == "'":
            # A string or char literal ends at its quote, or before the
            # end of its line. Each match passes a run of other characters.
            run = _QUOTED_RUN[c]
            j = run(text, i + 1).end()
            while j < n and text[j] == "\\":
                j += 1
                if j == n:
                    if c == '"':
                        problems.append(
                            (i, "literal ends inside an escape sequence"))
                    break
                if text[j] == "\n":
                    break
                j = run(text, j + 1).end()
            end = min(j + 1, n)
            body = text[i + 1:j]
            value, valid = (body, True) if "\\" not in body \
                else _decode_escapes(body)
            if not valid:
                problems.append((i, "invalid escape sequence"))
            if c == '"':
                append("string", i, end, value)
            else:
                append("char", i, end, value[:1] or "\0")
            i = end
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            is_float = False
            if text.startswith(("0x", "0X"), i):
                j = i + 2
                while j < n and (text[j] in "0123456789abcdefABCDEF_"):
                    j += 1
                raw = text[i:j].replace("_", "")
                if j < n and text[j] in "lL":
                    j += 1
                if len(raw) > 2:
                    value = int(raw, 16)
                else:
                    value = 0
                    problems.append(
                        (i, "hexadecimal literal without digits"))
                append("int", i, j, value)
                i = j
                continue
            while j < n and (text[j].isdigit() or text[j] == "_"):
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                is_float = True
                j += 1
                while j < n and (text[j].isdigit() or text[j] == "_"):
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    is_float = True
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            raw = text[i:j].replace("_", "")
            if j < n and text[j] in "fFdD":
                is_float = True
                j += 1
            elif j < n and text[j] in "lL":
                j += 1
            try:
                value = float(raw) if is_float else int(raw)
            except ValueError:
                # A digit that is no decimal digit (`²`), or more digits
                # than `int` converts.
                value = 0.0 if is_float else 0
                problems.append((i, "integer literal too long"
                                 if raw.isdecimal() else
                                 "number literal with a non-decimal digit"))
            append("float" if is_float else "int", i, j, value)
            i = j
            continue
        if c.isalpha() or c in "_$":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_$"):
                j += 1
            append("ident", i, j)
            i = j
            continue
        append("op", i, i + 1)
        i += 1
    for column, eof in ((kinds, "eof"), (texts, ""), (starts, n), (ends, n)):
        column.extend([eof] * (1 + _LOOKAHEAD))
    values: list[object] = [None] * len(kinds)
    for index, value in read:
        values[index] = value
    return kinds, texts, starts, ends, values


def tokenize(text: str,
             warnings: list[tuple[int, str]] | None = None) -> list[Token]:
    """The tokens of ``text``, ending in one ``eof`` token. Never raises:
    a malformed literal still becomes a token, and an ``(offset,
    message)`` pair is appended to ``warnings``."""
    lexed = _lex(text, [] if warnings is None else warnings)
    return list(map(Token, *(column[:-_LOOKAHEAD] for column in lexed)))


# The node kind of each literal token's kind (but `0x…` is hexadecimal),
# and the node kind and value of each keyword that is a primary.
_LITERALS = {"string": "string_literal", "char": "character_literal",
             "int": "decimal_integer_literal",
             "float": "decimal_floating_point_literal"}
_WORD_LITERALS = {"true": ("true", True), "false": ("false", False),
                  "null": ("null_literal", None), "this": ("this", "this"),
                  "super": ("super", "super")}


class Parser:
    def __init__(self, path: str, text: str):
        self.path = path
        self.text = text
        lexed: list[tuple[int, str]] = []
        (self.kinds, self.texts, self.starts, self.ends,
         self.values) = _lex(text, lexed)
        self.pos = 0
        self.warnings = [ParseWarning(path, offset, message)
                         for offset, message in lexed] if lexed else []
        self.expression_depth = 0
        self.statement_depth = 0

    # -- token helpers -------------------------------------------------
    # The token at hand is ``self.texts[self.pos]`` and the same index of
    # ``kinds``, ``starts``, ``ends`` and ``values``. Productions pass a
    # token whose text they matched with ``self.pos += 1``: never eof, the
    # one token with the empty text, so ``text not in ("}", "")`` is "not
    # at `}` nor at eof". Nodes are built by a positional ``SyntaxNode``
    # call, its last argument the source.

    def advance(self) -> int:
        """The index of the token at hand, passed unless it is eof."""
        pos = self.pos
        if self.texts[pos]:
            self.pos = pos + 1
        return pos

    def expect(self, text: str) -> int:
        """The index of the token at hand, passed if its text is ``text``,
        else a ParseError."""
        pos = self.pos
        if self.texts[pos] != text:
            raise ParseError(f"expected {text!r}, got {self.texts[pos]!r}",
                             self.starts[pos])
        self.pos = pos + 1
        return pos

    def _identifier(self) -> SyntaxNode:
        """An identifier node of the token at hand, passed unless it is
        eof."""
        pos = self.pos
        if self.texts[pos]:
            self.pos = pos + 1
        return SyntaxNode("identifier", self.starts[pos], self.ends[pos],
                          None, self.texts[pos], self.text)

    # -- error recovery ------------------------------------------------

    def _recover(self, start: int, message: str,
                 skip: Callable[[], None] | None = None) -> SyntaxNode:
        """A warning and one parse_error node from ``start`` over what
        ``skip()`` (default: the rest of the statement) passes."""
        self.warnings.append(ParseWarning(self.path, start, message))
        (skip or self._skip_statement)()
        end = max(self.starts[self.pos], start)
        return SyntaxNode("parse_error", start, end, None, None, self.text)

    def _recover_past(self, start: int, message: str) -> SyntaxNode:
        """``_recover`` from ``start``, then past at least one token, so
        that the caller's loop moves on."""
        err = self._recover(start, message)
        if self.starts[self.pos] == start:
            self.advance()
        return err

    def _skip_statement(self) -> None:
        """Skip past the next ``;``, or up to the next ``}``, outside
        braces."""
        depth = 0
        while text := self.texts[self.pos]:
            if text == "{":
                depth += 1
            elif text == "}":
                if depth == 0:
                    break
                depth -= 1
            elif depth == 0 and text == ";":
                self.pos += 1
                break
            self.pos += 1

    def _skip_statement_chain(self) -> None:
        self._skip_statement()
        # No statement starts with `else`: the rest of an if-else chain
        # goes with the skipped statement.
        while self.texts[self.pos] == "else":
            self._skip_statement()

    # -- program -------------------------------------------------------

    def parse_program(self) -> SyntaxNode:
        children: list[SyntaxNode] = []
        while self.texts[pos := self.pos]:
            try:
                decl = self.parse_top_level()
                if decl is not None:
                    children.append(decl)
            except ParseError as exc:
                children.append(self._recover_past(self.starts[pos], str(exc)))
        return SyntaxNode("program", 0, len(self.text), children, None,
                          self.text)

    def parse_top_level(self) -> SyntaxNode | None:
        pos = self.pos
        text = self.texts[pos]
        if text in ("package", "import"):
            self.pos += 1
            star = text == "import"
            if star and self.texts[self.pos] == "static":
                self.pos += 1
            name = self._qualified_name(allow_star=star)
            return SyntaxNode(f"{text}_declaration", self.starts[pos],
                              self.ends[self.expect(";")], None, name,
                              self.text)
        if text == ";":
            self.pos += 1
            return None
        return self.parse_type_declaration()

    def _qualified_name(self, allow_star: bool = False) -> str:
        parts = [self.texts[self.advance()]]
        while self.texts[self.pos] == ".":
            self.pos += 1
            if allow_star and self.texts[self.pos] == "*":
                self.pos += 1
                parts.append("*")
                break
            parts.append(self.texts[self.advance()])
        return ".".join(parts)

    # -- declarations ----------------------------------------------------

    def _skip_annotations(self) -> None:
        while self.texts[self.pos] == "@":
            self.pos += 1
            self._qualified_name()
            if self.texts[self.pos] == "(":
                self._skip_balanced("(", ")")

    def _skip_balanced(self, open_t: str, close_t: str) -> None:
        self.expect(open_t)
        depth = 1
        while depth and (text := self.texts[self.pos]):
            self.pos += 1
            if text == open_t:
                depth += 1
            elif text == close_t:
                depth -= 1

    def parse_modifiers(self) -> SyntaxNode | None:
        start = self.starts[self.pos]
        mods: list[str] = []
        while True:
            text = self.texts[self.pos]
            if text == "@":
                self._skip_annotations()
            elif text in MODIFIER_WORDS:
                mods.append(text)
                self.pos += 1
            else:
                break
        if not mods:
            return None
        return SyntaxNode("modifiers", start, self.ends[self.pos - 1], None,
                          tuple(mods), self.text)

    def parse_type_declaration(self) -> SyntaxNode:
        start = self.starts[self.pos]
        mods = self.parse_modifiers()
        text = self.texts[self.pos]
        if text in ("class", "interface"):
            return self._class_like(f"{text}_declaration", start, mods)
        if text == "enum":
            return self._enum(start, mods)
        if text == "@":
            raise ParseError("annotation type not supported",
                             self.starts[self.pos])
        raise ParseError(f"expected type declaration, got {text!r}",
                         self.starts[self.pos])

    def _skip_type_params(self) -> None:
        depth = 0
        while text := self.texts[self.pos]:
            self.pos += 1
            if text == "<":
                depth += 1
            elif text == ">":
                depth -= 1
                if depth == 0:
                    return
            elif text == ">>":
                depth -= 2
                if depth <= 0:
                    return

    def _type_head(self, mods: SyntaxNode | None) -> list[SyntaxNode]:
        """The modifiers and the name of a type, past its keyword."""
        self.pos += 1  # class / interface / enum
        return ([] if mods is None else [mods]) + [self._identifier()]

    def _supertypes(self, children: list[SyntaxNode]) -> None:
        """The types of each ``extends`` or ``implements`` list, appended
        to ``children``."""
        while self.texts[self.pos] in ("extends", "implements"):
            self.pos += 1
            children.append(self.parse_type())
            while self.texts[self.pos] == ",":
                self.pos += 1
                children.append(self.parse_type())

    def _class_like(self, kind: str, start: int,
                    mods: SyntaxNode | None) -> SyntaxNode:
        children = self._type_head(mods)
        if self.texts[self.pos] == "<":
            self._skip_type_params()
        self._supertypes(children)
        body = self.parse_class_body()
        children.append(body)
        return SyntaxNode(kind, start, body.end, children, None, self.text)

    def _enum(self, start: int, mods: SyntaxNode | None) -> SyntaxNode:
        children = self._type_head(mods)
        self._supertypes(children)
        body_start = self.starts[self.expect("{")]
        body_children: list[SyntaxNode] = []
        while self.texts[self.pos] not in ("}", ";", ""):
            self._skip_annotations()
            name = self._identifier()
            const_children = [name]
            end = name.end
            if self.texts[self.pos] == "(":
                args = self.parse_argument_list()
                const_children.append(args)
                end = args.end
            if self.texts[self.pos] == "{":
                cbody = self.parse_class_body()
                end = cbody.end
            body_children.append(SyntaxNode("enum_constant", name.start, end,
                                            const_children, None, self.text))
            if self.texts[self.pos] != ",":
                break
            self.pos += 1
        if self.texts[self.pos] == ";":
            self.pos += 1
            while self.texts[self.pos] not in ("}", ""):
                member = self.parse_member()
                if member is not None:
                    body_children.append(member)
        body_end = self.ends[self.expect("}")]
        children.append(SyntaxNode("enum_body", body_start, body_end,
                                   body_children, None, self.text))
        return SyntaxNode("enum_declaration", start, body_end, children, None,
                          self.text)

    def parse_class_body(self) -> SyntaxNode:
        start = self.starts[self.expect("{")]
        children: list[SyntaxNode] = []
        while self.texts[self.pos] not in ("}", ""):
            member = self.parse_member()
            if member is not None:
                children.append(member)
        end = self.ends[self.expect("}")]
        return SyntaxNode("class_body", start, end, children, None, self.text)

    def parse_member(self) -> SyntaxNode | None:
        start = self.starts[self.pos]
        try:
            return self._nested_statement(self._parse_member_inner)
        except ParseError as exc:
            return self._recover_past(start, str(exc))

    def _parse_member_inner(self) -> SyntaxNode | None:
        if self.texts[self.pos] == ";":
            self.pos += 1
            return None
        start = self.starts[self.pos]
        mods = self.parse_modifiers()
        pos = self.pos
        text = self.texts[pos]
        if text in ("class", "interface"):
            return self._class_like(f"{text}_declaration", start, mods)
        if text == "enum":
            return self._enum(start, mods)
        if text == "{":  # initializer block
            block = self.parse_block()
            children = ([mods] if mods else []) + [block]
            return SyntaxNode("initializer_block", start, block.end, children,
                              None, self.text)
        if text == "<":
            self._skip_type_params()
        # Constructor: Name ( ... ) {
        if (self.kinds[pos] == "ident" and self.texts[pos + 1] == "("
                and text not in KEYWORDS):
            return self._method_rest(start, mods, None, self._identifier(),
                                     "constructor_declaration")
        type_node = self.parse_type()
        if self.kinds[self.pos] != "ident":
            raise ParseError("expected member name, got "
                             f"{self.texts[self.pos]!r}",
                             self.starts[self.pos])
        name = self._identifier()
        if self.texts[self.pos] == "(":
            return self._method_rest(start, mods, type_node, name,
                                     "method_declaration")
        children = ([] if mods is None else [mods]) + [type_node]
        end = self._declarators(name, children)
        return SyntaxNode("field_declaration", start, end, children, None,
                          self.text)

    def _method_rest(self, start: int, mods: SyntaxNode | None,
                     type_node: SyntaxNode | None, name: SyntaxNode,
                     kind: str) -> SyntaxNode:
        children: list[SyntaxNode] = [] if mods is None else [mods]
        if type_node is not None:
            children.append(type_node)
        children.append(name)
        params = self.parse_formal_parameters()
        children.append(params)
        end = params.end
        if self.texts[self.pos] == "throws":
            self.pos += 1
            self.parse_type()
            while self.texts[self.pos] == ",":
                self.pos += 1
                self.parse_type()
        if self.texts[self.pos] == "{":
            body = self.parse_block()
            children.append(body)
            end = body.end
        else:
            end = self.ends[self.expect(";")]
        return SyntaxNode(kind, start, end, children, None, self.text)

    def _declarators(self, name: SyntaxNode,
                     children: list[SyntaxNode]) -> int:
        """``name [] … = init, …;`` from the identifier ``name``, already
        read: one variable_declarator per name, appended to ``children``.
        Returns the end of the ``;``."""
        while True:
            decl_children = [name]
            end = name.end
            while self.texts[self.pos] == "[":
                self.pos += 1
                end = self.ends[self.expect("]")]
            if self.texts[self.pos] == "=":
                self.pos += 1
                init = self._array_initializer() \
                    if self.texts[self.pos] == "{" \
                    else self.parse_expression()
                decl_children.append(init)
                end = init.end
            children.append(SyntaxNode("variable_declarator", name.start, end,
                                       decl_children, None, self.text))
            if self.texts[self.pos] != ",":
                return self.ends[self.expect(";")]
            self.pos += 1
            name = self._identifier()

    def parse_formal_parameters(self) -> SyntaxNode:
        start = self.starts[self.expect("(")]
        children: list[SyntaxNode] = []
        while self.texts[self.pos] not in (")", ""):
            pstart = self.starts[self.pos]
            self._skip_annotations()
            ptype = self._final_type()
            while self.texts[self.pos] == ".":  # varargs' `...`
                self.pos += 1
            name = self._identifier()
            pend = name.end
            while self.texts[self.pos] == "[":
                self.pos += 1
                pend = self.ends[self.expect("]")]
            children.append(SyntaxNode("formal_parameter", pstart, pend,
                                       [ptype, name], None, self.text))
            if self.texts[self.pos] == ",":
                self.pos += 1
        end = self.ends[self.expect(")")]
        return SyntaxNode("formal_parameters", start, end, children, None,
                          self.text)

    def _final_type(self) -> SyntaxNode:
        """A type after an optional ``final``."""
        if self.texts[self.pos] == "final":
            self.pos += 1
        return self.parse_type()

    def parse_type(self) -> SyntaxNode:
        pos = self.pos
        texts = self.texts
        if self.kinds[pos] != "ident":
            raise ParseError(f"expected type, got {texts[pos]!r}",
                             self.starts[pos])
        self.pos = pos + 1
        parts = [texts[pos]]
        end = self.ends[pos]
        while True:
            if texts[self.pos] == "<":
                self._skip_type_args()
            nxt = self.pos + 1
            if texts[nxt - 1] != "." or self.kinds[nxt] != "ident":
                break
            self.pos += 2
            parts.append(texts[nxt])
            end = self.ends[nxt]
        dims = 0
        while texts[self.pos] == "[" and texts[self.pos + 1] == "]":
            self.pos += 2
            end = self.ends[self.pos - 1]
            dims += 1
        return SyntaxNode("type_identifier", self.starts[pos], end, None,
                          ".".join(parts) + "[]" * dims, self.text)

    def _skip_type_args(self) -> None:
        """Past the type arguments at ``<``, if a matching ``>`` comes
        before ``;``, ``{`` or ``)`` at the same nesting level."""
        depth = 0
        texts = self.texts
        idx = self.pos
        while idx < len(texts):
            text = texts[idx]
            if text == "<":
                depth += 1
            elif text == ">":
                depth -= 1
                if depth == 0:
                    break
            elif text == ">>":
                depth -= 2
                if depth <= 0:
                    break
            elif text in (";", "{", ")", ""):
                return
            idx += 1
        else:
            return
        self.pos = idx + 1

    # -- statements ------------------------------------------------------

    def parse_block(self) -> SyntaxNode:
        start = self.starts[self.expect("{")]
        children: list[SyntaxNode] = []
        while self.texts[pos := self.pos] not in ("}", ""):
            try:
                stmt = self.parse_statement()
                if stmt is not None:
                    children.append(stmt)
            except ParseError as exc:
                children.append(self._recover_past(self.starts[pos], str(exc)))
        end = self.ends[self.expect("}")]
        return SyntaxNode("block", start, end, children, None, self.text)

    def parse_statement(self) -> SyntaxNode | None:
        return self._nested_statement(self._statement)

    def _nested_statement(self, parse: Callable[[], SyntaxNode | None]
                          ) -> SyntaxNode | None:
        """``parse()`` one statement level deeper; past MAX_STATEMENT_DEPTH
        levels the statement is skipped as one parse_error node."""
        if self.statement_depth >= MAX_STATEMENT_DEPTH:
            return self._recover(self.starts[self.pos],
                                 "statement nested deeper than "
                                 f"{MAX_STATEMENT_DEPTH} levels",
                                 self._skip_statement_chain)
        self.statement_depth += 1
        try:
            return parse()
        finally:
            self.statement_depth -= 1

    def _statement(self) -> SyntaxNode | None:
        pos = self.pos
        text = self.texts[pos]
        start = self.starts[pos]
        if text == ";":
            self.pos += 1
            return None
        if text == "{":
            return self.parse_block()
        if text == "if":
            return self._if_statement()
        if text == "for":
            return self._for_statement()
        if text == "while":
            self.pos += 1
            cond = self._condition()
            body = self.parse_statement()
            end = body.end if body else cond.end
            return SyntaxNode("while_statement", start, end,
                              [cond] + ([body] if body else []), None,
                              self.text)
        if text == "do":
            self.pos += 1
            body = self.parse_statement()
            self.expect("while")
            cond = self._condition()
            end = self.ends[self.expect(";")]
            return SyntaxNode("do_statement", start, end,
                              ([body] if body else []) + [cond], None,
                              self.text)
        if text == "return":
            self.pos += 1
            children = []
            if self.texts[self.pos] != ";":
                children.append(self.parse_expression())
            end = self.ends[self.expect(";")]
            return SyntaxNode("return_statement", start, end, children, None,
                              self.text)
        if text == "throw":
            self.pos += 1
            expr = self.parse_expression()
            end = self.ends[self.expect(";")]
            return SyntaxNode("throw_statement", start, end, [expr], None,
                              self.text)
        if text == "try":
            return self._try_statement()
        if text in ("break", "continue"):
            self.pos += 1
            if self.kinds[self.pos] == "ident":
                self.pos += 1  # label
            end = self.ends[self.expect(";")]
            return SyntaxNode(f"{text}_statement", start, end, None, None,
                              self.text)
        if text == "switch":
            return self._switch_statement()
        if text == "synchronized" and self.texts[pos + 1] == "(":
            self.pos += 1
            expr = self._condition()
            block = self.parse_block()
            return SyntaxNode("synchronized_statement", start, block.end,
                              [expr, block], None, self.text)
        if text == "assert":
            self.pos += 1
            expr = self.parse_expression()
            children = [expr]
            if self.texts[self.pos] == ":":
                self.pos += 1
                children.append(self.parse_expression())
            end = self.ends[self.expect(";")]
            return SyntaxNode("assert_statement", start, end, children, None,
                              self.text)
        if text == "@":
            self._skip_annotations()
            return self.parse_statement()
        if text in ("class", "interface", "enum") or (
                text in MODIFIER_WORDS
                and self.texts[pos + 1] in ("class", "interface", "enum")):
            return self.parse_type_declaration()
        # Label: ident ':' statement
        if self.kinds[pos] == "ident" and self.texts[pos + 1] == ":" \
                and self.texts[pos + 2] != ":":
            self.pos += 2
            return self.parse_statement()
        decl = self._try_local_declaration()
        if decl is not None:
            return decl
        expr = self.parse_expression()
        end = self.ends[self.expect(";")]
        return SyntaxNode("expression_statement", start, end, [expr], None,
                          self.text)

    def _try_local_declaration(self) -> SyntaxNode | None:
        saved = self.pos
        saved_warn = len(self.warnings)
        try:
            type_node = self._final_type()
            pos = self.pos
            if self.kinds[pos] != "ident" or self.texts[pos] in KEYWORDS \
                    or self.texts[pos + 1] not in ("=", ";", ",", "["):
                raise ParseError("not a declaration", self.starts[pos])
            children: list[SyntaxNode] = [type_node]
            end = self._declarators(self._identifier(), children)
            return SyntaxNode("local_variable_declaration",
                              self.starts[saved], end, children, None,
                              self.text)
        except ParseError:
            self.pos = saved
            del self.warnings[saved_warn:]
            return None

    def _condition(self) -> SyntaxNode:
        """The expression in ``( … )``: a condition, a lock or a subject."""
        self.expect("(")
        expr = self.parse_expression()
        self.expect(")")
        return expr

    def _if_statement(self) -> SyntaxNode:
        # An `else if` chain is read in a loop, so its length costs no
        # statement level; its if_statement nodes nest from the last up.
        branches = []
        while True:
            start = self.starts[self.expect("if")]
            cond = self._condition()
            branches.append((start, cond, self.parse_statement()))
            if not (self.texts[self.pos] == "else"
                    and self.texts[self.pos + 1] == "if"):
                break
            self.pos += 1
        other = None
        if self.texts[self.pos] == "else":
            self.pos += 1
            other = self.parse_statement()
        for start, cond, then in reversed(branches):
            children = [cond] + ([then] if then else [])
            end = then.end if then else cond.end
            if other:
                children.append(other)
                end = other.end
            other = SyntaxNode("if_statement", start, end, children, None,
                               self.text)
        return other

    def _for_statement(self) -> SyntaxNode:
        start = self.starts[self.expect("for")]
        self.expect("(")
        # Enhanced for: [final] Type name : iterable
        saved = self.pos
        try:
            type_node = self._final_type()
            pos = self.pos
            if self.kinds[pos] == "ident" and self.texts[pos + 1] == ":":
                name = self._identifier()
                self.pos += 1
                iterable = self.parse_expression()
                self.expect(")")
                body = self.parse_statement()
                end = body.end if body else iterable.end
                children = [type_node, name, iterable] \
                    + ([body] if body else [])
                return SyntaxNode("enhanced_for_statement", start, end,
                                  children, None, self.text)
            raise ParseError("not enhanced for", self.starts[pos])
        except ParseError:
            self.pos = saved
        init_nodes: list[SyntaxNode] = []
        if self.texts[self.pos] != ";":
            decl = self._try_local_declaration()
            if decl is not None:
                init_nodes.append(decl)
            else:
                init_nodes.append(self.parse_expression())
                while self.texts[self.pos] == ",":
                    self.pos += 1
                    init_nodes.append(self.parse_expression())
                self.expect(";")
        else:
            self.pos += 1
        cond = None
        if self.texts[self.pos] != ";":
            cond = self.parse_expression()
        self.expect(";")
        updates: list[SyntaxNode] = []
        if self.texts[self.pos] != ")":
            updates.append(self.parse_expression())
            while self.texts[self.pos] == ",":
                self.pos += 1
                updates.append(self.parse_expression())
        self.expect(")")
        body = self.parse_statement()
        children = init_nodes + ([cond] if cond else []) + updates \
            + ([body] if body else [])
        end = body.end if body else self.ends[self.pos - 1]
        return SyntaxNode("for_statement", start, end, children,
                          (len(init_nodes), cond is not None, len(updates),
                           body is not None), self.text)

    def _try_statement(self) -> SyntaxNode:
        start = self.starts[self.expect("try")]
        children: list[SyntaxNode] = []
        if self.texts[self.pos] == "(":  # try-with-resources
            self.pos += 1
            while self.texts[self.pos] not in (")", ""):
                decl = self._try_local_declaration_in_resource()
                if decl is not None:
                    children.append(decl)
                if self.texts[self.pos] == ";":
                    self.pos += 1
            self.expect(")")
        block = self.parse_block()
        children.append(block)
        end = block.end
        while self.texts[pos := self.pos] == "catch":
            self.pos += 1
            self.expect("(")
            cchildren = [self._final_type()]
            while self.texts[self.pos] == "|":
                self.pos += 1
                cchildren.append(self.parse_type())
            cchildren.append(self._identifier())
            self.expect(")")
            cblock = self.parse_block()
            cchildren.append(cblock)
            children.append(SyntaxNode("catch_clause", self.starts[pos],
                                       cblock.end, cchildren, None, self.text))
            end = cblock.end
        if self.texts[pos := self.pos] == "finally":
            self.pos += 1
            fblock = self.parse_block()
            children.append(SyntaxNode("finally_clause", self.starts[pos],
                                       fblock.end, [fblock], None, self.text))
            end = fblock.end
        return SyntaxNode("try_statement", start, end, children, None,
                          self.text)

    def _try_local_declaration_in_resource(self) -> SyntaxNode | None:
        start = self.starts[self.pos]
        type_node = self._final_type()
        name = self._identifier()
        self.expect("=")
        init = self.parse_expression()
        declarator = SyntaxNode("variable_declarator", name.start, init.end,
                                [name, init], None, self.text)
        return SyntaxNode("local_variable_declaration", start, init.end,
                          [type_node, declarator], None, self.text)

    def _switch_statement(self) -> SyntaxNode:
        start = self.starts[self.expect("switch")]
        subject = self._condition()
        bstart = self.starts[self.expect("{")]
        children: list[SyntaxNode] = [subject]
        while (text := self.texts[self.pos]) not in ("}", ""):
            # `case X:`, `case X ->`, `default:` and `default ->`; the
            # statement after an arrow is read as any other.
            if text in ("case", "default"):
                self.pos += 1
                if text == "case":
                    self.parse_expression()
                if self.texts[self.pos] != "->":
                    self.expect(":")
                    continue
                self.pos += 1
            stmt = self.parse_statement()
            if stmt:
                children.append(stmt)
        end = self.ends[self.expect("}")]
        return SyntaxNode("switch_statement", start, max(end, bstart),
                          children, None, self.text)

    # -- expressions -----------------------------------------------------

    _ASSIGN_OPS = frozenset(("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
                             "^=", "<<=", ">>=", ">>>="))

    def parse_expression(self) -> SyntaxNode:
        """One expression level deeper, past MAX_EXPRESSION_DEPTH levels a
        ParseError: a right-nested chain of assignments (`a = b = …`) and
        ternaries (`c ? x : d ? y : …`), read in a loop so that its length
        costs no expression level; only a ternary's middle operand nests."""
        if self.expression_depth >= MAX_EXPRESSION_DEPTH:
            raise ParseError(_TOO_DEEP, self.starts[self.pos])
        self.expression_depth += 1
        try:
            links = []
            while True:
                left = self._binary(0)
                text = self.texts[self.pos]
                if text == "?":
                    self.pos += 1
                    then = self.parse_expression()
                    self.expect(":")
                    links.append(("ternary_expression", [left, then], None))
                elif text in self._ASSIGN_OPS:
                    self.pos += 1
                    links.append(("assignment_expression", [left], text))
                else:
                    break
            for kind, children, op in reversed(links):
                left = SyntaxNode(kind, children[0].start, left.end,
                                  children + [left], op, self.text)
            return left
        finally:
            self.expression_depth -= 1

    def _nested(self, parse: Callable[[], SyntaxNode]) -> SyntaxNode:
        """``parse()`` one expression level deeper; past
        MAX_EXPRESSION_DEPTH levels a ParseError instead."""
        if self.expression_depth >= MAX_EXPRESSION_DEPTH:
            raise ParseError(_TOO_DEEP, self.starts[self.pos])
        self.expression_depth += 1
        try:
            return parse()
        finally:
            self.expression_depth -= 1

    _PRECEDENCE = [
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", ">", "<=", ">=", "instanceof"),
        ("<<", ">>", ">>>"),
        ("+", "-"),
        ("*", "/", "%"),
    ]
    _LEVEL = {op: level for level, ops in enumerate(_PRECEDENCE)
              for op in ops}

    def _binary(self, level: int) -> SyntaxNode:
        """Binary operators binding at ``level`` or tighter, all
        left-associative (precedence climbing: one frame per operand
        instead of one per precedence level)."""
        left = self._unary()
        # No operator may bind tighter than the one before it: after
        # ``x instanceof T`` a shift or additive operator ends the operand.
        ceiling = len(self._PRECEDENCE)
        while True:
            op = self.texts[self.pos]
            op_level = self._LEVEL.get(op)
            if op_level is None or not level <= op_level <= ceiling:
                return left
            ceiling = op_level
            self.pos += 1
            if op == "instanceof":
                type_node = self.parse_type()
                pos = self.pos
                if self.kinds[pos] == "ident" \
                        and self.texts[pos] not in KEYWORDS \
                        and self.texts[pos + 1] in (")", ";", "&&", "||", "?"):
                    self.pos += 1  # pattern variable
                left = SyntaxNode("instanceof_expression", left.start,
                                  type_node.end, [left, type_node], None,
                                  self.text)
                continue
            right = self._binary(op_level + 1)
            left = SyntaxNode("binary_expression", left.start, right.end,
                              [left, right], op, self.text)

    def _unary(self) -> SyntaxNode:
        pos = self.pos
        text = self.texts[pos]
        if text in ("!", "~", "+", "-"):
            self.pos += 1
            operand = self._nested(self._unary)
            return SyntaxNode("unary_expression", self.starts[pos],
                              operand.end, [operand], text, self.text)
        if text in ("++", "--"):
            self.pos += 1
            operand = self._nested(self._unary)
            return SyntaxNode("update_expression", self.starts[pos],
                              operand.end, [operand], text, self.text)
        if text == "(" and self._looks_like_cast():
            self.pos += 1
            type_node = self.parse_type()
            self.expect(")")
            operand = self._nested(self._unary)
            return SyntaxNode("cast_expression", self.starts[pos], operand.end,
                              [type_node, operand], type_node.value, self.text)
        # A primary and its postfix operators.
        expr = self._primary()
        while True:
            pos = self.pos
            text = self.texts[pos]
            if text == ".":
                self.pos += 1
                if self.texts[self.pos] == "<":
                    self._skip_type_args()
                name = self._identifier()
                if self.texts[self.pos] == "(":
                    args = self.parse_argument_list()
                    expr = SyntaxNode("method_invocation", expr.start,
                                      args.end, [expr, name, args],
                                      name.value, self.text)
                elif name.value == "class":
                    expr = SyntaxNode("class_literal", expr.start, name.end,
                                      [expr], None, self.text)
                else:
                    expr = SyntaxNode("field_access", expr.start, name.end,
                                      [expr, name], name.value, self.text)
                continue
            if text == "::":
                self.pos += 1
                name = self._identifier()
                expr = SyntaxNode("method_reference", expr.start, name.end,
                                  [expr, name], None, self.text)
                continue
            if text == "[":
                self.pos += 1
                index = self.parse_expression()
                end = self.ends[self.expect("]")]
                expr = SyntaxNode("array_access", expr.start, end,
                                  [expr, index], None, self.text)
                continue
            if text in ("++", "--"):
                self.pos += 1
                expr = SyntaxNode("update_expression", expr.start,
                                  self.ends[pos], [expr], text, self.text)
                continue
            return expr

    def _looks_like_cast(self) -> bool:
        # '(' Type ')' followed by a token that can start an operand.
        texts = self.texts
        kinds = self.kinds
        idx = self.pos + 1
        text = texts[idx]
        if kinds[idx] != "ident":
            return False
        is_primitive = text in PRIMITIVE_TYPES
        if not is_primitive and not (text[:1].isupper() or text[:1] == "_"):
            return False
        if text in KEYWORDS and not is_primitive:
            return False
        idx += 1
        while texts[idx] == "." and kinds[idx + 1] == "ident":
            idx += 2
        while texts[idx] == "[" and texts[idx + 1] == "]":
            idx += 2
        if texts[idx] != ")":
            return False
        idx += 1
        if kinds[idx] in ("string", "char", "int", "float"):
            return True
        if kinds[idx] == "ident":
            return texts[idx] != "instanceof" \
                and texts[idx] not in MODIFIER_WORDS
        if texts[idx] in ("+", "-", "++", "--"):
            # A signed operand follows a primitive type only (JLS §15.16):
            # after any other type, `(T) -x` is a subtraction.
            return is_primitive and idx == self.pos + 3
        return texts[idx] in ("(", "!", "~")

    def parse_argument_list(self) -> SyntaxNode:
        """The arguments from the ``(`` at hand."""
        start = self.starts[self.pos]
        self.pos += 1
        children: list[SyntaxNode] = []
        while self.texts[self.pos] not in (")", ""):
            children.append(self.parse_expression())
            if self.texts[self.pos] != ",":
                break
            self.pos += 1
        end = self.ends[self.expect(")")]
        return SyntaxNode("argument_list", start, end, children, None,
                          self.text)

    def _lambda_after(self, params: list[SyntaxNode], start: int) -> SyntaxNode:
        self.expect("->")
        if self.texts[self.pos] == "{":
            body = self.parse_block()
        else:
            body = self.parse_expression()
        return SyntaxNode("lambda_expression", start, body.end,
                          params + [body], None, self.text)

    def _primary(self) -> SyntaxNode:
        pos = self.pos
        kind = self.kinds[pos]
        text = self.texts[pos]
        if kind == "ident" and text not in KEYWORDS:
            nxt = self.texts[pos + 1]
            if nxt == "[" and (literal := self._class_literal()) is not None:
                return literal
            self.pos += 1
            ident = SyntaxNode("identifier", self.starts[pos], self.ends[pos],
                               None, text, self.text)
            if nxt == "(":
                args = self.parse_argument_list()
                return SyntaxNode("method_invocation", ident.start, args.end,
                                  [ident, args], text, self.text)
            if nxt == "->":
                return self._lambda_after([ident], ident.start)
            return ident
        if kind in _LITERALS:
            self.pos += 1
            kind = "hex_integer_literal" if text[:2] in ("0x", "0X") \
                else _LITERALS[kind]
            return SyntaxNode(kind, self.starts[pos], self.ends[pos], None,
                              self.values[pos], self.text)
        if text in _WORD_LITERALS:
            self.pos += 1
            kind, value = _WORD_LITERALS[text]
            return SyntaxNode(kind, self.starts[pos], self.ends[pos], None,
                              value, self.text)
        if text == "new":
            return self._creation()
        if text == "(":
            # Possible lambda: () -> ... or (a, b) -> ...
            lam = self._try_lambda_params()
            if lam is not None:
                return lam
            self.pos += 1
            inner = self.parse_expression()
            end = self.ends[self.expect(")")]
            return SyntaxNode("parenthesized_expression", self.starts[pos],
                              end, [inner], None, self.text)
        if text in PRIMITIVE_TYPES \
                and (literal := self._class_literal()) is not None:
            return literal
        raise ParseError(f"unexpected token {text!r}", self.starts[pos])

    def _class_literal(self) -> SyntaxNode | None:
        """The class literal ``T.class`` or ``T[]….class`` (JLS §15.8.2)
        from the simple or primitive type name ``T`` at hand, or None
        where none follows. ``Name.class`` is read as a postfix."""
        texts = self.texts
        pos = last = self.pos
        while texts[last + 1] == "[" and texts[last + 2] == "]":
            last += 2
        if texts[last + 1] != "." or texts[last + 2] != "class":
            return None
        self.pos = last + 3
        type_node = SyntaxNode("type_identifier", self.starts[pos],
                               self.ends[last], None,
                               texts[pos] + "[]" * ((last - pos) // 2),
                               self.text)
        return SyntaxNode("class_literal", self.starts[pos],
                          self.ends[last + 2], [type_node], None, self.text)

    def _try_lambda_params(self) -> SyntaxNode | None:
        # Lookahead for ')' then '->' with only idents/commas/types between.
        texts = self.texts
        start = self.pos
        idx = start + 1
        depth = 1
        while idx < len(texts) and depth:
            text = texts[idx]
            if text == "(":
                depth += 1
            elif text == ")":
                depth -= 1
            elif text in (";", "{"):
                return None
            idx += 1
        if idx >= len(texts) or texts[idx] != "->":
            return None
        self.pos += 1  # (
        params: list[SyntaxNode] = []
        while self.texts[self.pos] not in (")", ""):
            if self.kinds[self.pos + 1] == "ident":
                self.pos += 1  # typed param: keep the name
            params.append(self._identifier())
            if self.texts[self.pos] == ",":
                self.pos += 1
        self.expect(")")
        return self._lambda_after(params, self.starts[start])

    def _creation(self) -> SyntaxNode:
        start = self.starts[self.pos]
        self.pos += 1  # new
        type_node = self.parse_type()
        base = type_node.value
        if isinstance(base, str) and base.endswith("[]"):
            # new int[]{...} style via parse_type consuming the dims
            children: list[SyntaxNode] = [type_node]
            end = type_node.end
            if self.texts[self.pos] == "{":
                init = self._array_initializer()
                children.append(init)
                end = init.end
            return SyntaxNode("array_creation_expression", start, end,
                              children, None, self.text)
        if self.texts[self.pos] == "[":
            children = [type_node]
            end = type_node.end
            while self.texts[self.pos] == "[":
                self.pos += 1
                if self.texts[self.pos] != "]":
                    children.append(self.parse_expression())
                end = self.ends[self.expect("]")]
            if self.texts[self.pos] == "{":
                init = self._array_initializer()
                children.append(init)
                end = init.end
            return SyntaxNode("array_creation_expression", start, end,
                              children, None, self.text)
        args = self.parse_argument_list() if self.texts[self.pos] == "(" \
            else SyntaxNode("argument_list", type_node.end, type_node.end,
                            None, None, self.text)
        children = [type_node, args]
        end = args.end
        if self.texts[self.pos] == "{":  # anonymous class body
            body = self.parse_class_body()
            children.append(body)
            end = body.end
        return SyntaxNode("object_creation_expression", start, end, children,
                          None, self.text)

    def _array_initializer(self) -> SyntaxNode:
        start = self.starts[self.expect("{")]
        children: list[SyntaxNode] = []
        while (text := self.texts[self.pos]) not in ("}", ""):
            if text != "{":
                children.append(self.parse_expression())
            elif self.expression_depth >= MAX_EXPRESSION_DEPTH:
                # Skipped whole: a ParseError would leave recovery inside
                # its braces.
                children.append(self._recover(
                    self.starts[self.pos], _TOO_DEEP,
                    lambda: self._skip_balanced("{", "}")))
            else:
                children.append(self._nested(self._array_initializer))
            if self.texts[self.pos] == ",":
                self.pos += 1
        end = self.ends[self.expect("}")]
        return SyntaxNode("array_initializer", start, end, children, None,
                          self.text)


def parse_unit(path: str, text: str) -> SourceUnit:
    """Parse Java source into a normalized named-node SourceUnit.

    Parse errors are tolerated and recorded as warnings; a file in which no
    declaration could be recovered at all gets a ``parse_failed`` root.
    """
    parser = Parser(path, text)
    root = parser.parse_program()
    non_error = [c for c in root.children if c.kind != "parse_error"]
    if root.children and not non_error:
        root = SyntaxNode("parse_failed", 0, len(text), [], None, text)
    return SourceUnit(path=path, text=text, root=root,
                      warnings=parser.warnings)
