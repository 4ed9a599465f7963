"""Tolerant Java lexer and recursive-descent parser.

Produces normalized named-node trees (see syntax.py): anonymous tokens such
as punctuation and keywords are consumed here and never become nodes. The
grammar coverage targets decompiled Android/Java sources: classes,
interfaces, enums, fields, methods, the usual statements, and the full
expression grammar including ternaries, casts, string concatenation,
array creation, and lambdas.

The tokenizer reads whitespace, comments, ASCII identifiers and operators
with one compiled regex, one match per token; string, char and number
literals, and text from a non-ASCII character on, it reads by hand. It
never raises: a malformed literal (an escape cut off by the end of the
file, a digit escape without an octal digit, ``0x`` without digits, a
decimal literal too long for ``int``, a digit that is no decimal digit)
still becomes a token, with a parse warning.

Parsing is error-tolerant: a malformed member or statement becomes a
``parse_error`` node and a warning record; the rest of the file still
parses. Only a file with no recoverable declarations at all is flagged
``parse_failed``.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass

from .syntax import ParseWarning, SourceUnit, SyntaxNode

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
# classes), take about 810 stack frames in the parser and fewer in every
# later layer, under the default limit of 1000 (tests/test_cli.py checks
# that case).
MAX_EXPRESSION_DEPTH = 64
MAX_STATEMENT_DEPTH = 48
_TOO_DEEP = f"expression nested deeper than {MAX_EXPRESSION_DEPTH} levels"

# One match reads the whitespace and comments before a token and, if it is
# an ASCII identifier or an operator, the token itself, the longest
# operator first. What it leaves, `tokenize` reads by hand: string, char
# and number literals (a `.` before a digit starts one), and everything
# from a non-ASCII character on. An identifier matches only whole and
# followed by an ASCII character (`abé` is read by hand, never as `ab`).
_TOKEN = re.compile(
    r"(?:\s+|//[^\n]*\n?|/\*(?s:.*?\*/|.*))*"
    r"(?:(?P<ident>[A-Za-z_$][A-Za-z0-9_$]*(?![A-Za-z0-9_$]|[^\x00-\x7f]))"
    r"|(?P<op>>>>=|>>>|>>=|<<=|->|::|\+\+|--|&&|\|\||[=!<>+\-*/%&|^]="
    r"|<<|>>|\.(?![0-9]|[^\x00-\x7f])|(?![\sA-Za-z0-9_$\"'.])[\x00-\x7f]))?")

# Enough eof tokens after the last one for the parser's furthest
# lookahead, `peek(2)`, from the first eof.
_LOOKAHEAD = 2


@dataclass(slots=True)
class Token:
    kind: str   # ident, string, char, int, float, op, eof
    text: str
    start: int
    end: int
    value: object = None


class ParseError(Exception):
    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


_SIMPLE_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f",
                   "'": "'", '"': '"', "\\": "\\", "0": "\0", "s": " "}


def _decode_escapes(body: str) -> tuple[str, bool]:
    """The value of a literal's body, and whether every escape in it is
    valid. A digit escape without an octal digit (a backslash and ``8``)
    stands for the digit, like an unknown escape."""
    if "\\" not in body:
        return body, True
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
        elif e == "u":
            j = i + 1
            while j < len(body) and body[j] == "u":
                j += 1
            hexs = body[j:j + 4]
            if len(hexs) == 4:
                try:
                    out.append(chr(int(hexs, 16)))
                    i = j + 4
                    continue
                except ValueError:
                    pass
            out.append(e)
            i += 1
        elif e.isdigit():
            j = i
            while j < len(body) and j < i + 3 and body[j] in "01234567":
                j += 1
            if j == i:
                valid = False
                out.append(e)
                i += 1
                continue
            out.append(chr(int(body[i:j], 8)))
            i = j
        else:
            out.append(e)
            i += 1
    return "".join(out), valid


def tokenize(text: str,
             warnings: list[tuple[int, str]] | None = None) -> list[Token]:
    """The tokens of ``text``, ending in one ``eof`` token. Never raises:
    a malformed literal still becomes a token, and an ``(offset,
    message)`` pair is appended to ``warnings``."""
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN.match
    problems = [] if warnings is None else warnings
    i = 0
    n = len(text)
    while True:
        m = match(text, i)
        kind = m.lastgroup
        if kind is not None:
            start, i = m.span(kind)
            append(Token(kind, text[start:i], start, i))
            continue
        i = m.end()
        if i == n:
            break
        c = text[i]
        if c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\\":
                    j += 1
                    if j == n:
                        problems.append(
                            (i, "literal ends inside an escape sequence"))
                        break
                if text[j] == "\n":
                    break
                j += 1
            end = min(j + 1, n)
            value, valid = _decode_escapes(text[i + 1:j])
            if not valid:
                problems.append((i, "invalid escape sequence"))
            append(Token("string", text[i:end], i, end, value))
            i = end
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                if text[j] == "\\":
                    j += 1
                if j < n and text[j] == "\n":
                    break
                j += 1
            end = min(j + 1, n)
            value, valid = _decode_escapes(text[i + 1:j])
            if not valid:
                problems.append((i, "invalid escape sequence"))
            append(Token("char", text[i:end], i, end,
                         value[:1] if value else "\0"))
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
                append(Token("int", text[i:j], i, j, value))
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
            append(Token("float" if is_float else "int", text[i:j], i, j,
                         value))
            i = j
            continue
        if c.isalpha() or c in "_$":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_$"):
                j += 1
            append(Token("ident", text[i:j], i, j))
            i = j
            continue
        append(Token("op", c, i, i + 1))
        i += 1
    append(Token("eof", "", n, n))
    return tokens


class Parser:
    def __init__(self, path: str, text: str):
        self.path = path
        self.text = text
        lexed: list[tuple[int, str]] = []
        self.tokens = tokenize(text, lexed)
        self.tokens += [self.tokens[-1]] * _LOOKAHEAD
        self.pos = 0
        self.warnings = [ParseWarning(path, offset, message)
                         for offset, message in lexed]
        self.expression_depth = 0
        self.statement_depth = 0

    # -- token helpers -------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        # `advance` stops at the first eof, and eof tokens pad the list
        # past it; `peek(-1)` at the start reads the last pad.
        return self.tokens[self.pos + offset]

    def at(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.text == text and tok.kind in ("op", "ident")

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, got {tok.text!r}", tok.start)
        return self.advance()

    def node(self, kind: str, start: int, end: int,
             children: list[SyntaxNode] | None = None,
             value: object = None) -> SyntaxNode:
        return SyntaxNode(kind, start, end, children or [], value, self.text)

    # -- error recovery ------------------------------------------------

    def _recover(self, start: int, message: str,
                 skip: Callable[[], None] | None = None) -> SyntaxNode:
        """A warning and one parse_error node from ``start`` over what
        ``skip()`` (default: the rest of the statement) passes."""
        self.warnings.append(ParseWarning(self.path, start, message))
        (skip or self._skip_statement)()
        end = max(self.peek().start, start)
        return self.node("parse_error", start, end)

    def _skip_statement(self) -> None:
        """Skip past the next ``;``, or up to the next ``}``, outside
        braces."""
        depth = 0
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                break
            if tok.text == "{":
                depth += 1
            elif tok.text == "}":
                if depth == 0:
                    break
                depth -= 1
            elif depth == 0 and tok.text == ";":
                self.advance()
                break
            self.advance()

    def _skip_statement_chain(self) -> None:
        self._skip_statement()
        # No statement starts with `else`: the rest of an if-else chain
        # goes with the skipped statement.
        while self.at("else"):
            self._skip_statement()

    # -- program -------------------------------------------------------

    def parse_program(self) -> SyntaxNode:
        children: list[SyntaxNode] = []
        while self.peek().kind != "eof":
            start = self.peek().start
            try:
                decl = self.parse_top_level()
                if decl is not None:
                    children.append(decl)
            except ParseError as exc:
                children.append(self._recover(start, str(exc)))
                if self.peek().start == start and self.peek().kind != "eof":
                    self.advance()
        return self.node("program", 0, len(self.text), children)

    def parse_top_level(self) -> SyntaxNode | None:
        tok = self.peek()
        if tok.text == "package":
            start = self.advance().start
            name = self._qualified_name()
            self.expect(";")
            return self.node("package_declaration", start,
                             self.peek(-1).end if self.pos else start,
                             value=name)
        if tok.text == "import":
            start = self.advance().start
            if self.at("static"):
                self.advance()
            name = self._qualified_name(allow_star=True)
            end = self.expect(";").end
            return self.node("import_declaration", start, end, value=name)
        if tok.text == ";":
            self.advance()
            return None
        return self.parse_type_declaration()

    def _qualified_name(self, allow_star: bool = False) -> str:
        parts = [self.advance().text]
        while self.at("."):
            self.advance()
            if allow_star and self.at("*"):
                self.advance()
                parts.append("*")
                break
            parts.append(self.advance().text)
        return ".".join(parts)

    # -- declarations ----------------------------------------------------

    def _skip_annotations(self) -> None:
        while self.at("@"):
            self.advance()
            self._qualified_name()
            if self.at("("):
                self._skip_balanced("(", ")")

    def _skip_balanced(self, open_t: str, close_t: str) -> None:
        self.expect(open_t)
        depth = 1
        while depth and self.peek().kind != "eof":
            tok = self.advance()
            if tok.text == open_t:
                depth += 1
            elif tok.text == close_t:
                depth -= 1

    def parse_modifiers(self) -> SyntaxNode | None:
        start = self.peek().start
        mods: list[str] = []
        while True:
            self._skip_annotations()
            tok = self.peek()
            if tok.kind == "ident" and tok.text in MODIFIER_WORDS:
                mods.append(self.advance().text)
            else:
                break
        if not mods:
            return None
        return self.node("modifiers", start, self.peek(-1).end if self.pos else start,
                         value=tuple(mods))

    def parse_type_declaration(self) -> SyntaxNode:
        start = self.peek().start
        mods = self.parse_modifiers()
        tok = self.peek()
        if tok.text == "class":
            return self._class_like("class_declaration", start, mods)
        if tok.text == "interface":
            return self._class_like("interface_declaration", start, mods)
        if tok.text == "enum":
            return self._enum(start, mods)
        if tok.text == "@" or (tok.text == "@" and self.peek(1).text == "interface"):
            raise ParseError("annotation type not supported", tok.start)
        raise ParseError(f"expected type declaration, got {tok.text!r}", tok.start)

    def _skip_type_params(self) -> None:
        if self.at("<"):
            depth = 0
            while self.peek().kind != "eof":
                tok = self.advance()
                if tok.text == "<":
                    depth += 1
                elif tok.text == ">":
                    depth -= 1
                    if depth == 0:
                        return
                elif tok.text == ">>":
                    depth -= 2
                    if depth <= 0:
                        return

    def _class_like(self, kind: str, start: int,
                    mods: SyntaxNode | None) -> SyntaxNode:
        self.advance()  # class / interface
        name_tok = self.advance()
        children: list[SyntaxNode] = [] if mods is None else [mods]
        children.append(self.node("identifier", name_tok.start, name_tok.end,
                                  value=name_tok.text))
        self._skip_type_params()
        while self.peek().text in ("extends", "implements"):
            self.advance()
            while True:
                tnode = self.parse_type()
                children.append(tnode)
                if self.at(","):
                    self.advance()
                else:
                    break
        body = self.parse_class_body()
        children.append(body)
        return self.node(kind, start, body.end, children)

    def _enum(self, start: int, mods: SyntaxNode | None) -> SyntaxNode:
        self.advance()  # enum
        name_tok = self.advance()
        children: list[SyntaxNode] = [] if mods is None else [mods]
        children.append(self.node("identifier", name_tok.start, name_tok.end,
                                  value=name_tok.text))
        while self.peek().text in ("extends", "implements"):
            self.advance()
            children.append(self.parse_type())
            while self.at(","):
                self.advance()
                children.append(self.parse_type())
        body_start = self.expect("{").start
        body_children: list[SyntaxNode] = []
        while not self.at("}") and not self.at(";") and self.peek().kind != "eof":
            self._skip_annotations()
            const_tok = self.advance()
            const_children = [self.node("identifier", const_tok.start,
                                        const_tok.end, value=const_tok.text)]
            end = const_tok.end
            if self.at("("):
                args = self.parse_argument_list()
                const_children.append(args)
                end = args.end
            if self.at("{"):
                cbody = self.parse_class_body()
                end = cbody.end
            body_children.append(self.node("enum_constant", const_tok.start,
                                           end, const_children))
            if self.at(","):
                self.advance()
            else:
                break
        if self.at(";"):
            self.advance()
            while not self.at("}") and self.peek().kind != "eof":
                member = self.parse_member()
                if member is not None:
                    body_children.append(member)
        body_end = self.expect("}").end
        children.append(self.node("enum_body", body_start, body_end,
                                  body_children))
        return self.node("enum_declaration", start, body_end, children)

    def parse_class_body(self) -> SyntaxNode:
        start = self.expect("{").start
        children: list[SyntaxNode] = []
        while not self.at("}") and self.peek().kind != "eof":
            member = self.parse_member()
            if member is not None:
                children.append(member)
        end = self.expect("}").end
        return self.node("class_body", start, end, children)

    def parse_member(self) -> SyntaxNode | None:
        start = self.peek().start
        try:
            return self._nested_statement(self._parse_member_inner)
        except ParseError as exc:
            err = self._recover(start, str(exc))
            if self.peek().start == start and self.peek().kind != "eof":
                self.advance()
            return err

    def _parse_member_inner(self) -> SyntaxNode | None:
        if self.at(";"):
            self.advance()
            return None
        start = self.peek().start
        mods = self.parse_modifiers()
        tok = self.peek()
        if tok.text in ("class", "interface"):
            return self._class_like(
                "class_declaration" if tok.text == "class"
                else "interface_declaration", start, mods)
        if tok.text == "enum":
            return self._enum(start, mods)
        if tok.text == "{":  # initializer block
            block = self.parse_block()
            children = ([mods] if mods else []) + [block]
            return self.node("initializer_block", start, block.end, children)
        self._skip_type_params()
        # Constructor: Name ( ... ) {
        if (tok.kind == "ident" and self.peek(1).text == "("
                and tok.text not in KEYWORDS):
            return self._method_rest(start, mods, None, tok, "constructor_declaration")
        type_node = self.parse_type()
        name_tok = self.peek()
        if name_tok.kind != "ident":
            raise ParseError(f"expected member name, got {name_tok.text!r}",
                             name_tok.start)
        self.advance()
        if self.at("("):
            return self._method_rest(start, mods, type_node, name_tok,
                                     "method_declaration")
        return self._field_rest(start, mods, type_node, name_tok)

    def _method_rest(self, start: int, mods: SyntaxNode | None,
                     type_node: SyntaxNode | None, name_tok: Token,
                     kind: str) -> SyntaxNode:
        if kind == "constructor_declaration":
            self.advance()  # name token not yet consumed in ctor path
        children: list[SyntaxNode] = [] if mods is None else [mods]
        if type_node is not None:
            children.append(type_node)
        children.append(self.node("identifier", name_tok.start, name_tok.end,
                                  value=name_tok.text))
        params = self.parse_formal_parameters()
        children.append(params)
        end = params.end
        if self.at("throws"):
            self.advance()
            self.parse_type()
            while self.at(","):
                self.advance()
                self.parse_type()
        if self.at("{"):
            body = self.parse_block()
            children.append(body)
            end = body.end
        else:
            end = self.expect(";").end
        return self.node(kind, start, end, children)

    def _field_rest(self, start: int, mods: SyntaxNode | None,
                    type_node: SyntaxNode, name_tok: Token) -> SyntaxNode:
        children: list[SyntaxNode] = [] if mods is None else [mods]
        children.append(type_node)
        while True:
            decl_children = [self.node("identifier", name_tok.start,
                                       name_tok.end, value=name_tok.text)]
            end = name_tok.end
            while self.at("["):
                self.advance()
                self.expect("]")
            if self.at("="):
                self.advance()
                init = self._array_initializer() if self.at("{") \
                    else self.parse_expression()
                decl_children.append(init)
                end = init.end
            children.append(self.node("variable_declarator", name_tok.start,
                                      end, decl_children))
            if self.at(","):
                self.advance()
                name_tok = self.advance()
            else:
                break
        end = self.expect(";").end
        return self.node("field_declaration", start, end, children)

    def parse_formal_parameters(self) -> SyntaxNode:
        start = self.expect("(").start
        children: list[SyntaxNode] = []
        while not self.at(")") and self.peek().kind != "eof":
            pstart = self.peek().start
            self._skip_annotations()
            if self.at("final"):
                self.advance()
            ptype = self.parse_type()
            if self.at("..."):
                self.advance()
            elif self.at("."):
                while self.at("."):
                    self.advance()
            name_tok = self.advance()
            pend = name_tok.end
            while self.at("["):
                self.advance()
                pend = self.expect("]").end
            children.append(self.node(
                "formal_parameter", pstart, pend,
                [ptype, self.node("identifier", name_tok.start, name_tok.end,
                                  value=name_tok.text)]))
            if self.at(","):
                self.advance()
        end = self.expect(")").end
        return self.node("formal_parameters", start, end, children)

    def parse_type(self) -> SyntaxNode:
        tok = self.peek()
        if tok.kind != "ident":
            raise ParseError(f"expected type, got {tok.text!r}", tok.start)
        start = tok.start
        parts = [self.advance().text]
        end = tok.end
        self._maybe_skip_type_args()
        while self.at(".") and self.peek(1).kind == "ident":
            self.advance()
            nxt = self.advance()
            parts.append(nxt.text)
            end = nxt.end
            self._maybe_skip_type_args()
        dims = 0
        while self.at("[") and self.peek(1).text == "]":
            self.advance()
            end = self.advance().end
            dims += 1
        return self.node("type_identifier", start, end,
                         value=".".join(parts) + "[]" * dims)

    def _maybe_skip_type_args(self) -> None:
        if not self.at("<"):
            return
        # Heuristic lookahead: only skip if a matching '>' appears before
        # ';', '{', or ')' at the same nesting level.
        depth = 0
        idx = self.pos
        while idx < len(self.tokens):
            t = self.tokens[idx]
            if t.text == "<":
                depth += 1
            elif t.text == ">":
                depth -= 1
                if depth == 0:
                    break
            elif t.text == ">>":
                depth -= 2
                if depth <= 0:
                    break
            elif t.text in (";", "{", ")") or t.kind == "eof":
                return
            idx += 1
        else:
            return
        self.pos = idx + 1

    # -- statements ------------------------------------------------------

    def parse_block(self) -> SyntaxNode:
        start = self.expect("{").start
        children: list[SyntaxNode] = []
        while not self.at("}") and self.peek().kind != "eof":
            stmt_start = self.peek().start
            try:
                stmt = self.parse_statement()
                if stmt is not None:
                    children.append(stmt)
            except ParseError as exc:
                children.append(self._recover(stmt_start, str(exc)))
                if self.peek().start == stmt_start and self.peek().kind != "eof":
                    self.advance()
        end = self.expect("}").end
        return self.node("block", start, end, children)

    def parse_statement(self) -> SyntaxNode | None:
        return self._nested_statement(self._statement)

    def _nested_statement(self, parse: Callable[[], SyntaxNode | None]
                          ) -> SyntaxNode | None:
        """``parse()`` one statement level deeper; past MAX_STATEMENT_DEPTH
        levels the statement is skipped as one parse_error node."""
        if self.statement_depth >= MAX_STATEMENT_DEPTH:
            return self._recover(self.peek().start,
                                 "statement nested deeper than "
                                 f"{MAX_STATEMENT_DEPTH} levels",
                                 self._skip_statement_chain)
        self.statement_depth += 1
        try:
            return parse()
        finally:
            self.statement_depth -= 1

    def _statement(self) -> SyntaxNode | None:
        tok = self.peek()
        text = tok.text
        if text == ";":
            self.advance()
            return None
        if text == "{":
            return self.parse_block()
        if text == "if":
            return self._if_statement()
        if text == "for":
            return self._for_statement()
        if text == "while":
            start = self.advance().start
            self.expect("(")
            cond = self.parse_expression()
            self.expect(")")
            body = self.parse_statement()
            end = body.end if body else cond.end
            return self.node("while_statement", start, end,
                             [cond] + ([body] if body else []))
        if text == "do":
            start = self.advance().start
            body = self.parse_statement()
            self.expect("while")
            self.expect("(")
            cond = self.parse_expression()
            self.expect(")")
            end = self.expect(";").end
            return self.node("do_statement", start, end,
                             ([body] if body else []) + [cond])
        if text == "return":
            start = self.advance().start
            children = []
            if not self.at(";"):
                children.append(self.parse_expression())
            end = self.expect(";").end
            return self.node("return_statement", start, end, children)
        if text == "throw":
            start = self.advance().start
            expr = self.parse_expression()
            end = self.expect(";").end
            return self.node("throw_statement", start, end, [expr])
        if text == "try":
            return self._try_statement()
        if text in ("break", "continue"):
            start = self.advance().start
            if self.peek().kind == "ident" and not self.at(";"):
                self.advance()  # label
            end = self.expect(";").end
            return self.node(f"{text}_statement", start, end)
        if text == "switch":
            return self._switch_statement()
        if text == "synchronized" and self.peek(1).text == "(":
            start = self.advance().start
            self.expect("(")
            expr = self.parse_expression()
            self.expect(")")
            block = self.parse_block()
            return self.node("synchronized_statement", start, block.end,
                             [expr, block])
        if text == "assert":
            start = self.advance().start
            expr = self.parse_expression()
            children = [expr]
            if self.at(":"):
                self.advance()
                children.append(self.parse_expression())
            end = self.expect(";").end
            return self.node("assert_statement", start, end, children)
        if text == "@":
            self._skip_annotations()
            return self.parse_statement()
        if text in ("class", "interface", "enum") or (
                tok.kind == "ident" and text in MODIFIER_WORDS
                and self.peek(1).text in ("class", "interface", "enum")):
            return self.parse_type_declaration()
        # Label: ident ':' statement
        if tok.kind == "ident" and self.peek(1).text == ":" \
                and self.peek(2).text != ":":
            self.advance()
            self.advance()
            return self.parse_statement()
        decl = self._try_local_declaration()
        if decl is not None:
            return decl
        start = tok.start
        expr = self.parse_expression()
        end = self.expect(";").end
        return self.node("expression_statement", start, end, [expr])

    def _try_local_declaration(self) -> SyntaxNode | None:
        saved = self.pos
        saved_warn = len(self.warnings)
        try:
            start = self.peek().start
            if self.at("final"):
                self.advance()
            type_node = self.parse_type()
            name_tok = self.peek()
            if name_tok.kind != "ident" or name_tok.text in KEYWORDS:
                raise ParseError("not a declaration", name_tok.start)
            follow = self.peek(1).text
            if follow not in ("=", ";", ",", "["):
                raise ParseError("not a declaration", name_tok.start)
            self.advance()
            children: list[SyntaxNode] = [type_node]
            while True:
                decl_children = [self.node("identifier", name_tok.start,
                                           name_tok.end, value=name_tok.text)]
                end = name_tok.end
                while self.at("["):
                    self.advance()
                    end = self.expect("]").end
                if self.at("="):
                    self.advance()
                    init = self._array_initializer() if self.at("{") \
                        else self.parse_expression()
                    decl_children.append(init)
                    end = init.end
                children.append(self.node("variable_declarator",
                                          name_tok.start, end, decl_children))
                if self.at(","):
                    self.advance()
                    name_tok = self.advance()
                else:
                    break
            end = self.expect(";").end
            return self.node("local_variable_declaration", start, end, children)
        except ParseError:
            self.pos = saved
            del self.warnings[saved_warn:]
            return None

    def _if_statement(self) -> SyntaxNode:
        # An `else if` chain is read in a loop, so its length costs no
        # statement level; its if_statement nodes nest from the last up.
        branches = []
        while True:
            start = self.expect("if").start
            self.expect("(")
            cond = self.parse_expression()
            self.expect(")")
            branches.append((start, cond, self.parse_statement()))
            if not (self.at("else") and self.peek(1).text == "if"):
                break
            self.advance()
        other = None
        if self.at("else"):
            self.advance()
            other = self.parse_statement()
        for start, cond, then in reversed(branches):
            children = [cond] + ([then] if then else [])
            end = then.end if then else cond.end
            if other:
                children.append(other)
                end = other.end
            other = self.node("if_statement", start, end, children)
        return other

    def _for_statement(self) -> SyntaxNode:
        start = self.expect("for").start
        self.expect("(")
        # Enhanced for: [final] Type name : iterable
        saved = self.pos
        try:
            if self.at("final"):
                self.advance()
            type_node = self.parse_type()
            name_tok = self.peek()
            if name_tok.kind == "ident" and self.peek(1).text == ":":
                self.advance()
                self.advance()
                iterable = self.parse_expression()
                self.expect(")")
                body = self.parse_statement()
                end = body.end if body else iterable.end
                children = [type_node,
                            self.node("identifier", name_tok.start,
                                      name_tok.end, value=name_tok.text),
                            iterable] + ([body] if body else [])
                return self.node("enhanced_for_statement", start, end, children)
            raise ParseError("not enhanced for", name_tok.start)
        except ParseError:
            self.pos = saved
        init_nodes: list[SyntaxNode] = []
        if not self.at(";"):
            decl = self._try_local_declaration()
            if decl is not None:
                init_nodes.append(decl)
            else:
                init_nodes.append(self.parse_expression())
                while self.at(","):
                    self.advance()
                    init_nodes.append(self.parse_expression())
                self.expect(";")
        else:
            self.advance()
        cond = None
        if not self.at(";"):
            cond = self.parse_expression()
        self.expect(";")
        updates: list[SyntaxNode] = []
        if not self.at(")"):
            updates.append(self.parse_expression())
            while self.at(","):
                self.advance()
                updates.append(self.parse_expression())
        self.expect(")")
        body = self.parse_statement()
        children = init_nodes + ([cond] if cond else []) + updates \
            + ([body] if body else [])
        end = body.end if body else self.peek(-1).end
        return self.node("for_statement", start, end, children,
                         value=(len(init_nodes), cond is not None,
                                len(updates), body is not None))

    def _try_statement(self) -> SyntaxNode:
        start = self.expect("try").start
        children: list[SyntaxNode] = []
        if self.at("("):  # try-with-resources
            self.advance()
            while not self.at(")") and self.peek().kind != "eof":
                decl = self._try_local_declaration_in_resource()
                if decl is not None:
                    children.append(decl)
                if self.at(";"):
                    self.advance()
            self.expect(")")
        block = self.parse_block()
        children.append(block)
        end = block.end
        while self.at("catch"):
            cstart = self.advance().start
            self.expect("(")
            cchildren: list[SyntaxNode] = []
            if self.at("final"):
                self.advance()
            cchildren.append(self.parse_type())
            while self.at("|"):
                self.advance()
                cchildren.append(self.parse_type())
            name_tok = self.advance()
            cchildren.append(self.node("identifier", name_tok.start,
                                       name_tok.end, value=name_tok.text))
            self.expect(")")
            cblock = self.parse_block()
            cchildren.append(cblock)
            clause = self.node("catch_clause", cstart, cblock.end, cchildren)
            children.append(clause)
            end = cblock.end
        if self.at("finally"):
            fstart = self.advance().start
            fblock = self.parse_block()
            children.append(self.node("finally_clause", fstart, fblock.end,
                                      [fblock]))
            end = fblock.end
        return self.node("try_statement", start, end, children)

    def _try_local_declaration_in_resource(self) -> SyntaxNode | None:
        start = self.peek().start
        if self.at("final"):
            self.advance()
        type_node = self.parse_type()
        name_tok = self.advance()
        self.expect("=")
        init = self.parse_expression()
        declarator = self.node(
            "variable_declarator", name_tok.start, init.end,
            [self.node("identifier", name_tok.start, name_tok.end,
                       value=name_tok.text), init])
        return self.node("local_variable_declaration", start, init.end,
                         [type_node, declarator])

    def _switch_statement(self) -> SyntaxNode:
        start = self.expect("switch").start
        self.expect("(")
        subject = self.parse_expression()
        self.expect(")")
        bstart = self.expect("{").start
        children: list[SyntaxNode] = [subject]
        while not self.at("}") and self.peek().kind != "eof":
            if self.at("case"):
                self.advance()
                self.parse_expression()
                if self.at("->"):
                    self.advance()
                    stmt = self.parse_statement()
                    if stmt:
                        children.append(stmt)
                    continue
                self.expect(":")
                continue
            if self.at("default"):
                self.advance()
                if self.at("->"):
                    self.advance()
                    stmt = self.parse_statement()
                    if stmt:
                        children.append(stmt)
                    continue
                self.expect(":")
                continue
            stmt = self.parse_statement()
            if stmt:
                children.append(stmt)
        end = self.expect("}").end
        return self.node("switch_statement", start, max(end, bstart), children)

    # -- expressions -----------------------------------------------------

    def parse_expression(self) -> SyntaxNode:
        # `_nested(self._assignment)`, inlined: this is the common path,
        # and one frame less per level leaves room for statement nesting.
        if self.expression_depth >= MAX_EXPRESSION_DEPTH:
            raise ParseError(_TOO_DEEP, self.peek().start)
        self.expression_depth += 1
        try:
            return self._assignment()
        finally:
            self.expression_depth -= 1

    def _nested(self, parse: Callable[[], SyntaxNode]) -> SyntaxNode:
        """``parse()`` one expression level deeper; past
        MAX_EXPRESSION_DEPTH levels a ParseError instead."""
        if self.expression_depth >= MAX_EXPRESSION_DEPTH:
            raise ParseError(_TOO_DEEP, self.peek().start)
        self.expression_depth += 1
        try:
            return parse()
        finally:
            self.expression_depth -= 1

    _ASSIGN_OPS = frozenset(("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
                             "^=", "<<=", ">>=", ">>>="))

    def _assignment(self) -> SyntaxNode:
        """A right-nested chain of assignments (`a = b = …`) and ternaries
        (`c ? x : d ? y : …`), read in a loop so that its length costs no
        expression level; only a ternary's middle operand nests."""
        links = []
        while True:
            left = self._binary(0)
            if self.at("?"):
                self.advance()
                then = self._nested(self._assignment)
                self.expect(":")
                links.append(("ternary_expression", [left, then], None))
            elif self.peek().text in self._ASSIGN_OPS:
                links.append(("assignment_expression", [left],
                              self.advance().text))
            else:
                break
        for kind, children, op in reversed(links):
            left = self.node(kind, children[0].start, left.end,
                             children + [left], value=op)
        return left

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
            tok = self.peek()
            op_level = self._LEVEL.get(tok.text)
            if op_level is None or not level <= op_level <= ceiling:
                return left
            ceiling = op_level
            if tok.text == "instanceof":
                self.advance()
                type_node = self.parse_type()
                if self.peek().kind == "ident" and not self.at("instanceof"):
                    nxt = self.peek()
                    if nxt.text not in KEYWORDS and self.peek(1).text in (
                            ")", ";", "&&", "||", "?"):
                        self.advance()  # pattern variable
                left = self.node("instanceof_expression", left.start,
                                 type_node.end, [left, type_node])
                continue
            self.advance()
            right = self._binary(op_level + 1)
            left = self.node("binary_expression", left.start, right.end,
                             [left, right], value=tok.text)

    def _unary(self) -> SyntaxNode:
        tok = self.peek()
        if tok.text in ("!", "~", "+", "-"):
            self.advance()
            operand = self._nested(self._unary)
            return self.node("unary_expression", tok.start, operand.end,
                             [operand], value=tok.text)
        if tok.text in ("++", "--"):
            self.advance()
            operand = self._nested(self._unary)
            return self.node("update_expression", tok.start, operand.end,
                             [operand], value=tok.text)
        if tok.text == "(" and self._looks_like_cast():
            start = self.advance().start
            type_node = self.parse_type()
            self.expect(")")
            operand = self._nested(self._unary)
            return self.node("cast_expression", start, operand.end,
                             [type_node, operand], value=type_node.value)
        return self._postfix()

    def _looks_like_cast(self) -> bool:
        # '(' Type ')' followed by a token that can start an operand.
        idx = self.pos + 1
        tok = self.tokens[idx]
        if tok.kind != "ident":
            return False
        is_primitive = tok.text in PRIMITIVE_TYPES
        if not is_primitive and not (tok.text[:1].isupper() or tok.text[:1] == "_"):
            return False
        if tok.text in KEYWORDS and not is_primitive:
            return False
        idx += 1
        while self.tokens[idx].text == "." and self.tokens[idx + 1].kind == "ident":
            idx += 2
        while self.tokens[idx].text == "[" and self.tokens[idx + 1].text == "]":
            idx += 2
        if self.tokens[idx].text != ")":
            return False
        nxt = self.tokens[idx + 1]
        if nxt.kind in ("string", "char", "int", "float"):
            return True
        if nxt.kind == "ident" and nxt.text not in (
                "instanceof",) and nxt.text not in MODIFIER_WORDS:
            return True
        return nxt.text in ("(", "!", "~", "new", "this")

    def _postfix(self) -> SyntaxNode:
        expr = self._primary()
        while True:
            tok = self.peek()
            if tok.text == ".":
                self.advance()
                self._maybe_skip_type_args()
                name_tok = self.advance()
                name = self.node("identifier", name_tok.start, name_tok.end,
                                 value=name_tok.text)
                if self.at("("):
                    args = self.parse_argument_list()
                    expr = self.node("method_invocation", expr.start, args.end,
                                     [expr, name, args], value=name_tok.text)
                elif name_tok.text == "class":
                    expr = self.node("class_literal", expr.start, name_tok.end,
                                     [expr])
                else:
                    expr = self.node("field_access", expr.start, name_tok.end,
                                     [expr, name], value=name_tok.text)
                continue
            if tok.text == "::":
                self.advance()
                name_tok = self.advance()
                expr = self.node("method_reference", expr.start, name_tok.end,
                                 [expr, self.node("identifier", name_tok.start,
                                                  name_tok.end,
                                                  value=name_tok.text)])
                continue
            if tok.text == "[":
                self.advance()
                index = self.parse_expression()
                end = self.expect("]").end
                expr = self.node("array_access", expr.start, end, [expr, index])
                continue
            if tok.text in ("++", "--"):
                self.advance()
                expr = self.node("update_expression", expr.start, tok.end,
                                 [expr], value=tok.text)
                continue
            return expr

    def parse_argument_list(self) -> SyntaxNode:
        start = self.expect("(").start
        children: list[SyntaxNode] = []
        while not self.at(")") and self.peek().kind != "eof":
            children.append(self.parse_expression())
            if self.at(","):
                self.advance()
            else:
                break
        end = self.expect(")").end
        return self.node("argument_list", start, end, children)

    def _lambda_after(self, params: list[SyntaxNode], start: int) -> SyntaxNode:
        self.expect("->")
        if self.at("{"):
            body = self.parse_block()
        else:
            body = self.parse_expression()
        return self.node("lambda_expression", start, body.end, params + [body])

    def _primary(self) -> SyntaxNode:
        tok = self.peek()
        if tok.kind == "string":
            self.advance()
            return self.node("string_literal", tok.start, tok.end,
                             value=tok.value)
        if tok.kind == "char":
            self.advance()
            return self.node("character_literal", tok.start, tok.end,
                             value=tok.value)
        if tok.kind == "int":
            self.advance()
            kind = ("hex_integer_literal" if tok.text[:2].lower() == "0x"
                    else "decimal_integer_literal")
            return self.node(kind, tok.start, tok.end, value=tok.value)
        if tok.kind == "float":
            self.advance()
            return self.node("decimal_floating_point_literal", tok.start,
                             tok.end, value=tok.value)
        if tok.text in ("true", "false"):
            self.advance()
            return self.node(tok.text, tok.start, tok.end,
                             value=tok.text == "true")
        if tok.text == "null":
            self.advance()
            return self.node("null_literal", tok.start, tok.end)
        if tok.text == "this":
            self.advance()
            return self.node("this", tok.start, tok.end, value="this")
        if tok.text == "super":
            self.advance()
            return self.node("super", tok.start, tok.end, value="super")
        if tok.text == "new":
            return self._creation(tok)
        if tok.text == "(":
            # Possible lambda: () -> ... or (a, b) -> ...
            lam = self._try_lambda_params(tok)
            if lam is not None:
                return lam
            self.advance()
            inner = self.parse_expression()
            end = self.expect(")").end
            return self.node("parenthesized_expression", tok.start, end,
                             [inner])
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            self.advance()
            ident = self.node("identifier", tok.start, tok.end, value=tok.text)
            if self.at("("):
                args = self.parse_argument_list()
                return self.node("method_invocation", tok.start, args.end,
                                 [ident, args], value=tok.text)
            if self.at("->"):
                return self._lambda_after([ident], tok.start)
            return ident
        raise ParseError(f"unexpected token {tok.text!r}", tok.start)

    def _try_lambda_params(self, tok: Token) -> SyntaxNode | None:
        # Lookahead for ')' then '->' with only idents/commas/types between.
        idx = self.pos + 1
        depth = 1
        while idx < len(self.tokens) and depth:
            t = self.tokens[idx]
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth -= 1
            elif t.text in (";", "{"):
                return None
            idx += 1
        if idx >= len(self.tokens) or self.tokens[idx].text != "->":
            return None
        self.advance()  # (
        params: list[SyntaxNode] = []
        while not self.at(")") and self.peek().kind != "eof":
            first = self.advance()
            if self.peek().kind == "ident" and not self.at(","):
                first = self.advance()  # typed param: keep the name
            params.append(self.node("identifier", first.start, first.end,
                                    value=first.text))
            if self.at(","):
                self.advance()
        self.expect(")")
        return self._lambda_after(params, tok.start)

    def _creation(self, new_tok: Token) -> SyntaxNode:
        self.expect("new")
        type_node = self.parse_type()
        base = type_node.value
        if isinstance(base, str) and base.endswith("[]"):
            # new int[]{...} style via parse_type consuming the dims
            children: list[SyntaxNode] = [type_node]
            end = type_node.end
            if self.at("{"):
                init = self._array_initializer()
                children.append(init)
                end = init.end
            return self.node("array_creation_expression", new_tok.start, end,
                             children)
        if self.at("["):
            children = [type_node]
            end = type_node.end
            while self.at("["):
                self.advance()
                if not self.at("]"):
                    children.append(self.parse_expression())
                end = self.expect("]").end
            if self.at("{"):
                init = self._array_initializer()
                children.append(init)
                end = init.end
            return self.node("array_creation_expression", new_tok.start, end,
                             children)
        args = self.parse_argument_list() if self.at("(") else \
            self.node("argument_list", type_node.end, type_node.end)
        children = [type_node, args]
        end = args.end
        if self.at("{"):  # anonymous class body
            body = self.parse_class_body()
            children.append(body)
            end = body.end
        return self.node("object_creation_expression", new_tok.start, end,
                         children)

    def _array_initializer(self) -> SyntaxNode:
        start = self.expect("{").start
        children: list[SyntaxNode] = []
        while not self.at("}") and self.peek().kind != "eof":
            if self.at("{") and self.expression_depth >= MAX_EXPRESSION_DEPTH:
                # Skipped whole: a ParseError would leave recovery inside
                # its braces.
                children.append(self._recover(
                    self.peek().start, _TOO_DEEP,
                    lambda: self._skip_balanced("{", "}")))
            elif self.at("{"):
                children.append(self._nested(self._array_initializer))
            else:
                children.append(self.parse_expression())
            if self.at(","):
                self.advance()
        end = self.expect("}").end
        return self.node("array_initializer", start, end, children)


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
