"""Locate crypto-API invocation sites in parsed Java source.

Two invocation families are extracted:

* restrictive — call sites whose arguments select an algorithm, i.e.
  ``Cipher.getInstance(...)`` and ``new SecretKeySpec(...)``. The analysis
  subtree is the argument list.
* flexible — method bodies that implement a security decision, i.e.
  ``checkServerTrusted(X509Certificate[], String)`` and the
  ``HostnameVerifier`` ``verify(String, SSLSession)``. The analysis subtree
  is the body block.

Matching is name-based (callee named ``getInstance`` on a receiver whose
text mentions ``Cipher``, etc.): decompiled code lacks reliable type
information, so lookalike receivers are accepted here and triaged later by
the classifier.
"""

from __future__ import annotations

import errno
import os
import re
import stat
from pathlib import Path

from .javaparse import parse_unit
from .syntax import (ParseWarning, Record, SourceUnit, SyntaxNode,
                     child_of_kind, decl_name, method_body, unit_index)

RESTRICTIVE = "restrictive"
FLEXIBLE = "flexible"


class ApiKind(Record, hashable=True):
    """A target API signature and its invocation category."""

    _fields = ("name", "category")

    def __init__(self, name: str, category: str) -> None:
        self.name = name
        self.category = category  # RESTRICTIVE or FLEXIBLE

    def __str__(self) -> str:
        return self.name


RESTRICTIVE_CIPHER_GETINSTANCE = ApiKind("RESTRICTIVE_CIPHER_GETINSTANCE",
                                         RESTRICTIVE)
RESTRICTIVE_SECRETKEYSPEC = ApiKind("RESTRICTIVE_SECRETKEYSPEC", RESTRICTIVE)
FLEXIBLE_CHECK_SERVER_TRUSTED = ApiKind("FLEXIBLE_CHECK_SERVER_TRUSTED",
                                        FLEXIBLE)
FLEXIBLE_HOSTNAME_VERIFIER = ApiKind("FLEXIBLE_HOSTNAME_VERIFIER", FLEXIBLE)

DEFAULT_APIS = frozenset({
    RESTRICTIVE_CIPHER_GETINSTANCE,
    RESTRICTIVE_SECRETKEYSPEC,
    FLEXIBLE_CHECK_SERVER_TRUSTED,
    FLEXIBLE_HOSTNAME_VERIFIER,
})


class CustomApi(Record, hashable=True):
    """An extra API signature from a scan config file.

    ``Class.method`` form matches restrictive call sites; ``name(arity)``
    form matches flexible method declarations.
    """

    _fields = ("kind", "receiver", "method", "arity")

    def __init__(self, kind: ApiKind, receiver: str | None = None,
                 method: str | None = None, arity: int | None = None) -> None:
        self.kind = kind
        self.receiver = receiver  # restrictive: receiver substring
        self.method = method      # restrictive callee / flexible name
        self.arity = arity        # flexible parameter count


class InvocationSite(Record):
    """One occurrence of a target API in one file.

    ``path`` and ``offset`` (the start of ``node``) are recorded at
    extraction, so a `detached` copy keeps its identity and order without
    the syntax tree. So is the site's scope, which every later stage reads
    instead of looking it up again: ``type_body``, the body of the
    innermost type declaration holding the site, named or not, and
    ``method``, the innermost method or constructor declaration holding
    it, anonymous-class methods included (a method declaration site is its
    own method).
    """

    __slots__ = ("id", "api", "path", "offset", "subtree", "unit", "node",
                 "type_body", "method", "receiver_text", "start_line",
                 "end_line")

    def __init__(self, id: str, api: ApiKind, path: str, offset: int,
                 subtree: SyntaxNode | None, unit: SourceUnit | None = None,
                 node: SyntaxNode | None = None,
                 type_body: SyntaxNode | None = None,
                 method: SyntaxNode | None = None, receiver_text: str = "",
                 start_line: int = 0, end_line: int = 0) -> None:
        self.id = id
        self.api = api
        self.path = path
        self.offset = offset
        # argument_list / block / no_body marker; None once detached
        self.subtree = subtree
        self.unit = unit
        self.node = node            # the invocation / declaration node
        self.type_body = type_body  # class_body / enum_body
        self.method = method        # method / constructor declaration
        self.receiver_text = receiver_text  # restrictive receiver: "Cipher"
        self.start_line = start_line
        self.end_line = end_line

    @property
    def order(self) -> tuple[str, int]:
        """Report order: path string, then byte offset."""
        return self.path, self.offset

    def detached(self) -> InvocationSite:
        """A copy holding no part of the syntax tree, for results kept
        after the unit is released."""
        return InvocationSite(self.id, self.api, self.path, self.offset,
                              None, receiver_text=self.receiver_text,
                              start_line=self.start_line,
                              end_line=self.end_line)


def parse_config(text: str) -> list[CustomApi]:
    """Parse `api = <Class.method | name(arity)>` lines into matchers."""
    extras: list[CustomApi] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        if key.strip() != "api" or not value.strip():
            continue
        value = value.strip()
        m = re.fullmatch(r"(\w+)\((\d+)\)", value)
        if m:
            kind = ApiKind(f"FLEXIBLE_{m.group(1).upper()}", FLEXIBLE)
            extras.append(CustomApi(kind, method=m.group(1),
                                    arity=int(m.group(2))))
            continue
        if "." in value:
            receiver, method = value.rsplit(".", 1)
            kind = ApiKind(
                f"RESTRICTIVE_{receiver.upper()}_{method.upper()}",
                RESTRICTIVE)
            extras.append(CustomApi(kind, receiver=receiver, method=method))
    return extras


def load_config(path: str | Path) -> list[CustomApi]:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def _param_types(decl: SyntaxNode) -> list[str]:
    params = child_of_kind(decl, "formal_parameters")
    if params is None:
        return []
    return [str(p.children[0].value or "") for p in params.children
            if p.kind == "formal_parameter" and p.children]


def extract_sites(unit: SourceUnit,
                  apis: frozenset[ApiKind] | set[ApiKind] = DEFAULT_APIS,
                  extras: list[CustomApi] | None = None
                  ) -> list[InvocationSite]:
    """All invocation sites in one parsed unit, ordered by byte offset."""
    if unit.parse_failed:
        return []
    extras = extras or []
    sites: list[InvocationSite] = []
    index = unit_index(unit)
    text = unit.text
    # Candidates come in pre-order, so by offset: ``line`` is the line of
    # offset ``counted``, and each site counts on from the last.
    line, counted = 1, 0

    def add(api: ApiKind, node: SyntaxNode, subtree: SyntaxNode,
            receiver: str = "") -> None:
        nonlocal line, counted
        start = node.start
        line += text.count("\n", counted, start)
        counted = start
        sites.append(InvocationSite(
            id=f"{unit.path}:{start}",
            api=api,
            path=unit.path,
            offset=start,
            subtree=subtree,
            unit=unit,
            node=node,
            type_body=index.enclosing_type_body(node),
            method=index.enclosing_method(node),
            receiver_text=receiver,
            start_line=line,
            end_line=line + text.count("\n", start, node.end - 1),
        ))

    for node in index.site_candidates:
        if node.kind == "method_invocation":
            args = node.children[-1]
            name = node.value
            receiver = node.children[0].text if len(node.children) == 3 \
                else ""
            if name == "getInstance" and "Cipher" in receiver \
                    and RESTRICTIVE_CIPHER_GETINSTANCE in apis:
                add(RESTRICTIVE_CIPHER_GETINSTANCE, node, args, receiver)
                continue
            for extra in extras:
                if extra.kind.category == RESTRICTIVE \
                        and name == extra.method \
                        and extra.receiver and extra.receiver in receiver:
                    add(extra.kind, node, args, receiver)
                    break
        elif node.kind == "object_creation_expression":
            type_node = node.children[0]
            args = child_of_kind(node, "argument_list")
            if args is not None \
                    and "SecretKeySpec" in str(type_node.value or "") \
                    and RESTRICTIVE_SECRETKEYSPEC in apis:
                add(RESTRICTIVE_SECRETKEYSPEC, node, args,
                    str(type_node.value))
        elif node.kind == "method_declaration":
            name = decl_name(node)
            api = None
            if name == "checkServerTrusted" \
                    and FLEXIBLE_CHECK_SERVER_TRUSTED in apis:
                api = FLEXIBLE_CHECK_SERVER_TRUSTED
            elif name == "verify" or extras:
                types = _param_types(node)
                if name == "verify" and len(types) == 2 \
                        and types[0] == "String" and "SSLSession" in types[1] \
                        and FLEXIBLE_HOSTNAME_VERIFIER in apis:
                    api = FLEXIBLE_HOSTNAME_VERIFIER
                else:
                    api = next((e.kind for e in extras
                                if e.kind.category == FLEXIBLE
                                and name == e.method
                                and (e.arity is None
                                     or len(types) == e.arity)), None)
            if api is not None:
                body = method_body(node)
                add(api, node, body if body is not None else SyntaxNode(
                    "no_body", node.end, node.end, [], None, node.source))
    return sites


def corpus_files(root_dir: str | Path) -> list[str]:
    """Every ``*.java`` under root_dir, in path-string order: the order
    of the report, where ``a-c.java`` comes before ``a/b.java``. The
    paths are those of ``root.rglob("*.java")`` as strings: hidden
    directories are searched and symlinks are listed, but a symlinked
    directory is not entered."""
    root = str(Path(root_dir))  # spelled as `Path` spells it
    if not os.path.isdir(root):
        raise FileNotFoundError(f"corpus directory not found: {root}")
    found: list[str] = []
    pending = [root]
    while pending:
        top = pending.pop()
        prefix = "" if top == "." else top if top.endswith("/") \
            else top + "/"
        try:
            with os.scandir(top) as entries:
                for entry in entries:
                    if entry.name.endswith(".java"):
                        found.append(prefix + entry.name)
                    if entry.is_dir(follow_symlinks=False):
                        pending.append(prefix + entry.name)
        except PermissionError:
            pass
    found.sort()
    return found


def _read_text(path: str) -> str:
    """The text of a regular file, as ``open(path, encoding="utf-8",
    errors="replace")`` reads it, opened with no wait on a named pipe: a
    directory is the error ``open`` gives, another file that is not
    regular an error of its own."""
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0))
    try:
        info = os.fstat(fd)
        if stat.S_ISDIR(info.st_mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                    path)
        if not stat.S_ISREG(info.st_mode):
            raise OSError(f"not a regular file: {path!r}")
        # One read for the whole file and one more to see its end.
        chunks = []
        while chunk := os.read(fd, info.st_size + 1):
            chunks.append(chunk)
    finally:
        os.close(fd)
    text = b"".join(chunks).decode("utf-8", "replace")
    return text.replace("\r\n", "\n").replace("\r", "\n")  # universal newlines


def scan_file(path: str, apis: frozenset[ApiKind] | set[ApiKind],
              extras: list[CustomApi] | None,
              warnings: list[ParseWarning]) -> list[InvocationSite]:
    """Read, parse and extract one file. A read or parse failure, and
    every parse warning, is appended to ``warnings``; nothing raises."""
    try:
        text = _read_text(path)
    except OSError as exc:
        warnings.append(ParseWarning(path, 0, f"unreadable: {exc}"))
        return []
    unit = parse_unit(path, text)
    warnings.extend(unit.warnings)
    if unit.parse_failed:
        warnings.append(ParseWarning(path, 0, "PARSE_FAILED"))
        return []
    return extract_sites(unit, apis, extras)


def scan_corpus(root_dir: str | Path,
                apis: frozenset[ApiKind] | set[ApiKind] = DEFAULT_APIS,
                extras: list[CustomApi] | None = None
                ) -> tuple[list[InvocationSite], list[ParseWarning]]:
    """Recursively scan ``*.java`` under root_dir.

    Deterministic: sites come in (path string, offset) order. Per-file
    failures become warnings, never aborts. Every site keeps its unit, so
    every tree stays alive; the pipeline, `report.analyze_corpus`, runs
    `scan_file` itself, in processes on the CPUs the process may use that
    claim files from a shared queue, and merges the results in path
    order.
    """
    warnings: list[ParseWarning] = []
    sites = [site for path in corpus_files(root_dir)
             for site in scan_file(path, apis, extras, warnings)]
    return sites, warnings
