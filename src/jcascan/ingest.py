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

import re
from dataclasses import dataclass, replace
from pathlib import Path

from .javaparse import parse_unit
from .syntax import (ParseWarning, SourceUnit, SyntaxNode, child_of_kind,
                     decl_name, method_body, unit_index)

RESTRICTIVE = "restrictive"
FLEXIBLE = "flexible"


@dataclass(frozen=True)
class ApiKind:
    """A target API signature and its invocation category."""

    name: str
    category: str  # RESTRICTIVE or FLEXIBLE

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


@dataclass(frozen=True)
class CustomApi:
    """An extra API signature from a scan config file.

    ``Class.method`` form matches restrictive call sites; ``name(arity)``
    form matches flexible method declarations.
    """

    kind: ApiKind
    receiver: str | None = None   # restrictive: receiver substring
    method: str | None = None     # restrictive callee / flexible name
    arity: int | None = None      # flexible parameter count


@dataclass(slots=True)
class InvocationSite:
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

    id: str
    api: ApiKind
    path: str
    offset: int
    subtree: SyntaxNode | None   # argument_list / block / no_body marker;
                                 # None once detached
    unit: SourceUnit | None = None
    node: SyntaxNode | None = None       # the invocation / declaration node
    type_body: SyntaxNode | None = None  # class_body / enum_body
    method: SyntaxNode | None = None     # method / constructor declaration
    receiver_text: str = ""              # restrictive receiver, e.g. "Cipher"
    start_line: int = 0
    end_line: int = 0

    @property
    def order(self) -> tuple[str, int]:
        """Report order: path string, then byte offset."""
        return self.path, self.offset

    def detached(self) -> InvocationSite:
        """A copy holding no part of the syntax tree, for results kept
        after the unit is released."""
        return replace(self, subtree=None, unit=None, node=None,
                       type_body=None, method=None)


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


def _no_body_marker(decl: SyntaxNode) -> SyntaxNode:
    return SyntaxNode("no_body", decl.end, decl.end, [], None, decl.source)


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

    def add(api: ApiKind, node: SyntaxNode, subtree: SyntaxNode,
            receiver: str = "") -> None:
        sites.append(InvocationSite(
            id=f"{unit.path}:{node.start}",
            api=api,
            path=unit.path,
            offset=node.start,
            subtree=subtree,
            unit=unit,
            node=node,
            type_body=index.type_bodies.innermost(node.start, node.end),
            method=index.enclosing_method(node),
            receiver_text=receiver,
            start_line=index.line_of(node.start),
            end_line=index.line_of(max(node.start, node.end - 1)),
        ))

    want_cipher = RESTRICTIVE_CIPHER_GETINSTANCE in apis
    want_keyspec = RESTRICTIVE_SECRETKEYSPEC in apis
    want_cst = FLEXIBLE_CHECK_SERVER_TRUSTED in apis
    want_hv = FLEXIBLE_HOSTNAME_VERIFIER in apis

    for node in index.site_candidates:
        if node.kind == "method_invocation":
            args = node.children[-1]
            name = node.value
            if len(node.children) == 3:
                receiver = node.children[0].text
            else:
                receiver = ""
            if want_cipher and name == "getInstance" and "Cipher" in receiver:
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
            args = next((c for c in node.children
                         if c.kind == "argument_list"), None)
            if want_keyspec and args is not None \
                    and "SecretKeySpec" in str(type_node.value or ""):
                add(RESTRICTIVE_SECRETKEYSPEC, node, args,
                    str(type_node.value))
        elif node.kind == "method_declaration":
            name = decl_name(node)
            types = _param_types(node)
            body = method_body(node)
            subtree = body if body is not None else _no_body_marker(node)
            if want_cst and name == "checkServerTrusted":
                add(FLEXIBLE_CHECK_SERVER_TRUSTED, node, subtree)
                continue
            if want_hv and name == "verify" and len(types) == 2 \
                    and types[0] == "String" and "SSLSession" in types[1]:
                add(FLEXIBLE_HOSTNAME_VERIFIER, node, subtree)
                continue
            for extra in extras:
                if extra.kind.category == FLEXIBLE and name == extra.method \
                        and (extra.arity is None or len(types) == extra.arity):
                    add(extra.kind, node, subtree)
                    break

    sites.sort(key=lambda s: s.offset)
    return sites


def corpus_files(root_dir: str | Path) -> list[Path]:
    """Every ``*.java`` under root_dir, in path-string order: the order
    of the report, where ``a-c.java`` comes before ``a/b.java``."""
    root = Path(root_dir)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {root}")
    return sorted(root.rglob("*.java"), key=str)


def scan_file(path: Path, apis: frozenset[ApiKind] | set[ApiKind],
              extras: list[CustomApi] | None,
              warnings: list[ParseWarning]) -> list[InvocationSite]:
    """Read, parse and extract one file. A read or parse failure, and
    every parse warning, is appended to ``warnings``; nothing raises."""
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        warnings.append(ParseWarning(str(path), 0, f"unreadable: {exc}"))
        return []
    unit = parse_unit(str(path), text)
    if unit.parse_failed:
        warnings.append(ParseWarning(str(path), 0, "PARSE_FAILED"))
        return []
    warnings.extend(unit.warnings)
    return extract_sites(unit, apis, extras)


def scan_corpus(root_dir: str | Path,
                apis: frozenset[ApiKind] | set[ApiKind] = DEFAULT_APIS,
                extras: list[CustomApi] | None = None
                ) -> tuple[list[InvocationSite], list[ParseWarning]]:
    """Recursively scan ``*.java`` under root_dir.

    Deterministic: sites come in (path string, offset) order. Per-file
    failures become warnings, never aborts. Every site keeps its unit, so
    every tree stays alive; the pipeline, `report.analyze_corpus`, runs
    `scan_file` itself, splitting the files across forked workers on the
    CPUs the process may use and merging the results in path order.
    """
    warnings: list[ParseWarning] = []
    sites = [site for path in corpus_files(root_dir)
             for site in scan_file(path, apis, extras, warnings)]
    return sites, warnings
