"""Taxonomy labels and argument signatures for invocation sites.

Restrictive sites (algorithm-selecting arguments) and flexible sites
(trust-decision method bodies) each have a closed set of basic labels.
A site can match several predicates at once; such label sets are composite.
Sites matching no predicate get ``UNKNOWN_API`` and are excluded from the
misuse rules.

Signatures are node-kind histograms over the site subtree, used for exact
(lower-bound) prevalence matching across a corpus.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field

from .ingest import FLEXIBLE, RESTRICTIVE, InvocationSite
from .resolve import NATIVE as NATIVE_RESIDUAL
from .resolve import ResolvedValue
from .syntax import (SyntaxNode, builder_names, member_facts, method_params,
                     modifier_words, unit_index)

RESTRICTIVE_LABELS = frozenset({
    "STROP", "TEROP", "ENUM", "ID", "THIS", "METHOD", "STATIC", "NATIVE",
    "BAS64", "STRBUF", "CONCT", "SEPRT", "OID", "STRING", "EMPTY",
})

FLEXIBLE_LABELS = frozenset({
    "ABS", "NATIVD", "ILL", "CEXP", "NEXP", "LOG", "NATIVE", "METHOD",
    "THIS", "ISTRST", "VAL", "LEN", "NULL", "LIST", "CERFAC", "VER",
    "STROP", "AUTH", "ENCOD", "ARR", "BIGINT", "TMFAC", "GETPUB", "GETISR",
    "GETSUB", "HASH", "CERPAT", "PKIX", "CLIENT", "EMPTY",
})

UNKNOWN_API = "UNKNOWN_API"

_OID_RE = re.compile(r"\d+(\.\d+)+")

_STRING_METHODS = {
    "charAt", "replace", "replaceAll", "substring", "toLowerCase",
    "toUpperCase", "trim", "strip", "concat", "format", "valueOf",
    "getBytes", "toCharArray", "intern", "split", "indexOf", "lastIndexOf",
    "equals", "equalsIgnoreCase", "contains", "startsWith", "endsWith",
    "isEmpty", "length", "compareTo", "matches", "toString",
}

_LOG_RECEIVERS = ("Log", "System.out", "System.err", "Logger", "log",
                  "logger", "Timber")
_LOG_METHODS = {"println", "print", "printStackTrace", "d", "e", "i", "v",
                "w", "wtf", "info", "warn", "warning", "error", "debug",
                "fine", "severe", "log", "trace", "verbose"}

_HASH_LITERAL = re.compile(r"\b(SHA-?\d+|MD5)\b", re.IGNORECASE)

# Certificate-API method names that carry their own label and therefore do
# not count as generic METHOD calls.
_CERT_API_METHODS = {
    "checkValidity", "verify", "isTrusted", "getEncoded", "getPublicKey",
    "getIssuerDN", "getSubjectDN", "getIssuerX500Principal",
    "getSubjectX500Principal", "getInstance", "digest", "init",
    "getName", "toString", "getAcceptedIssuers",
}


@dataclass(frozen=True)
class TaxonomyLabel:
    name: str
    category: str

    def __post_init__(self) -> None:
        allowed = RESTRICTIVE_LABELS if self.category == RESTRICTIVE \
            else FLEXIBLE_LABELS
        if self.name != UNKNOWN_API and self.name not in allowed:
            raise ValueError(
                f"{self.name} is not a {self.category} label")


@dataclass
class LabelSet:
    labels: set[str]
    category: str

    @property
    def composite(self) -> bool:
        return len(self.labels) > 1

    def sorted(self) -> list[str]:
        return sorted(self.labels)


@dataclass(frozen=True)
class ArgumentSignature:
    histogram: tuple[tuple[str, int], ...]

    @staticmethod
    def from_counts(counts: dict[str, int]) -> "ArgumentSignature":
        return ArgumentSignature(tuple(sorted(
            (k, v) for k, v in counts.items() if v > 0)))

    def as_dict(self) -> dict[str, int]:
        return dict(self.histogram)


def signature_of(site: InvocationSite) -> ArgumentSignature:
    counts: dict[str, int] = {}
    if site.subtree.kind != "no_body":
        for node in site.subtree.descendants():
            counts[node.kind] = counts.get(node.kind, 0) + 1
    return ArgumentSignature.from_counts(counts)


def match_signature(sites: list[InvocationSite],
                    pattern: ArgumentSignature) -> list[str]:
    """Exact-histogram matches (lower-bound semantics), deterministic order."""
    return sorted(site.id for site in sites
                  if signature_of(site) == pattern)


# -- helpers ----------------------------------------------------------------

def _calls(subtree: SyntaxNode):
    for node in subtree.walk():
        if node.kind == "method_invocation":
            receiver = node.children[0].text if len(node.children) == 3 \
                else ""
            yield node, str(node.value), receiver


def _unit_native_methods(site: InvocationSite) -> set[str]:
    return unit_index(site.unit).native_methods if site.unit else set()


def _unit_method_names(site: InvocationSite) -> set[str]:
    return unit_index(site.unit).method_names if site.unit else set()


def _declared_builders(site: InvocationSite) -> set[str]:
    """Local/field names declared as StringBuilder/StringBuffer in the
    enclosing method or the enclosing class body."""
    names = set(member_facts(site.unit, site.context).builders)
    if site.unit is not None and site.node is not None:
        method = unit_index(site.unit).enclosing_method(site.node)
        if method is not None:
            names |= builder_names(method)
    return names


def _field_modifiers(site: InvocationSite, name: str) -> tuple[str, ...]:
    return member_facts(site.unit, site.context).field_modifiers.get(name, ())


def _is_enum_constant(site: InvocationSite, name: str) -> bool:
    return site.unit is not None \
        and name in unit_index(site.unit).enum_constants


# -- restrictive classification ----------------------------------------------

def _classify_restrictive(site: InvocationSite,
                          resolved: ResolvedValue | None) -> set[str]:
    subtree = site.subtree
    labels: set[str] = set()
    if subtree.kind == "no_body" or not subtree.children:
        return {"EMPTY"}

    trace_rules = {step.rule for step in (resolved.trace if resolved else [])}
    native_methods = _unit_native_methods(site)
    builders = _declared_builders(site)
    unit_methods = _unit_method_names(site)

    direct = list(subtree.children)
    literals = [n for n in subtree.walk() if n.kind == "string_literal"]

    if any(n.kind == "string_literal" for n in direct):
        labels.add("STRING")
    if any(n.kind == "ternary_expression" for n in subtree.walk()):
        labels.add("TEROP")
    if any(n.kind == "this" for n in subtree.walk()):
        labels.add("THIS")
    if any(n.kind == "binary_expression" and n.value == "+"
           for n in subtree.walk()):
        labels.add("CONCT")

    direct_ids = [str(n.value) for n in direct if n.kind == "identifier"]
    if direct_ids:
        labels.add("ID")
        for name in direct_ids:
            mods = _field_modifiers(site, name)
            if "static" in mods:
                labels.add("STATIC")
            if _is_enum_constant(site, name):
                labels.add("ENUM")
    if "static-field" in trace_rules:
        labels.add("STATIC")
    if "enum-constant" in trace_rules:
        labels.add("ENUM")

    oid_values = set(s.value for s in literals
                     if isinstance(s.value, str))
    if resolved is not None:
        oid_values |= resolved.candidates
    if any(isinstance(v, str) and _OID_RE.fullmatch(v) for v in oid_values):
        labels.add("OID")
    if any(isinstance(s.value, str) and s.value == "/" for s in literals):
        labels.add("SEPRT")

    saw_base64 = "base64-decode" in trace_rules
    saw_native = "native-call" in trace_rules or (
        resolved is not None and NATIVE_RESIDUAL in resolved.residuals)
    saw_strbuf = False
    saw_strop = False
    saw_method = ("method-body" in trace_rules
                  or "method-returns" in trace_rules)

    for call, name, receiver in _calls(subtree):
        recv_base = receiver.split(".")[-1] if receiver else ""
        if name == "decode" and ("Base64" in receiver or recv_base in (
                "getDecoder()", "getUrlDecoder()")):
            saw_base64 = True
            continue
        if name == "decode" and receiver.endswith(")"):
            # Base64.getDecoder().decode(...) style chains.
            if "Base64" in receiver:
                saw_base64 = True
                continue
        if name in native_methods:
            saw_native = True
            continue
        recv_root = receiver.split(".")[0].split("(")[0]
        if name in ("toString", "append") and (
                recv_root in builders
                or "StringBuilder" in receiver
                or "StringBuffer" in receiver):
            saw_strbuf = True
            labels.add("ID")  # the builder variable feeding the argument
            continue
        if name in _STRING_METHODS and name != "toString":
            saw_strop = True
            continue
        if name in unit_methods or recv_root not in ("Base64", "Character",
                                                     "String", "Integer"):
            saw_method = True

    if any(n.kind == "object_creation_expression"
           and str(n.children[0].value or "").split(".")[-1]
           in ("StringBuilder", "StringBuffer")
           for n in subtree.walk()):
        saw_strbuf = True

    if saw_base64:
        labels.add("BAS64")
    if saw_native:
        labels.add("NATIVE")
    if saw_strbuf:
        labels.add("STRBUF")
    if saw_strop:
        labels.add("STROP")
    if saw_method and not saw_strbuf:
        labels.add("METHOD")

    return labels or {UNKNOWN_API}


# -- flexible classification --------------------------------------------------

def _throws_outside_catch(body: SyntaxNode):
    """throw statements not nested inside a catch clause."""
    catch_spans = [(c.start, c.end) for c in body.find_all("catch_clause")]
    for node in body.find_all("throw_statement"):
        if not any(s <= node.start < e for s, e in catch_spans):
            yield node


def _classify_flexible(site: InvocationSite,
                       resolved: ResolvedValue | None) -> set[str]:
    subtree = site.subtree
    if subtree.kind == "no_body":
        if site.node is not None and "native" in modifier_words(site.node):
            return {"NATIVD"}
        return {"ABS"}
    if not subtree.children:
        return {"EMPTY"}

    labels: set[str] = set()
    text = subtree.text
    native_methods = _unit_native_methods(site)
    unit_methods = _unit_method_names(site)
    params = method_params(site.node) if site.node is not None else []
    auth_param = params[1] if len(params) > 1 else None

    for node in _throws_outside_catch(subtree):
        thrown = node.children[0]
        tname = ""
        if thrown.kind == "object_creation_expression":
            tname = str(thrown.children[0].value or "")
        if "IllegalArgument" in tname:
            labels.add("ILL")
        elif "CertificateException" in tname:
            labels.add("CEXP")
        elif "NullPointer" in tname or "AssertionError" in tname \
                or "UnsupportedOperation" in tname:
            labels.add("NEXP")

    if any(n.kind == "this" for n in subtree.walk()):
        labels.add("THIS")
    if "BigInteger" in text:
        labels.add("BIGINT")
    if "TrustManagerFactory" in text:
        labels.add("TMFAC")
    if "CertificateFactory" in text:
        labels.add("CERFAC")
    if "CertPathValidator" in text:
        labels.add("CERPAT")
    if "PKIXParameters" in text or '"PKIX"' in text:
        labels.add("PKIX")
    if _HASH_LITERAL.search(text) or "MessageDigest" in text:
        labels.add("HASH")

    for node in subtree.walk():
        if node.kind == "binary_expression" \
                and str(node.value) in ("==", "!=", "<", ">", "<=", ">="):
            operands = node.children
            if any(o.kind == "null_literal" for o in operands):
                labels.add("NULL")
            if any("length" in o.text for o in operands
                   if o.kind in ("field_access", "method_invocation")):
                labels.add("LEN")

    for call, name, receiver in _calls(subtree):
        recv_root = receiver.split(".")[0].split("(")[0]
        recv_tail = receiver.split("(")[0].rsplit(".", 1)[-1]
        if name == "checkClientTrusted":
            labels.add("CLIENT")
        if name == "checkValidity":
            labels.add("VAL")
        if name == "isTrusted":
            labels.add("ISTRST")
        if name == "verify":
            labels.add("VER")
        if name == "getEncoded":
            labels.add("ENCOD")
        if name == "getPublicKey":
            labels.add("GETPUB")
        if name == "getIssuerDN":
            labels.add("GETISR")
        if name == "getSubjectDN":
            labels.add("GETSUB")
        if recv_root == "Arrays" and name != "asList":
            labels.add("ARR")
        if recv_root == "Arrays" and name == "asList":
            labels.add("LIST")
        if name in ("add", "remove", "addAll", "iterator") \
                or recv_root in ("List", "ArrayList"):
            labels.add("LIST")
        is_log = (recv_root in _LOG_RECEIVERS
                  or recv_tail in _LOG_RECEIVERS
                  or receiver.startswith("System.out")
                  or receiver.startswith("System.err")) \
            and name in _LOG_METHODS \
            or name == "printStackTrace"
        if is_log:
            labels.add("LOG")
            continue
        if name in _STRING_METHODS and name not in ("length", "toString"):
            labels.add("STROP")
        # AUTH means *checking* the auth-type string, not passing it along:
        # only string operations touching the parameter qualify here.
        if auth_param is not None and name in _STRING_METHODS and any(
                n.kind == "identifier" and str(n.value) == auth_param
                for n in call.walk()):
            labels.add("AUTH")
        if name in native_methods or name.startswith("n_") \
                or name.startswith("native"):
            labels.add("NATIVE")
            continue
        if name in unit_methods and name not in _CERT_API_METHODS:
            labels.add("METHOD")
        elif name not in _CERT_API_METHODS \
                and name not in _STRING_METHODS \
                and not (recv_root in ("Arrays", "List", "ArrayList")) \
                and name not in ("add", "remove", "addAll", "iterator",
                                 "asList"):
            labels.add("METHOD")

    # Comparisons against auth-type outside calls (e.g. authType == null).
    if auth_param is not None:
        for node in subtree.walk():
            if node.kind == "binary_expression" and any(
                    o.kind == "identifier" and str(o.value) == auth_param
                    for o in node.children):
                labels.add("AUTH")

    return labels or {UNKNOWN_API}


# -- public API ---------------------------------------------------------------

def classify(site: InvocationSite,
             resolved: ResolvedValue | None = None) -> LabelSet:
    if site.api.category == RESTRICTIVE:
        return LabelSet(_classify_restrictive(site, resolved), RESTRICTIVE)
    return LabelSet(_classify_flexible(site, resolved), FLEXIBLE)


def prevalence_report(sites: list[InvocationSite],
                      label_sets: list[LabelSet]) -> list[tuple[str, int]]:
    """Per-label lower-bound site counts, sorted by label name."""
    counts: dict[str, int] = {}
    for labels in label_sets:
        for label in labels.labels:
            counts[label] = counts.get(label, 0) + 1
    return sorted(counts.items())
