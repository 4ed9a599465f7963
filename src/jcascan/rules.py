"""Misuse rules over resolved values, labels, and body shapes.

Restrictive rules (R1-R9) judge cipher transformation strings and key
material; flexible rules (F1-F10) judge trust-decision method bodies.
Severities: broken algorithms and trust bypass are ERROR; risky-but-
contextual choices (CBC padding, SHA-1 pinning, deprecated accessors) are
WARNING; unverifiable parameters are INFO.

A finding is *evasive* when the triggering effective value never appears as
a literal in the surrounding source - the argument looks benign in code.
"""

from __future__ import annotations

import re

from .classify import _OID_RE, LabelSet
from .ingest import RESTRICTIVE, RESTRICTIVE_SECRETKEYSPEC, InvocationSite
from .resolve import (NATIVE, ResolvedValue, has_encrypted_param_pattern,
                      visible_literals)
from .syntax import Record, SyntaxNode, method_body, unit_index

ERROR = "ERROR"
WARNING = "WARNING"
INFO = "INFO"

CATALOG_VERSION = "1.0"

BROKEN_ALGORITHMS = {"des", "desede", "tripledes", "3des", "rc2", "rc4",
                     "arcfour", "blowfish", "idea"}

# Dotted-decimal OIDs naming cipher algorithms.
OID_TABLE = {
    "1.2.840.113549.3.2": "RC2",
    "1.2.840.113549.3.4": "RC4",
    "1.2.840.113549.3.7": "DESede",
    "1.3.14.3.2.7": "DES",
}
_AES_OID_PREFIX = "2.16.840.1.101.3.4.1."
_AES_OID_MODES = {1: "ECB", 2: "CBC", 3: "OFB", 4: "CFB", 5: "WRAP",
                  6: "GCM", 7: "CCM"}

_TRANSFORM_RE = re.compile(
    r"[A-Za-z][A-Za-z0-9_-]*(/[A-Za-z0-9_-]+(/[A-Za-z0-9_-]+)?)?")

# Labels that represent an actual certificate-examination action; a
# non-empty body with none of these does nothing relevant.
_VERIFICATION_ACTIONS = frozenset({
    "VER", "CERPAT", "TMFAC", "HASH", "ISTRST", "VAL", "STROP", "METHOD",
    "NATIVE", "CLIENT", "GETPUB", "GETSUB", "GETISR", "ENCOD", "ARR",
    "CERFAC", "PKIX",
})

_DN_MARKERS = ("CN=", "OU=", "O=", "L=", "ST=", "C=", "EMAIL")
_COMPARISON_METHODS = {"equals", "equalsIgnoreCase", "contains",
                       "startsWith", "endsWith", "compareTo", "matches"}


class MisuseFinding(Record):
    __slots__ = ("site_id", "rule_id", "severity", "message",
                 "effective_value", "evidence", "evasive")

    def __init__(self, site_id: str, rule_id: str, severity: str,
                 message: str, effective_value: str | None = None,
                 evidence: list[str] | None = None,
                 evasive: bool = False) -> None:
        self.site_id = site_id
        self.rule_id = rule_id
        self.severity = severity
        self.message = message
        self.effective_value = effective_value
        self.evidence = [] if evidence is None else evidence
        self.evasive = evasive


# Each rule's severity and description. R7's severity is the receiver
# type's, so the table has none for it.
_RULES = {
    "R1": (ERROR, "broken cipher algorithm (DES, DESede, RC2, RC4, "
                  "Blowfish, IDEA)"),
    "R2": (ERROR, "OID form of a broken cipher algorithm"),
    "R3": (ERROR, "explicit ECB mode"),
    "R4": (ERROR, "implicit ECB default: bare algorithm or key-wrap "
                  "transformation"),
    "R5": (WARNING, "CBC mode with PKCS5/PKCS7 padding (padding-oracle "
                    "exposure)"),
    "R6": (WARNING, "RSA/ECB/PKCS1Padding"),
    "R7": (None, "empty argument list: type-dependent default "
                 "(AESCipher WARNING, otherwise INFO)"),
    "R8": (INFO, "unverifiable parameter: native source or "
                 "encrypted-parameter pattern"),
    "R9": (INFO, "malformed transformation string"),
    "K1": (ERROR, "hard-coded key material"),
    "K2": (INFO, "unresolvable key material"),
    "F1": (ERROR, "trust-all: empty method body"),
    "F2": (ERROR, "trust-all: body only logs certificates"),
    "F3": (ERROR, "delegation to an empty or trivially-true method"),
    "F4": (ERROR, "expiry check only: no further verification"),
    "F5": (WARNING, "isTrusted bypasses the configured trust manager"),
    "F6": (WARNING, "deprecated accessor getSubjectDN/getIssuerDN"),
    "F7": (WARNING, "SHA-1 in certificate comparison (collision-prone "
                    "pinning)"),
    "F8": (WARNING, "hard-coded certificate-material comparison"),
    "F9": (INFO, "abstract or native declaration: unverifiable"),
    "F10": (ERROR, "ineffectual body: no verification action"),
}


def rule_catalog() -> dict:
    """The versioned rule catalog, serializable as JSON."""
    return {
        "version": CATALOG_VERSION,
        "rules": [{"id": rid, "severity": sev, "description": desc}
                  for rid, (sev, desc) in _RULES.items()],
        "oid_table": dict(OID_TABLE),
        "aes_oid_prefix": _AES_OID_PREFIX,
    }


def _finding(site: InvocationSite, rule_id: str, message: str,
             severity: str | None = None, **fields) -> MisuseFinding:
    """A finding of ``rule_id`` at ``site``, at the table's severity
    unless the rule's severity depends on the site."""
    return MisuseFinding(site_id=site.id, rule_id=rule_id,
                         severity=severity or _RULES[rule_id][0],
                         message=message, **fields)


def expand_oid(oid: str) -> str | None:
    """Transformation named by an OID, or None if unknown."""
    if oid in OID_TABLE:
        return OID_TABLE[oid]
    if oid.startswith(_AES_OID_PREFIX):
        try:
            tail = int(oid[len(_AES_OID_PREFIX):])
        except ValueError:
            return None
        mode = _AES_OID_MODES.get(tail % 20)
        if mode == "WRAP":
            return "AESWrap"
        if mode is not None:
            return f"AES/{mode}"
        return "AES"
    return None


class Transformation(Record, hashable=True):
    _fields = ("algorithm", "mode", "padding")

    def __init__(self, algorithm: str, mode: str | None,
                 padding: str | None) -> None:
        self.algorithm = algorithm
        self.mode = mode
        self.padding = padding

    @staticmethod
    def parse(value: str) -> "Transformation | None":
        value = value.strip()
        if not _TRANSFORM_RE.fullmatch(value):
            return None
        parts = value.split("/")
        return Transformation(
            algorithm=parts[0],
            mode=parts[1] if len(parts) > 1 else None,
            padding=parts[2] if len(parts) > 2 else None,
        )


def _is_evasive(value: str, literals: set[str]) -> bool:
    return value not in literals


def check_restrictive(site: InvocationSite,
                      resolved: ResolvedValue) -> list[MisuseFinding]:
    """R1-R9 over every resolved candidate (any-candidate semantics)."""
    # R7: empty argument list - the receiver type implies the default.
    if site.subtree.kind == "argument_list" and not site.subtree.children:
        receiver = site.receiver_text.split(".")[-1]
        if "AESCipher" in receiver:
            return [_finding(site, "R7", f"no arguments: {receiver} "
                             "defaults to AES in ECB mode", WARNING,
                             evasive=False)]
        who = receiver or "the receiver type"
        return [_finding(site, "R7", "no arguments: default transformation "
                         f"of {who} is type-dependent and unverified", INFO,
                         evasive=False)]

    findings: list[MisuseFinding] = []
    literals = visible_literals(site, resolved)

    def add(rule_id: str, message: str, value: str | None = None,
            evidence: list[str] | None = None,
            evasive: bool | None = None) -> None:
        if evasive is None:
            evasive = value is not None and _is_evasive(value, literals)
        findings.append(_finding(site, rule_id, message,
                                 effective_value=value,
                                 evidence=evidence or [], evasive=evasive))

    for candidate in sorted(resolved.candidates):
        if _OID_RE.fullmatch(candidate.strip()):
            expanded = expand_oid(candidate.strip())
            if expanded is None:
                add("R9", f"unknown algorithm OID {candidate!r}",
                    value=candidate, evasive=False)
                continue
            trans = Transformation.parse(expanded)
            if trans is not None \
                    and trans.algorithm.lower() in BROKEN_ALGORITHMS:
                add("R2", f"OID {candidate} names broken cipher {expanded}",
                    value=expanded)
            if trans is not None and trans.mode \
                    and trans.mode.upper() == "ECB":
                add("R3", f"OID {candidate} selects ECB mode ({expanded})",
                    value=expanded)
            continue
        trans = Transformation.parse(candidate)
        if trans is None:
            add("R9", f"malformed transformation {candidate!r}",
                value=candidate, evasive=False)
            continue
        algo = trans.algorithm.lower()
        mode = trans.mode.upper() if trans.mode else None
        padding = trans.padding.upper() if trans.padding else None
        if algo in BROKEN_ALGORITHMS:
            add("R1", f"broken cipher algorithm in {candidate!r}",
                value=candidate)
        if mode == "ECB" and algo != "rsa":
            add("R3", f"explicit ECB mode in {candidate!r}",
                value=candidate)
        if mode is None and algo in ("aes", "rsa"):
            add("R4", f"bare algorithm {candidate!r} defaults to ECB mode",
                value=candidate)
        elif algo in ("aeswrap", "aeskwp"):
            add("R4", f"key-wrap transformation {candidate!r} uses ECB-like "
                "structure", value=candidate)
        if mode == "CBC" and padding is not None \
                and padding.startswith(("PKCS5", "PKCS7")):
            add("R5", f"CBC with {trans.padding} in {candidate!r} is "
                "exposed to padding-oracle attacks", value=candidate)
        if algo == "rsa" and mode == "ECB" and padding == "PKCS1PADDING":
            add("R6", f"{candidate!r} uses PKCS#1 v1.5 padding",
                value=candidate)

    # R8: unresolved with suspicion.
    if NATIVE in resolved.residuals:
        add("R8", "parameter comes from a native method and cannot be "
                  "verified", evasive=True,
            evidence=["residual:NATIVE"])
    elif has_encrypted_param_pattern(site):
        add("R8", "parameter is produced by decrypting embedded data "
                  "and cannot be verified statically",
            evasive=True, evidence=["pattern:ENCRYPTED-PARAM"])
    return findings


_RANDOM_KEY_SOURCES = ("SecureRandom", "KeyGenerator", "generateKey",
                       "nextBytes", "KeyPairGenerator")


def check_key_material(site: InvocationSite,
                       resolved: ResolvedValue) -> list[MisuseFinding]:
    """K1/K2 for SecretKeySpec key bytes (first constructor argument)."""
    findings: list[MisuseFinding] = []
    concrete = {v for v in resolved.raw_candidates
                if isinstance(v, (bytes, str))}
    if concrete:
        preview = next(iter(sorted(
            v.decode("latin-1") if isinstance(v, bytes) else v
            for v in concrete)))
        findings.append(_finding(
            site, "K1", "hard-coded key material",
            effective_value=preview[:64],
            evasive=_is_evasive(preview, visible_literals(site, resolved))))
        return findings
    texts = [site.subtree.text]
    if site.method is not None:
        texts.append(site.method.text)
    if any(src in text for text in texts for src in _RANDOM_KEY_SOURCES):
        return []
    findings.append(_finding(
        site, "K2", "key material could not be resolved", evasive=False))
    return findings


def _trivially_accepts(body: SyntaxNode | None) -> bool:
    """Empty body, or a body that only returns (optionally `true`)."""
    if body is None:
        return False
    statements = body.children
    if not statements:
        return True
    if len(statements) == 1 and statements[0].kind == "return_statement":
        ret = statements[0]
        if not ret.children or ret.children[0].kind == "true":
            return True
    return False


def _delegates_to_noop(site: InvocationSite, hops: int = 2) -> str | None:
    """Name of an empty/trivially-true method the body delegates to."""
    body = site.subtree
    if body.kind != "block":
        return None
    first_method = unit_index(site.unit).first_method
    frontier = [body]
    for _ in range(hops):
        next_frontier = []
        for scope in frontier:
            for call in scope.find_all("method_invocation"):
                name = str(call.value)
                decl = first_method.get(name)
                if decl is None:
                    continue
                target_body = method_body(decl)
                if _trivially_accepts(target_body):
                    return name
                if target_body is not None:
                    next_frontier.append(target_body)
        frontier = next_frontier
        if not frontier:
            break
    return None


def _has_hardcoded_comparison(body: SyntaxNode) -> tuple[bool, bool]:
    """(dn_literal_compare, material_compare_against_constant)."""
    dn_compare = False
    material_compare = False
    for node in body.walk():
        if node.kind != "method_invocation":
            continue
        name = str(node.value)
        args = node.children[-1]
        literal_args = [a for a in args.walk()
                        if a.kind == "string_literal"
                        and isinstance(a.value, str)]
        receiver_text = node.children[0].text if len(node.children) == 3 \
            else ""
        if name in _COMPARISON_METHODS:
            for lit in literal_args:
                if any(marker in lit.value for marker in _DN_MARKERS):
                    dn_compare = True
                elif len(lit.value) >= 16:
                    material_compare = True
            if not literal_args and name == "equals" \
                    and "Arrays" in receiver_text.split(".")[0]:
                material_compare = True
        if name == "equals" and receiver_text.split(".")[0] == "Arrays":
            material_compare = True
    return dn_compare, material_compare


def check_flexible(site: InvocationSite,
                   labels: LabelSet) -> list[MisuseFinding]:
    """F1-F10 over a trust-decision method body."""
    body = site.subtree
    names = labels.labels
    findings: list[MisuseFinding] = []

    def add(rule_id: str, message: str,
            evidence: list[str] | None = None) -> None:
        findings.append(_finding(site, rule_id, message,
                                 evidence=evidence or [], evasive=False))

    if "ABS" in names or "NATIVD" in names:
        add("F9", "declaration has no analyzable body (abstract/native)")
        return findings
    if "EMPTY" in names:
        add("F1", "empty body accepts every certificate chain")
        return findings

    effectful = names & _VERIFICATION_ACTIONS
    if "LOG" in names and not effectful:
        add("F2", "body only logs certificates; every chain is accepted")
    delegate = _delegates_to_noop(site)
    if delegate is not None:
        add("F3", f"delegates to {delegate!r}, which accepts everything",
            evidence=[f"delegate:{delegate}"])
    if "VAL" in names and not (names & {"VER", "CERPAT", "HASH", "STROP",
                                        "TMFAC", "ISTRST"}):
        add("F4", "only checks certificate expiry; unexpired chains are "
                  "accepted unverified")
    if "ISTRST" in names:
        add("F5", "isTrusted result bypasses the configured trust "
                  "manager")
    if names & {"GETSUB", "GETISR"}:
        add("F6", "uses deprecated getSubjectDN/getIssuerDN accessors")
    dn_compare, material_compare = _has_hardcoded_comparison(body) \
        if body.kind == "block" else (False, False)
    body_text = body.text if body.kind == "block" else ""
    if "HASH" in names and re.search(r"\bSHA-?1\b", body_text) \
            and (dn_compare or material_compare
                 or names & {"STROP", "ARR"}):
        add("F7", "SHA-1 digest comparison is collision-prone pinning")
    if dn_compare:
        add("F8", "compares certificate material against a hard-coded "
                  "distinguished name")
    elif material_compare and "HASH" not in names \
            and names & {"GETPUB", "ENCOD"}:
        add("F8", "compares key/certificate bytes against hard-coded "
                  "data")
    if not effectful and "LOG" not in names:
        add("F10", "body performs no verification action on the "
                   "certificate chain")
    return findings


def check_site(site: InvocationSite, resolved: ResolvedValue | None,
               labels: LabelSet) -> list[MisuseFinding]:
    """Dispatch to the right rule family for one classified site: the
    labels choose flexible findings, the resolved value restrictive ones."""
    if site.api.category != RESTRICTIVE:
        return check_flexible(site, labels)
    assert resolved is not None
    findings = check_restrictive(site, resolved)
    if site.api == RESTRICTIVE_SECRETKEYSPEC:
        findings = [f for f in findings if f.rule_id not in ("R7",)]
        findings.extend(check_key_material(site, resolved))
    return findings
