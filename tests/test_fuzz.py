"""Front-end fuzz: seeded token mutants of every single-file test input.

Each mutant deletes, duplicates or swaps one to three tokens of one of the
conftest sources, the ``interp_snippets.py`` decoders or the bench corpus
(seed 0). Whatever a mutant holds, the parser must not raise and must
give a well-formed tree whose every ``parse_error`` node has its warning,
and every site extracted from it must analyze without raising, the same
way twice.
"""

from __future__ import annotations

import random

from jcascan.ingest import extract_sites
from jcascan.javaparse import parse_unit, tokenize
from jcascan.report import analyze_site, site_record
from test_tokenize import _sources

MUTANTS = 2000
SEED = 20261019


def mutant(text: str, rng: random.Random) -> str:
    """``text`` with one to three of its tokens deleted, duplicated or
    swapped with another, the text between tokens kept."""
    spans = [(t.start, t.end) for t in tokenize(text)[:-1]]
    if len(spans) < 2:
        return text
    tokens = [text[a:b] for a, b in spans]
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(tokens))
        edit = rng.randrange(3)
        if edit == 0:
            tokens[i] = ""
        elif edit == 1:
            tokens[i] += " " + tokens[i]
        else:
            j = rng.randrange(len(tokens))
            tokens[i], tokens[j] = tokens[j], tokens[i]
    gaps = [text[:spans[0][0]]] + [text[b:a] for (_, b), (a, _)
                                   in zip(spans, spans[1:])]
    return "".join(g + t for g, t in zip(gaps, tokens)) \
        + text[spans[-1][1]:]


def mutants() -> list[tuple[str, str]]:
    rng = random.Random(SEED)
    sources = _sources()
    out = []
    for k in range(MUTANTS):
        name, text = sources[k % len(sources)]
        out.append((f"{name}#{k}", mutant(text, rng)))
    return out


def _scan(text: str):
    unit = parse_unit("Mutant.java", text)
    records = [site_record(analyze_site(site)) for site in extract_sites(unit)]
    return unit, records


def _tree_faults(unit) -> list[str]:
    """Children outside their parent's span or out of source order, and
    parse_error nodes with no warning at their start."""
    warned = {w.offset for w in unit.warnings}
    faults = []
    for node in unit.root.walk():
        if node.kind == "parse_error" and node.start not in warned:
            faults.append(f"unwarned parse_error at {node.start}")
        last = node.start
        for child in node.children:
            if not last <= child.start <= child.end <= node.end:
                faults.append(f"{child.kind} {child.start}-{child.end} "
                              f"in {node.kind} {node.start}-{node.end}")
            last = child.end
    return faults


def test_mutants_parse_and_analyze_the_same_twice():
    for name, text in mutants():
        unit, records = _scan(text)
        assert _tree_faults(unit) == [], name
        again, records_again = _scan(text)
        assert records_again == records, name
        assert [(w.offset, w.message) for w in again.warnings] \
            == [(w.offset, w.message) for w in unit.warnings], name
