"""In-process traced scan: one span per file, per site and per layer call.

`traced_scan` repeats, layer by layer, what ``jcascan scan`` does
(``ingest.scan_corpus`` followed by ``report.analyze_site`` per site and
``report.write_report``), timing each public call into a layer. The report
it writes must equal the untraced CLI's byte for byte; the caller checks
that, so the mirror cannot drift from the real pipeline unnoticed.

Spans are kept in memory as ``[name, start, end, parent]`` and written out
by the caller when the run ends. A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from jcascan.classify import classify, signature_of
from jcascan.complexity import count_d, score
from jcascan.ingest import DEFAULT_APIS, RESTRICTIVE, extract_sites
from jcascan.javaparse import parse_unit, tokenize
from jcascan.report import (SiteAnalysis, plan_from_report, read_report,
                            write_report)
from jcascan.resolve import DEPTH_EXCEEDED, ResolutionBudget, resolve_site
from jcascan.rules import check_site
from jcascan.syntax import ParseWarning

# Span names of the analysis layers inside one site span.
SITE_LAYERS = ("complexity", "resolve.resolve_site", "classify",
               "rules.check_site")
# Module -> span names whose self time is charged to it.
LAYERS = {
    "javaparse": ("javaparse.parse_unit",),
    "ingest": ("ingest.read", "ingest.extract_sites"),
    "complexity": ("complexity",),
    "resolve": ("resolve.resolve_site",),
    "classify": ("classify",),
    "rules": ("rules.check_site",),
    "report": ("report.write_report",),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, perf_counter(), 0.0,
                  self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - covered[i]
        return totals

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def site_costs(self) -> list[float]:
        """Per site, the summed durations of its analysis-layer spans."""
        costs: dict[int, float] = {}
        for name, start, end, parent in self.spans:
            if name in SITE_LAYERS:
                costs[parent] = costs.get(parent, 0.0) + (end - start)
        return list(costs.values())


@dataclass
class PassCounts:
    """Counts taken from layer outputs during one traced pass."""

    sites: int = 0
    resolve_calls: int = 0
    concrete: int = 0
    budget_exhausted: int = 0
    trace_steps: int = 0
    labels: int = 0
    findings: int = 0
    evasive: int = 0
    report_bytes: int = 0


@dataclass
class TracedPass:
    tracer: Tracer
    counts: PassCounts
    scan_wall_s: float          # read .. write_report, like ``jcascan scan``
    report: bytes


def traced_scan(corpus: str, report_path: Path, seed: int) -> TracedPass:
    """Scan ``corpus`` with a span around every layer call; write the
    report to ``report_path`` and time reading it back and planning a
    sample from it."""
    tracer = Tracer()
    span = tracer.span
    counts = PassCounts()
    budget = ResolutionBudget()
    analyses: list[SiteAnalysis] = []
    warnings: list[ParseWarning] = []
    started = perf_counter()
    for path in sorted(Path(corpus).rglob("*.java")):
        with span("file"):
            with span("ingest.read"):
                text = path.read_text(encoding="utf-8", errors="replace")
            with span("javaparse.parse_unit"):
                unit = parse_unit(str(path), text)
            if unit.parse_failed:
                warnings.append(ParseWarning(str(path), 0, "PARSE_FAILED"))
                continue
            warnings.extend(unit.warnings)
            with span("ingest.extract_sites"):
                sites = extract_sites(unit, DEFAULT_APIS, [])
            for site in sites:
                with span("site"):
                    with span("complexity"):
                        d = count_d(site)
                        s = score(d)
                    resolved = None
                    if site.api.category == RESTRICTIVE:
                        with span("resolve.resolve_site"):
                            resolved = resolve_site(site, budget)
                    with span("classify"):
                        labels = classify(site, resolved)
                        signature = signature_of(site)
                    with span("rules.check_site"):
                        findings = check_site(site, resolved, labels)
                analyses.append(SiteAnalysis(
                    site=site, d=d, score=round(s, 6),
                    labels=sorted(labels.labels),
                    signature=dict(sorted(signature.as_dict().items())),
                    candidates=sorted(resolved.candidates) if resolved
                    else [],
                    residuals=sorted(resolved.residuals) if resolved
                    else [],
                    findings=findings))
                counts.sites += 1
                counts.labels += len(labels.labels)
                counts.findings += len(findings)
                counts.evasive += sum(f.evasive for f in findings)
                if resolved is not None:
                    counts.resolve_calls += 1
                    counts.concrete += resolved.concrete
                    counts.budget_exhausted += \
                        DEPTH_EXCEEDED in resolved.residuals
                    counts.trace_steps += len(resolved.trace)
    with span("report.write_report"):
        with open(report_path, "w", encoding="utf-8") as out:
            write_report(analyses, out, warnings)
    scan_wall = perf_counter() - started
    del analyses, warnings

    with span("report.read_report"):
        records, _ = read_report(report_path)
    with span("report.plan_from_report"):
        plan_from_report(records, 0.95, 0.05, seed)
    report = report_path.read_bytes()
    counts.report_bytes = len(report)
    return TracedPass(tracer, counts, scan_wall, report)


def census(corpus: str) -> dict[str, int]:
    """Untimed parser counts: tokens, named nodes and parse warnings."""
    tokens = nodes = warnings = 0
    for path in sorted(Path(corpus).rglob("*.java")):
        text = path.read_text(encoding="utf-8", errors="replace")
        tokens += len(tokenize(text))
        unit = parse_unit(str(path), text)
        nodes += unit.root.named_node_count()
        warnings += len(unit.warnings) + unit.parse_failed
    return {"tokens": tokens, "nodes": nodes, "warnings": warnings}
