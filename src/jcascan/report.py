"""Deterministic report construction and serialization.

One JSON object per invocation site, emitted in (path, offset) order, plus
a single summary footer. Identical inputs and configuration always produce
byte-identical output: keys are sorted, collections are sorted, and scores
are rounded to six decimals.
"""

from __future__ import annotations

import io
import json
import os
import sys
import threading
from pathlib import Path

from .classify import classify, signature_of
from .complexity import count_d, draw_sample, score, stratify
from .ingest import (DEFAULT_APIS, RESTRICTIVE, ApiKind, CustomApi,
                     InvocationSite, corpus_files, scan_file)
from .resolve import ResolutionBudget, resolve_site
from .rules import ERROR, WARNING, INFO, MisuseFinding, check_site
from .syntax import Record

_SEVERITY_RANK = {INFO: 0, WARNING: 1, ERROR: 2}
FAIL_ON_CHOICES = (ERROR, WARNING, "NONE")


def severity_at_least(severity: str, threshold: str) -> bool:
    """True when a finding at `severity` trips a `threshold` gate."""
    if threshold == "NONE":
        return False
    return _SEVERITY_RANK[severity] >= _SEVERITY_RANK[threshold]


def finding_record(finding: MisuseFinding) -> dict:
    return {
        "rule_id": finding.rule_id,
        "severity": finding.severity,
        "message": finding.message,
        "effective_value": finding.effective_value,
        "evidence": sorted(finding.evidence),
        "evasive": finding.evasive,
    }


class SiteAnalysis(Record):
    __slots__ = ("site", "d", "score", "labels", "signature", "candidates",
                 "residuals", "findings")

    def __init__(self, site: InvocationSite, d: int, score: float,
                 labels: list[str], signature: dict[str, int],
                 candidates: list[str], residuals: list[str],
                 findings: list[MisuseFinding]) -> None:
        self.site = site
        self.d = d
        self.score = score
        self.labels = labels
        self.signature = signature
        self.candidates = candidates
        self.residuals = residuals
        self.findings = findings


def analyze_site(site: InvocationSite,
                 budget: ResolutionBudget | None = None) -> SiteAnalysis:
    """Full pipeline for one site: score, resolve, classify, rules. The
    result keeps the site `InvocationSite.detached` from its tree."""
    d = count_d(site)
    s = score(d)
    resolved = None
    if site.api.category == RESTRICTIVE:
        resolved = resolve_site(site, budget or ResolutionBudget())
    labels = classify(site, resolved)
    findings = check_site(site, resolved, labels)
    return SiteAnalysis(
        site=site.detached(),
        d=d,
        score=round(s, 6),
        labels=sorted(labels.labels),
        signature=dict(sorted(signature_of(site).as_dict().items())),
        candidates=sorted(resolved.candidates) if resolved else [],
        residuals=sorted(resolved.residuals) if resolved else [],
        findings=findings,
    )


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork, or runs
    other threads, which a forked worker would not have."""
    forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity") \
        and threading.active_count() == 1
    return len(os.sched_getaffinity(0)) if forks else 1


def _analyze_share(files: list[Path], apis, extras, budget):
    """Each file's ``(rows, warnings)``, one file at a time, up to the
    first file that raises, whose exception ends the share."""
    for path in files:
        warnings: list = []
        try:
            rows = [analyze_site(site, budget)
                    for site in scan_file(path, apis, extras, warnings)]
        except Exception as exc:
            yield exc
            return
        yield rows, warnings


def _fork_share(files: list[Path], apis, extras, budget):
    """(pid, pipe) of a forked worker that runs `_analyze_share` over
    ``files``, then writes the results to the pipe, one pickle each. An
    identifier-like string, such as a label, goes as a persistent id, which
    `_results` interns: all rows share one copy of it."""
    import gc
    import pickle
    read_end, write_end = os.pipe()
    gc.freeze()     # the caller's garbage is not the worker's to finalize
    pid = os.fork()
    if pid:
        gc.unfreeze()
        os.close(write_end)
        return pid, open(read_end, "rb")
    try:    # never return into the caller, flush its buffers or run atexit
        class Pickler(pickle.Pickler):
            # A method, not an instance attribute: Python 3.13.0 makes
            # the attribute read-only.
            def persistent_id(self, obj):
                return obj if type(obj) is str and obj.isidentifier() \
                    else None

        with open(write_end, "wb") as out:
            pickler = Pickler(out, pickle.HIGHEST_PROTOCOL)
            for result in list(_analyze_share(files, apis, extras, budget)):
                pickler.dump(result)
                pickler.clear_memo()
        os._exit(0)
    finally:
        os._exit(1)


def _results(pipe):
    """The results a `_fork_share` worker writes, as they arrive."""
    import pickle

    class Unpickler(pickle.Unpickler):
        def persistent_load(self, pid):
            return sys.intern(pid)

    while pipe.peek(1):
        yield Unpickler(pipe).load()


def analyze_corpus(root: str | Path,
                   apis: frozenset[ApiKind] | set[ApiKind] = DEFAULT_APIS,
                   extras: list[CustomApi] | None = None,
                   budget: ResolutionBudget | None = None
                   ) -> tuple[list[SiteAnalysis], list]:
    """The pipeline over a corpus: every site `ingest.scan_corpus` would
    find under ``root``, through `analyze_site`, in (path string, offset)
    order, plus the per-file parse warnings.

    Files are split across forked workers, one per CPU this process may
    run on, and merged in path order: the report bytes do not depend on
    the worker count, and one file or one CPU runs in-process. Memory is
    O(largest file + report rows) per process, not O(corpus).
    """
    files = corpus_files(root)
    workers = max(1, min(_usable_cpus(), len(files)))
    children: list = []
    analyses: list[SiteAnalysis] = []
    warnings: list = []
    try:
        for k in range(1, workers):
            children.append(_fork_share(files[k::workers], apis, extras,
                                        budget))
        shares = [_analyze_share(files[::workers], apis, extras, budget)]
        if children:    # finish the caller's share before reading theirs
            shares = [iter(list(shares[0])),
                      *(_results(pipe) for _, pipe in children)]
        for i in range(len(files)):
            # A share ends at its first exception, before any file it left.
            result = next(shares[i % workers], None)
            if result is None:
                raise ChildProcessError("an analysis worker ended early")
            if isinstance(result, Exception):
                raise result
            analyses += result[0]
            warnings += result[1]
    finally:    # no worker outlives the call, done or not
        for pid, pipe in children:
            import signal
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
    return analyses, warnings


def site_record(analysis: SiteAnalysis) -> dict:
    site = analysis.site
    return {
        "id": site.id,
        "api": site.api.name,
        "category": site.api.category,
        "path": site.path,
        "start_line": site.start_line,
        "end_line": site.end_line,
        "d": analysis.d,
        "score": analysis.score,
        "labels": analysis.labels,
        "signature": analysis.signature,
        "resolved": {"candidates": analysis.candidates,
                     "residuals": analysis.residuals},
        "findings": [finding_record(f) for f in analysis.findings],
    }


def summary_record(analyses: list[SiteAnalysis],
                   warnings: list | None = None) -> dict:
    by_severity = {ERROR: 0, WARNING: 0, INFO: 0}
    prevalence: dict[str, int] = {}
    for a in analyses:
        for f in a.findings:
            by_severity[f.severity] += 1
        for label in a.labels:
            prevalence[label] = prevalence.get(label, 0) + 1
    return {
        "summary": {
            "sites": len(analyses),
            "findings_by_severity": by_severity,
            "strata": {
                category: [{"key": st.key, "population": st.population}
                           for st in strata]
                for category, strata in stratify(
                    (a.site.id, a.site.api.category, a.d, a.score)
                    for a in analyses).items()},
            "prevalence": [[k, v] for k, v in sorted(prevalence.items())],
            "parse_warnings": len(warnings or []),
        }
    }


def dumps_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, ensure_ascii=True)


def write_report(analyses: list[SiteAnalysis], out,
                 warnings: list | None = None) -> None:
    """JSON-lines: one record per site in (path, offset) order + footer."""
    ordered = sorted(analyses, key=lambda a: a.site.order)
    for a in ordered:
        out.write(dumps_line(site_record(a)) + "\n")
    out.write(dumps_line(summary_record(ordered, warnings)) + "\n")


def read_report(path: str | Path) -> tuple[list[dict], dict | None]:
    """(site records, summary footer) from a JSON-lines report."""
    records: list[dict] = []
    summary = None
    for lineno, line in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: bad report line: {exc}")
        if "summary" in obj:
            summary = obj
        else:
            records.append(obj)
    return records, summary


def worst_severity_hit(analyses: list[SiteAnalysis],
                       fail_on: str) -> bool:
    return any(severity_at_least(f.severity, fail_on)
               for a in analyses for f in a.findings)


def plan_from_report(records: list[dict], confidence: float,
                     margin: float, seed: int) -> dict:
    """Recompute strata from report records and draw a sample plan."""
    plans = {}
    for category, strata in stratify(
            (rec["id"], rec.get("category"), rec["d"], rec["score"])
            for rec in records).items():
        plan = draw_sample(strata, seed, confidence, margin)
        plans[category] = {
            "strata": [{"key": s.key, "population": s.population,
                        "sample_size": s.sample_size}
                       for s in plan.strata],
            "selected_ids": plan.selected_ids,
        }
    return {"confidence": confidence, "margin": margin, "seed": seed,
            "plans": plans}


def strata_csv(summary: dict) -> str:
    import csv  # here, so a scan never loads it

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["category", "stratum_key", "population"])
    for category, rows in sorted(summary["summary"]["strata"].items()):
        for row in rows:
            writer.writerow([category, row["key"], row["population"]])
    return buf.getvalue()


def prevalence_csv(summary: dict) -> str:
    import csv  # here, so a scan never loads it

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["label", "sites"])
    for label, count in summary["summary"]["prevalence"]:
        writer.writerow([label, count])
    return buf.getvalue()
