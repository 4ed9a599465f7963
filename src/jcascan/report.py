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
import threading
from collections.abc import Iterable
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
# One encoder for every report line; `json.dumps` would build one per call.
_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=True)


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


_MAX_CLAIMS = 1024  # 4-byte records: 4 KB, one atomic write to any pipe


def _claims(files: int) -> list[range]:
    """The runs of file indices the claim queue hands out, in order: at
    most `_MAX_CLAIMS` runs of ``ceil(files / _MAX_CLAIMS)`` files."""
    size = -(-files // _MAX_CLAIMS) or 1
    return [range(i, min(i + size, files)) for i in range(0, files, size)]


def _claim_queue(claims: list[range]) -> int:
    """The read end of a pipe holding one 4-byte record per claim, its
    write end already closed: a reader at its end has claimed them all."""
    read_end, write_end = os.pipe()
    os.write(write_end, b"".join(k.to_bytes(4, "little")
                                 for k in range(len(claims))))
    os.close(write_end)
    return read_end


def _analyze_claimed(queue: int, claims: list[range], files: list[str],
                     apis, extras, budget, per_file) -> list[tuple]:
    """``(index, rows, warnings)`` of each file this process claims from
    ``queue``, one claim at a time, until the queue is empty or a file
    raises, whose ``(index, exception, [])`` ends the list."""
    done: list[tuple] = []
    while record := os.read(queue, 4):
        for i in claims[int.from_bytes(record, "little")]:
            warnings: list = []
            try:
                rows = [analyze_site(site, budget) for site in
                        scan_file(files[i], apis, extras, warnings)]
                done.append((i, per_file(rows) if per_file else rows,
                             warnings))
            except Exception as exc:
                done.append((i, exc, []))
                return done
    return done


def _fork_worker(analyze):
    """(pid, pipe) of a forked worker that calls ``analyze()`` and writes
    its result to the pipe as one pickle."""
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
        with open(write_end, "wb") as out:
            pickle.dump(analyze(), out, pickle.HIGHEST_PROTOCOL)
        os._exit(0)
    finally:
        os._exit(1)


def _received(pipe) -> list[tuple]:
    """What a `_fork_worker` worker wrote; nothing if it died first."""
    import pickle
    try:
        return pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        return []


def analyze_corpus(root: str | Path,
                   apis: frozenset[ApiKind] | set[ApiKind] = DEFAULT_APIS,
                   extras: list[CustomApi] | None = None,
                   budget: ResolutionBudget | None = None,
                   per_file=None) -> tuple[list, list]:
    """The pipeline over a corpus: every site `ingest.scan_corpus` would
    find under ``root``, through `analyze_site`, in (path string, offset)
    order, plus the per-file parse warnings.

    ``per_file``, if given, turns one file's `SiteAnalysis` rows into the
    list that stands for them in the result, in the process that analyzed
    the file. A scan passes `rendered`, so its caller holds report lines
    and footer facts, not rows.

    Each process, one per CPU this process may run on and the caller
    among them, claims the next run of files from a shared queue until it
    is empty. A forked worker sends all it did in one pickle after its
    last claim, and the caller merges the files in path order: the result
    does not depend on the worker count, and the first file that raised,
    in path order, raises here. One file or one CPU runs in-process.
    Memory is O(largest file + results) per process, not O(corpus).
    """
    files = corpus_files(root)
    workers = max(1, min(_usable_cpus(), len(files)))
    claims = _claims(len(files))
    queue = _claim_queue(claims)

    def analyze():
        return _analyze_claimed(queue, claims, files, apis, extras, budget,
                                per_file)

    children: list = []
    results: list = []
    warnings: list = []
    try:
        for _ in range(1, workers):
            children.append(_fork_worker(analyze))
        by_file: list = [None] * len(files)
        for done in (analyze(), *(_received(pipe) for _, pipe in children)):
            for i, outcome, file_warnings in done:
                by_file[i] = outcome, file_warnings
        for entry in by_file:   # path order
            if entry is None:
                raise ChildProcessError("an analysis worker ended early")
            if isinstance(entry[0], Exception):
                raise entry[0]
            results += entry[0]
            warnings += entry[1]
    finally:    # no worker outlives the call, done or not
        os.close(queue)
        for pid, pipe in children:
            import signal
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
    return results, warnings


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


def site_facts(analysis: SiteAnalysis) -> tuple:
    """What the footer and ``--fail-on`` read of a row: ``(id, category,
    d, score, labels, severities)``."""
    site = analysis.site
    return (site.id, site.api.category, analysis.d, analysis.score,
            analysis.labels, tuple(f.severity for f in analysis.findings))


def rendered(rows: list[SiteAnalysis]) -> list[tuple[str, tuple]]:
    """Each row as its report line and its `site_facts`: all a scan keeps
    of it, and `analyze_corpus`'s ``per_file`` hook for one."""
    return [(dumps_line(site_record(a)) + "\n", site_facts(a)) for a in rows]


def summary_from_facts(facts: Iterable[tuple],
                       warnings: list | None = None) -> dict:
    """The footer over each site's `site_facts`, in any order."""
    by_severity = {ERROR: 0, WARNING: 0, INFO: 0}
    prevalence: dict[str, int] = {}
    strata_rows = []
    for site_id, category, d, s, labels, severities in facts:
        strata_rows.append((site_id, category, d, s))
        for severity in severities:
            by_severity[severity] += 1
        for label in labels:
            prevalence[label] = prevalence.get(label, 0) + 1
    return {
        "summary": {
            "sites": len(strata_rows),
            "findings_by_severity": by_severity,
            "strata": {
                category: [{"key": st.key, "population": st.population}
                           for st in strata]
                for category, strata in stratify(strata_rows).items()},
            "prevalence": [[k, v] for k, v in sorted(prevalence.items())],
            "parse_warnings": len(warnings or []),
        }
    }


def summary_record(analyses: list[SiteAnalysis],
                   warnings: list | None = None) -> dict:
    return summary_from_facts(map(site_facts, analyses), warnings)


def dumps_line(record: dict) -> str:
    return _ENCODER.encode(record)


def write_rendered(rows: list[tuple[str, tuple]], out,
                   warnings: list | None = None) -> None:
    """JSON-lines from `rendered` rows in (path, offset) order: their
    lines, then the footer from their facts."""
    out.writelines(line for line, _ in rows)
    out.write(dumps_line(summary_from_facts(
        (facts for _, facts in rows), warnings)) + "\n")


def write_report(analyses: list[SiteAnalysis], out,
                 warnings: list | None = None) -> None:
    """JSON-lines: one record per site in (path, offset) order + footer."""
    write_rendered(rendered(sorted(analyses, key=lambda a: a.site.order)),
                   out, warnings)


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


def worst_severity_hit(facts: Iterable[tuple], fail_on: str) -> bool:
    """True when a site's `site_facts` hold a finding that trips
    ``fail_on``."""
    return any(severity_at_least(severity, fail_on)
               for *_, severities in facts for severity in severities)


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
