#!/usr/bin/env python3
"""Scan benchmark for jcascan.

    python3 perfbench/run.py --workload many-small --seed 1 --seconds 40 \\
        --trace 0

Generates the workload's corpus from ``--seed`` (see ``corpora.py``) in a
scratch directory inside the checkout and measures it one way:

``--trace 0`` (end to end): runs the real CLI, ``python -m jcascan.cli
scan corpus -o report.jsonl``, as a fresh child process, one at a time,
for ``--seconds`` seconds, and reports throughput and peak RSS (from
``os.wait4``) per scan, the set-up time of a scan of an empty directory,
and how many generated sites the report answers correctly. Throughput is
normalized by a fixed reference child (``calibrate.py``) timed next to
each scan; see `end_to_end`.

``--trace 1`` (per layer): alternates in-process untraced CLI scans with a
traced mirror of the pipeline (``layertrace.py``) and reports busy time and
counts per module.

Correctness gates, any of which makes the run print ``"correct": false``
and exit 1: every report of the run is byte-identical; the traced mirror's
report equals the untraced one; ``bench run --report self`` on the 23-case
corpus generated with the run's seed scores 23/23; the empty-directory scan
exits 0; the reference runs print the same checksum. Scans that exit
abnormally count all their sites as failed; they are neither retried nor
dropped.

``--workload all`` runs every workload in turn and prints one row per
metric and workload.

The corpus is scanned through the relative path ``corpus`` from its
scratch directory, so report bytes, and their SHA-256, do not depend on
where the checkout lives. Known SHA-256s per (workload, seed) are kept in
``report_sha256.json``; a run prints whether it matches.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import corpora

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

# A run must end within 180 s; stop starting new work after this.
DEADLINE_S = 165.0
MIN_SCANS = 3
BENCH_CASES = 23
# Nominal wall time of the ``calibrate.py`` reference; set-up time is
# reported in seconds at the speed where the reference takes this long.
REFERENCE_S = 0.3

END_TO_END = {
    "sites_per_ref": "sites/ref",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "verdict_accuracy": "share",
    "recorded_share": "share",
}

PER_LAYER = {
    "javaparse.parse_unit.busy_s": "s",
    "javaparse.tokens_per_s": "tokens/s",
    "javaparse.nodes": "count",
    "javaparse.warnings": "count",
    "ingest.read.busy_s": "s",
    "ingest.extract_sites.busy_s": "s",
    "ingest.sites": "count",
    "complexity.busy_s": "s",
    "resolve.resolve_site.busy_s": "s",
    "resolve.p50_ms": "ms",
    "resolve.p99_ms": "ms",
    "resolve.concrete_share": "share",
    "resolve.budget_exhausted": "count",
    "resolve.trace_steps": "count",
    "classify.busy_s": "s",
    "classify.labels": "count",
    "rules.check_site.busy_s": "s",
    "rules.findings": "count",
    "rules.evasive": "count",
    "report.analyze_site.p50_ms": "ms",
    "report.analyze_site.p99_ms": "ms",
    "report.write_report.busy_s": "s",
    "report.bytes": "bytes",
    "report.read_report.busy_s": "s",
    "report.plan_from_report.busy_s": "s",
    "trace.overhead_share": "share",
}


class Clock:
    """Time since the run started, against the run's deadline."""

    def __init__(self) -> None:
        self.started = time.perf_counter()

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)


# -- statistics -------------------------------------------------------------

def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(p, value) for the highest percentile with >= 10 samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(samples) * (100.0 - p) / 100.0 >= 10:
            return p, percentile(samples, p)
    return None


def describe(values: list[float], unit: str) -> str:
    """Median, quartiles, tail and sample count, for the printed table."""
    text = f"n={len(values)} median={statistics.median(values):.4g}{unit}"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f" q1={q1:.4g} q3={q3:.4g}"
    t = tail(values)
    text += (f" p{t[0]:g}={t[1]:.4g}{unit}" if t
             else " tail=n/a (<11 samples)")
    return text


# -- grading against the generator's answers ---------------------------------

@dataclass
class Grade:
    sites: int = 0        # records in the report
    recorded: int = 0     # generated sites that have a record
    accurate: int = 0     # ... whose record matches the known answer
    misses: list[str] = field(default_factory=list)


def grade(report: bytes, expected: list[corpora.Expected]) -> Grade:
    records = {}
    for line in report.decode("utf-8").splitlines():
        record = json.loads(line)
        if "summary" in record:
            continue
        path = record["path"].removeprefix("corpus/")
        records[(path, record["start_line"])] = record
    out = Grade(sites=len(records))
    for exp in expected:
        record = records.get((exp.file, exp.line))
        if record is None:
            out.misses.append(f"{exp.file}:{exp.line} no record")
            continue
        out.recorded += 1
        candidates = set(record["resolved"]["candidates"])
        if exp.label in record["labels"] \
                and candidates.issuperset(exp.plaintexts):
            out.accurate += 1
        else:
            out.misses.append(
                f"{exp.file}:{exp.line} want {exp.label} "
                f"{list(exp.plaintexts)} got {record['labels']} "
                f"{record['resolved']}")
    return out


# -- child processes -----------------------------------------------------------

@dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str


def run_python(args: list[str], cwd: Path, timeout: float) -> Child:
    """Run ``python ARGS`` to completion and measure it.

    The wall time runs from spawn to reaping; the peak RSS is the child's
    own, from ``os.wait4``. A child still running after ``timeout``
    seconds is killed and reported with code -9.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with open(cwd / "child.stdout", "wb+") as out, \
            open(cwd / "child.stderr", "wb+") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args],
                                cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - started > timeout:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.0005)
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            sys.stderr.write(err.read().decode("utf-8", "replace")[-2000:])
        out.seek(0)
        stdout = out.read().decode("utf-8", "replace")
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout)


def run_cli(args: list[str], cwd: Path, timeout: float) -> Child:
    """Run ``python -m jcascan.cli ARGS``; see `run_python`."""
    return run_python(["-m", "jcascan.cli", *args], cwd, timeout)


def bench_self_score(work: Path, seed: int, clock: Clock) -> bool:
    """Gate: the bundled detector finds all 23 cases of the benchmark
    corpus generated with this seed."""
    gen = run_cli(["bench", "gen", "bench23", "--seed", str(seed)], work,
                  clock.remaining())
    if gen.code != 0:
        return False
    scored = run_cli(["bench", "run", "bench23", "--report", "self"], work,
                     clock.remaining())
    lines = scored.stdout.strip().splitlines()
    return scored.code == 0 and bool(lines) \
        and lines[-1] == f"{BENCH_CASES}/{BENCH_CASES} detected"


# -- end-to-end run ------------------------------------------------------------

@dataclass
class Result:
    gates: dict[str, bool]
    attempted: int
    failed: int
    metrics: dict[str, float]
    rows: list[tuple[str, str, str]]    # (metric, value+unit, detail)
    report_sha256: str | None


def end_to_end(work: Path, expected: list[corpora.Expected], seconds: float,
               clock: Clock) -> Result:
    """Repeat rounds of (empty-directory scan, reference work, corpus
    scan) for ``seconds``, so that all three sample the same stretch of
    machine time.

    On a VM that shares its CPUs with other tenants, speed swings by a
    quarter over minutes. Timings are therefore taken relative to the fixed
    work of ``calibrate.py``, run between the two scans of each round:
    throughput is sites scanned per reference run, and set-up time is the
    empty scan's wall as a multiple of the reference's, times
    ``REFERENCE_S``. The raw sites/s and walls are printed too.
    """
    (work / "empty").mkdir()
    setup_args = ["scan", "empty", "-o", "empty.jsonl"]
    reference_args = [str(BENCH_DIR / "calibrate.py")]
    run_cli(setup_args, work, clock.remaining())    # warm caches, untimed
    setups: list[Child] = []
    references: list[Child] = []
    scans: list[tuple[int, Child]] = []     # (round, scan that exited 0)
    walls = []
    attempted = failed = 0
    report: bytes | None = None
    graded = Grade()
    identical = True
    started = last = time.perf_counter()
    # Start another round only if one more like the last fits the window.
    while len(walls) < MIN_SCANS \
            or 2 * time.perf_counter() - last - started < seconds:
        if walls and clock.remaining() < 2 * max(walls) + 1:
            break
        last = time.perf_counter()
        setups.append(run_cli(setup_args, work, clock.remaining()))
        references.append(run_python(reference_args, work, clock.remaining()))
        child = run_cli(["scan", "corpus", "-o", "report.jsonl"], work,
                        clock.remaining())
        attempted += len(expected)
        walls.append(child.wall_s)
        if child.code != 0:
            failed += len(expected)
            continue
        data = (work / "report.jsonl").read_bytes()
        if report is None:
            report = data
            graded = grade(report, expected)
        identical &= data == report
        failed += len(expected) - graded.recorded
        scans.append((len(walls) - 1, child))
    gates = {
        "empty scan exits 0": all(c.code == 0 for c in setups),
        "reports byte-identical across scans": identical
        and report is not None,
        "reference runs agree": len({(c.code, c.stdout)
                                     for c in references}) == 1
        and references[0].code == 0,
    }

    ref_walls = [c.wall_s for c in references]
    per_ref = [graded.sites * ref_walls[i] / child.wall_s
               for i, child in scans]
    per_s = [graded.sites / child.wall_s for _, child in scans]
    rss = [child.peak_rss_mb for _, child in scans]
    setup_walls = [c.wall_s for c in setups]
    setup_ref_s = [REFERENCE_S * c.wall_s / ref
                   for c, ref in zip(setups, ref_walls)]
    metrics = {
        "sites_per_ref": statistics.median(per_ref) if scans else 0.0,
        "peak_rss_mb": statistics.median(rss) if scans else 0.0,
        "setup_s": statistics.median(setup_ref_s),
        "verdict_accuracy": graded.accurate / len(expected),
        "recorded_share": 1.0 - failed / attempted,
    }
    rows = [
        ("sites_per_ref", f"{metrics['sites_per_ref']:.6g} sites/ref",
         f"{graded.sites} sites per scan; " + describe(per_ref, "")),
        ("(raw sites_per_s)", "", describe(per_s, "") if scans else ""),
        ("(scan wall)", "", describe(walls, "s")),
        ("(reference wall)", "", describe(ref_walls, "s")),
        ("peak_rss_mb", f"{metrics['peak_rss_mb']:.6g} MB",
         describe(rss, "MB") if scans else "no scan finished"),
        ("setup_s", f"{metrics['setup_s']:.6g} s",
         f"empty-directory scan at reference speed ({REFERENCE_S} s); "
         + describe(setup_ref_s, "s")),
        ("(setup wall)", "", describe(setup_walls, "s")),
        ("verdict_accuracy", f"{metrics['verdict_accuracy']:.6g} share",
         f"{graded.accurate}/{len(expected)} generated sites match"),
        ("recorded_share", f"{metrics['recorded_share']:.6g} share",
         f"{attempted - failed}/{attempted} site records over "
         f"{len(walls)} scans"),
    ]
    for miss in graded.misses[:5]:
        print(f"  mismatch: {miss}")
    sha = hashlib.sha256(report).hexdigest() if report else None
    return Result(gates, attempted, failed, metrics, rows, sha)


# -- traced run ------------------------------------------------------------------

def traced(work: Path, expected: list[corpora.Expected], seconds: float,
           seed: int, clock: Clock, spans_path: Path) -> Result:
    sys.path.insert(0, str(SRC))
    import layertrace
    from jcascan import cli

    counts = layertrace.census("corpus")
    untraced_walls: list[float] = []
    passes: list[layertrace.TracedPass] = []
    attempted = failed = 0
    reference: bytes | None = None
    gates = {"reports byte-identical across scans": True,
             "traced mirror report equals untraced report": True}
    started = last = time.perf_counter()
    # Start another round only if one more like the last fits the window.
    while not passes or 2 * time.perf_counter() - last - started < seconds:
        if passes and clock.remaining() < 3 * passes[-1].scan_wall_s:
            break
        last = time.perf_counter()
        attempted += 2 * len(expected)
        try:
            # Alternate which side runs first, so warm-up favours neither.
            if len(passes) % 2:
                one = layertrace.traced_scan("corpus", work / "traced.jsonl",
                                             seed)
            t0 = time.perf_counter()
            code = cli.main(["scan", "corpus", "-o", "untraced.jsonl"])
            untraced_walls.append(time.perf_counter() - t0)
            report = Path("untraced.jsonl").read_bytes()
            if not len(passes) % 2:
                one = layertrace.traced_scan("corpus", work / "traced.jsonl",
                                             seed)
        except Exception:
            traceback.print_exc()
            failed += 2 * len(expected)
            gates["reports byte-identical across scans"] = False
            break
        if code != 0:
            failed += len(expected)
        if reference is None:
            reference = report
        gates["reports byte-identical across scans"] &= report == reference
        gates["traced mirror report equals untraced report"] &= \
            one.report == report
        failed += 2 * (len(expected) - grade(report, expected).recorded)
        passes.append(one)

    if not passes:
        return Result(gates, attempted, failed,
                      dict.fromkeys(PER_LAYER, 0.0), [], None)
    final = passes[-1].tracer
    with open(spans_path, "w", encoding="utf-8") as fh:
        for i, (name, start, end, parent) in enumerate(final.spans):
            fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                 "start": start, "end": end}) + "\n")

    def busy(name: str) -> float:
        return statistics.median(p.tracer.self_times().get(name, 0.0)
                                 for p in passes)

    resolve_ms = [d * 1e3 for p in passes
                  for d in p.tracer.durations("resolve.resolve_site")]
    site_ms = [d * 1e3 for p in passes for d in p.tracer.site_costs()]
    c = passes[-1].counts
    parse_s = busy("javaparse.parse_unit")
    m = {
        "javaparse.parse_unit.busy_s": parse_s,
        "javaparse.tokens_per_s": counts["tokens"] / parse_s,
        "javaparse.nodes": counts["nodes"],
        "javaparse.warnings": counts["warnings"],
        "ingest.read.busy_s": busy("ingest.read"),
        "ingest.extract_sites.busy_s": busy("ingest.extract_sites"),
        "ingest.sites": c.sites,
        "complexity.busy_s": busy("complexity"),
        "resolve.resolve_site.busy_s": busy("resolve.resolve_site"),
        "resolve.p50_ms": percentile(resolve_ms, 50) if resolve_ms else 0.0,
        "resolve.p99_ms": percentile(resolve_ms, 99) if resolve_ms else 0.0,
        "resolve.concrete_share": c.concrete / c.resolve_calls
        if c.resolve_calls else 0.0,
        "resolve.budget_exhausted": c.budget_exhausted,
        "resolve.trace_steps": c.trace_steps,
        "classify.busy_s": busy("classify"),
        "classify.labels": c.labels,
        "rules.check_site.busy_s": busy("rules.check_site"),
        "rules.findings": c.findings,
        "rules.evasive": c.evasive,
        "report.analyze_site.p50_ms": percentile(site_ms, 50),
        "report.analyze_site.p99_ms": percentile(site_ms, 99),
        "report.write_report.busy_s": busy("report.write_report"),
        "report.bytes": c.report_bytes,
        "report.read_report.busy_s": busy("report.read_report"),
        "report.plan_from_report.busy_s": busy("report.plan_from_report"),
        "trace.overhead_share": statistics.median(
            p.scan_wall_s for p in passes)
        / statistics.median(untraced_walls) - 1.0,
    }
    rows = [(name, f"{value:.6g} {PER_LAYER[name]}", "")
            for name, value in m.items()]
    rows.append(("resolve latency", "", describe(resolve_ms, "ms")
                 if resolve_ms else "no restrictive sites"))
    rows.append(("site latency", "", describe(site_ms, "ms")))
    layer_s = {layer: sum(busy(n) for n in names)
               for layer, names in layertrace.LAYERS.items()}
    total = sum(layer_s.values())
    for layer, seconds_busy in layer_s.items():
        rows.append((f"share {layer}", f"{seconds_busy / total:.3f}",
                     f"{seconds_busy:.4g} s of {total:.4g} s layer time "
                     f"per pass, {len(passes)} passes"))
    rows.append(("spans", "", f"{len(final.spans)} spans of the last pass "
                              f"in {spans_path.relative_to(ROOT)}"))
    sha = hashlib.sha256(reference).hexdigest() if reference else None
    return Result(gates, attempted, failed, m, rows, sha)


# -- entry point -------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace_on: bool,
                 clock: Clock) -> Result:
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-",
                                 dir=WORK_DIR))
    cwd = Path.cwd()
    try:
        os.chdir(work)
        expected = corpora.generate(workload, work / "corpus", seed)
        bench_ok = bench_self_score(work, seed, clock)
        if trace_on:
            OUT_DIR.mkdir(exist_ok=True)
            result = traced(work, expected, seconds, seed, clock,
                            OUT_DIR / f"spans-{workload}-{seed}.jsonl")
        else:
            result = end_to_end(work, expected, seconds, clock)
        result.gates[f"bench self-score {BENCH_CASES}/{BENCH_CASES}"] = \
            bench_ok
        return result
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass


def known_sha(workload: str, seed: int) -> str | None:
    path = BENCH_DIR / "report_sha256.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*corpora.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "jcascan" / "cli.py").is_file():
        print(f"jcascan sources not found under {SRC}", file=sys.stderr)
        return 2

    workloads = list(corpora.GENERATORS) if args.workload == "all" \
        else [args.workload]
    results = {}
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds,
                              bool(args.trace), Clock())
        results[workload] = result
        for name, value, detail in result.rows:
            print(f"{workload:<18} {name:<32} {value:<22} {detail}")
        known = known_sha(workload, args.seed)
        match = "no recorded value" if known is None else (
            "matches recorded value" if known == result.report_sha256
            else f"DIFFERS from recorded {known}")
        print(f"{workload:<18} {'report_sha256':<32} "
              f"{result.report_sha256} ({match})")
        for gate, ok in result.gates.items():
            print(f"{workload:<18} gate: {gate}: {'ok' if ok else 'FAILED'}")

    units = PER_LAYER if args.trace else END_TO_END
    correct = all(ok for r in results.values() for ok in r.gates.values())

    def metrics(result: Result) -> dict:
        return {name: {"value": result.metrics[name], "unit": unit}
                for name, unit in units.items()}

    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in results.values()),
        "failed": sum(r.failed for r in results.values()),
        "metrics": metrics(results[workloads[0]]) if len(workloads) == 1
        else {w: metrics(r) for w, r in results.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
