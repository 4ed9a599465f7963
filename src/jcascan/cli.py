"""Command-line entry point.

Subcommands: ``scan``, ``stratify``, ``sample``, ``classify``,
``bench gen``, ``bench run``, ``report``. All output is deterministic for
a fixed input, configuration, and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from .ingest import DEFAULT_APIS, load_config
from .report import (FAIL_ON_CHOICES, analyze_corpus, dumps_line,
                     plan_from_report, prevalence_csv, read_report,
                     rendered, strata_csv, summary_record,
                     worst_severity_hit, write_rendered)
from .resolve import ResolutionBudget


def _analyze(args, per_file=None):
    """`analyze_corpus` over ``args.directory`` with the pipeline flags."""
    apis = DEFAULT_APIS
    if args.apis:
        wanted = {name.strip() for name in args.apis.split(",")}
        unknown = wanted - {a.name for a in DEFAULT_APIS}
        if unknown:
            raise SystemExit(f"unknown API names: {sorted(unknown)}")
        apis = frozenset(a for a in DEFAULT_APIS if a.name in wanted)
    extras = load_config(args.config) if args.config else None
    budget = ResolutionBudget(max_indirection=args.max_indirection,
                              max_candidates=args.max_candidates)
    return analyze_corpus(args.directory, apis, extras, budget, per_file)


@contextmanager
def _output(path: str | None):
    """The ``-o`` file, or standard output for none or ``-``."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as out:
            yield out


def cmd_scan(args) -> int:
    rows, warnings = _analyze(args, rendered)
    with _output(args.output) as out:
        write_rendered(rows, out, warnings)
    return 1 if worst_severity_hit((facts for _, facts in rows),
                                   args.fail_on.upper()) else 0


def cmd_stratify(args) -> int:
    analyses, _ = _analyze(args)
    with _output(args.output) as out:
        out.write(strata_csv(summary_record(analyses)))
    return 0


def cmd_classify(args) -> int:
    analyses, _ = _analyze(args)
    with _output(args.output) as out:
        for a in analyses:
            out.write(dumps_line({"id": a.site.id, "labels": a.labels,
                                  "signature": a.signature}) + "\n")
    return 0


def cmd_sample(args) -> int:
    records, _ = read_report(args.report)
    plan = plan_from_report(records, args.confidence, args.margin,
                            args.seed)
    with _output(args.output) as out:
        out.write(json.dumps(plan, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_report(args) -> int:
    _, summary = read_report(args.report)
    if summary is None:
        raise SystemExit(f"no summary footer in {args.report}")
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "strata.csv").write_text(strata_csv(summary),
                                       encoding="utf-8")
    (outdir / "prevalence.csv").write_text(prevalence_csv(summary),
                                           encoding="utf-8")
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_bench_gen(args) -> int:
    from . import bench  # only the bench commands pay for its import
    cases = bench.generate_corpus(args.outdir, seed=args.seed)
    print(f"generated {len(cases)} cases under {args.outdir}")
    return 0


def cmd_bench_run(args) -> int:
    from . import bench
    cases = bench.load_manifest(args.corpus)
    if args.report == "self":
        tool_report = bench.self_report(args.corpus)
    else:
        tool_report = bench.load_report_csv(args.report)
    verdicts = bench.grade(cases, tool_report)
    csv_matrix, text_matrix = bench.summarize({tool_report.tool: verdicts})
    if args.summary:
        Path(args.summary).write_text(csv_matrix, encoding="utf-8")
    print(text_matrix, end="")
    detected = sum(v.verdict == bench.DETECTED for v in verdicts)
    print(f"{detected}/{len(verdicts)} detected")
    return 0


def _add_pipeline_options(parser: argparse.ArgumentParser) -> None:
    """The corpus directory and the flags `_analyze` reads."""
    parser.add_argument("directory")
    parser.add_argument("--apis", help="comma-separated ApiKind names")
    parser.add_argument("--config", help="extra-API config file")
    parser.add_argument("--max-indirection", type=int,
                        default=ResolutionBudget.max_indirection)
    parser.add_argument("--max-candidates", type=int,
                        default=ResolutionBudget.max_candidates)
    _add_output(parser)


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", "-o", help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jcascan",
        description="Crypto-API invocation scanner, classifier, and "
                    "misuse detector for Java source corpora.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="full pipeline over a directory")
    _add_pipeline_options(p_scan)
    p_scan.add_argument("--fail-on", default="NONE",
                        choices=[c.lower() for c in FAIL_ON_CHOICES]
                        + list(FAIL_ON_CHOICES))
    p_scan.set_defaults(func=cmd_scan)

    p_strat = sub.add_parser("stratify", help="stratum table for a corpus")
    _add_pipeline_options(p_strat)
    p_strat.set_defaults(func=cmd_stratify)

    p_cls = sub.add_parser("classify", help="labels + signatures per site")
    _add_pipeline_options(p_cls)
    p_cls.set_defaults(func=cmd_classify)

    p_sample = sub.add_parser("sample",
                              help="stratified sample plan from a report")
    p_sample.add_argument("report")
    p_sample.add_argument("--confidence", type=float, default=0.95)
    p_sample.add_argument("--margin", type=float, default=0.05)
    p_sample.add_argument("--seed", type=int, default=0)
    _add_output(p_sample)
    p_sample.set_defaults(func=cmd_sample)

    p_report = sub.add_parser("report",
                              help="summary CSVs from a scan report")
    p_report.add_argument("report")
    p_report.add_argument("--out-dir", default=".")
    p_report.set_defaults(func=cmd_report)

    p_bench = sub.add_parser("bench", help="benchmark corpus and grading")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_gen = bench_sub.add_parser("gen", help="generate the 23-case corpus")
    p_gen.add_argument("outdir")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=cmd_bench_gen)
    p_run = bench_sub.add_parser("run", help="grade a detector report")
    p_run.add_argument("corpus")
    p_run.add_argument("--report", required=True,
                       help="'self' or a detector CSV")
    p_run.add_argument("--summary", help="write the CSV matrix here")
    p_run.set_defaults(func=cmd_bench_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def run() -> None:
    """The ``jcascan`` command: `main`, then an exit that skips the
    interpreter's teardown once the output is flushed. A flush that
    fails takes the normal exit, which reports it."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
