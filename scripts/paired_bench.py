#!/usr/bin/env python3
"""Run the benchmark in pairs: a parent commit against the working tree.

    python3 scripts/paired_bench.py PARENT

Extracts ``git archive PARENT`` into a temporary directory, then, for each
seed from 1 to 10 and each workload of ``BENCHMARK.json``, runs
``perfbench/run.py --trace 0`` for the benchmark's ``run_seconds`` once in
that copy and once in the working tree, alternating which side runs first
(the parent first on odd seeds). One workload per run keeps each run's
``peak_rss_mb`` its own. It prints, per workload and end-to-end metric,
the table the change log keeps: each side's median with its quartiles
(q1–q3), the ratio of the medians and the number of pairs where the
change is better, ties counting for neither side; then each pair's
``sites_per_ref``. It also writes what it ran to ``BENCH_<parent>.json``
at the repository root, ``<parent>`` being the parent's 12-digit short
hash: ``run_seconds``, and per workload and seed, which side ran first and
each side's ``correct`` and ``metrics``. It exits non-zero when any run is
not ``correct``. The benchmark itself is only run, never changed.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
FIRST_METRIC = "sites_per_ref"


def archive(commit: str, into: Path) -> None:
    """The files of ``commit``, as ``git archive`` gives them, in ``into``."""
    tar = subprocess.run(["git", "archive", "--format=tar", commit],
                         cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as files:
        files.extractall(into)


def run(side: Path, workload: str, seed: int, seconds: float) -> dict:
    """``correct`` and the workload's ``metrics`` from the last line of one
    ``perfbench/run.py --trace 0`` run in ``side``."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=side, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1])
        return {"correct": last["correct"], "metrics": last["metrics"]}
    except (IndexError, KeyError, TypeError, json.JSONDecodeError):
        sys.stderr.write(out.stdout + out.stderr)
        return {"correct": False, "metrics": {}}


def number(value: float) -> str:
    return f"{value:,.4g}"


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def table(pairs: dict[str, list[tuple[int, str, dict, dict]]],
          better: dict[str, str]) -> str:
    """The change log's table of ``pairs``: workload → (seed, the side that
    ran first, parent run, change run) per pair."""
    rows = ["| workload | metric | parent | change | ratio | change better |",
            "|---|---|---|---|---|---|"]
    per_pair = []
    for workload, runs in pairs.items():
        for metric, direction in better.items():
            parent = [p["metrics"][metric]["value"] for _, _, p, _ in runs]
            change = [c["metrics"][metric]["value"] for _, _, _, c in runs]
            sign = 1 if direction == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            (pm, p1, p3), (cm, c1, c3) = spread(parent), spread(change)
            ratio = f"{cm / pm:.3f}" if pm else "–"
            rows.append(
                f"| `{workload}` | `{metric}` | {number(pm)} ({number(p1)}–"
                f"{number(p3)}) | {number(cm)} ({number(c1)}–{number(c3)}) "
                f"| {ratio} | {wins}/{len(runs)} |")
            if metric == FIRST_METRIC:
                per_pair.append(f"`{workload}` " + ", ".join(
                    f"{seed}: {p:.1f} → {c:.1f}"
                    for (seed, *_), p, c in zip(runs, parent, change)))
    return "\n".join(rows + [
        "", f"Per pair, `{FIRST_METRIC}` (seed: parent → change): "
        + "; ".join(per_pair) + "."])


def bench_record(parent: str, run_seconds: float,
                 pairs: dict[str, list[tuple[int, str, dict, dict]]]) -> dict:
    """What ``BENCH_<parent>.json`` holds of ``pairs`` (see `table`)."""
    return {"parent": parent, "run_seconds": run_seconds, "workloads": {
        workload: [{"seed": seed, "first": first, "parent": parent,
                    "change": change}
                   for seed, first, parent, change in runs]
        for workload, runs in pairs.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="commit to compare against")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    pairs: dict[str, list] = {w: [] for w in workloads}
    correct = True
    short = subprocess.run(["git", "rev-parse", "--short=12", args.parent],
                           cwd=ROOT, check=True, capture_output=True,
                           text=True).stdout.strip()
    with tempfile.TemporaryDirectory() as scratch:
        parent_root = Path(scratch)
        archive(args.parent, parent_root)
        for seed in SEEDS:
            sides = [("parent", parent_root), ("change", ROOT)]
            if seed % 2 == 0:
                sides.reverse()
            for workload in workloads:
                results = {}
                for name, side in sides:
                    results[name] = run(side, workload, seed,
                                        bench["run_seconds"])
                    ok = results[name].get("correct") is True
                    correct &= ok
                    print(f"seed {seed} {workload}: {name} "
                          f"{'correct' if ok else 'NOT correct'}",
                          file=sys.stderr, flush=True)
                pairs[workload].append((seed, sides[0][0], results["parent"],
                                        results["change"]))
    (ROOT / f"BENCH_{short}.json").write_text(json.dumps(
        bench_record(short, bench["run_seconds"], pairs), indent=1) + "\n")
    if correct:
        print(table(pairs, better))
    else:
        print("some runs were not correct", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
