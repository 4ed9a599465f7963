#!/usr/bin/env python3
"""Count the Python calls and bytecodes a scan spends per file.

    python3 scripts/bytecode_profile.py CORPUS

Runs the pipeline of ``jcascan scan`` in this process on one worker, over
the first 300 files in report order, file by file (`ingest.scan_file`,
`report.analyze_site`, `report.rendered`), then writes the report to
memory (`report.write_rendered`), all under ``sys.settrace`` with
``f_trace_opcodes`` set on every frame. It prints the ``call`` and
``opcode`` events per file: in total, by module, and for the 15
functions that run the most bytecodes. Each resumption of a generator
counts as a call: the tracer reports it as a ``call`` event.

These counts do not depend on the load of the machine, so they size a
change to per-file work where timings on a shared host are too noisy to;
claim a speed-up with the benchmark (``perfbench/run.py``). The scan never
imports this script.
"""

from __future__ import annotations

import argparse
import gc
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from jcascan.ingest import DEFAULT_APIS, corpus_files, scan_file
from jcascan.report import analyze_site, rendered, write_rendered

FILES = 300  # profiled, the first in report order
TOP = 15  # functions listed


def profile(paths: list[str]) -> tuple[dict, dict, dict]:
    """``(calls, opcodes, module)``, the first two by code object, for the
    in-process pipeline over ``paths``."""
    calls: dict = {}
    opcodes: dict = {}
    module: dict = {}

    def local(frame, event, arg):
        if event == "opcode":
            code = frame.f_code
            opcodes[code] = opcodes.get(code, 0) + 1
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        calls[code] = calls.get(code, 0) + 1
        if code not in module:
            module[code] = frame.f_globals.get("__name__", "?")
        frame.f_trace_opcodes = True
        return local

    def scan() -> None:
        rows: list = []
        warnings: list = []
        for path in paths:
            rows += rendered([analyze_site(site) for site in
                              scan_file(path, DEFAULT_APIS, None, warnings)])
        write_rendered(rows, io.StringIO(), warnings)

    tracer, collecting = sys.gettrace(), gc.isenabled()
    gc.disable()
    sys.settrace(on_call)
    try:
        scan()
    finally:
        sys.settrace(tracer)
        if collecting:
            gc.enable()
    return calls, opcodes, module


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("corpus")
    args = parser.parse_args(argv)
    try:
        paths = corpus_files(args.corpus)[:FILES]
    except FileNotFoundError as exc:
        parser.error(str(exc))
    if not paths:
        parser.error(f"no *.java files under {args.corpus}")
    calls, opcodes, module = profile(paths)
    n = len(paths)
    by_module: dict[str, list[int]] = {}
    for code in module:
        entry = by_module.setdefault(module[code], [0, 0])
        entry[0] += calls.get(code, 0)
        entry[1] += opcodes.get(code, 0)
    total_calls = sum(calls.values())
    total_ops = sum(opcodes.values())
    print(f"{n} files: {total_calls / n:,.0f} calls and "
          f"{total_ops / n:,.0f} bytecodes per file")
    print(f"\n{'module':<28}{'calls':>10}{'bytecodes':>12}{'share':>8}")
    for name, (c, o) in sorted(by_module.items(), key=lambda kv: -kv[1][1]):
        print(f"{name:<28}{c / n:>10,.1f}{o / n:>12,.1f}"
              f"{o / max(total_ops, 1):>8.1%}")
    print(f"\n{'function':<52}{'calls':>10}{'bytecodes':>12}")
    top = sorted(module, key=lambda code: -opcodes.get(code, 0))[:TOP]
    for code in top:
        qualname = getattr(code, "co_qualname", code.co_name)  # 3.11+
        name = f"{module[code]}.{qualname}"
        print(f"{name:<52}{calls.get(code, 0) / n:>10,.1f}"
              f"{opcodes.get(code, 0) / n:>12,.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
