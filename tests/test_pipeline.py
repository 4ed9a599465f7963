"""`report.analyze_corpus` over a corpus: the order of its results, that
the benchmark's traced copy of it writes the same report, that the number
of forked workers never changes the report or the exception a failing file
raises, and that it releases each file's syntax tree before parsing the
next."""

from __future__ import annotations

import io
import json
import os
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import pytest

import conftest
from jcascan import bench, ingest, report
from jcascan.cli import main
from jcascan.report import analyze_corpus, write_report
from jcascan.syntax import SourceUnit, SyntaxNode

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpora  # noqa: E402
import layertrace  # noqa: E402

# -- result order ---------------------------------------------------------

TWO_SITES = '''import javax.crypto.Cipher;
class Two {
    void m() throws Exception {
        Cipher.getInstance("DES");
        Cipher.getInstance("RC4");
    }
}
'''


def _one_site(name: str) -> str:
    return ("import javax.crypto.Cipher;\n"
            f"class {name} {{\n"
            '    void m() throws Exception { Cipher.getInstance("DES"); }\n'
            "}\n")


@pytest.fixture
def ordered_corpus(tmp_path):
    """``a/b.java`` comes first in `Path` order, ``a-c.java`` first in
    string order ('-' < '.' < '/')."""
    root = tmp_path / "corpus"
    (root / "a").mkdir(parents=True)
    (root / "a.java").write_text(TWO_SITES, encoding="utf-8")
    (root / "a" / "b.java").write_text(_one_site("B"), encoding="utf-8")
    (root / "a-c.java").write_text(_one_site("C"), encoding="utf-8")
    return root


def _offset(site_id: str) -> int:
    return int(site_id.rsplit(":", 1)[1])


def test_results_come_in_path_string_then_offset_order(ordered_corpus,
                                                       tmp_path, capsys):
    root = str(ordered_corpus)
    expected_files = [f"{root}/a-c.java", f"{root}/a.java", f"{root}/a.java",
                      f"{root}/a/b.java"]

    report = tmp_path / "r.jsonl"
    main(["scan", root, "-o", str(report)])
    records = [json.loads(line) for line in
               report.read_text(encoding="utf-8").splitlines()][:-1]
    assert [r["path"] for r in records] == expected_files
    offsets = [_offset(r["id"]) for r in records]
    assert offsets[1] < offsets[2]

    capsys.readouterr()
    assert main(["classify", root]) == 0
    ids = [json.loads(line)["id"]
           for line in capsys.readouterr().out.splitlines()]
    assert ids == [r["id"] for r in records]

    rows = bench.self_report(ordered_corpus).rows
    assert [(file, line) for file, line, _, _, _ in rows] == [
        ("a-c.java", 3), ("a.java", 4), ("a.java", 5), ("a/b.java", 3)]


def _report_bytes(root: Path) -> bytes:
    analyses, warnings = analyze_corpus(root)
    out = io.StringIO()
    write_report(analyses, out, warnings)
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("shape", ["ordered", "one-large-unit"])
def test_benchmark_trace_mirrors_the_pipeline(shape, ordered_corpus,
                                              tmp_path):
    """The benchmark's traced scan repeats the pipeline layer by layer;
    its report must stay the pipeline's, byte for byte."""
    root = ordered_corpus
    if shape != "ordered":
        root = tmp_path / shape
        corpora.generate(shape, root, 1)
    traced = layertrace.traced_scan(str(root), tmp_path / "traced.jsonl", 1)
    assert traced.report == _report_bytes(root)


# -- memory ----------------------------------------------------------------

def _write_corpus(root: Path, n_files: int) -> Path:
    """``n_files`` classes of ten methods and one site each."""
    root.mkdir(parents=True)
    for i in range(n_files):
        methods = "\n".join(
            f'    int m{j}(int x) {{ return x * {j} + "s{i}".length(); }}'
            for j in range(10))
        (root / f"C{i}.java").write_text(
            "import javax.crypto.Cipher;\n"
            f"public class C{i} {{\n{methods}\n"
            "    Cipher run() throws Exception {"
            ' return Cipher.getInstance("DES"); }\n}\n', encoding="utf-8")
    return root


def one_worker(monkeypatch) -> None:
    """Run `analyze_corpus` in-process, where a test's counters see it."""
    monkeypatch.setattr(report, "_usable_cpus", lambda: 1)


def test_every_parsed_unit_is_freed_on_return(tmp_path, monkeypatch):
    one_worker(monkeypatch)
    units = []
    parse = ingest.parse_unit

    def tracked(path, text):
        unit = parse(path, text)
        units.append(weakref.ref(unit))
        return unit

    monkeypatch.setattr(ingest, "parse_unit", tracked)
    analyses, _ = analyze_corpus(_write_corpus(tmp_path / "c", 20))
    assert len(analyses) == len(units) == 20
    assert [u for u in units if u() is not None] == []


def _conftest_corpus(root: Path) -> Path:
    """The conftest sources, one file each."""
    root.mkdir()
    for name, value in vars(conftest).items():
        if name.endswith("_SRC") and isinstance(value, str):
            (root / f"{name}.java").write_text(value, encoding="utf-8")
    return root


def _holds_tree(value) -> bool:
    if isinstance(value, (SyntaxNode, SourceUnit)):
        return True
    if isinstance(value, dict):
        value = [*value.keys(), *value.values()]
    return isinstance(value, (list, tuple, set, frozenset)) \
        and any(_holds_tree(item) for item in value)


def test_result_rows_hold_no_tree(tmp_path, bench_corpus):
    """`analyze_corpus` keeps each site `InvocationSite.detached`: no
    field of a result's site refers to a syntax node or a unit."""
    conftest_root = _conftest_corpus(tmp_path / "conftest")
    for root in (conftest_root, bench_corpus[0]):
        analyses, _ = analyze_corpus(root)
        assert analyses
        for a in analyses:
            held = [name for name in type(a.site).__slots__
                    if _holds_tree(getattr(a.site, name))]
            assert held == [], a.site.id


def _traced_peak(root: Path) -> int:
    tracemalloc.start()
    try:
        analyze_corpus(root)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_follows_the_largest_file(tmp_path, monkeypatch):
    one_worker(monkeypatch)
    small = _traced_peak(_write_corpus(tmp_path / "20", 20))
    large = _traced_peak(_write_corpus(tmp_path / "200", 200))
    # Keeping every tree gives ~10x (ten times the files); what grows
    # here is the result rows, ~4x.
    assert large <= 5 * small, (small, large)


# -- workers ---------------------------------------------------------------

def _warning_corpus(root: Path) -> Path:
    """Seven files with one site and ``i + 1`` invalid escapes each, and
    one whose parse fails: warnings in every share of up to three."""
    root.mkdir()
    escape = '"\\8" + '
    for i in range(7):
        (root / f"W{i}.java").write_text(
            "import javax.crypto.Cipher;\n"
            f"class W{i} {{\n    void m() throws Exception {{\n"
            f'        Cipher.getInstance({escape * (i + 1)}"DES");\n'
            "    }\n}\n", encoding="utf-8")
    (root / "W7.java").write_text('class B { String s = "abc\\',
                                  encoding="utf-8")
    return root


def _scan(root: Path) -> tuple[bytes, list[tuple]]:
    """The report bytes and the warnings of `analyze_corpus`."""
    analyses, warnings = analyze_corpus(root)
    out = io.StringIO()
    write_report(analyses, out, warnings)
    return out.getvalue().encode("utf-8"), \
        [(w.path, w.offset, w.message) for w in warnings]


def _counting_forks(monkeypatch) -> list[int]:
    forks: list[int] = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()
    monkeypatch.setattr(os, "fork", counted)
    return forks


def _one_site_corpus(root: Path, n_files: int) -> Path:
    root.mkdir()
    for i in range(n_files):
        (root / f"F{i}.java").write_text(_one_site(f"F{i}"),
                                         encoding="utf-8")
    return root


@pytest.mark.parametrize("corpus", ["conftest", "bench", "ordered",
                                    "warnings", "many-files",
                                    *sorted(corpora.GENERATORS)])
def test_worker_count_never_changes_the_report(corpus, ordered_corpus,
                                               bench_corpus, tmp_path,
                                               monkeypatch):
    root = tmp_path / corpus
    if corpus == "conftest":
        _conftest_corpus(root)
    elif corpus == "bench":
        root = bench_corpus[0]
    elif corpus == "ordered":
        root = ordered_corpus
    elif corpus == "warnings":
        _warning_corpus(root)
    elif corpus == "many-files":    # more files than claims: runs of two
        _one_site_corpus(root, 1500)
    else:
        corpora.generate(corpus, root, 1)
    files = len(ingest.corpus_files(root))
    forks = _counting_forks(monkeypatch)
    scans = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(report, "_usable_cpus", lambda: workers)
        forks.clear()
        scans.append(_scan(root))
        assert len(forks) == min(workers, files) - 1
    if corpus == "warnings":
        assert {path for path, _, _ in scans[0][1]} == {
            str(root / f"W{i}.java") for i in range(8)}
    assert scans[0][0].count(b"\n") > 1
    assert scans[1] == scans[0]
    assert scans[2] == scans[0]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_rows_rendered_where_analyzed_write_the_report(workers, tmp_path,
                                                       monkeypatch):
    """A scan renders each file's rows in the process that analyzed it;
    its report is what `write_report` writes from the rows."""
    root = _conftest_corpus(tmp_path / "c")
    _warning_corpus(root / "w")
    monkeypatch.setattr(report, "_usable_cpus", lambda: 1)
    expected = _scan(root)[0]
    monkeypatch.setattr(report, "_usable_cpus", lambda: workers)
    rows, warnings = analyze_corpus(root, per_file=report.rendered)
    out = io.StringIO()
    report.write_rendered(rows, out, warnings)
    assert out.getvalue().encode("utf-8") == expected


@pytest.mark.parametrize("files", [0, 1, 1024, 1025, 100_000])
def test_claims_hand_out_each_file_once_in_order(files):
    claims = report._claims(files)
    assert len(claims) <= 1024
    assert [i for claim in claims for i in claim] == list(range(files))
    assert all(claims)


def test_a_slow_caller_leaves_the_files_to_its_worker(tmp_path,
                                                      monkeypatch):
    """Files go to whichever process asks first, not in fixed shares."""
    root = _one_site_corpus(tmp_path / "c", 20)
    caller = os.getpid()
    analyze = report.analyze_site

    def slow_in_caller(site, budget=None):
        if os.getpid() == caller:
            time.sleep(0.05)
        return analyze(site, budget)

    monkeypatch.setattr(report, "analyze_site", slow_in_caller)
    monkeypatch.setattr(report, "_usable_cpus", lambda: 2)
    pids, _ = analyze_corpus(root, per_file=lambda rows: [os.getpid()])
    assert len(pids) == 20
    assert pids.count(caller) < 10, pids


def test_a_process_with_threads_runs_in_process():
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        assert report._usable_cpus() == 1
    finally:
        release.set()
        thread.join(60)
    assert not thread.is_alive()
    assert report._usable_cpus() == len(os.sched_getaffinity(0))


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_failing_file_raises_what_one_worker_raises(workers, tmp_path,
                                                      monkeypatch):
    """``C1`` and ``C2`` both raise, in whichever process claims them;
    path order decides which exception is raised."""
    root = _write_corpus(tmp_path / "c", 6)
    raises = {"C1.java": ValueError, "C2.java": KeyError}
    analyze = report.analyze_site

    def failing(site, budget=None):
        error = raises.get(Path(site.path).name)
        if error is not None:
            raise error(site.path)
        return analyze(site, budget)

    monkeypatch.setattr(report, "analyze_site", failing)
    monkeypatch.setattr(report, "_usable_cpus", lambda: workers)
    with pytest.raises(ValueError, match="C1.java"):
        analyze_corpus(root)
    assert _no_child_left()


def test_a_worker_that_dies_is_an_error(tmp_path, monkeypatch):
    root = _write_corpus(tmp_path / "c", 4)
    caller = os.getpid()
    analyze = report.analyze_site

    def dying(site, budget=None):
        if os.getpid() != caller:
            os._exit(3)
        return analyze(site, budget)

    monkeypatch.setattr(report, "analyze_site", dying)
    monkeypatch.setattr(report, "_usable_cpus", lambda: 2)
    with pytest.raises(ChildProcessError):
        analyze_corpus(root)
    assert _no_child_left()


def test_an_interrupted_caller_kills_its_workers(tmp_path, monkeypatch):
    """The workers would take a minute each; the caller's interrupt ends
    them at once."""
    root = _write_corpus(tmp_path / "c", 4)
    caller = os.getpid()

    def interrupted(site, budget=None):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(report, "analyze_site", interrupted)
    monkeypatch.setattr(report, "_usable_cpus", lambda: 3)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        analyze_corpus(root)
    assert time.monotonic() - started < 30
    assert _no_child_left()


def test_bytecode_profile_counts_repeat_exactly(tmp_path, capsys):
    """``scripts/bytecode_profile.py`` counts the same calls and bytecodes
    on every run over the same files, front end and analysis alike."""
    import importlib.util
    script = Path(__file__).resolve().parents[1] / "scripts" \
        / "bytecode_profile.py"
    spec = importlib.util.spec_from_file_location("bytecode_profile", script)
    profiler = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(profiler)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("CHARAT_SRC", "XOR_SRC", "TRUST_EMPTY_SRC"):
        (corpus / f"{name}.java").write_text(getattr(conftest, name))
    paths = ingest.corpus_files(corpus)
    calls, opcodes, module = profiler.profile(paths)
    assert profiler.profile(paths)[:2] == (calls, opcodes)
    ran = {(module[code], code.co_name) for code in opcodes}
    assert {("jcascan.javaparse", "_lex"),
            ("jcascan.syntax", "__init__"),
            ("jcascan.report", "analyze_site"),
            ("jcascan.report", "write_rendered")} <= ran
    assert profiler.main([str(corpus)]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == (f"3 files: {sum(calls.values()) / 3:,.0f} calls and "
                     f"{sum(opcodes.values()) / 3:,.0f} bytecodes per file")
