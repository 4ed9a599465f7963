"""``scripts/bytecode_profile.py`` ends quietly when its reader closes
the pipe, as ``| head -1`` does."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" \
    / "bytecode_profile.py"
SOURCE = ('import javax.crypto.Cipher;\nclass A { void m() throws Exception'
          ' { Cipher.getInstance("AES"); } }\n')


def _profile(corpus: Path, line: bool) -> tuple[int, bytes]:
    """The script's exit code and stderr when its reader takes one line
    of its unbuffered output and closes the pipe, or, without ``line``,
    has closed it before the script starts."""
    read, write = os.pipe()
    if not line:
        os.close(read)
    proc = subprocess.Popen(
        [sys.executable, str(SCRIPT), str(corpus)], stdout=write,
        stderr=subprocess.PIPE, env={**os.environ, "PYTHONUNBUFFERED": "1"})
    os.close(write)
    if line:
        with os.fdopen(read) as pipe:
            assert pipe.readline().startswith("1 files: ")
    _, err = proc.communicate(timeout=120)
    return proc.returncode, err


def test_a_closed_pipe_ends_the_script_quietly(tmp_path):
    """A reader that closes the pipe after one line, or before the first
    (so the first write finds it closed, whatever the timing), leaves
    exit 0 and nothing on stderr."""
    (tmp_path / "A.java").write_text(SOURCE, encoding="utf-8")
    assert _profile(tmp_path, True) == (0, b"")
    assert _profile(tmp_path, False) == (0, b"")
