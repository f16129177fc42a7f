import os
import subprocess
import sys
from pathlib import Path

import pytest

import ddfa

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = {
    "kernel_evidence.py": ["--depth", "2"],
    "trace_walkthrough.py": [],
    "conjecture_scan.py": ["--limits", "64", "--bounds", "1"],
}


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_reader_closing_early_leaves_no_traceback(script, unbuffered):
    src = str(Path(ddfa.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path,
               PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first line is written
    try:
        result = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / script), *SCRIPTS[script]],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert result.stderr == "", result.stderr
