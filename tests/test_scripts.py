"""The measurement scripts run end to end: ``scripts/step_hash.py`` and
``scripts/tape_memory.py``, one training step each, and
``scripts/src_lines.py``, as subprocesses with ``PYTHONPATH=src``, exit 0
and print the lines their readers parse."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str, *args: str) -> str:
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=300, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_step_hash_prints_a_training_and_an_inference_hash_per_dtype():
    lines = _run("step_hash.py", "--steps", "1").splitlines()
    assert [line.split()[0] for line in lines] == ["float32", "float64"]
    for line in lines:
        assert re.search(r" sha256=[0-9a-f]{64} infer_sha256=[0-9a-f]{64}$", line), line


def test_tape_memory_prints_the_tape_the_peak_rss_and_each_phase_peak():
    out = _run("tape_memory.py", "--steps", "1")
    assert re.search(r"^tape +[0-9.]+ +[0-9.]+ +[0-9.]+$", out, re.M), out
    assert re.search(r"^peak_rss_mb=[0-9]+\.[0-9] after 1 steps$", out, re.M), out
    assert re.search(r"^traced_peak_mib encode=[0-9.]+ forward=[0-9.]+ backward=[0-9.]+ adam=[0-9.]+ ", out, re.M), out


def test_src_lines_counts_each_line_once_in_its_first_class(tmp_path):
    module = tmp_path / "m.py"
    module.write_text('"""Module\ndocstring."""\n\n# a comment\nx = """not a\ndocstring"""  # trailing\n\n\n'
                      'def f():\n    """Doc."""; return 1\n', encoding="utf-8")
    rows = [line.split() for line in _run("src_lines.py", str(module)).splitlines()]
    assert rows[0] == ["module", "code", "docstring", "comment", "blank"]
    assert rows[1:] == [[str(module), "4", "2", "1", "3"], ["total", "4", "2", "1", "3"]]
    census = _run("src_lines.py").splitlines()[-1].split()
    assert census[0] == "total" and sum(map(int, census[1:])) == sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py"))
