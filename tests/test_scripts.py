"""The measurement scripts run end to end: ``scripts/step_hash.py`` and
``scripts/tape_memory.py``, one training step each, as subprocesses with
``PYTHONPATH=src``, exit 0 and print the lines their readers parse."""

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
