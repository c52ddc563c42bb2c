"""Every demo runs to completion against the library in ``src/``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    # the demos write into temporary directories, which must be gone on exit
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert list(tmp_path.iterdir()) == []


def test_rss_probe_reports_every_step(tmp_path):
    # scripts/verify.sh runs it at 4096x4096; a small image checks the plumbing
    env = dict(os.environ, TMPDIR=str(tmp_path))
    probe = ROOT / "scripts" / "rss_probe.py"
    result = subprocess.run(
        [sys.executable, str(probe), "--size", "40"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    steps = [line.split()[0] for line in result.stdout.splitlines()[1:]]
    assert steps == ["synth", "encode", "decode", "accumulate", "load-png"]
    assert list(tmp_path.iterdir()) == []
