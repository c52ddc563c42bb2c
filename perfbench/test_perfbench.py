"""Self-test of the benchmark: ``python3 -m pytest perfbench``.

Runs every workload in smoke mode (tiny inputs) traced and untraced, and
checks the result line against BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import symbol_counts  # noqa: E402
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def reference_symbol_counts(arrays):
    """Literal per-block count, following huffman._encode_block."""
    blocks = symbols = nonzero = 0
    for arr in arrays:
        for zz in arr:
            blocks += 1
            symbols += 1  # DC
            prev = 0
            for pos in np.nonzero(zz[1:])[0]:
                run_length = int(pos) - prev
                while run_length > 15:  # ZRL
                    symbols += 1
                    run_length -= 16
                symbols += 1
                nonzero += 1
                prev = int(pos) + 1
            if prev != 63:  # EOB
                symbols += 1
    return blocks, symbols, nonzero


@pytest.mark.parametrize("density", [0.0, 0.02, 0.2, 0.7, 1.0])
def test_symbol_counts_match_per_block_loop(density):
    rng = np.random.default_rng(7)
    arrays = [
        (rng.random((40, 64)) < density) * rng.integers(1, 9, size=(40, 64))
        for _ in range(3)
    ]
    assert symbol_counts(arrays) == reference_symbol_counts(arrays)


def test_spec_keys_and_recorded_digests():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    golden = json.loads((HERE / "golden.json").read_text())
    assert sorted(golden) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run("--workload", workload, "--seed", "1", "--seconds", "0.5",
               "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert result["metrics"]["ok_ops_frac"]["value"] == 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "stats", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
