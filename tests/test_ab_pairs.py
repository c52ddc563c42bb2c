"""scripts/ab_pairs.py: seed ranges, the per-metric summary of canned runs and
the refusal of checkouts that hold bytecode caches."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "scripts" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def result_line(setup_s, mpix_s, peak_rss_mb, ok_ops_frac=1.0, failed=0):
    """One run's last line, as perfbench/run.py prints it."""
    values = {"setup_s": setup_s, "mpix_s": mpix_s, "peak_rss_mb": peak_rss_mb,
              "ok_ops_frac": ok_ops_frac}
    units = {m["name"]: m["unit"] for m in METRICS}
    return json.dumps({
        "correct": failed == 0, "attempted": 80, "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    })


def canned_pairs():
    parent = [(0.12, 2.0, 53.4), (0.13, 2.1, 53.5), (0.11, 1.9, 53.3), (0.12, 2.2, 53.6),
              (0.14, 2.0, 53.4)]
    change = [(0.12, 2.1, 51.6), (0.12, 2.0, 51.5), (0.12, 2.0, 51.6), (0.11, 2.3, 53.7),
              (0.13, 2.0, 51.4)]
    return [(json.loads(result_line(*p)), json.loads(result_line(*c)))
            for p, c in zip(parent, change)]


def test_summary_of_canned_result_lines():
    rows = {row[0]: row[1:] for row in ab_pairs.summarize(METRICS, canned_pairs())}
    assert list(rows) == [m["name"] for m in METRICS]
    unit, parent, change, spread, wins = rows["peak_rss_mb"]
    assert unit == "MB"
    assert (parent, change, wins) == (53.4, 51.6, 4)  # the 53.7 pair is lost
    assert spread == pytest.approx(53.5 - 53.4)  # linear quartiles of 53.3..53.6
    # setup_s: lower is better, and ties do not count as wins
    assert rows["setup_s"][1:] == (0.12, 0.12, pytest.approx(0.01), 3)
    # mpix_s: higher is better
    assert rows["mpix_s"][1:] == (2.0, 2.0, pytest.approx(0.1), 3)
    assert rows["ok_ops_frac"][4] == 0


def test_formatted_summary_counts_failed_checks():
    pairs = canned_pairs()
    pairs[1] = (pairs[1][0], json.loads(result_line(0.1, 2.0, 51.0, 0.9, failed=8)))
    text = ab_pairs.format_summary(ab_pairs.summarize(METRICS, pairs), pairs)
    assert "peak_rss_mb" in text and "4/5" in text
    assert text.splitlines()[-2:] == [
        "parent: 0 failed checks, 0 runs not correct",
        "change: 8 failed checks, 1 runs not correct",
    ]


def test_seed_ranges():
    assert ab_pairs.parse_seeds("301..", 3) == [301, 302, 303]


@pytest.mark.parametrize("text", ["301", "a..", "-1..", "7..9"])
def test_bad_seed_ranges_are_rejected(text):
    with pytest.raises(ValueError):
        ab_pairs.parse_seeds(text, 3)


def test_checkouts_with_bytecode_caches_are_refused(tmp_path, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    stale = [parent / "src" / "statjpeg" / "__pycache__", change / "perfbench" / "__pycache__"]
    for path in stale:
        path.mkdir(parents=True)
    (change / "tests" / "__pycache__").mkdir(parents=True)  # outside src/ and perfbench/

    def no_runs(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(ab_pairs, "run_once", no_runs)
    with pytest.raises(SystemExit) as exc:
        ab_pairs.main([str(parent), str(change), "--workload", "stats", "--seeds", "1.."])
    assert exc.value.code.splitlines()[1:] == [str(path) for path in stale]


def test_runs_write_no_bytecode(monkeypatch):
    seen = {}

    def fake_run(args, **kwargs):
        seen.update(kwargs)
        return subprocess.CompletedProcess(args, 0, result_line(0.1, 2.0, 50.0), "")

    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    monkeypatch.setattr(ab_pairs.subprocess, "run", fake_run)
    assert ab_pairs.run_once(ROOT, "stats", 1, 20)["correct"]
    assert seen["cwd"] == ROOT and seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
