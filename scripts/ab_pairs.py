"""Alternated benchmark pairs of two checkouts, summarised per metric.

    python3 scripts/ab_pairs.py PARENT CHANGE --workload codec-hq --pairs 10 \
        --seeds 301..

Pair ``i`` runs ``perfbench/run.py --trace 0`` of each checkout at seed
``S + i`` (``--seeds S..``) for the ``run_seconds`` of ``BENCHMARK.json``,
each in its own checkout.  Pairs 1, 3, ... run the parent first and pairs 2, 4,
... the change, so drift in machine speed falls on both sides alike.  Each
run's result line is echoed to standard error as it comes.

For each end-to-end metric of ``BENCHMARK.json`` it then prints the parent's
and the change's medians, the parent's interquartile range and the number
of pairs in which the change is strictly better, and last the failed checks
of each side.  It reports and never judges; it exits non-zero only if a run
fails to produce a result line, or before any run if either checkout holds a
``__pycache__`` under ``src/`` or ``perfbench/``: bytecode written by another
version of a module is stale, and recompiling it shows in ``setup_s``.  Every
run gets ``PYTHONDONTWRITEBYTECODE=1``, so the runs write none.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text, pairs):
    """``S..`` gives ``pairs`` seeds from S."""
    first, sep, rest = text.partition("..")
    if not sep or rest or not first.isdigit():
        raise ValueError(f"--seeds must read S.., not {text!r}")
    return list(range(int(first), int(first) + pairs))


def bytecode_caches(checkout):
    """The ``__pycache__`` directories under ``src/`` and ``perfbench/`` of ``checkout``."""
    return sorted(path for top in ("src", "perfbench")
                  for path in (checkout / top).rglob("__pycache__"))


def run_once(checkout, workload, seed, seconds):
    """The result object of one ``perfbench/run.py`` run in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout} seed {seed} failed: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def iqr(values):
    """Upper minus lower quartile, as numpy's default (linear) percentiles give."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(metrics, pairs):
    """One row per metric in ``metrics`` (BENCHMARK.json's ``end_to_end``).

    ``pairs`` holds ``(parent, change)`` result objects.  A row is
    ``(name, unit, parent median, change median, parent IQR, wins)``, where
    ``wins`` counts the pairs in which the change is strictly better.
    """
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        rows.append((name, metric["unit"], statistics.median(parent),
                     statistics.median(change), iqr(parent), wins))
    return rows


def format_summary(rows, pairs):
    lines = [f"{'metric':<12} {'unit':<7} {'parent':>10} {'change':>10} "
             f"{'parent IQR':>10} {'wins':>6}"]
    for name, unit, parent, change, spread, wins in rows:
        lines.append(f"{name:<12} {unit:<7} {parent:>10.4g} {change:>10.4g} "
                     f"{spread:>10.3g} {wins:>3}/{len(pairs):<2}")
    for side, index in (("parent", 0), ("change", 1)):
        failed = sum(pair[index]["failed"] for pair in pairs)
        wrong = sum(not pair[index]["correct"] for pair in pairs)
        lines.append(f"{side}: {failed} failed checks, {wrong} runs not correct")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", required=True, help="S..")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        seeds = parse_seeds(args.seeds, args.pairs)
    except ValueError as exc:
        parser.error(str(exc))
    caches = bytecode_caches(args.parent) + bytecode_caches(args.change)
    if caches:
        sys.exit("ab_pairs: remove the bytecode caches of both checkouts first:\n"
                 + "\n".join(map(str, caches)))
    with open(args.change / "BENCHMARK.json") as fh:
        benchmark = json.load(fh)
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]

    pairs = []
    for i, seed in enumerate(seeds):
        order = ("change", "parent") if i % 2 else ("parent", "change")
        results = {}
        for side in order:
            try:
                results[side] = run_once(getattr(args, side), args.workload, seed, seconds)
            except RuntimeError as exc:
                sys.exit(f"ab_pairs: {exc}")
            print(f"pair {i + 1} seed {seed} {side}: {json.dumps(results[side])}",
                  file=sys.stderr, flush=True)
        pairs.append((results["parent"], results["change"]))
    print(f"{args.workload}: {len(pairs)} alternated pairs, seeds {seeds[0]}..{seeds[-1]}, "
          f"{seconds:g} s each")
    print(format_summary(summarize(metrics, pairs), pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
