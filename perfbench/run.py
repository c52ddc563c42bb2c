"""statjpeg benchmark: one command, four workloads, every output checked.

    python3 perfbench/run.py --workload codec-hq --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` alternates untraced cycles with cycles run under span
wrappers around every public function of each layer, and reports
per-layer self times and counts per operation.  The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a fuller report (environment, inputs, quality
figures, problems and, when traced, every span) is written to
``.perfbench/`` in the checkout.  ``--smoke`` shrinks every input for a
quick self-test.  ``--record-golden`` rewrites ``golden.json``, the output
digests the default seed is checked against.

The program is imported from ``src/`` of the checkout this file sits in;
without it the command fails before printing a result.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # 2-core machines; BLAS must not start its own threads

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
GOLDEN = HERE / "golden.json"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("codec-hq", "codec-plm", "corpus", "stats")
DEFAULT_SEED = 0
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60


def import_program():
    """Import statjpeg from this checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import statjpeg
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import statjpeg from {SRC}: {exc}")
    if SRC not in Path(statjpeg.__file__).resolve().parents:
        sys.exit(f"perfbench: statjpeg was imported from {statjpeg.__file__}, not {SRC}")


def measure_setup(workload):
    """Median over fresh interpreters of importing statjpeg and resolving tables."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *workload.setup_args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples), samples


def run_cycle(workload, clock):
    """One pass over the workload's inputs: (timed seconds, problems per op)."""
    with workload.hooks():
        before = clock.seconds
        problems = workload.cycle(clock)
    return clock.seconds - before, problems


def end_to_end(workload, setup_s, cycle_seconds, problems):
    failed = sum(1 for p in problems if p)
    return {
        "setup_s": setup_s,
        "mpix_s": workload.pixels_per_cycle / statistics.median(cycle_seconds) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ops_frac": (len(problems) - failed) / len(problems),
    }


def environment(args):
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def load_golden(args):
    if args.smoke or args.seed != DEFAULT_SEED:
        return None
    with open(GOLDEN) as fh:
        return json.load(fh)[args.workload]


def record_golden(work):
    from workloads import make

    golden = {}
    for name in WORKLOADS:
        workload = make(name, DEFAULT_SEED, work / name, False, None)
        workload.prepare()
        golden[name] = workload.record()
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, no digests")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.record_golden and args.workload is None:
        parser.error("--workload is required")

    import_program()
    from spans import Recorder, layer_metrics
    from workloads import Clock, make

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.record_golden:
            record_golden(work)
            return 0
        workload = make(args.workload, args.seed, work, args.smoke, load_golden(args))
        workload.prepare()
        report = {"workload": args.workload, "env": environment(args)}
        cycle_seconds, problems = [], []
        if args.trace == 0:
            setup_s, report["setup_samples_s"] = measure_setup(workload)
            clock = Clock()
            while clock.seconds < args.seconds:
                seconds, op_problems = run_cycle(workload, clock)
                cycle_seconds.append(seconds)
                problems += op_problems
            metrics = end_to_end(workload, setup_s, cycle_seconds, problems)
            report["op_s"] = clock.op_seconds
        else:
            # untraced and traced cycles alternate, so drift in machine speed
            # shows up as little as it can in the tracing overhead
            recorder = Recorder()
            plain, traced = Clock(), Clock(recorder)
            ratios = []
            while plain.seconds + traced.seconds < args.seconds:
                plain_s, op_problems = run_cycle(workload, plain)
                problems += op_problems
                with recorder.installed():
                    seconds, op_problems = run_cycle(workload, traced)
                cycle_seconds.append(seconds)
                problems += op_problems
                ratios.append(seconds / plain_s)
            metrics = layer_metrics(recorder, traced.ops, statistics.median(ratios) - 1.0)
            report["untraced_s"] = plain.seconds
            report["layers"] = {name: {"self_s": v[0], "inclusive_s": v[1], "calls": v[2]}
                                for name, v in sorted(recorder.self_times().items())}
            report["counts"] = dict(recorder.counts)
        report["cycle_s"] = cycle_seconds
        report["inputs"] = workload.inputs()
        report["quality"] = workload.quality()
        report["problems"] = [p for p in problems if p][:50]
        failed = sum(1 for p in problems if p)
        result = {"correct": failed == 0, "attempted": len(problems), "failed": failed,
                  "metrics": with_units(metrics)}
        report["result"] = result
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        with open(OUT / f"{stem}.json", "w") as fh:
            json.dump(report, fh, indent=1)
        if args.trace:
            with open(OUT / f"{stem}-spans.json", "w") as fh:
                json.dump(recorder.spans, fh)
        print(json.dumps({k: report[k] for k in ("env", "inputs", "quality")}))
        for problem in report["problems"]:
            print(f"problem: {problem}")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def with_units(metrics):
    with open(SPEC) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


if __name__ == "__main__":
    sys.exit(main())
