"""Peak memory and time of the codec's pixel path on one large RGB image.

    python3 scripts/rss_probe.py [--size 4096]

A child process writes one size x size RGB PPM (``synth_image`` "blobs")
to a temporary directory; ``synth_image`` itself needs far more memory
than the codec, so it never runs in a measured process.  Then three fresh
interpreters each load that input and run one call:

* ``encode``: ``encode_image`` with the QF-75 Annex-K pair, writing the
  JPEG that ``decode`` reads;
* ``decode``: ``decode_image`` of that file;
* ``accumulate``: a per-channel ``FrequencyStats.accumulate_image``.

For each it prints the peak RSS after loading the input, the peak RSS of
the whole process (``ru_maxrss``) and the call's seconds.  It reports and
never fails on a figure; it exits non-zero only if a step fails.
"""

import argparse
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
STEPS = ("encode", "decode", "accumulate")


def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KB on Linux


def make_input(path, size):
    import numpy as np

    from statjpeg.imgfile import save_ppm
    from statjpeg.synth import synth_image

    save_ppm(synth_image("blobs", np.random.default_rng(0), size, size), path)


def run_step(step, work):
    from statjpeg.imgfile import load_image
    from statjpeg.jpeg import decode_image, encode_image
    from statjpeg.stats import PER_CHANNEL, FrequencyStats
    from statjpeg.tables import standard_table

    jpeg_path = work / "image.jpg"
    if step == "decode":
        data = jpeg_path.read_bytes()
        call = lambda: decode_image(data)  # noqa: E731
    else:
        img = load_image(work / "image.ppm")
        if step == "encode":
            tables = standard_table(75, "luma"), standard_table(75, "chroma")
            call = lambda: jpeg_path.write_bytes(encode_image(img, *tables))  # noqa: E731
        else:
            call = lambda: FrequencyStats(PER_CHANNEL).accumulate_image(img)  # noqa: E731
    loaded = peak_mb()
    start = time.perf_counter()
    call()
    seconds = time.perf_counter() - start
    print(f"{step:<10} loaded {loaded:7.1f} MB  peak {peak_mb():7.1f} MB  {seconds:6.2f} s")


def child(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, __file__, *args], env=env).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=4096)
    # the child processes' arguments
    parser.add_argument("--work", help=argparse.SUPPRESS)
    parser.add_argument("--step", choices=("make", *STEPS), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.step == "make":
        make_input(Path(args.work) / "image.ppm", args.size)
        return 0
    if args.step:
        run_step(args.step, Path(args.work))
        return 0
    with tempfile.TemporaryDirectory() as work:
        print(f"rss_probe: one {args.size}x{args.size} RGB image, each step in a fresh process",
              flush=True)
        if child("--step", "make", "--work", work, "--size", str(args.size)):
            return 1
        status = 0
        for step in STEPS:
            status |= child("--step", step, "--work", work)
        return 1 if status else 0


if __name__ == "__main__":
    sys.exit(main())
