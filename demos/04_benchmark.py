"""The full workflow: analyze a corpus, design a table, and benchmark it
against the baselines on rate, quality, and sparsity.

Run:  python demos/04_benchmark.py
"""

import tempfile
from pathlib import Path

from statjpeg import FrequencyStats, load_image, save_stats, scan_corpus
from statjpeg.cli import resolve_table_source, run_benchmark
from statjpeg.synth import generate_corpus

with tempfile.TemporaryDirectory(prefix="statjpeg_bench_") as tmp:
    workdir = Path(tmp)
    manifest = scan_corpus(generate_corpus(workdir / "corpus", images_per_class=8))
    paths = manifest.image_paths()
    print(f"benchmarking over {len(paths)} images")

    # --- stage 1: corpus statistics -> designed table ------------------------
    stats = FrequencyStats(source_digest=manifest.digest)
    for path in paths:
        stats.accumulate_image(load_image(path))
    save_stats(stats.finalize(), workdir / "stats.json")

    # --- stage 2: the contenders, as the CLI's --table specs -----------------
    specs = {
        "designed (plm)": f"plm:{workdir / 'stats.json'}",
        "same-q:4": "same-q:4",
        "rm-hf:3 @ qf100": "rm-hf:3",
        "standard qf100": "standard-qf:100",
    }
    sources = [resolve_table_source(spec) for spec in specs.values()]

    # --- stage 3: measure (the same loop as `statjpeg benchmark`) -----------
    _, aggregates = run_benchmark(manifest, sources)

print(f"\n{'source':>16} {'bytes':>9} {'CR':>6} {'PSNR dB':>8} {'zero frac':>9}")
cr = {}
for label, spec in specs.items():
    agg = aggregates[spec]
    cr[label] = agg["compression_rate"]
    mean_psnr = agg["mean_psnr_db"]
    psnr_text = "lossless" if mean_psnr is None else f"{mean_psnr:.2f}"
    print(
        f"{label:>16} {agg['bytes_candidate']:9d} {cr[label]:6.2f} "
        f"{psnr_text:>8} {agg['mean_zero_fraction']:9.4f}"
    )

print(
    "\nrate ordering: designed > uniform-4 > hf-removal > reference"
    if cr["designed (plm)"] > cr["same-q:4"] > cr["rm-hf:3 @ qf100"] > 1.0
    else "\nunexpected rate ordering; inspect the corpus"
)
print("the designed table trades PSNR it does not need for rate:",
      f"{cr['designed (plm)']:.1f}x the reference at "
      f"{aggregates[specs['designed (plm)']]['mean_psnr_db']:.1f} dB")
