"""Measure a corpus's per-band coefficient spread, the signal behind the
quantization table design.

Run:  python demos/02_frequency_statistics.py
"""

import tempfile
from pathlib import Path

import numpy as np

from statjpeg import FrequencyStats, load_image, sample_images, scan_corpus
from statjpeg.metrics import band_coefficients, histogram
from statjpeg.stats import rank_bands, save_delta_csv, save_stats
from statjpeg.synth import generate_corpus

with tempfile.TemporaryDirectory(prefix="statjpeg_demo_") as tmp:
    workdir = Path(tmp)
    corpus = generate_corpus(workdir / "corpus", images_per_class=8, size=(96, 96))
    manifest = scan_corpus(corpus)
    print(f"corpus: {manifest.image_count} images, {len(manifest.classes)} classes")
    print(f"manifest digest: {manifest.digest[:16]}...")

    # --- interval sampling: every 2nd image of each class ------------------
    selected = sample_images(manifest, 2)
    print(f"sampling k=2 keeps {len(selected)} images")

    stats = FrequencyStats(source_digest=manifest.digest)
    for path in selected:
        stats.accumulate_image(load_image(path))
    summary = stats.finalize()
    print(f"accumulated {summary.total_blocks} blocks")

    # --- the spread landscape -----------------------------------------------
    deltas = summary.deltas()
    print("\nper-band standard deviation (natural order):")
    for row in deltas.reshape(8, 8):
        print("  " + " ".join(f"{v:7.2f}" for v in row))

    ranked = rank_bands(deltas)
    print("\ntop 6 bands by spread (the low-frequency set):", ranked[:6].tolist())
    print("AC band means stay near zero (symmetric distributions):")
    _, means, _ = summary.channels["y"]
    ac_means = means[1:]
    ac_stds = deltas[1:]
    print(f"  max |mean| / spread over AC bands: {np.max(np.abs(ac_means) / ac_stds):.4f}")

    # --- persistence + a histogram of one band -----------------------------
    save_stats(summary, workdir / "stats.json")
    save_delta_csv(summary, workdir / "deltas.csv")
    rows = histogram(band_coefficients(load_image(selected[0]), band=1), bin_width=4.0)
    peak = max(rows, key=lambda r: r[1])
    print(f"\nband 1 histogram of first image: {len(rows)} bins, peak at {peak[0]:+.0f}")
    print(f"wrote {sorted(p.name for p in workdir.iterdir())} to {workdir} (removed on exit)")
