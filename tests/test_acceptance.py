"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines live.
"""

import time

import numpy as np

from conftest import random_quantized_blocks
from statjpeg.blocks import partition_blocks
from statjpeg.dct import forward_dct, inverse_dct
from statjpeg.huffman import (
    AC_CHROMA,
    AC_LUMA,
    DC_CHROMA,
    DC_LUMA,
    entropy_decode,
    entropy_encode,
)
from statjpeg.image import RasterImage
from statjpeg.jfif import validate_structure
from statjpeg.jpeg import decode_image, encode_image
from statjpeg.metrics import coefficient_sparsity, psnr
from statjpeg.quant import QuantTable
from statjpeg.stats import FrequencyStats, sample_images
from statjpeg.imgfile import load_image
from statjpeg.synth import synth_image
from statjpeg.tables import (
    derive_plm_table,
    rm_hf_table,
    same_q_table,
    standard_table,
)

ONES = QuantTable(np.ones(64))


def check(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_entropy_losslessness():
    rng = np.random.default_rng(101)
    start = time.time()
    failures = 0
    n_sequences = 10_000
    for i in range(n_sequences):
        n_comp = 3 if i % 3 == 0 else 1
        n_mcus = 1 + i % 3
        density = (0.02, 0.2, 0.7)[i % 3]
        comps = [random_quantized_blocks(rng, n_mcus, density) for _ in range(n_comp)]
        dc = [DC_LUMA] + [DC_CHROMA] * (n_comp - 1)
        ac = [AC_LUMA] + [AC_CHROMA] * (n_comp - 1)
        decoded = entropy_decode(entropy_encode(comps, dc, ac), n_mcus, dc, ac)
        if not all(np.array_equal(a, b) for a, b in zip(comps, decoded)):
            failures += 1
    elapsed = time.time() - start
    check(
        1,
        failures == 0 and elapsed < 10.0,
        f"{n_sequences - failures}/{n_sequences} sequences exact, {elapsed:.1f}s",
    )


def test_criterion_2_dct_correctness():
    rng = np.random.default_rng(202)
    start = time.time()
    blocks = rng.uniform(-128, 127, size=(1000, 8, 8))
    recon = inverse_dct(forward_dct(blocks))
    max_err = float(np.abs(recon - blocks).max())

    spatial = (blocks**2).sum(axis=(1, 2))
    spectral = (forward_dct(blocks) ** 2).sum(axis=(1, 2))
    parseval_rel = float(np.abs(spatial - spectral).max() / spatial.min())

    coeffs = forward_dct(np.full((8, 8), 127.0))
    dc_ok = abs(coeffs[0, 0] - 1016.0) < 1e-9
    ac_ok = float(np.abs(coeffs.reshape(-1)[1:]).max()) < 1e-9
    elapsed = time.time() - start
    check(
        2,
        max_err <= 1e-9 and parseval_rel <= 1e-6 and dc_ok and ac_ok and elapsed < 5.0,
        f"round-trip {max_err:.2e}, parseval {parseval_rel:.2e}, "
        f"DC(127)={coeffs[0, 0]:.6f}, {elapsed:.1f}s",
    )


def test_criterion_3_near_lossless_path():
    # The <=2 bound is the DCT rounding-only bound, so the corpus is
    # single-component: the RGB path adds integer-YCbCr rounding that the
    # inverse color matrix amplifies past 2 (covered separately at <=4).
    rng = np.random.default_rng(303)
    start = time.time()
    worst = 0
    for _ in range(100):
        h, w = rng.integers(8, 129, size=2)
        img = RasterImage.from_array(rng.integers(0, 256, size=(h, w)).astype(np.uint8))
        out = decode_image(encode_image(img, ONES))
        worst = max(worst, int(np.abs(
            out.planes[0].astype(int) - img.planes[0].astype(int)
        ).max()))
    elapsed = time.time() - start
    check(3, worst <= 2 and elapsed < 30.0, f"max pixel error {worst}, {elapsed:.1f}s")


def test_criterion_4_plm_worked_values():
    start = time.time()
    deltas = np.zeros(64)
    deltas[1:5] = (20.0, 40.0, 60.0, 100.0)
    table = derive_plm_table(deltas)
    got = tuple(int(v) for v in table.values[:5])
    elapsed = time.time() - start
    check(
        4,
        got == (255, 60, 40, 20, 5) and elapsed < 1.0,
        f"delta (0,20,40,60,100) -> Q {got}, {elapsed:.2f}s",
    )


def test_criterion_5_streaming_statistics_oracle():
    rng = np.random.default_rng(505)
    start = time.time()
    kinds = ("blobs", "gradients", "stripes", "speckle")
    images = [
        synth_image(kinds[i % 4], np.random.default_rng(900 + i), 48, 48, color=False)
        for i in range(50)
    ]

    streaming = FrequencyStats()
    for img in images:
        streaming.accumulate_image(img)
    deltas = streaming.finalize().deltas()

    # two-pass oracle over all stored coefficients
    all_coeffs = np.concatenate(
        [forward_dct(partition_blocks(img.planes[0])).reshape(-1, 64) for img in images]
    )
    oracle = all_coeffs.std(axis=0)
    rel_err = float(np.abs(deltas - oracle).max() / oracle.max())

    shuffled = FrequencyStats()
    order = rng.permutation(len(images))
    for idx in order[: len(order) // 2]:
        shuffled.accumulate_image(images[idx])
    other = FrequencyStats()
    for idx in order[len(order) // 2:]:
        other.accumulate_image(images[idx])
    merged = shuffled.merge(other).finalize().deltas()
    merge_rel = float(np.abs(merged - deltas).max() / oracle.max())
    elapsed = time.time() - start
    check(
        5,
        rel_err <= 1e-9 and merge_rel <= 1e-9 and elapsed < 30.0,
        f"two-pass rel err {rel_err:.2e}, merge-order rel err {merge_rel:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_6_sparsity_trend(bundled_manifest):
    start = time.time()
    paths = bundled_manifest.image_paths()
    assert len(paths) >= 50
    fractions = {}
    for qf in (20, 60, 80):
        table = standard_table(qf)
        fractions[qf] = float(np.mean([
            coefficient_sparsity(load_image(p), table).zero_fraction for p in paths
        ]))
    elapsed = time.time() - start
    strict = fractions[20] > fractions[60] > fractions[80]
    check(
        6,
        strict and elapsed < 60.0,
        f"zero fraction QF20={fractions[20]:.4f} > QF60={fractions[60]:.4f} "
        f"> QF80={fractions[80]:.4f}, {elapsed:.1f}s",
    )


def test_criterion_7_compression_rate_ordering(bundled_manifest):
    start = time.time()
    paths = sample_images(bundled_manifest, 1)

    stats = FrequencyStats()
    for path in paths:
        stats.accumulate_image(load_image(path))
    plm = derive_plm_table(stats.finalize().deltas())

    ref_luma, ref_chroma = standard_table(100, "luma"), standard_table(100, "chroma")
    rm_luma = rm_hf_table(ref_luma, 3)
    rm_chroma = rm_hf_table(ref_chroma, 3)
    sq4 = same_q_table(4)

    totals = {"qf100": 0, "plm": 0, "same-q4": 0, "rm-hf3": 0}
    for path in paths:
        img = load_image(path)
        totals["qf100"] += len(encode_image(img, ref_luma, ref_chroma))
        totals["plm"] += len(encode_image(img, plm))
        totals["same-q4"] += len(encode_image(img, sq4))
        totals["rm-hf3"] += len(encode_image(img, rm_luma, rm_chroma))
    cr = {k: totals["qf100"] / v for k, v in totals.items()}
    elapsed = time.time() - start

    ordering = cr["plm"] > cr["same-q4"] > cr["rm-hf3"] > 1.0 and cr["qf100"] == 1.0
    soft = cr["plm"] >= 2.0
    detail = (
        f"CR plm={cr['plm']:.2f} > same-q4={cr['same-q4']:.2f} "
        f"> rm-hf3={cr['rm-hf3']:.3f} > qf100={cr['qf100']:.1f}, {elapsed:.1f}s"
    )
    print(
        f"[acceptance] criterion 7 soft check: CR(plm) >= 2.0 "
        f"{'holds' if soft else 'MISSED (reported, non-fatal)'} at {cr['plm']:.2f}"
    )
    check(7, ordering and elapsed < 120.0, detail)


def test_criterion_8_psnr_report_per_source(bundled_manifest):
    # Classifier-accuracy quality axes need DNN training and are out of
    # scope at desk scale; the visible quality signal is PSNR per source.
    start = time.time()
    paths = bundled_manifest.image_paths()[::8]

    stats = FrequencyStats()
    for path in paths:
        stats.accumulate_image(load_image(path))
    plm = derive_plm_table(stats.finalize().deltas())
    rm_luma = rm_hf_table(standard_table(100, "luma"), 3)
    rm_chroma = rm_hf_table(standard_table(100, "chroma"), 3)

    sources = {
        "standard-qf:100": lambda img: encode_image(
            img, standard_table(100, "luma"), standard_table(100, "chroma")
        ),
        "standard-qf:50": lambda img: encode_image(
            img, standard_table(50, "luma"), standard_table(50, "chroma")
        ),
        "plm": lambda img: encode_image(img, plm),
        "same-q:4": lambda img: encode_image(img, same_q_table(4)),
        "rm-hf:3": lambda img: encode_image(img, rm_luma, rm_chroma),
    }
    report = {}
    for label, encode in sources.items():
        values = []
        for path in paths:
            img = load_image(path)
            quality = psnr(img, decode_image(encode(img)))
            values.append(np.inf if quality.lossless else quality.psnr)
        report[label] = float(np.mean(values))
    elapsed = time.time() - start
    for label, value in report.items():
        print(f"[acceptance] criterion 8 psnr report: {label}: {value:.2f} dB")
    ok = all(np.isfinite(v) and v > 10.0 for v in report.values())
    check(8, ok, f"PSNR reported for {len(report)} table sources, {elapsed:.1f}s")


def test_criterion_9_file_format_conformance():
    rng = np.random.default_rng(909)
    start = time.time()
    gray = RasterImage.from_array(rng.integers(0, 256, size=(24, 17)).astype(np.uint8))
    color = RasterImage.from_array(
        rng.integers(0, 256, size=(16, 16, 3)).astype(np.uint8)
    )
    emitted = [
        encode_image(gray, ONES),
        encode_image(gray, standard_table(50)),
        encode_image(color, standard_table(75, "luma"), standard_table(75, "chroma")),
        encode_image(color, same_q_table(4)),
        encode_image(color, rm_hf_table(ONES, 3), rm_hf_table(ONES, 3)),
        encode_image(synth_image("stripes", rng, 40, 40), derive_plm_table(
            np.linspace(90, 0, 64)
        )),
    ]
    problems = [validate_structure(data) for data in emitted]
    elapsed = time.time() - start
    # interop beyond the internal validator is exercised in
    # test_jpeg.py::test_interop_pillow_reads_our_files and documented in
    # the README interoperability note
    check(
        9,
        all(p == [] for p in problems) and elapsed < 5.0,
        f"{len(emitted)} emitted files conform exactly, {elapsed:.1f}s",
    )
