"""Deterministic synthetic corpus with natural-image-like spectra.

Real photographic corpora are too large to ship; these generators produce
class-structured images whose DCT band spreads decay with frequency the way
natural photographs' do (strong DC, mid-frequency structure, weak but
nonzero high-frequency texture), which is what the statistics pipeline and
the rate benchmarks need to behave meaningfully.
"""

from pathlib import Path

import numpy as np

from .image import RasterImage
from .imgfile import save_ppm

DEFAULT_CLASSES = ("blobs", "gradients", "stripes", "speckle")


def _smooth(field, passes=2):
    """``passes`` rounds of the wrap-around 5-point mean; ``field`` is scratch.

    Each element sums itself, then its neighbours above, below, left and
    right, in that order, so the result is the same as adding four
    ``np.roll`` copies, with one accumulator instead of them.
    """
    acc = np.empty_like(field)
    for _ in range(passes):
        np.add(field[1:], field[:-1], out=acc[1:])
        np.add(field[:1], field[-1:], out=acc[:1])
        acc[:-1] += field[1:]
        acc[-1:] += field[:1]
        acc[:, 1:] += field[:, :-1]
        acc[:, :1] += field[:, -1:]
        acc[:, :-1] += field[:, 1:]
        acc[:, -1:] += field[:, :1]
        acc /= 5.0
        field, acc = acc, field
    return field


def _low_freq_field(rng, h, w, cell=8, amplitude=50.0):
    coarse = rng.normal(0.0, 1.0, size=(h // cell + 3, w // cell + 3))
    # random crop phase: cell edges must not align with the 8x8 DCT grid,
    # or fixed-phase structure biases the AC band means
    dy, dx = rng.integers(0, cell, size=2)
    # each coarse value fills a cell x cell square, read by index
    rows = (np.arange(h) + dy) // cell
    cols = (np.arange(w) + dx) // cell
    field = _smooth(coarse[rows[:, None], cols], passes=3)
    field *= amplitude
    return field


def _base_luma(kind, rng, h, w):
    # Coordinates broadcast as a column and a row; the sums below keep the
    # order of full-plane expressions, term by term, into one array.
    yy = np.arange(h, dtype=np.float64)[:, None]
    xx = np.arange(w, dtype=np.float64)
    if kind == "blobs":
        luma = _low_freq_field(rng, h, w, cell=12, amplitude=55)
        luma += 128
        luma += rng.normal(0, 2.0, (h, w))
        return luma
    if kind == "gradients":
        gx, gy = rng.uniform(-1.2, 1.2, size=2)
        cx, cy = rng.uniform(0.2, 0.8) * w, rng.uniform(0.2, 0.8) * h
        radial = np.hypot(xx - cx, yy - cy)
        radial /= max(h, w)
        luma = 128 + gx * (xx - w / 2) + gy * (yy - h / 2)
        radial *= rng.uniform(-60, 60)
        luma += radial
        luma += rng.normal(0, 3.0, (h, w))
        return luma
    if kind == "stripes":
        luma = np.full((h, w), 128.0)
        wave = np.empty((h, w))
        for _ in range(3):
            freq = rng.uniform(0.03, 0.35)
            angle = rng.uniform(0, np.pi)
            phase = rng.uniform(0, 2 * np.pi)
            amp = rng.uniform(15, 45) / (1.0 + 6.0 * freq)
            np.add(np.cos(angle) * xx, np.sin(angle) * yy, out=wave)
            wave *= 2 * np.pi * freq
            wave += phase
            np.sin(wave, out=wave)
            wave *= amp
            luma += wave
        luma += rng.normal(0, 4.0, (h, w))
        return luma
    if kind == "speckle":
        grain = _smooth(rng.normal(0, 28.0, (h, w)), passes=1)
        luma = _low_freq_field(rng, h, w, cell=16, amplitude=35)
        luma += 128
        luma += grain
        return luma
    raise ValueError(f"unknown image kind {kind!r}")


def synth_image(kind, rng, height, width, color=True):
    """One deterministic image of the given class kind."""
    luma = _base_luma(kind, rng, height, width)
    if not color:
        return RasterImage.from_array(np.clip(luma, 0, 255, out=luma).astype(np.uint8))
    pixels = np.empty((height, width, 3), dtype=np.uint8)
    for c in range(3):
        tint = _low_freq_field(rng, height, width, cell=16, amplitude=12)
        tint += luma
        pixels[:, :, c] = np.clip(tint, 0, 255, out=tint)
        del tint  # or it is still held while the next channel's is built
    return RasterImage.from_array(pixels)


def generate_corpus(
    root,
    classes=DEFAULT_CLASSES,
    images_per_class=16,
    size=(96, 96),
    seed=20240801,
):
    """Write a class-per-directory RGB PPM corpus under ``root``; returns root."""
    root = Path(root)
    height, width = size
    for class_index, kind in enumerate(classes):
        class_dir = root / kind
        class_dir.mkdir(parents=True, exist_ok=True)
        for i in range(images_per_class):
            rng = np.random.default_rng(seed + 1000 * class_index + i)
            img = synth_image(kind, rng, height, width)
            save_ppm(img, class_dir / f"{kind}_{i:03d}.ppm")
    return root
