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
    for _ in range(passes):
        field = (
            field
            + np.roll(field, 1, 0) + np.roll(field, -1, 0)
            + np.roll(field, 1, 1) + np.roll(field, -1, 1)
        ) / 5.0
    return field


def _low_freq_field(rng, h, w, cell=8, amplitude=50.0):
    coarse = rng.normal(0.0, 1.0, size=(h // cell + 3, w // cell + 3))
    up = np.kron(coarse, np.ones((cell, cell)))
    # random crop phase: cell edges must not align with the 8x8 DCT grid,
    # or fixed-phase structure biases the AC band means
    dy, dx = rng.integers(0, cell, size=2)
    up = up[dy:dy + h, dx:dx + w]
    return amplitude * _smooth(up, passes=3)


def _base_luma(kind, rng, h, w):
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    if kind == "blobs":
        return 128 + _low_freq_field(rng, h, w, cell=12, amplitude=55) + rng.normal(
            0, 2.0, (h, w)
        )
    if kind == "gradients":
        gx, gy = rng.uniform(-1.2, 1.2, size=2)
        cx, cy = rng.uniform(0.2, 0.8) * w, rng.uniform(0.2, 0.8) * h
        radial = np.hypot(xx - cx, yy - cy) / max(h, w)
        return (
            128
            + gx * (xx - w / 2)
            + gy * (yy - h / 2)
            + rng.uniform(-60, 60) * radial
            + rng.normal(0, 3.0, (h, w))
        )
    if kind == "stripes":
        out = np.full((h, w), 128.0)
        for _ in range(3):
            freq = rng.uniform(0.03, 0.35)
            angle = rng.uniform(0, np.pi)
            phase = rng.uniform(0, 2 * np.pi)
            amp = rng.uniform(15, 45) / (1.0 + 6.0 * freq)
            out += amp * np.sin(
                2 * np.pi * freq * (np.cos(angle) * xx + np.sin(angle) * yy) + phase
            )
        return out + rng.normal(0, 4.0, (h, w))
    if kind == "speckle":
        grain = _smooth(rng.normal(0, 28.0, (h, w)), passes=1)
        return 128 + _low_freq_field(rng, h, w, cell=16, amplitude=35) + grain
    raise ValueError(f"unknown image kind {kind!r}")


def synth_image(kind, rng, height, width, color=True):
    """One deterministic image of the given class kind."""
    luma = _base_luma(kind, rng, height, width)
    if not color:
        return RasterImage.from_array(np.clip(luma, 0, 255).astype(np.uint8))
    channels = []
    for _ in range(3):
        tint = _low_freq_field(rng, height, width, cell=16, amplitude=12)
        channels.append(np.clip(luma + tint, 0, 255))
    return RasterImage.from_array(np.stack(channels, axis=-1).astype(np.uint8))


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
