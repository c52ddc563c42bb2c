"""Compression rate, reconstruction quality, and coefficient sparsity."""

from dataclasses import dataclass

import numpy as np

from .blocks import partition_blocks
from .color import color_convert_forward
from .dct import forward_dct
from .errors import InvalidInputError
from .quant import ZIGZAG_INDEX, drop_positions, quantize, round_half_away


def compression_rate(reference_bytes, candidate_bytes):
    if reference_bytes <= 0 or candidate_bytes <= 0:
        raise InvalidInputError(
            f"byte counts must be positive, got {reference_bytes}/{candidate_bytes}"
        )
    return reference_bytes / candidate_bytes


@dataclass(frozen=True)
class QualityReport:
    """Mean squared error and PSNR; ``psnr`` is None when reconstruction is
    exact (the 'lossless' sentinel)."""

    mse: float
    psnr: float = None

    @property
    def lossless(self):
        return self.mse == 0.0


def _luma_plane(img):
    if img.channels == 3:
        return color_convert_forward(img)[0]
    return img.planes[0]


def psnr(original, decoded):
    """Quality of ``decoded`` against ``original`` on the luma plane."""
    if (original.width, original.height, original.channels) != (
        decoded.width,
        decoded.height,
        decoded.channels,
    ):
        raise InvalidInputError(
            f"geometry mismatch: {original.width}x{original.height}x{original.channels}"
            f" vs {decoded.width}x{decoded.height}x{decoded.channels}"
        )
    d = np.subtract(_luma_plane(original), _luma_plane(decoded), dtype=np.float64)
    mse = float(np.mean(d * d))
    if mse == 0.0:
        return QualityReport(mse=0.0, psnr=None)
    return QualityReport(mse=mse, psnr=float(10.0 * np.log10(255.0**2 / mse)))


@dataclass(frozen=True)
class SparsityReport:
    """Fraction of quantized AC coefficients that are zero."""

    zero_fraction: float
    per_band: tuple  # 63 AC bands, natural order indices 1..63


def coefficient_sparsity(img, table, *, drop_zigzag=()):
    """Quantize the luma plane with ``table`` and count zeroed AC bands.

    ``drop_zigzag`` is the encoder's drop set: those zig-zag positions are
    zeroed before counting, so the figures describe what the file stores.
    """
    plane = _luma_plane(img)
    blocks = partition_blocks(plane)
    quantized = quantize(forward_dct(blocks), table).reshape(-1, 64)
    quantized[:, ZIGZAG_INDEX[drop_positions(drop_zigzag)]] = 0
    zeros = quantized == 0
    return SparsityReport(
        zero_fraction=float(zeros[:, 1:].mean()),
        per_band=tuple(float(f) for f in zeros[:, 1:].mean(axis=0)),
    )


def band_coefficients(img, band):
    """Un-quantized DCT coefficients of one natural-order band (luma plane)."""
    if not 0 <= band <= 63:
        raise InvalidInputError(f"band index must be in [0, 63], got {band}")
    plane = _luma_plane(img)
    coeffs = forward_dct(partition_blocks(plane)).reshape(-1, 64)
    return coeffs[:, band]


def histogram(values, bin_width):
    """Deterministic binning centered at 0: rows of (bin_center, count).

    Bin k covers [(k - 0.5) * w, (k + 0.5) * w) by half-away rounding of
    value / w, so symmetric data yields a symmetric histogram.
    """
    if bin_width <= 0:
        raise InvalidInputError(f"bin width must be positive, got {bin_width}")
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if values.size == 0:
        raise InvalidInputError("cannot histogram an empty selection")
    idx = round_half_away(values / bin_width).astype(np.int64)
    centers, counts = np.unique(idx, return_counts=True)
    return [(float(c * bin_width), int(n)) for c, n in zip(centers, counts)]

