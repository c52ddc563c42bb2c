"""Compression rate, reconstruction quality, and coefficient sparsity."""

from dataclasses import dataclass

import numpy as np

from . import jpeg
from .blocks import sample_strips
from .color import luma_samples
from .dct import forward_dct_rows
from .errors import InvalidInputError
from .quant import ZIGZAG_POSITION, integers, round_half_away

# perfbench/spans.py wraps these layer functions in this module by name, so
# they stay imported here although the strip pipeline no longer calls them.
from .blocks import partition_blocks  # noqa: F401
from .color import color_convert_forward  # noqa: F401
from .dct import forward_dct  # noqa: F401
from .quant import quantize  # noqa: F401


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
        return luma_samples(*img.planes)
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


def coefficient_sparsity(img, table):
    """Quantize the luma plane with ``table`` and count zeroed AC bands.

    The blocks are the encoder's own luma scan, drop set included, so the
    figures describe what the file stores.
    """
    zeros = jpeg._scan_blocks(img, [table])[0][:, ZIGZAG_POSITION[1:]] == 0
    return SparsityReport(
        zero_fraction=float(zeros.mean()),
        per_band=tuple(float(f) for f in zeros.mean(axis=0)),
    )


def band_coefficients(img, band):
    """Un-quantized DCT coefficients of one natural-order band (luma plane)."""
    (band,) = integers([band], "band index")
    if not 0 <= band <= 63:
        raise InvalidInputError(f"band index must be in [0, 63], got {band}")
    u, v = divmod(band, 8)
    strips = sample_strips(img, 1)
    return np.concatenate([forward_dct_rows(y)[u::8, v::8].ravel() for _, (y,) in strips])


def histogram(values, bin_width):
    """Deterministic binning centered at 0: rows of (bin_center, count).

    Bin k covers [(k - 0.5) * w, (k + 0.5) * w) by half-away rounding of
    value / w, so symmetric data yields a symmetric histogram.
    """
    if not 0 < bin_width < np.inf:  # NaN fails too
        raise InvalidInputError(f"bin width must be positive and finite, got {bin_width}")
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if values.size == 0:
        raise InvalidInputError("cannot histogram an empty selection")
    with np.errstate(over="ignore"):
        bins = round_half_away(values / bin_width)
    if not (np.abs(bins) < 2.0**63).all():  # NaN and inf fail too
        raise InvalidInputError("histogram values must be finite, within 2**63 bins of 0")
    centers, counts = np.unique(bins.astype(np.int64), return_counts=True)
    return [(float(c * bin_width), int(n)) for c, n in zip(centers, counts)]

