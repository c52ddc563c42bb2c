"""One sweep of malformed values over the library's integer and numeric inputs.

Each case passes one malformed value where an entry point takes an integer,
an integer array or a real array: a bool, a numeric string, a fraction, NaN,
a ragged list, or a value one past a bound.  Every case must raise a
StatJpegError subclass: nothing is accepted, and no bare TypeError or
ValueError escapes.
"""

from pathlib import Path

import numpy as np
import pytest

from statjpeg.corpus import CorpusManifest
from statjpeg.errors import StatJpegError
from statjpeg.huffman import AC_LUMA, DC_LUMA, entropy_decode, entropy_encode
from statjpeg.image import RasterImage
from statjpeg.metrics import band_coefficients, compression_rate, histogram
from statjpeg.quant import QuantTable
from statjpeg.stats import sample_images, spread_profile
from statjpeg.tables import rm_hf_table, same_q_table, standard_table

RAGGED = [[1.0], [2.0, 3.0]]
MALFORMED = {"bool": True, "string": "3", "fraction": 1.5, "nan": float("nan"), "ragged": RAGGED}
NOT_REAL = {k: v for k, v in MALFORMED.items() if k != "fraction"}  # 1.5 is a real value

GRAY = RasterImage(8, 8, (np.full((8, 8), 128, dtype=np.uint8),))
MANIFEST = CorpusManifest(Path("corpus"), (("a", (Path("a/1.ppm"), Path("a/2.ppm"))),), "d")


def profile(value):
    """64 copies of ``value`` as a list, or the ragged list itself."""
    return value if value is RAGGED else [value] * 64


def block_row(value):
    """One (1, 64) nested list of ``value``, or the ragged list itself."""
    return value if value is RAGGED else [[value] * 64]


# (entry point, call with the swept value, malformed values, values one past each bound)
ENTRY_POINTS = [
    ("standard_table", standard_table, MALFORMED, [0, 101]),
    ("same_q_table", same_q_table, MALFORMED, [0, 256]),
    ("rm_hf_table", lambda v: rm_hf_table(standard_table(50), v), MALFORMED, [-1, 64]),
    ("sample_images", lambda v: sample_images(MANIFEST, v), MALFORMED, [0]),
    ("band_coefficients", lambda v: band_coefficients(GRAY, v), MALFORMED, [-1, 64]),
    ("compression_rate-reference", lambda v: compression_rate(v, 100), MALFORMED, [0]),
    ("compression_rate-candidate", lambda v: compression_rate(100, v), MALFORMED, [0]),
    ("spread_profile", lambda v: spread_profile(profile(v)), NOT_REAL, [-1.0]),
    ("histogram-values", lambda v: histogram(profile(v), 1.0), NOT_REAL,
     [-(2.0**63), 2.0**63]),
    ("histogram-bin_width", lambda v: histogram([1.0], v), NOT_REAL, [0.0]),
    ("RasterImage-width", lambda v: RasterImage(v, 1, ([[5]],)), MALFORMED, [0]),
    ("RasterImage-height", lambda v: RasterImage(1, v, ([[5]],)), MALFORMED, [0]),
    ("RasterImage-samples", lambda v: RasterImage(64, 1, (block_row(v),)), MALFORMED,
     [-1, 256]),
    ("QuantTable-drop_zigzag", lambda v: QuantTable(np.ones(64), {"drop_zigzag": [v]}),
     MALFORMED, [-1, 64]),
    ("entropy_encode", lambda v: entropy_encode([block_row(v)], [DC_LUMA], [AC_LUMA]),
     MALFORMED, [-1024, 1024]),
    # one byte holds at most 4 blocks of 2 bits
    ("entropy_decode", lambda v: entropy_decode(b"\x00", v, [DC_LUMA], [AC_LUMA]),
     MALFORMED, [-1, 5]),
]

CASES = [
    pytest.param(call, value, id=f"{name}-{case}")
    for name, call, malformed, bounds in ENTRY_POINTS
    for case, value in [*malformed.items(), *((f"bound{b:+g}", b) for b in bounds)]
]


@pytest.mark.parametrize("call, value", CASES)
def test_malformed_input_raises_a_statjpeg_error(call, value):
    with pytest.raises(StatJpegError):
        call(value)
