import numpy as np
import pytest

from statjpeg.color import (
    color_convert_forward,
    color_convert_inverse,
    ycbcr_samples,
)
from statjpeg.errors import InvalidInputError
from statjpeg.image import RasterImage


def one_pixel(r, g, b):
    return RasterImage.from_array(np.array([[[r, g, b]]], dtype=np.uint8))


def evaluate_oracle(r, g, b):
    """Round the BT.601 formulas directly (half away from zero, clamp)."""
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = 128 - 0.168736 * r - 0.331264 * g + 0.5 * b
    cr = 128 + 0.5 * r - 0.418688 * g - 0.081312 * b
    out = []
    for value in (y, cb, cr):
        out.append(int(min(255, max(0, np.floor(abs(value) + 0.5) * np.sign(value)))))
    return tuple(out)


@pytest.mark.parametrize(
    "rgb,expected",
    [
        ((0, 0, 0), (0, 128, 128)),
        ((255, 255, 255), (255, 128, 128)),
        ((255, 0, 0), (76, 85, 255)),
    ],
)
def test_known_conversions(rgb, expected):
    planes = color_convert_forward(one_pixel(*rgb))
    assert tuple(int(p[0, 0]) for p in planes) == expected
    assert evaluate_oracle(*rgb) == expected


def test_rejects_grayscale():
    gray = RasterImage.from_array(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(InvalidInputError):
        color_convert_forward(gray)


def test_outputs_clamped_to_byte_range(rng):
    img = RasterImage.from_array(
        rng.integers(0, 256, size=(16, 16, 3)).astype(np.uint8)
    )
    for plane in color_convert_forward(img):
        assert plane.dtype == np.uint8


def test_forward_inverse_round_trip_error(rng):
    # Integer YCbCr costs at most +-0.5 per plane, amplified by the inverse
    # matrix (max gain 1.772) plus output rounding: error stays within 2.
    img = RasterImage.from_array(
        rng.integers(0, 256, size=(32, 32, 3)).astype(np.uint8)
    )
    back = color_convert_inverse(*color_convert_forward(img))
    diff = np.abs(back.to_array().astype(int) - img.to_array().astype(int))
    assert diff.max() <= 2


def test_float_formulas_match_matrix_identities():
    # Y of pure gray equals the gray level; chroma is neutral.
    gray = np.arange(256, dtype=np.uint8).reshape(16, 16)
    y, cb, cr = ycbcr_samples(gray, gray, gray)
    np.testing.assert_array_equal(y, gray.astype(np.float64), strict=True)
    np.testing.assert_array_equal(cb, np.full((16, 16), 128.0), strict=True)
    np.testing.assert_array_equal(cr, np.full((16, 16), 128.0), strict=True)
