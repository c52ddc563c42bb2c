"""Differential tests: the in-place pixel kernels against the reference ones.

Every kernel must return what the reference formula in ``pixel_oracle``
returns: the same dtype, shape and values, down to the sign of a zero.
The codec's strip pipeline must match those kernels run over whole planes.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import pixel_oracle as oracle
from statjpeg import blocks, color, jpeg, quant
from statjpeg.dct import forward_dct, inverse_dct
from statjpeg.image import RasterImage
from statjpeg.metrics import band_coefficients, coefficient_sparsity
from statjpeg.quant import QuantTable, inverse_zigzag, zigzag
from statjpeg.stats import LUMA_ONLY, PER_CHANNEL, FrequencyStats


def assert_identical(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


# Rounding inputs: ties at +-(k + 0.5), signed zeros, values just off a
# tie, integers beyond 2**52 (where x + 0.5 itself rounds) and +-inf.
TIES = st.integers(-300, 300).map(lambda k: k + 0.5)
NEAR_TIES = TIES.map(lambda t: np.nextafter(t, np.inf if t > 0 else -np.inf))
HUGE = st.floats(2.0**52, 2.0**60) | st.floats(-(2.0**60), -(2.0**52))
ROUNDING_VALUES = (
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 0.49999999999999994, np.inf, -np.inf])
    | TIES
    | NEAR_TIES
    | HUGE
    | st.floats(allow_nan=False)
)


SPECIALS = np.array([0.0, -0.0, 0.5, -0.5, np.inf, -np.inf, 2.0**53 + 1, -(2.0**52) - 1])


def rounding_array(seed, shape):
    """``shape`` floats from ``seed``: a quarter ties, a quarter the values in
    SPECIALS, the rest uniform over [-300, 300] (beyond the clamp ranges)."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(-300, 300, shape)
    kind = rng.integers(4, size=shape)
    values[kind == 0] = np.floor(values[kind == 0]) + 0.5
    values[kind == 1] = rng.choice(SPECIALS, size=int((kind == 1).sum()))
    return values


@given(st.lists(ROUNDING_VALUES, min_size=1, max_size=64))
def test_round_half_away(values):
    x = np.array(values)
    assert_identical(quant.round_half_away(x), oracle.round_half_away(x))


@given(ROUNDING_VALUES)
def test_round_half_away_scalar(value):
    assert_identical(quant.round_half_away(value), oracle.round_half_away(value))


@given(
    hnp.arrays(np.float64, (8, 8), elements=ROUNDING_VALUES),
    hnp.arrays(np.int64, 64, elements=st.integers(1, 255)),
)
def test_quantize_and_dequantize(quotients, steps):
    table = QuantTable(steps)
    # The products are exact for ties, so c / q lands on them again.  Huge
    # quotients overflow to inf, and inf or |c / q| >= 2**31 has no int32.
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = quotients * table.grid()
        got, want = quant.quantize(coeffs, table), oracle.quantize(coeffs, table)
    assert_identical(got, want)
    assert_identical(quant.dequantize(got, table), oracle.dequantize(want, table))


PLANE_SIDES = st.tuples(st.integers(1, 40), st.integers(1, 40))
PLANE_ELEMENTS = {
    np.uint8: st.integers(0, 255),
    np.int64: st.integers(-1000, 1000),
    np.float32: st.floats(-300, 600, width=32),
}


@pytest.mark.parametrize("dtype", list(PLANE_ELEMENTS), ids=lambda d: d.__name__)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_partition_and_assemble(dtype, data, seed):
    plane = data.draw(hnp.arrays(dtype, PLANE_SIDES, elements=PLANE_ELEMENTS[dtype]))
    height, width = plane.shape
    got = blocks.partition_blocks(plane)
    want = oracle.partition_blocks(plane)
    assert_identical(got, want)
    assert_identical(
        blocks.assemble_plane(got, width, height),
        oracle.assemble_plane(want, width, height),
    )
    # real-valued samples as an inverse DCT returns them: ties, signed
    # zeros and values beyond the clamp range
    noise = rounding_array(seed, got.shape)
    assert_identical(
        blocks.assemble_plane(noise, width, height),
        oracle.assemble_plane(noise, width, height),
    )


COLOR_DTYPES = {
    np.uint8: st.integers(0, 255),
    np.int64: st.integers(-1000, 1000),
    np.float32: st.floats(-300, 600, width=32),
    np.float64: st.floats(-300, 600),
}


@pytest.mark.parametrize("dtype", list(COLOR_DTYPES), ids=lambda d: d.__name__)
@given(data=st.data())
def test_color_formulas(dtype, data):
    shape = data.draw(PLANE_SIDES)
    planes = [
        data.draw(hnp.arrays(dtype, shape, elements=COLOR_DTYPES[dtype])) for _ in range(3)
    ]
    for got, want in zip(color.rgb_to_ycbcr(*planes), oracle.rgb_to_ycbcr(*planes)):
        assert_identical(got, want)
    for got, want in zip(color.ycbcr_to_rgb(*planes), oracle.ycbcr_to_rgb(*planes)):
        assert_identical(got, want)
    # the Y-only kernel: the oracle's rounded Y, and ycbcr_samples' Y
    luma = color.luma_samples(*planes)
    want = oracle._round_clamp(oracle.rgb_to_ycbcr(*planes)[0])
    assert_identical(luma, want.astype(np.float64))
    assert_identical(luma, color.ycbcr_samples(*planes)[0])


@given(st.lists(st.integers(0, 255) | st.floats(-300, 600), min_size=3, max_size=3))
def test_color_formulas_on_scalars(values):
    for fn, ref in (
        (color.rgb_to_ycbcr, oracle.rgb_to_ycbcr),
        (color.ycbcr_to_rgb, oracle.ycbcr_to_rgb),
    ):
        for got, want in zip(fn(*values), ref(*values)):
            assert_identical(got, want)


@given(st.data())
def test_color_convert(data):
    shape = data.draw(PLANE_SIDES)
    planes = [data.draw(hnp.arrays(np.uint8, shape)) for _ in range(3)]
    img = RasterImage(shape[1], shape[0], tuple(planes))
    for got, want in zip(
        color.color_convert_forward(img), oracle.color_convert_forward(img)
    ):
        assert_identical(got, want)
    got = color.color_convert_inverse(*planes)
    want = oracle.color_convert_inverse(*planes)
    for got_plane, want_plane in zip(got.planes, want.planes):
        assert_identical(got_plane, want_plane)


STEPS = hnp.arrays(np.int64, 64, elements=st.integers(1, 255))


@settings(max_examples=40)
@given(
    data=st.data(),
    channels=st.sampled_from([1, 3]),
    # one block row per strip, a few rows, one strip per image
    strip_samples=st.sampled_from([1, 300, 1 << 40]),
)
def test_strip_pipeline_matches_whole_plane_reference(data, channels, strip_samples):
    height, width = data.draw(st.tuples(st.integers(1, 70), st.integers(1, 40)))
    img = RasterImage(width, height, tuple(
        data.draw(hnp.arrays(np.uint8, (height, width))) for _ in range(channels)
    ))
    drop = sorted(set(data.draw(st.lists(st.integers(0, 63), max_size=5))))
    luma = QuantTable(data.draw(STEPS), provenance={"drop_zigzag": drop})
    chroma = QuantTable(data.draw(STEPS))
    tables = [luma, chroma, chroma][:channels]
    planes = img.planes if channels == 1 else oracle.color_convert_forward(img)
    coeffs = [forward_dct(oracle.partition_blocks(plane)) for plane in planes]
    want_scans = [zigzag(oracle.quantize(c, t).reshape(-1, 64)) for c, t in zip(coeffs, tables)]
    want_scans[0][:, drop] = 0
    want_pixels = [
        oracle.assemble_plane(
            inverse_dct(oracle.dequantize(inverse_zigzag(scan).reshape(-1, 8, 8), table)),
            width, height,
        )
        for scan, table in zip(want_scans, tables)
    ]
    if channels == 3:
        want_pixels = oracle.color_convert_inverse(*want_pixels).planes
    modes = [LUMA_ONLY, PER_CHANNEL] if channels == 3 else [LUMA_ONLY]
    want_stats = {mode: FrequencyStats(mode) for mode in modes}
    for channel, plane_coeffs in zip(("y", "chroma", "chroma"), coeffs):
        c = plane_coeffs.reshape(-1, 64)
        mean = c.mean(axis=0)
        for reference in want_stats.values():
            if channel in reference.moments:
                reference._merge_moments(channel, len(c), mean, ((c - mean) ** 2).sum(axis=0))
    band = data.draw(st.integers(0, 63))
    want_zeros = inverse_zigzag(want_scans[0])[:, 1:] == 0

    with mock.patch.object(blocks, "_STRIP_SAMPLES", strip_samples):
        scans = jpeg._scan_blocks(img, tables)
        decoded = jpeg.decode_image(jpeg.encode_image(img, luma, chroma))
        stats = {mode: FrequencyStats(mode).accumulate_image(img) for mode in modes}
        sparsity = coefficient_sparsity(img, luma)
        band_values = band_coefficients(img, band)
    for got, want in zip(scans, want_scans):
        assert_identical(got, want)
    for got, want in zip(decoded.planes, want_pixels):
        assert_identical(got, want)
    for mode, want_mode in want_stats.items():
        for channel, moments in want_mode.moments.items():
            for got, want in zip(stats[mode].moments[channel], moments):
                np.testing.assert_array_equal(got, want, strict=True)
    assert sparsity.per_band == tuple(want_zeros.mean(axis=0).tolist())
    assert_identical(band_values, coeffs[0].reshape(-1, 64)[:, band].copy())
