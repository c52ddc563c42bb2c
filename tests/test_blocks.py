from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from statjpeg import blocks
from statjpeg.blocks import assemble_plane, block_grid, partition_blocks, sample_strips
from statjpeg.errors import InvalidInputError
from statjpeg.image import RasterImage


def test_single_block_plane():
    plane = np.arange(64, dtype=np.uint8).reshape(8, 8)
    blocks = partition_blocks(plane)
    assert blocks.shape == (1, 8, 8)
    np.testing.assert_array_equal(blocks[0], plane.astype(float) - 128)


def test_nine_wide_plane_replicates_last_column(rng):
    plane = rng.integers(0, 256, size=(8, 9)).astype(np.uint8)
    blocks = partition_blocks(plane)
    assert blocks.shape == (2, 8, 8)
    # second block's column 0 is source column 8; columns 1..7 replicate it
    np.testing.assert_array_equal(blocks[1][:, 0], plane[:, 8] - 128.0)
    for col in range(1, 8):
        np.testing.assert_array_equal(blocks[1][:, col], blocks[1][:, 0])


def test_constant_midgray_levels_to_zero():
    plane = np.full((16, 16), 128, dtype=np.uint8)
    blocks = partition_blocks(plane)
    assert blocks.shape == (4, 8, 8)
    assert np.all(blocks == 0)


def test_empty_plane_rejected():
    with pytest.raises(InvalidInputError):
        partition_blocks(np.zeros((0, 0)))


def test_block_grid_counts():
    assert block_grid(8, 8) == (1, 1)
    assert block_grid(9, 8) == (1, 2)
    assert block_grid(17, 25) == (4, 3)


def test_assemble_inverts_partition(rng):
    for h, w in ((8, 8), (11, 13), (24, 9)):
        plane = rng.integers(0, 256, size=(h, w)).astype(np.uint8)
        blocks = partition_blocks(plane)
        np.testing.assert_array_equal(assemble_plane(blocks, w, h), plane)


def test_assemble_rounds_and_clamps():
    blocks = np.full((1, 8, 8), 300.0)  # beyond the clamp range
    plane = assemble_plane(blocks, 8, 8)
    assert np.all(plane == 255)
    blocks = np.full((1, 8, 8), -0.5)  # half away from zero -> -1
    assert np.all(assemble_plane(blocks, 8, 8) == 127)


@settings(max_examples=60)
@given(
    data=st.data(),
    # gray, luma-only RGB and 3-component RGB
    layout=st.sampled_from([(1, 1), (3, 1), (3, 3)]),
    # one block row per strip, a few rows, one strip per image
    strip_samples=st.sampled_from([1, 300, 1 << 40]),
)
def test_sample_strips_hold_integers_in_the_shifted_sample_range(data, layout, strip_samples):
    # FrequencyStats sums exact integer products of these samples
    channels, count = layout
    height, width = data.draw(st.tuples(st.integers(1, 45), st.integers(1, 45)))
    img = RasterImage(width, height, tuple(
        data.draw(hnp.arrays(np.uint8, (height, width))) for _ in range(channels)
    ))
    rows, cols = block_grid(width, height)
    seen = 0
    with mock.patch.object(blocks, "_STRIP_SAMPLES", strip_samples):
        for first, strips in sample_strips(img, count):
            assert first == seen and len(strips) == count
            for strip in strips:
                assert strip.dtype == np.float64 and strip.shape[1] == cols * 8
                assert np.array_equal(strip, np.trunc(strip))
                assert strip.min() >= -128 and strip.max() <= 127
            seen += strip.shape[0] // 8 * cols
    assert seen == rows * cols
