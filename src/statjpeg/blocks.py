"""8x8 block partitioning with edge-replication padding and level shift."""

import numpy as np

from .dct import BLOCK_SIZE
from .errors import InvalidInputError


def block_grid(width, height):
    """Number of (rows, cols) of 8x8 blocks covering a width x height plane."""
    return -(-height // BLOCK_SIZE), -(-width // BLOCK_SIZE)


def partition_blocks(plane):
    """Split a plane into level-shifted 8x8 blocks in raster order.

    Right and bottom edges are padded by replicating the last column/row.
    Returns an (n_blocks, 8, 8) float64 array of samples shifted by -128.
    """
    plane = np.asarray(plane)
    if plane.size == 0:
        raise InvalidInputError("cannot partition an empty plane")
    height, width = plane.shape
    rows, cols = block_grid(width, height)
    pad_h = rows * BLOCK_SIZE - height
    pad_w = cols * BLOCK_SIZE - width
    if pad_h or pad_w:
        plane = np.pad(plane, ((0, pad_h), (0, pad_w)), mode="edge")
    # transpose the narrow samples; the level shift then writes float64 once
    tiles = np.ascontiguousarray(
        plane.reshape(rows, BLOCK_SIZE, cols, BLOCK_SIZE).transpose(0, 2, 1, 3)
    )
    blocks = np.subtract(tiles, 128.0, dtype=np.float64)
    return blocks.reshape(rows * cols, BLOCK_SIZE, BLOCK_SIZE)


def assemble_plane(pixel_blocks, width, height):
    """Inverse of :func:`partition_blocks` for decoded sample blocks.

    Takes real-valued (n_blocks, 8, 8) blocks (inverse-DCT output), rounds to
    the nearest integer, clamps to [-128, 127], un-shifts by +128, and crops
    the replication padding back to width x height.
    """
    rows, cols = block_grid(width, height)
    blocks = np.asarray(pixel_blocks)
    if blocks.shape != (rows * cols, BLOCK_SIZE, BLOCK_SIZE):
        raise InvalidInputError(
            f"expected {rows * cols} blocks for a {width}x{height} plane, "
            f"got shape {blocks.shape}"
        )
    # round half away from zero is trunc(x + copysign(0.5, x)); clamping to
    # integer bounds commutes with trunc, and the int16 cast truncates
    rounded = np.copysign(0.5, blocks, dtype=np.float64)
    np.add(blocks, rounded, out=rounded, dtype=np.float64)
    np.clip(rounded, -128, 127, out=rounded)
    shifted = rounded.astype(np.int16)
    shifted += 128
    padded = (
        shifted.reshape(rows, cols, BLOCK_SIZE, BLOCK_SIZE)
        .transpose(0, 2, 1, 3)
        .reshape(rows * BLOCK_SIZE, cols * BLOCK_SIZE)
    )
    return padded[:height, :width].astype(np.uint8)
