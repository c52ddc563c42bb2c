"""8x8 block partitioning with edge-replication padding and level shift.

The codec's pixel path runs over MCU-row strips of whole block rows, as
libjpeg runs over iMCU rows, each kept in the plane's own row layout.
"""

import numpy as np

from .color import luma_samples, ycbcr_samples
from .dct import BLOCK_SIZE
from .errors import InvalidInputError

# Samples per strip.  A strip is as many whole block rows as this allows
# at the plane's width, and at least one: 64 rows at 512 wide, where a
# float64 strip is 256 KB, and a 96x96 image is one strip.
_STRIP_SAMPLES = 1 << 15


def block_grid(width, height):
    """Number of (rows, cols) of 8x8 blocks covering a width x height plane."""
    return -(-height // BLOCK_SIZE), -(-width // BLOCK_SIZE)


def strip_bounds(width, height):
    """``(top, stop)`` sample rows of each strip of a width x height plane."""
    step = max(1, _STRIP_SAMPLES // (width * BLOCK_SIZE)) * BLOCK_SIZE
    return [(top, min(top + step, height)) for top in range(0, height, step)]


def sample_strips(img, count):
    """Yield ``(first block, strips)`` for each strip of an image.

    ``strips`` holds one ``(8k, 8m)`` float64 array for each of the first
    ``count`` components (Y, Cb, Cr or gray), shifted by -128 and padded as
    :func:`partition_blocks` pads; at ``count`` 1 an RGB strip converts
    only Y.  ``first block`` is the raster index of the strip's first block.
    """
    cols = block_grid(img.width, img.height)[1]
    pad_w = cols * BLOCK_SIZE - img.width
    for top, stop in strip_bounds(img.width, img.height):
        rows = [plane[top:stop] for plane in img.planes]
        if img.channels == 1:
            samples = [rows[0].astype(np.float64)]
        elif count == 1:
            samples = [luma_samples(*rows)]
        else:
            samples = ycbcr_samples(*rows)
        pad_h = -(stop - top) % BLOCK_SIZE
        strips = []
        for strip in samples[:count]:
            strip -= 128.0
            if pad_h or pad_w:
                strip = np.pad(strip, ((0, pad_h), (0, pad_w)), mode="edge")
            strips.append(strip)
        yield top // BLOCK_SIZE * cols, strips
        del samples, strips, strip  # none is held while the next strip's are made


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


def round_samples(samples):
    """Round inverse-DCT output half away from zero and clamp it to
    [-128, 127], in place: the level-shifted samples, still float64."""
    # round half away from zero is trunc(x + copysign(0.5, x)), and clamping
    # to integer bounds commutes with trunc
    samples += np.copysign(0.5, samples)
    np.trunc(samples, out=samples)
    return np.clip(samples, -128, 127, out=samples)


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
    padded = (
        blocks.reshape(rows, cols, BLOCK_SIZE, BLOCK_SIZE)
        .transpose(0, 2, 1, 3)
        .astype(np.float64, order="C")
        .reshape(rows * BLOCK_SIZE, cols * BLOCK_SIZE)
    )
    samples = round_samples(padded)[:height, :width]
    samples += 128.0
    return samples.astype(np.uint8)
