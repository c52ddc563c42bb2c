"""Reference pixel-path kernels: one expression per formula, float64 first.

These are the straightforward color, block and quantization kernels that
``statjpeg.color``, ``statjpeg.blocks`` and ``statjpeg.quant`` replaced with
in-place ones.  They are kept here, for tests only, as the oracle those
kernels are compared against: equal values, down to the sign of a zero.
"""

import numpy as np

from statjpeg.blocks import block_grid
from statjpeg.dct import BLOCK_SIZE
from statjpeg.image import RasterImage


def _round_clamp(plane):
    rounded = np.sign(plane) * np.floor(np.abs(plane) + 0.5)
    return np.clip(rounded, 0, 255).astype(np.uint8)


def rgb_to_ycbcr(r, g, b):
    r = np.asarray(r, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
    cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
    return y, cb, cr


def ycbcr_to_rgb(y, cb, cr):
    y = np.asarray(y, dtype=np.float64)
    cb = np.asarray(cb, dtype=np.float64) - 128.0
    cr = np.asarray(cr, dtype=np.float64) - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    return r, g, b


def color_convert_forward(img):
    y, cb, cr = rgb_to_ycbcr(*img.planes)
    return _round_clamp(y), _round_clamp(cb), _round_clamp(cr)


def color_convert_inverse(y, cb, cr):
    r, g, b = ycbcr_to_rgb(y, cb, cr)
    planes = (_round_clamp(r), _round_clamp(g), _round_clamp(b))
    h, w = planes[0].shape
    return RasterImage(w, h, planes)


def partition_blocks(plane):
    plane = np.asarray(plane)
    height, width = plane.shape
    rows, cols = block_grid(width, height)
    pad_h = rows * BLOCK_SIZE - height
    pad_w = cols * BLOCK_SIZE - width
    padded = np.pad(plane.astype(np.float64), ((0, pad_h), (0, pad_w)), mode="edge")
    blocks = (
        padded.reshape(rows, BLOCK_SIZE, cols, BLOCK_SIZE)
        .transpose(0, 2, 1, 3)
        .reshape(rows * cols, BLOCK_SIZE, BLOCK_SIZE)
    )
    return blocks - 128.0


def assemble_plane(pixel_blocks, width, height):
    rows, cols = block_grid(width, height)
    blocks = np.asarray(pixel_blocks, dtype=np.float64)
    rounded = np.sign(blocks) * np.floor(np.abs(blocks) + 0.5)
    shifted = np.clip(rounded, -128, 127) + 128
    padded = (
        shifted.reshape(rows, cols, BLOCK_SIZE, BLOCK_SIZE)
        .transpose(0, 2, 1, 3)
        .reshape(rows * BLOCK_SIZE, cols * BLOCK_SIZE)
    )
    return padded[:height, :width].astype(np.uint8)


def round_half_away(x):
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def quantize(coeffs, table):
    coeffs = np.asarray(coeffs, dtype=np.float64)
    return round_half_away(coeffs / table.grid()).astype(np.int32)


def dequantize(qblock, table):
    return np.asarray(qblock, dtype=np.float64) * table.grid()
