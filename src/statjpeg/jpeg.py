"""Baseline sequential JPEG encoder and decoder (4:4:4, caller-supplied tables).

Encoder and decoder keep no shared state: every call builds its own
entropy-coding session, and decoding uses only tables parsed back out of
the DQT/DHT segments of the file itself.

The pixel path runs one MCU-row strip at a time (``statjpeg.blocks``), in
the plane's own row layout; entropy coding sees whole-image ``(n, 64)``
zig-zag arrays, one call per image.
"""

import numpy as np

from . import huffman, jfif
from .blocks import block_grid, sample_strips, strip_bounds, unshift_samples
from .color import rgb_samples
from .dct import BLOCK_SIZE, forward_dct_rows, inverse_dct_rows
from .errors import UnsupportedSizeError
from .image import RasterImage
from .quant import dequantize_strip, inverse_zigzag, quantize_strip

# perfbench/spans.py wraps these layer functions in this module by name, so
# they stay imported here although the strip pipeline no longer calls them.
from .blocks import assemble_plane, partition_blocks  # noqa: F401
from .color import color_convert_forward, color_convert_inverse  # noqa: F401
from .dct import forward_dct, inverse_dct  # noqa: F401
from .quant import dequantize, quantize, zigzag  # noqa: F401

MAX_DIMENSION = 65535

# Annex-K Huffman tables by Huffman table id: 0 luma, 1 chroma.
_DC_TABLES = (huffman.DC_LUMA, huffman.DC_CHROMA)
_AC_TABLES = (huffman.AC_LUMA, huffman.AC_CHROMA)


def _component_layout(channels, single_table):
    """(component id, quantization table id, Huffman table id) per component."""
    chroma_tq = 0 if single_table else 1
    return [(1, 0, 0), (2, chroma_tq, 1), (3, chroma_tq, 1)][:channels]


def _scan_blocks(img, tables):
    """Zig-zag (n_blocks, 64) int32 quantized blocks, one array per table
    for the image's first ``len(tables)`` components.

    Per strip: color forward, level shift, DCT, quantization and the
    zig-zag gather, each in the strip's row layout.
    """
    rows, cols = block_grid(img.width, img.height)
    scans = [np.empty((rows * cols, 64), dtype=np.int32) for _ in tables]
    for first, strips in sample_strips(img, len(tables)):
        for strip, table, scan in zip(strips, tables, scans):
            quantize_strip(forward_dct_rows(strip), table, scan[first:])
    return scans


def encode_image(img, luma_table, chroma_table=None):
    """Encode a RasterImage into a JFIF byte stream.

    ``chroma_table=None`` selects single-table mode: the luma table is used
    for every component.  A table's drop set (see :class:`QuantTable`) is
    stored as zero in every block of the components it quantizes.
    """
    if img.width > MAX_DIMENSION or img.height > MAX_DIMENSION:
        raise UnsupportedSizeError(
            f"{img.width}x{img.height} exceeds the {MAX_DIMENSION} JFIF limit"
        )
    layout = _component_layout(img.channels, chroma_table is None)
    qtables = (luma_table, chroma_table)
    scan = huffman.entropy_encode(
        _scan_blocks(img, [qtables[tq] for _, tq, _ in layout]),
        [_DC_TABLES[th] for _, _, th in layout],
        [_AC_TABLES[th] for _, _, th in layout],
    )

    parts = [bytes([0xFF, jfif.SOI]), jfif.app0_segment()]
    for tq in sorted({tq for _, tq, _ in layout}):
        parts.append(jfif.dqt_segment(tq, qtables[tq]))
    parts.append(jfif.sof0_segment(
        img.width, img.height, [(cid, tq) for cid, tq, _ in layout]
    ))
    for th in sorted({th for _, _, th in layout}):
        parts.append(jfif.dht_segment(0, th, _DC_TABLES[th]))
        parts.append(jfif.dht_segment(1, th, _AC_TABLES[th]))
    parts.append(jfif.sos_segment([(cid, th, th) for cid, _, th in layout]))
    parts.append(scan)
    parts.append(bytes([0xFF, jfif.EOI]))
    return b"".join(parts)


def _decode(data):
    """Parse and entropy-decode a file.

    Returns (parsed, scans, tables) with one zig-zag (n_blocks, 64) int
    array and one QuantTable per component.
    """
    parsed = jfif.parse_jpeg(bytes(data))
    rows, cols = block_grid(parsed.width, parsed.height)
    scans = huffman.entropy_decode(
        parsed.scan_data,
        rows * cols,
        [parsed.htables[(0, c.dc_id)] for c in parsed.components],
        [parsed.htables[(1, c.ac_id)] for c in parsed.components],
        base_offset=parsed.scan_offset,
    )
    tables = [parsed.qtables[c.tq] for c in parsed.components]
    return parsed, scans, tables


def decode_coefficients(data):
    """Parse a file and return its quantized coefficient blocks.

    Returns (blocks, tables): one (n_blocks, 64) natural-order int array and
    one QuantTable per component.  Useful for inspecting what an encoder
    actually stored (e.g. which bands were zeroed).
    """
    _, scans, tables = _decode(data)
    return [inverse_zigzag(scan) for scan in scans], tables


def decode_image(data):
    """Decode a baseline sequential JFIF byte stream to a RasterImage.

    Per strip: the gather from zig-zag rows, dequantization, inverse DCT,
    rounding and color inverse, written into whole-image uint8 planes.
    """
    parsed, scans, tables = _decode(data)
    width, height = parsed.width, parsed.height
    cols = block_grid(width, height)[1]
    planes = [np.empty((height, width), dtype=np.uint8) for _ in scans]
    for top, stop in strip_bounds(width, height):
        block_rows = -(-(stop - top) // BLOCK_SIZE)
        first = top // BLOCK_SIZE * cols
        samples = [
            unshift_samples(inverse_dct_rows(dequantize_strip(
                scan[first:first + block_rows * cols], table, block_rows
            )))[:stop - top, :width]
            for scan, table in zip(scans, tables)
        ]
        if len(samples) == 3:
            samples = rgb_samples(*samples)
        for plane, strip in zip(planes, samples):
            plane[top:stop] = strip
    return RasterImage(width, height, tuple(planes))
