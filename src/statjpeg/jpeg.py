"""Baseline sequential JPEG encoder and decoder (4:4:4, caller-supplied tables).

Encoder and decoder keep no shared state: every call builds its own
entropy-coding session, and decoding uses only tables parsed back out of
the DQT/DHT segments of the file itself.
"""

from . import huffman, jfif
from .blocks import assemble_plane, block_grid, partition_blocks
from .color import color_convert_forward, color_convert_inverse
from .dct import forward_dct, inverse_dct
from .errors import UnsupportedSizeError
from .image import RasterImage
from .quant import dequantize, drop_positions, inverse_zigzag, quantize, zigzag

MAX_DIMENSION = 65535


def _plane_to_scan_blocks(plane, table, drop_zigzag):
    """plane -> level shift -> DCT -> quantize -> zig-zag (n, 64) int array."""
    blocks = partition_blocks(plane)
    coeffs = forward_dct(blocks)
    quantized = quantize(coeffs, table)
    scan = zigzag(quantized.reshape(-1, 64))
    scan[:, drop_zigzag] = 0
    return scan


# Annex-K Huffman tables by Huffman table id: 0 luma, 1 chroma.
_DC_TABLES = (huffman.DC_LUMA, huffman.DC_CHROMA)
_AC_TABLES = (huffman.AC_LUMA, huffman.AC_CHROMA)


def _component_layout(channels, single_table):
    """(component id, quantization table id, Huffman table id) per component."""
    chroma_tq = 0 if single_table else 1
    return [(1, 0, 0), (2, chroma_tq, 1), (3, chroma_tq, 1)][:channels]


def encode_image(img, luma_table, chroma_table=None, *, drop_zigzag=()):
    """Encode a RasterImage into a JFIF byte stream.

    ``chroma_table=None`` selects single-table mode: the luma table is used
    for every component.  ``drop_zigzag`` lists zig-zag positions whose
    quantized coefficients are forced to zero in every block (the
    high-frequency removal baseline).
    """
    if img.width > MAX_DIMENSION or img.height > MAX_DIMENSION:
        raise UnsupportedSizeError(
            f"{img.width}x{img.height} exceeds the {MAX_DIMENSION} JFIF limit"
        )
    drop = drop_positions(drop_zigzag)

    layout = _component_layout(img.channels, chroma_table is None)
    qtables = (luma_table, chroma_table)
    planes = img.planes if img.channels == 1 else color_convert_forward(img)
    component_blocks = [
        _plane_to_scan_blocks(plane, qtables[tq], drop)
        for plane, (_, tq, _) in zip(planes, layout)
    ]
    scan = huffman.entropy_encode(
        component_blocks,
        [_DC_TABLES[th] for _, _, th in layout],
        [_AC_TABLES[th] for _, _, th in layout],
    )

    parts = [bytes([0xFF, jfif.SOI]), jfif.app0_segment()]
    for tq in sorted({tq for _, tq, _ in layout}):
        parts.append(jfif.dqt_segment(tq, qtables[tq]))
    parts.append(jfif.sof0_segment(
        img.width, img.height, [(cid, 1, 1, tq) for cid, tq, _ in layout]
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

    Returns (parsed, blocks, tables) with one natural-order (n_blocks, 64)
    int array and one QuantTable per component.
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
    blocks = [inverse_zigzag(scan) for scan in scans]
    tables = [parsed.qtables[c.tq] for c in parsed.components]
    return parsed, blocks, tables


def decode_coefficients(data):
    """Parse a file and return its quantized coefficient blocks.

    Returns (blocks, tables): one (n_blocks, 64) natural-order int array and
    one QuantTable per component.  Useful for inspecting what an encoder
    actually stored (e.g. which bands were zeroed).
    """
    _, blocks, tables = _decode(data)
    return blocks, tables


def decode_image(data):
    """Decode a baseline sequential JFIF byte stream to a RasterImage."""
    parsed, blocks, tables = _decode(data)
    planes = [
        assemble_plane(
            inverse_dct(dequantize(natural.reshape(-1, 8, 8), table)),
            parsed.width,
            parsed.height,
        )
        for natural, table in zip(blocks, tables)
    ]
    if len(planes) == 1:
        return RasterImage(parsed.width, parsed.height, tuple(planes))
    return color_convert_inverse(*planes)
