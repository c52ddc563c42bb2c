"""The PNG loader: every row filter type, hostile headers and zlib bombs."""

import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import png_oracle as oracle
from conftest import png_bytes
from statjpeg.errors import InvalidInputError, StatJpegError, UnsupportedFormatError
from statjpeg.imgfile import _unfilter, load_image

FIVE_FILTERS = (0, 1, 2, 3, 4, 4, 3, 2, 1, 0)


def png_file(width, height, color_type, stream):
    """An 8-bit PNG of the given IHDR fields whose IDAT is ``stream`` inflated."""
    ihdr = struct.pack(">IIBBBBB", width, height, 8, color_type, 0, 0, 0)
    return png_bytes([(b"IHDR", ihdr), (b"IDAT", zlib.compress(stream)), (b"IEND", b"")])


def filtered_png(pixels, ftypes):
    """``pixels`` ((H, W) gray or (H, W, 3) RGB) with row r filtered by ``ftypes[r]``."""
    height, width = pixels.shape[:2]
    bpp = 1 if pixels.ndim == 2 else 3
    stream = oracle.filter_rows(pixels.reshape(height, -1), ftypes, bpp)
    return png_file(width, height, 0 if bpp == 1 else 2, stream)


def load(tmp_path, data):
    path = tmp_path / "image.png"
    path.write_bytes(data)
    return load_image(path)


def writable_rows(raw, height, stride):
    return np.frombuffer(bytearray(raw), dtype=np.uint8).reshape(height, stride + 1)


@settings(max_examples=200)
@given(
    bpp=st.sampled_from([1, 3]),
    width=st.integers(1, 40),
    ftypes=st.lists(st.integers(0, 4), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_unfilter_equals_reference(bpp, width, ftypes, seed):
    # width 1 leaves no byte with a left neighbour, and bpp 3 offsets the
    # left, up-left and Sub neighbours by a whole pixel
    height, stride = len(ftypes), width * bpp
    samples = np.random.default_rng(seed).integers(0, 256, size=(height, stride))
    raw = b"".join(bytes([f]) + bytes(row.tolist()) for f, row in zip(ftypes, samples))
    expected = oracle._unfilter(raw, height, stride, bpp)
    got = _unfilter(writable_rows(raw, height, stride), bpp)
    np.testing.assert_array_equal(got, expected, strict=True)


@pytest.mark.parametrize("ftype", [5, 255])
def test_unknown_filter_type_raises_as_the_reference_does(ftype):
    raw = bytes([1, 7, 8, 9, ftype, 1, 2, 3])
    for unfilter in (lambda: oracle._unfilter(raw, 2, 3, 3),
                     lambda: _unfilter(writable_rows(raw, 2, 3), 3)):
        with pytest.raises(UnsupportedFormatError, match=f"PNG filter type {ftype}$"):
            unfilter()


@pytest.mark.parametrize("shape", [(10, 7), (10, 7, 3)], ids=["gray", "rgb"])
def test_load_image_undoes_all_five_filters(tmp_path, rng, shape):
    pixels = rng.integers(0, 256, size=shape).astype(np.uint8)
    img = load(tmp_path, filtered_png(pixels, FIVE_FILTERS))
    assert np.array_equal(img.to_array(), pixels)


def chunk_spans(data):
    """(start, length) of each chunk after the signature."""
    pos = 8
    while pos + 8 <= len(data):
        length = int.from_bytes(data[pos:pos + 4], "big")
        yield pos, length
        pos += 12 + length


def with_crc(data, start, length):
    """``data`` with the CRC of the chunk at ``start`` computed again."""
    end = start + 8 + length
    return data[:end] + struct.pack(">I", zlib.crc32(data[start + 4:end])) + data[end + 4:]


def png_mutants(data):
    """Yield copies of ``data`` with one field changed.

    Every byte of the IHDR and IDAT payloads is set to a few values, with the
    chunk's CRC made to match so that the change reaches the field's parser,
    and each chunk's declared length to every value from 0 to length + 2 and
    to the largest 31- and 32-bit values.
    """
    for start, length in chunk_spans(data):
        if data[start + 4:start + 8] in (b"IHDR", b"IDAT"):
            for i in range(start + 8, start + 8 + length):
                for value in (0x00, 0x01, 0x7F, 0x80, 0xFF):
                    if data[i] != value:
                        yield with_crc(data[:i] + bytes([value]) + data[i + 1:], start, length)
        for n in (*range(length + 3), 2**31 - 1, 2**32 - 1):
            if n != length:
                yield data[:start] + n.to_bytes(4, "big") + data[start + 4:]


@pytest.mark.parametrize("shape", [(4, 5), (4, 5, 3)], ids=["gray", "rgb"])
def test_field_mutations_raise_only_toolkit_errors(tmp_path, rng, shape):
    pixels = rng.integers(0, 256, size=shape).astype(np.uint8)
    for mutant in png_mutants(filtered_png(pixels, (1, 4, 3, 2))):
        try:
            load(tmp_path, mutant)
        except StatJpegError:
            pass


# 2x2 gray, both rows unfiltered: loads as [[1, 2], [3, 4]]
GRAY_2X2 = png_file(2, 2, 0, b"\x00\x01\x02\x00\x03\x04")


def chunk_start(data, ctype):
    return next(start for start, _ in chunk_spans(data) if data[start + 4:start + 8] == ctype)


@pytest.mark.parametrize("ctype", [b"IHDR", b"IDAT", b"IEND"])
def test_critical_chunk_crc_mismatch_rejected(tmp_path, ctype):
    data = bytearray(GRAY_2X2)
    start = chunk_start(GRAY_2X2, ctype)
    data[start + 8 + int.from_bytes(data[start:start + 4], "big")] ^= 0x01
    with pytest.raises(UnsupportedFormatError, match=f"PNG {ctype.decode()} chunk fails its CRC"):
        load(tmp_path, bytes(data))


def test_ancillary_chunk_crc_is_not_checked(tmp_path):
    text = png_bytes([(b"tEXt", b"Comment\x00x")])[8:]
    idat = chunk_start(GRAY_2X2, b"IDAT")
    data = GRAY_2X2[:idat] + text[:-1] + bytes([text[-1] ^ 0x01]) + GRAY_2X2[idat:]
    assert load(tmp_path, data).to_array().tolist() == [[1, 2], [3, 4]]


def test_chunk_length_past_the_end_of_the_file_rejected(tmp_path):
    start = chunk_start(GRAY_2X2, b"IDAT")
    length = int.from_bytes(GRAY_2X2[start:start + 4], "big") + 1000
    data = GRAY_2X2[:start] + length.to_bytes(4, "big") + GRAY_2X2[start + 4:]
    with pytest.raises(UnsupportedFormatError, match="PNG IDAT chunk runs past the end"):
        load(tmp_path, data)


@pytest.mark.parametrize(
    "width, height, stream",
    [(0, 2, b"\x00\x00"), (2, 0, b"")],
    ids=["width-0", "height-0"],
)
def test_zero_dimension_rejected(tmp_path, width, height, stream):
    with pytest.raises(InvalidInputError, match="dimensions must be >= 1"):
        load(tmp_path, png_file(width, height, 0, stream))


@pytest.mark.parametrize("cut", [1, 4, 5, 9])
def test_truncated_zlib_stream_is_corrupt(tmp_path, cut):
    # cutting 4 bytes drops only the Adler-32 check: every sample inflates
    stream = zlib.compress(b"\x00\x01\x02\x00\x03\x04")
    ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0)
    data = png_bytes([(b"IHDR", ihdr), (b"IDAT", stream[:-cut]), (b"IEND", b"")])
    with pytest.raises(UnsupportedFormatError, match="corrupt PNG"):
        load(tmp_path, data)


def test_stream_one_byte_past_the_raster_rejected(tmp_path):
    with pytest.raises(UnsupportedFormatError, match="PNG raster has more than 6 bytes"):
        load(tmp_path, png_file(2, 2, 0, b"\x00\x01\x02\x00\x03\x04\x05"))


def test_largest_declared_raster_bounds_inflate_without_overflow(tmp_path):
    # (2**32 - 1)**2 RGB pixels declare a raster past the largest bound zlib takes
    side = 2**32 - 1
    with pytest.raises(UnsupportedFormatError, match=f"expected {side * (3 * side + 1)}$"):
        load(tmp_path, png_file(side, side, 2, b"\x00\x01\x02\x03"))


def test_stream_short_of_the_raster_rejected(tmp_path):
    with pytest.raises(UnsupportedFormatError, match="PNG raster has 5 bytes, expected 6"):
        load(tmp_path, png_file(2, 2, 0, b"\x00\x01\x02\x00\x03"))


def test_zlib_bomb_stops_one_byte_past_the_declared_raster(tmp_path):
    # a ~97 KB file that declares 16x16 gray (272 raster bytes) and inflates
    # to 100 MB; the loader must not inflate past byte 273 to reject it
    deflate = zlib.compressobj(9)
    zeros = bytes(1_000_000)
    stream = b"".join(deflate.compress(zeros) for _ in range(100)) + deflate.flush()
    ihdr = struct.pack(">IIBBBBB", 16, 16, 8, 0, 0, 0, 0)
    path = tmp_path / "bomb.png"
    path.write_bytes(png_bytes([(b"IHDR", ihdr), (b"IDAT", stream), (b"IEND", b"")]))
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedFormatError, match="PNG raster has more than 272 bytes"):
            load_image(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
