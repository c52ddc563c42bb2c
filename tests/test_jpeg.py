import io

import numpy as np
import pytest

from statjpeg.errors import CorruptStreamError, UnsupportedSizeError
from statjpeg.image import RasterImage
from statjpeg.jfif import validate_structure
from statjpeg.jpeg import decode_coefficients, decode_image, encode_image
from statjpeg.quant import QuantTable, zigzag
from statjpeg.tables import rm_hf_table, standard_table

ONES = QuantTable(np.ones(64))


def random_gray(rng, h, w):
    return RasterImage.from_array(rng.integers(0, 256, size=(h, w)).astype(np.uint8))


def random_rgb(rng, h, w):
    return RasterImage.from_array(rng.integers(0, 256, size=(h, w, 3)).astype(np.uint8))


def test_marker_framing(rng):
    data = encode_image(random_gray(rng, 8, 8), ONES)
    assert data[:2] == b"\xff\xd8"
    assert data[-2:] == b"\xff\xd9"
    assert validate_structure(data) == []


def test_geometry_round_trip(rng):
    for h, w in ((8, 8), (9, 8), (23, 41), (128, 17)):
        img = random_gray(rng, h, w)
        out = decode_image(encode_image(img, ONES))
        assert (out.width, out.height, out.channels) == (w, h, 1)
    img = random_rgb(rng, 15, 22)
    out = decode_image(encode_image(img, ONES, ONES))
    assert (out.width, out.height, out.channels) == (22, 15, 3)


def test_near_lossless_grayscale(rng):
    worst = 0
    for _ in range(20):
        h, w = rng.integers(8, 64, size=2)
        img = random_gray(rng, h, w)
        out = decode_image(encode_image(img, ONES))
        worst = max(worst, np.abs(out.to_array().astype(int) - img.to_array().astype(int)).max())
    assert worst <= 2


def test_near_lossless_color_amplified_bound(rng):
    # integer YCbCr rounding is amplified by the inverse color matrix, so
    # the all-1-table bound for RGB is 4, not the single-plane 2
    worst = 0
    for _ in range(10):
        img = random_rgb(rng, 24, 24)
        out = decode_image(encode_image(img, ONES, ONES))
        worst = max(worst, np.abs(out.to_array().astype(int) - img.to_array().astype(int)).max())
    assert worst <= 4


def test_constant_black_survives():
    # all-black blocks produce DC -1024 at unit quantization; they must
    # still encode (DPCM category 11) and reconstruct
    black = RasterImage.from_array(np.zeros((16, 16), dtype=np.uint8))
    out = decode_image(encode_image(black, ONES))
    assert np.abs(out.to_array().astype(int)).max() <= 2
    black3 = RasterImage.from_array(np.zeros((16, 16, 3), dtype=np.uint8))
    out3 = decode_image(encode_image(black3, ONES, ONES))
    assert np.abs(out3.to_array().astype(int)).max() <= 2


def test_constant_white_survives():
    white = RasterImage.from_array(np.full((16, 16), 255, dtype=np.uint8))
    out = decode_image(encode_image(white, ONES))
    assert np.abs(out.to_array().astype(int) - 255).max() <= 2
    white3 = RasterImage.from_array(np.full((16, 16, 3), 255, dtype=np.uint8))
    out3 = decode_image(encode_image(white3, ONES, ONES))
    assert np.abs(out3.to_array().astype(int) - 255).max() <= 2


def test_oversized_image_rejected():
    wide = RasterImage.from_array(np.zeros((1, 65536), dtype=np.uint8))
    with pytest.raises(UnsupportedSizeError):
        encode_image(wide, ONES)


def test_truncated_file_rejected(rng):
    data = encode_image(random_gray(rng, 16, 16), ONES)
    with pytest.raises(CorruptStreamError):
        decode_image(data[:-2])


def test_drop_zigzag_zeroes_high_positions(rng):
    img = random_gray(rng, 32, 32)
    dropped = encode_image(img, rm_hf_table(ONES, 3))
    kept = encode_image(img, ONES)
    blocks_kept, _ = decode_coefficients(kept)
    blocks_drop, _ = decode_coefficients(dropped)
    scan_kept = zigzag(blocks_kept[0])
    scan_drop = zigzag(blocks_drop[0])
    assert np.any(scan_kept[:, 61:] != 0)  # noise image has HF content
    assert np.all(scan_drop[:, 61:] == 0)
    assert np.array_equal(scan_kept[:, :61], scan_drop[:, :61])


def test_drop_everything_but_dc_gives_flat_tiles(rng):
    img = random_gray(rng, 24, 24)
    data = encode_image(img, rm_hf_table(ONES, 63))
    out = decode_image(data).planes[0]
    for by in range(0, 24, 8):
        for bx in range(0, 24, 8):
            tile = out[by:by + 8, bx:bx + 8]
            assert tile.min() == tile.max()


def test_single_table_mode_emits_one_dqt(rng):
    img = random_rgb(rng, 16, 16)
    single = encode_image(img, ONES)
    double = encode_image(img, ONES, ONES)
    assert single.count(b"\xff\xdb") == 1
    assert double.count(b"\xff\xdb") == 2
    assert decode_image(single).channels == 3


def test_decode_is_stateless_round_trip(rng):
    # decoding twice from bytes alone gives identical planes
    img = random_gray(rng, 40, 40)
    data = encode_image(img, standard_table(50))
    a = decode_image(data)
    b = decode_image(bytes(bytearray(data)))
    assert a == b


def test_interop_pillow_reads_our_files(rng):
    PIL = pytest.importorskip("PIL.Image")
    img = random_gray(rng, 33, 47)
    data = encode_image(img, ONES)
    theirs = np.asarray(PIL.open(io.BytesIO(data)).convert("L"))
    ours = decode_image(data).planes[0]
    assert theirs.shape == ours.shape
    assert np.abs(theirs.astype(int) - ours.astype(int)).max() <= 2

    img3 = random_rgb(rng, 21, 18)
    data3 = encode_image(img3, ONES, ONES)
    theirs3 = np.asarray(PIL.open(io.BytesIO(data3)).convert("RGB"))
    ours3 = decode_image(data3).to_array()
    assert np.abs(theirs3.astype(int) - ours3.astype(int)).max() <= 4


def test_interop_we_read_pillow_files(rng):
    PIL = pytest.importorskip("PIL.Image")
    arr = rng.integers(0, 256, size=(24, 31, 3)).astype(np.uint8)
    buf = io.BytesIO()
    # 4:4:4, no optimized tables: the interoperable subset we decode
    PIL.fromarray(arr).save(buf, format="JPEG", quality=92, subsampling=0)
    ours = decode_image(buf.getvalue())
    theirs = np.asarray(PIL.open(buf).convert("RGB"))
    assert (ours.width, ours.height) == (31, 24)
    assert np.abs(ours.to_array().astype(int) - theirs.astype(int)).max() <= 4


def test_declared_size_beyond_scan_rejected_before_allocating(rng):
    # A small grayscale file whose SOF0 claims 65535x65535 pixels: decoding
    # it would need 16 GiB of coefficients, but its scan cannot hold even
    # 2 bits per declared block.
    data = bytearray(encode_image(random_gray(rng, 16, 16), ONES))
    sof = data.index(b"\xff\xc0")
    data[sof + 5:sof + 9] = b"\xff\xff\xff\xff"  # height, width
    with pytest.raises(CorruptStreamError, match="cannot hold"):
        decode_image(bytes(data))
