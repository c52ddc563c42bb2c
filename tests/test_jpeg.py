import io

import numpy as np
import pytest

from conftest import traced_peak
from statjpeg.errors import CorruptStreamError, InvalidInputError, UnsupportedSizeError
from statjpeg.image import RasterImage
from statjpeg.jfif import validate_structure
from statjpeg.jpeg import decode_coefficients, decode_image, encode_image
from statjpeg.quant import QuantTable, zigzag
from statjpeg.synth import synth_image
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


@pytest.mark.parametrize("plane", [
    np.full((2, 3), 3.7), np.full((2, 3), np.nan), np.ones((2, 3), dtype=bool),
    np.full((2, 3), "7"), [[True, 2, 3], [4, 5, 6]],
], ids=["fraction", "nan", "bool", "string", "bool-in-list"])
def test_raster_rejects_samples_that_are_not_integers(plane):
    with pytest.raises(InvalidInputError, match="samples must be integers"):
        RasterImage(3, 2, (plane,))


def test_raster_takes_integral_floats_and_integers():
    img = RasterImage(3, 2, (np.full((2, 3), 7.0),))
    assert img.planes[0].dtype == np.uint8
    assert img == RasterImage(3, 2, (np.full((2, 3), 7, dtype=np.int64),))
    with pytest.raises(InvalidInputError, match=r"lie in \[0, 255\]"):
        RasterImage(3, 2, (np.full((2, 3), np.inf),))


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


def test_dense_encode_needs_its_scans_and_2_mib():
    # About 100 coded words per MCU at QF 100: the encoder's chunks are cut
    # by words, and each strip is dropped before the next one is made.
    img = synth_image("speckle", np.random.default_rng(1), 512, 512)
    tables = standard_table(100, "luma"), standard_table(100, "chroma")
    encode_image(img, *tables)  # builds the cached gathers and code arrays
    scans = 3 * 64 * 64 * 64 * 2  # three int16 (n_blocks, 64) arrays
    assert traced_peak(encode_image, img, *tables) <= scans + (2 << 20)


def test_decode_needs_its_scans_output_and_one_strip():
    # The int16 scans (1.5 MiB), the uint8 output (0.75 MiB) and one
    # 64-row strip's five float64 planes (1.25 MiB) during color inverse.
    # A flat image codes only DC and EOB: tracing every int the per-symbol
    # loop makes slows a dense decode about 40x.
    img = RasterImage.from_array(np.full((512, 512, 3), 100, dtype=np.uint8))
    data = encode_image(img, standard_table(100, "luma"), standard_table(100, "chroma"))
    decode_image(data)  # builds the cached gathers and decode tables
    assert traced_peak(decode_image, data) <= 4 << 20
