import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_quantized_blocks
from statjpeg import huffman
from statjpeg.errors import CorruptStreamError, EncodingRangeError, InvalidInputError
from statjpeg.huffman import (
    AC_CHROMA,
    AC_LUMA,
    DC_CHROMA,
    DC_LUMA,
    HuffmanTable,
    entropy_encode,
    entropy_decode,
)

LUMA = ([DC_LUMA], [AC_LUMA])


def encode1(blocks):
    return entropy_encode([blocks], *LUMA)


def decode1(data, n):
    return entropy_decode(data, n, *LUMA)[0]


def test_all_zero_block_bitstream():
    # Annex-K luma trace: DC category 0 -> '00', EOB -> '1010',
    # then 1-padding to the byte boundary: 00101011 = 0x2B.
    data = encode1(np.zeros((1, 64), dtype=np.int64))
    assert data == b"\x2b"


def test_two_zero_blocks_pack_dpcm_zero_diff():
    # '00' + '1010' twice = 001010001010, padded -> 0x28 0xAF.
    data = encode1(np.zeros((2, 64), dtype=np.int64))
    assert data == b"\x28\xaf"


def test_identical_blocks_second_dc_diff_is_zero():
    block = np.zeros((1, 64), dtype=np.int64)
    block[0, 0] = 57
    pair = np.vstack([block, block])
    single = encode1(block)
    double = encode1(pair)
    # second block adds only DC cat 0 (2 bits) + EOB (4 bits)
    assert len(double) <= len(single) + 1
    np.testing.assert_array_equal(decode1(double, 2), pair)


def test_round_trip_random_sequences(rng):
    for i in range(300):
        n = 1 + i % 4
        density = (0.02, 0.15, 0.5, 0.95)[i % 4]
        blocks = random_quantized_blocks(rng, n, density)
        np.testing.assert_array_equal(decode1(encode1(blocks), n), blocks)


def test_round_trip_interleaved_components(rng):
    comps = [random_quantized_blocks(rng, 6, d) for d in (0.1, 0.4, 0.4)]
    dc = [DC_LUMA, DC_CHROMA, DC_CHROMA]
    ac = [AC_LUMA, AC_CHROMA, AC_CHROMA]
    data = entropy_encode(comps, dc, ac)
    out = entropy_decode(data, 6, dc, ac)
    for a, b in zip(comps, out):
        np.testing.assert_array_equal(a, b)


def test_long_zero_runs_need_zrl(rng):
    blocks = np.zeros((1, 64), dtype=np.int64)
    blocks[0, 63] = -7  # 62 zeros -> three ZRLs then the coefficient
    np.testing.assert_array_equal(decode1(encode1(blocks), 1), blocks)
    blocks[0, 40] = 1
    np.testing.assert_array_equal(decode1(encode1(blocks), 1), blocks)


def test_extreme_magnitudes_round_trip():
    blocks = np.zeros((1, 64), dtype=np.int64)
    blocks[0, 0] = 1023
    blocks[0, 1] = -1023
    blocks[0, 63] = 1
    np.testing.assert_array_equal(decode1(encode1(blocks), 1), blocks)


def test_dc_swing_uses_category_eleven():
    # DC 1023 then -1023: the DPCM difference is -2046 (category 11).
    blocks = np.zeros((2, 64), dtype=np.int64)
    blocks[0, 0] = 1023
    blocks[1, 0] = -1023
    np.testing.assert_array_equal(decode1(encode1(blocks), 2), blocks)


def test_ac_magnitude_beyond_category_ten_rejected():
    blocks = np.zeros((1, 64), dtype=np.int64)
    blocks[0, 5] = 1024
    with pytest.raises(EncodingRangeError):
        encode1(blocks)


def test_dc_minus_1024_is_codeable():
    # the all-black block at unit quantization: DC is -1024, coded as a
    # category-11 difference
    blocks = np.zeros((1, 64), dtype=np.int64)
    blocks[0, 0] = -1024
    np.testing.assert_array_equal(decode1(encode1(blocks), 1), blocks)


def test_dc_beyond_dct_range_rejected():
    blocks = np.zeros((1, 64), dtype=np.int64)
    blocks[0, 0] = 1025
    with pytest.raises(EncodingRangeError):
        encode1(blocks)


@pytest.mark.parametrize("position, message", [(0, "DC"), (5, "AC")])
def test_int16_minus_32768_rejected(position, message):
    # |-32768| wraps to -32768 in int16, so the range checks of the codec's
    # int16 scans must not take magnitudes at int16
    blocks = np.zeros((2, 64), dtype=np.int16)
    blocks[1, position] = -32768
    with pytest.raises(EncodingRangeError, match=message):
        encode1(blocks)


def test_dc_diff_beyond_category_eleven_rejected():
    # +1024 then -1024 would need a category-12 difference
    blocks = np.zeros((2, 64), dtype=np.int64)
    blocks[0, 0] = 1024
    blocks[1, 0] = -1024
    with pytest.raises(EncodingRangeError):
        encode1(blocks)


def test_byte_stuffing_present_and_consumed(rng):
    # enough random blocks that 0xFF bytes certainly appear in the scan
    blocks = random_quantized_blocks(rng, 400, 0.8)
    data = encode1(blocks)
    positions = [i for i, b in enumerate(data) if b == 0xFF]
    assert positions, "expected at least one stuffed 0xFF byte"
    assert all(data[i + 1] == 0x00 for i in positions)
    np.testing.assert_array_equal(decode1(data, 400), blocks)


def test_marker_inside_scan_reports_offset():
    data = b"\x2b\xff\xd9"  # valid block then a bare EOI marker
    with pytest.raises(CorruptStreamError) as err:
        decode1(data, 2)
    assert err.value.offset == 1


def test_truncated_stream_detected(rng):
    blocks = random_quantized_blocks(rng, 20, 0.5)
    data = encode1(blocks)
    with pytest.raises(CorruptStreamError):
        decode1(data[: len(data) // 2], 20)


def test_trailing_garbage_detected(rng):
    blocks = random_quantized_blocks(rng, 3, 0.3)
    data = encode1(blocks)
    with pytest.raises(CorruptStreamError):
        decode1(data + b"\x00\x00", 3)


def test_invalid_prefix_detected():
    # luma DC: no code is all-ones at 9 bits; 0xFF00 unstuffs to 0xFF...
    with pytest.raises(CorruptStreamError):
        decode1(b"\xff\x00\xff\x00", 1)


def test_component_shape_validation(rng):
    good = random_quantized_blocks(rng, 2, 0.2)
    with pytest.raises(InvalidInputError):
        entropy_encode([good, good[:1]], [DC_LUMA, DC_LUMA], [AC_LUMA, AC_LUMA])
    with pytest.raises(InvalidInputError):
        entropy_encode([good.reshape(-1)], *LUMA)


def test_huffman_table_validation():
    with pytest.raises(InvalidInputError):
        HuffmanTable([0] * 15, [])
    with pytest.raises(InvalidInputError):
        HuffmanTable([1] + [0] * 15, [])  # declares 1 code, lists 0 values
    # T.81 Annex C: four 1-bit codes over-subscribe the code space, and two
    # 1-bit codes (or any complete code) assign the all-ones code.
    with pytest.raises(InvalidInputError, match="over-subscribe"):
        HuffmanTable([4] + [0] * 15, [0, 1, 2, 3])
    with pytest.raises(InvalidInputError, match="all-ones"):
        HuffmanTable([2] + [0] * 15, [0, 1])
    with pytest.raises(InvalidInputError, match="all-ones"):
        HuffmanTable([1, 1, 2] + [0] * 13, [0, 1, 2, 3])
    HuffmanTable([1, 1, 1] + [0] * 13, [0, 1, 2])  # 0, 10, 110: 111 unused
    with pytest.raises(InvalidInputError, match="bytes"):
        HuffmanTable([1] + [0] * 15, [256])


@pytest.mark.parametrize("bits, values", [
    ([1.9] + [0] * 15, [0]),
    ([True] + [0] * 15, [0]),
    (["1"] + [0] * 15, [0]),
    ([1.0] + [0] * 15, [0]),
    ([1] + [0] * 15, [2.5]),
    ([1] + [0] * 15, [False]),
], ids=["bits-fraction", "bits-bool", "bits-string", "bits-float", "value-fraction",
        "value-bool"])
def test_huffman_table_rejects_non_integers(bits, values):
    with pytest.raises(InvalidInputError, match="must be integers"):
        HuffmanTable(bits, values)


def test_huffman_table_takes_bytes_and_numpy_integers():
    table = HuffmanTable(bytes([1, 1] + [0] * 14), np.array([3, 7], dtype=np.uint8))
    assert (table.bits, table.values) == ((1, 1) + (0,) * 14, (3, 7))
    assert all(type(v) is int for v in table.bits + table.values)


def test_dc_beyond_int16_is_corrupt_stream():
    # 1-bit tables: DC category 11 is "0" and EOB is "0".  Each block is
    # "0", eleven 1-bits (+2047) and "0", so the DC predictor passes the
    # int16 maximum at block 17 of 20, once that block's 12 DC bits are read.
    n = 20
    dc, ac = HuffmanTable([1] + [0] * 15, [11]), HuffmanTable([1] + [0] * 15, [0x00])
    block = np.array([0] + [1] * 11 + [0], dtype=np.uint8)
    bits = np.concatenate([np.tile(block, n), np.ones(-13 * n % 8, dtype=np.uint8)])
    raw = np.packbits(bits).tobytes()
    data = raw.replace(b"\xff", b"\xff\x00")
    with pytest.raises(CorruptStreamError, match="DC value 34799 outside the int16") as err:
        entropy_decode(data, n, [dc], [ac], base_offset=100)
    read = (16 * 13 + 12) // 8  # whole unstuffed bytes read
    assert err.value.offset == 100 + read + raw.count(b"\xff", 0, read)


def test_import_builds_no_coding_table():
    # Tables are built on first use, so importing the package costs none.
    probe = (
        "import statjpeg\n"
        "from statjpeg import huffman\n"
        "print(huffman._decode_lut.cache_info().currsize,"
        " huffman._scan_code_arrays.cache_info().currsize)"
    )
    src = Path(huffman.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == ["0", "0"]
