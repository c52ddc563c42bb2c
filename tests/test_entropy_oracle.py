"""Differential tests: statjpeg.huffman against the scalar reference coder.

Encoding must give identical bytes.  Decoding must give identical
coefficients, or raise the same exception class with the same message at
the same byte offset.
"""

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entropy_oracle as oracle
from conftest import random_quantized_blocks
from statjpeg import huffman
from statjpeg.errors import CorruptStreamError, StatJpegError
from statjpeg.huffman import (
    AC_CHROMA,
    AC_LUMA,
    DC_CHROMA,
    DC_LUMA,
    HuffmanTable,
    entropy_decode,
    entropy_encode,
)
from statjpeg.jpeg import _scan_blocks
from statjpeg.synth import synth_image
from statjpeg.tables import standard_table

CHUNK = huffman._CHUNK_MCUS
DC_TABLES = [DC_LUMA, DC_CHROMA, DC_CHROMA]
AC_TABLES = [AC_LUMA, AC_CHROMA, AC_CHROMA]

# Block shapes that stress distinct parts of the coder.
BLOCK_KINDS = ("sparse", "dense", "zero", "full", "extreme", "long_runs", "last63")


def make_blocks(rng, n, kinds, dc_swing):
    """(n, 64) zig-zag blocks, each drawn from one of ``kinds``."""
    blocks = np.zeros((n, 64), dtype=np.int64)
    which = rng.integers(len(kinds), size=n)
    for k, kind in enumerate(kinds):
        rows = np.flatnonzero(which == k)
        m = rows.size
        if kind == "sparse":
            part = random_quantized_blocks(rng, m, 0.08, max_mag=40)
        elif kind == "dense":
            part = random_quantized_blocks(rng, m, 0.7)
        elif kind == "zero":
            part = np.zeros((m, 64), dtype=np.int64)
        elif kind == "full":  # every AC nonzero: the last sits at zig-zag 63
            part = rng.integers(1, 1024, size=(m, 64)) * rng.choice([-1, 1], size=(m, 64))
        elif kind == "extreme":
            part = random_quantized_blocks(rng, m, 0.3)
            part[:, 1:][part[:, 1:] != 0] = 1023
            part[:, 1::2] *= -1
        elif kind == "long_runs":  # 1, 2 or 3 ZRLs before a coefficient
            part = np.zeros((m, 64), dtype=np.int64)
            part[np.arange(m), rng.choice([17, 20, 33, 40, 49, 63], size=m)] = rng.choice(
                [-1023, -3, 1, 512], size=m
            )
            part[:, 1] = rng.integers(-1, 2, size=m)
        else:  # "last63"
            part = random_quantized_blocks(rng, m, 0.2, max_mag=200)
            part[:, 63] = rng.choice([-1, 1, 1023], size=m)
        blocks[rows] = part
    blocks[:, 0] = rng.integers(-1024, 1025, size=n)
    if dc_swing:  # differences of +-2047 need DC category 11
        blocks[::2, 0] = 1023
        blocks[1::2, 0] = -1024
    return blocks


def outcome(fn, *args):
    """The result, or the raised StatJpegError as (class, message)."""
    try:
        return fn(*args)
    except StatJpegError as err:
        return type(err), str(err)  # a CorruptStreamError's message names its offset


def same_decode(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("n_mcus", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
@settings(max_examples=6)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_comp=st.sampled_from([1, 3]),
    kinds=st.lists(st.sampled_from(BLOCK_KINDS), min_size=1, max_size=4, unique=True),
    dc_swing=st.booleans(),
)
def test_encode_matches_oracle(n_mcus, seed, n_comp, kinds, dc_swing):
    # Sizes around the chunk length make the DC predictor, the leftover
    # bits and 0xFF stuffing cross chunk boundaries.
    rng = np.random.default_rng(seed)
    comps = [make_blocks(rng, n_mcus, kinds, dc_swing) for _ in range(n_comp)]
    tables = (DC_TABLES[:n_comp], AC_TABLES[:n_comp])
    expected = oracle.entropy_encode(comps, *tables)
    assert entropy_encode(comps, *tables) == expected
    decoded = entropy_decode(expected, n_mcus, *tables)
    assert all(np.array_equal(a, b) for a, b in zip(comps, decoded))


def test_encode_with_16_bit_zrl_code_matches_oracle():
    # Swap ZRL with the last Annex K luma symbol, which has a 16-bit code.
    # Three ZRLs, a 16-bit code, its magnitude bits and an EOB no longer
    # fit one 64-bit word, so the ZRLs must be packed on their own.
    values = list(huffman.AC_LUMA_VALUES)
    zrl = values.index(0xF0)
    values[zrl], values[-1] = values[-1], values[zrl]
    tables = ([DC_LUMA], [HuffmanTable(huffman.AC_LUMA_BITS, values)])
    blocks = make_blocks(np.random.default_rng(5), 300, ("long_runs", "sparse"), True)
    blocks[::2, 1:] = 0
    blocks[::4, 62] = -1023  # three ZRLs, symbol 0xDA, 10 bits and EOB
    blocks[2::4, 63] = 1023  # three ZRLs, symbol 0xEA and 10 bits
    expected = oracle.entropy_encode([blocks], *tables)
    assert entropy_encode([blocks], *tables) == expected
    np.testing.assert_array_equal(entropy_decode(expected, 300, *tables)[0], blocks)


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_comp=st.sampled_from([1, 3]),
    n_mcus=st.integers(1, 5),
    extra_mcus=st.sampled_from([0, 0, 0, 1, 40]),
    kinds=st.lists(st.sampled_from(BLOCK_KINDS), min_size=1, max_size=3, unique=True),
    mutation=st.sampled_from(["none", "truncate", "flip", "trailing", "marker"]),
    where=st.floats(0.0, 1.0),
    base_offset=st.sampled_from([0, 613]),
)
def test_decode_matches_oracle(
    seed, n_comp, n_mcus, extra_mcus, kinds, mutation, where, base_offset
):
    rng = np.random.default_rng(seed)
    comps = [make_blocks(rng, n_mcus, kinds, False) for _ in range(n_comp)]
    tables = (DC_TABLES[:n_comp], AC_TABLES[:n_comp])
    data = bytearray(oracle.entropy_encode(comps, *tables))
    at = min(int(where * len(data)), len(data) - 1)
    if mutation == "truncate":
        del data[at:]
    elif mutation == "flip":
        data[at] ^= 1 << int(rng.integers(8))
    elif mutation == "trailing":
        data += bytes(rng.integers(0, 256, size=int(rng.integers(1, 4)), dtype=np.uint8))
    elif mutation == "marker":
        data[at:at] = bytes([0xFF, int(rng.integers(1, 256))])
    data = bytes(data)
    declared = n_mcus + extra_mcus
    check_decode(data, declared, tables, base_offset)


def check_decode(data, n_mcus, tables, base_offset):
    expected = outcome(oracle.entropy_decode, data, n_mcus, *tables, base_offset)
    got = outcome(entropy_decode, data, n_mcus, *tables, base_offset)
    if isinstance(got, tuple) and "cannot hold" in got[1]:
        # The size guard rejects the scan before decoding; the oracle, with
        # no guard, must fail somewhere as well.
        assert isinstance(expected, tuple) and expected[0] is CorruptStreamError
        return
    assert same_decode(got, expected), (got, expected)


@st.composite
def huffman_tables(draw, dc):
    """A valid table over random symbols, with random code lengths."""
    alphabet = range(16) if dc else range(256)
    symbols = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=40, unique=True))
    lengths = draw(st.lists(st.integers(1, 16), min_size=len(symbols), max_size=len(symbols)))
    while sum(1 << (16 - n) for n in lengths) >= 1 << 16:
        shortest = lengths.index(min(lengths))
        lengths[shortest] += 1
    bits = [0] * 16
    for n in lengths:
        bits[n - 1] += 1
    order = sorted(range(len(symbols)), key=lambda i: lengths[i])
    return HuffmanTable(bits, [symbols[i] for i in order])


@settings(max_examples=150)
@given(
    dc=huffman_tables(dc=True),
    ac=huffman_tables(dc=False),
    data=st.binary(min_size=0, max_size=48),
    n_mcus=st.integers(0, 4),
)
def test_decode_arbitrary_bytes_matches_oracle(dc, ac, data, n_mcus):
    # Random tables reach what the Annex K ones cannot: DC categories
    # above 11, invalid AC symbols, and codes too long for one lookup.
    check_decode(data, n_mcus, ([dc], [ac]), 0)


def bits_to_bytes(bits):
    assert len(bits) % 8 == 0
    return int(bits, 2).to_bytes(len(bits) // 8, "big")


def test_run_past_block_end_outranks_truncated_magnitude():
    # DC category 0, 62 coefficients of +1 (code 00, bit 1), then run 1 /
    # size 1 (code 1100) at zig-zag 63: the run overshoots the block.  The
    # code ends exactly at the scan's end, so the magnitude bit would also
    # be missing; the run error is detected first.
    data = bits_to_bytes("00" + "001" * 62 + "1100")
    for decode in (oracle.entropy_decode, entropy_decode):
        with pytest.raises(CorruptStreamError, match="run past end") as err:
            decode(data, 1, [DC_LUMA], [AC_LUMA])
        assert err.value.offset == len(data)


def test_code_past_scan_end_outranks_run_past_block_end():
    # DC category 0, 62 coefficients of +1, then the first 4 bits of run 1
    # / size 2 (code 11011) at zig-zag 63.  The code's last bit lies past
    # the scan's end, so truncation is detected before the run.
    data = bits_to_bytes("00" + "001" * 62 + "1101")
    for decode in (oracle.entropy_decode, entropy_decode):
        with pytest.raises(CorruptStreamError, match="truncated") as err:
            decode(data, 1, [DC_LUMA], [AC_LUMA])
        assert err.value.offset == len(data)


def test_magnitude_past_scan_end_is_truncation():
    # DC category 1 (010, bit 1), 62 coefficients of +1, then run 0 /
    # size 1 (code 00) for zig-zag 63, whose magnitude bit is missing.
    data = bits_to_bytes("0101" + "001" * 62 + "00")
    for decode in (oracle.entropy_decode, entropy_decode):
        with pytest.raises(CorruptStreamError, match="truncated") as err:
            decode(data, 1, [DC_LUMA], [AC_LUMA])
        assert err.value.offset == len(data)


def test_zero_run_may_end_exactly_at_block_end():
    # DC category 0, 15 coefficients of +1, then three ZRLs (11111111001)
    # take zig-zag 16..63: the block is complete without an EOB.
    data = bits_to_bytes("00" + "001" * 15 + "11111111001" * 3)
    expected = np.zeros((1, 64), dtype=np.int32)
    expected[0, 1:16] = 1
    for decode in (oracle.entropy_decode, entropy_decode):
        np.testing.assert_array_equal(decode(data, 1, [DC_LUMA], [AC_LUMA])[0], expected)


LUMA_TABLES = ([DC_LUMA], [AC_LUMA])
ZRL = "11111111001"  # Annex K luma AC code of ZRL; "00" + "1" is +1


def luma_scan(bits):
    """``bits`` padded with 1s to a whole byte, with 0xFF stuffing."""
    bits += "1" * (-len(bits) % 8)
    return bits_to_bytes(bits).replace(b"\xff", b"\xff\x00")


@pytest.mark.parametrize("run", [16, 32, 48])
@pytest.mark.parametrize("lead", [0, 1, 14])
def test_zero_runs_round_trip_against_oracle(run, lead):
    # ``lead`` coefficients, then ``run`` zeros (run // 16 ZRLs) before one
    # more coefficient; lead 14 with run 48 puts it at zig-zag 63.
    blocks = np.zeros((4, 64), dtype=np.int64)
    blocks[:, 0] = [5, -7, 0, 1024]
    blocks[:, 1:lead + 1] = 3
    blocks[:, lead + run + 1] = [1, -1, 1023, -1023]
    expected = oracle.entropy_encode([blocks], *LUMA_TABLES)
    assert entropy_encode([blocks], *LUMA_TABLES) == expected
    for decode in (oracle.entropy_decode, entropy_decode):
        np.testing.assert_array_equal(decode(expected, 4, *LUMA_TABLES)[0], blocks)


def luma_outcome(data):
    """Decode one luma MCU, check it against the oracle, and return it."""
    check_decode(data, 1, LUMA_TABLES, 613)
    return outcome(entropy_decode, data, 1, *LUMA_TABLES, 613)


def test_four_zero_runs_in_one_block_match_oracle():
    # Three ZRLs reach zig-zag 48; the fourth would end at 64.
    for lead in (0, 1):
        got = luma_outcome(luma_scan("00" + "001" * lead + ZRL * 4))
        assert got[0] is CorruptStreamError
        assert got[1].startswith("zero run past end of block")


@pytest.mark.parametrize("start", [48, 49, 56, 63])
def test_zero_run_from_zigzag_48_on_matches_oracle(start):
    # Coefficients of +1 up to ``start - 1``, then a ZRL from ``start``:
    # from 48 it ends the block at 63, later it overshoots.
    got = luma_outcome(luma_scan("00" + "001" * (start - 1) + ZRL))
    if start == 48:
        assert np.array_equal(got[0][0, 1:48], np.ones(47))
    else:
        assert got[1].startswith("zero run past end of block")


@pytest.mark.parametrize("coefs, message", [
    (1, "invalid Huffman prefix"),
    (4, "truncated scan data"),
    (49, "zero run past end of block"),
    (52, "truncated scan data"),
])
def test_scan_cut_right_after_zero_run_matches_oracle(coefs, message):
    # The scan is cut at the last byte boundary of the ZRL code.  After 1
    # or 49 coefficients the code ends there; after 4 or 52 its last bit is
    # past the scan's end.  After 49 or 52 the run also overshoots the
    # block, which outranks truncation only when the code ends in the scan.
    bits = "00" + "001" * coefs + ZRL
    data = luma_scan(bits[:len(bits) // 8 * 8])
    assert luma_outcome(data)[1] == f"{message} (byte offset {613 + len(data)})"


dense_ff = st.lists(st.sampled_from([0x00, 0xFF, 0xD9, 0x5A]), max_size=48).map(bytes)


@settings(max_examples=200)
@given(
    data=st.binary(max_size=48)
    | dense_ff
    | dense_ff.map(lambda raw: raw.replace(b"\xff", b"\xff\x00"))
)
def test_unstuff_matches_oracle(data):
    # The same bytes out, or the same error class, message and offset.
    expected = outcome(lambda: oracle._unstuff(data, 613)[0])
    assert outcome(huffman._unstuff, data, 613) == expected


# Run 0 / size 15 (0x0F) has the 16-bit code 1100000000000000: the longest
# code with the most magnitude bits, so the farthest one read can reach past
# the scan's end.  0x01 is "0" and EOB is "10".
WIDE_AC = HuffmanTable([1, 1] + [0] * 13 + [1], [0x01, 0x00, 0x0F])


def cut_in_wide_magnitude(residue, ends_block):
    """A scan cut inside the magnitude bits of WIDE_AC's 0x0F, and its MCUs.

    Empty blocks (DC category 0, EOB) go first and shift the cut, so that
    the scan is ``residue`` bytes past a multiple of 4.  With ``ends_block``
    the 0x0F sits at zig-zag 63 after 62 coefficients of +1, so that its
    read ends the final block.
    """
    for empty in range(8):
        head = "0010" * empty + "00" + ("01" * 62 if ends_block else "")
        cut = (len(head) + 16) // 8 + 1  # keeps 1 to 8 of the 15 magnitude bits
        if cut % 4 == residue:
            bits = head + "1100000000000000" + "101010101010101"
            return bits_to_bytes(bits[:8 * cut]), empty + 1
    raise AssertionError("no layout gives this residue")


@pytest.mark.parametrize("ends_block", [False, True])
@pytest.mark.parametrize("residue", [0, 1, 2, 3])
def test_cut_inside_16_bit_code_magnitude_matches_oracle(residue, ends_block):
    data, n_mcus = cut_in_wide_magnitude(residue, ends_block)
    assert len(data) % 4 == residue and b"\xff" not in data
    for decode in (oracle.entropy_decode, entropy_decode):
        with pytest.raises(CorruptStreamError, match="truncated") as err:
            decode(data, n_mcus, [DC_LUMA], [WIDE_AC])
        assert err.value.offset == len(data)
    check_decode(data, n_mcus, ([DC_LUMA], [WIDE_AC]), 0)


# One code of each length 1..16: every prefix but the 16-bit all-ones one is
# a code (Kraft sum 1 - 2**-16), so a lookup over the 0xFF padding after a
# real bit or two can still find a long code.  DC category 11 and AC 0x0F
# get the 16-bit code 1111111111111110; DC 12..15 and AC 0x50 are invalid.
FULL_DC = HuffmanTable([1] * 16, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 15, 11])
FULL_AC = HuffmanTable(
    [1] * 16,
    [0x00, 0x01, 0x11, 0x02, 0xF0, 0x21, 0x03, 0x31,
     0x0A, 0x41, 0x50, 0x05, 0xE1, 0x1F, 0xF1, 0x0F],
)
FULL_TABLES = ([FULL_DC], [FULL_AC])


def full_table_scan():
    """Two MCUs that use the 16-bit codes, with 0xFF stuffing where due."""
    dc_codes = oracle._build_tables(FULL_DC.bits, FULL_DC.values)[0]
    ac_codes = oracle._build_tables(FULL_AC.bits, FULL_AC.values)[0]

    def code(codes, symbol, magnitude=""):
        value, length = codes[symbol]
        return format(value, f"0{length}b") + magnitude

    block = (
        code(dc_codes, 11, "10000000001")
        + code(ac_codes, 0x0F, "011111111111111")
        + code(ac_codes, 0x1F, "100000000000000")
        + code(ac_codes, 0xF0)
        + code(ac_codes, 0xE1, "1")
        + code(ac_codes, 0x00)
    )
    bits = block + code(dc_codes, 0) + code(ac_codes, 0x0A, "0000000001") + code(ac_codes, 0x00)
    bits += "1" * (-len(bits) % 8)
    return bits_to_bytes(bits).replace(b"\xff", b"\xff\x00")


def test_full_code_space_scan_decodes():
    data = full_table_scan()
    assert b"\xff\x00" in data
    got = entropy_decode(data, 2, *FULL_TABLES)[0]
    assert same_decode([got], oracle.entropy_decode(data, 2, *FULL_TABLES))
    assert got[0, 0] == 1025 and got[0, 1] == -16384 and got[0, 3] == 16384


@pytest.mark.parametrize(
    "tail", [b"", b"\xff\x00", b"\xfe", b"\x7f", b"\xff\x00\xfe", b"\x00", b"\xfd\xff\x00"]
)
def test_full_code_space_truncated_and_garbage_tails_match_oracle(tail):
    # Every cut of the scan, with the tail after it: the tails are bits the
    # long all-ones-like codes can absorb, or a stray 0 bit.
    data = full_table_scan()
    for cut in range(len(data) + 1):
        for n_mcus in (1, 2, 3):
            check_decode(data[:cut] + tail, n_mcus, FULL_TABLES, 613)


@settings(max_examples=100)
@given(
    data=st.lists(
        st.sampled_from([b"\xff\x00", b"\xfe", b"\x7f", b"\xfd", b"\xbf", b"\x00", b"\x80"]),
        max_size=24,
    ).map(b"".join),
    n_mcus=st.integers(0, 4),
)
def test_full_code_space_ones_heavy_bytes_match_oracle(data, n_mcus):
    check_decode(data, n_mcus, FULL_TABLES, 0)


# Windows of 1 and 7 scan bytes are rebuilt at nearly every MCU, so every
# decode below crosses window boundaries; the default one holds 64 KB.
SMALL_WINDOWS = [1, 7]


@pytest.mark.parametrize("window_bytes", SMALL_WINDOWS)
def test_small_windows_match_oracle(monkeypatch, window_bytes):
    monkeypatch.setattr(huffman, "_WINDOW_BYTES", window_bytes)
    test_decode_matches_oracle()
    test_decode_arbitrary_bytes_matches_oracle()


def window_starts(monkeypatch, data, n_mcus, tables):
    """The first unstuffed byte of each window one decode of ``data`` builds."""
    starts = []
    build = huffman._window

    def recording(padded, first, stop):
        starts.append(first)
        return build(padded, first, stop)

    with monkeypatch.context() as patch:
        patch.setattr(huffman, "_window", recording)
        entropy_decode(data, n_mcus, *tables)
    return starts


@pytest.mark.parametrize("window_bytes", SMALL_WINDOWS)
def test_cut_after_window_boundary_matches_oracle(monkeypatch, window_bytes):
    # Truncate the scan just after each window's first byte, and put
    # garbage there, with the window still at its small size.
    monkeypatch.setattr(huffman, "_WINDOW_BYTES", window_bytes)
    rng = np.random.default_rng(11)
    comps = [make_blocks(rng, 12, ("sparse", "zero", "long_runs"), True) for _ in range(3)]
    data = oracle.entropy_encode(comps, DC_TABLES, AC_TABLES)
    starts = window_starts(monkeypatch, data, 12, (DC_TABLES, AC_TABLES))
    assert len(starts) >= 3 and starts[1] > 0
    _, stuffed = oracle._unstuff(data, 0)
    for first in starts[1:]:
        at = first + bisect_right(stuffed, first)  # the window's first byte in ``data``
        for cut in range(at, min(at + 3, len(data)) + 1):
            for tail in (b"", b"\x00", b"\x5a\xff\x00", b"\xff\xd9"):
                check_decode(data[:cut] + tail, 12, (DC_TABLES, AC_TABLES), 613)


def test_qf100_scan_across_windows_round_trips(monkeypatch):
    img = synth_image("speckle", np.random.default_rng(3), 512, 512)
    table = standard_table(100, "luma")
    comps = _scan_blocks(img, [table] * 3)
    data = entropy_encode(comps, DC_TABLES, AC_TABLES)
    starts = window_starts(monkeypatch, data, 4096, (DC_TABLES, AC_TABLES))
    assert len(starts) >= 3
    decoded = entropy_decode(data, 4096, DC_TABLES, AC_TABLES)
    assert all(np.array_equal(a, b) for a, b in zip(comps, decoded))
