"""The decoder's two-level lookup table against a slice-assignment reference."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from statjpeg import huffman
from statjpeg.huffman import _canonical_codes, _decode_lut, _extend

ANNEX_K = [
    (huffman.DC_LUMA_BITS, huffman.DC_LUMA_VALUES, True),
    (huffman.DC_CHROMA_BITS, huffman.DC_CHROMA_VALUES, True),
    (huffman.AC_LUMA_BITS, huffman.AC_LUMA_VALUES, False),
    (huffman.AC_CHROMA_BITS, huffman.AC_CHROMA_VALUES, False),
]


def reference_lut(bits, values, dc):
    """The table as a 65,536-entry list filled by slice assignment."""
    lut = [(0, 0, 0)] * (1 << 16)
    for symbol, code, length in _canonical_codes(bits, values):
        start = code << (16 - length)
        if dc:
            advance, size = 0, symbol
            fast = symbol <= 11
        else:
            advance, size = (symbol >> 4) + 1, symbol & 0x0F
            fast = size > 0 or symbol == 0xF0
        spare = 16 - length - size
        if fast and spare >= 0:
            step = 1 << spare
            for raw in range(1 << size):
                value = _extend(raw, size) if size else 0
                lo = start + raw * step
                lut[lo:lo + step] = [(length + size, advance, value)] * step
        else:
            span = 1 << (16 - length)
            lut[start:start + span] = [(-length, symbol, 0)] * span
    return tuple(lut)


def build(bits, values, dc):
    return _decode_lut.__wrapped__(bits, values, dc)  # past the cache


def two_level_reference(flat):
    """The layout of ``_decode_lut`` made from the 16-bit reference."""
    groups = (flat[i:i + 8] for i in range(0, 1 << 16, 8))
    return tuple(g[0] if len(set(g)) == 1 else (0, 1, g) for g in groups)


def check_against_reference(bits, values, dc):
    flat = reference_lut(bits, values, dc)
    lut = build(bits, values, dc)
    assert lut == two_level_reference(flat)
    # every 16-bit value resolves through the two levels to its entry
    for bits16, want in enumerate(flat):
        entry = lut[bits16 >> 3]
        if entry[0] == 0 and entry[1]:
            entry = entry[2][bits16 & 7]
        assert entry == want, bits16


@pytest.mark.parametrize("bits, values, dc", ANNEX_K)
def test_annex_k_tables_match_reference(bits, values, dc):
    check_against_reference(bits, values, dc)


@st.composite
def valid_tables(draw, long_codes=False):
    """BITS and HUFFVAL that HuffmanTable accepts, and a DC/AC flag.

    With ``long_codes``, the table has at least one 16-bit code.
    """
    bits, used = [], 0
    for length in range(1, 17):
        reserved = 1 if long_codes and length < 16 else 0  # a 16-bit code kept free
        room = ((1 << 16) - 1 - reserved - used) >> (16 - length)  # and the all-ones one
        low = 1 if long_codes and length == 16 else 0
        count = draw(st.integers(low, min(room, 256 - reserved - sum(bits), 24)))
        bits.append(count)
        used += count << (16 - length)
    values = draw(st.permutations(range(256)))[:sum(bits)]
    huffman.HuffmanTable(bits, values)
    return tuple(bits), tuple(values), draw(st.booleans())


@settings(max_examples=25)
@given(st.one_of(valid_tables(), valid_tables(long_codes=True)))
def test_drawn_tables_match_reference(table):
    check_against_reference(*table)


@pytest.mark.parametrize("bits, values, dc", ANNEX_K)
def test_build_needs_no_more_memory_than_reference(bits, values, dc):
    assert traced_peak(build, bits, values, dc) <= traced_peak(reference_lut, bits, values, dc)


def test_annex_k_tables_fit_in_three_quarters_of_a_mib():
    # The flat 65,536-entry tables held 2.2 MiB for these four.
    def build_all():
        return [build(*table) for table in ANNEX_K]

    assert traced_peak(build_all) <= 0.75 * 2**20
