"""The decoder's 16-bit lookup table against a slice-assignment reference."""

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


@pytest.mark.parametrize("bits, values, dc", ANNEX_K)
def test_annex_k_tables_match_reference(bits, values, dc):
    assert build(bits, values, dc) == reference_lut(bits, values, dc)


@st.composite
def valid_tables(draw):
    """BITS and HUFFVAL that HuffmanTable accepts, and a DC/AC flag."""
    bits, used = [], 0
    for length in range(1, 17):
        room = ((1 << 16) - 1 - used) >> (16 - length)  # the all-ones code stays free
        count = draw(st.integers(0, min(room, 256 - sum(bits), 24)))
        bits.append(count)
        used += count << (16 - length)
    values = draw(st.permutations(range(256)))[:sum(bits)]
    huffman.HuffmanTable(bits, values)
    return tuple(bits), tuple(values), draw(st.booleans())


@settings(max_examples=25)
@given(valid_tables())
def test_drawn_tables_match_reference(table):
    assert build(*table) == reference_lut(*table)


@pytest.mark.parametrize("bits, values, dc", ANNEX_K)
def test_build_needs_no_more_memory_than_reference(bits, values, dc):
    assert traced_peak(build, bits, values, dc) <= traced_peak(reference_lut, bits, values, dc)
