"""Scalar reference entropy coder: one Python call per bit-field.

This is the straightforward T.81 coder that ``statjpeg.huffman`` replaced
with a vectorized encoder and a fused table-driven decoder.  It is kept
here, for tests only, as the oracle those fast paths are compared against:
same bytes out of :func:`entropy_encode`, and from :func:`entropy_decode`
the same coefficients or the same exception class and byte offset.  The
oracle keeps its own copy of the byte unstuffing as well, so a change to the
library's unstuffing shows up in the marker-inserted cases.
"""

import functools
from bisect import bisect_right

import numpy as np

from statjpeg.errors import CorruptStreamError, EncodingRangeError, InvalidInputError
from statjpeg.huffman import MAX_AC, MAX_DC, MAX_DC_DIFF

_LUT_BITS = 16
_INT16 = np.iinfo(np.int16)


@functools.lru_cache(maxsize=64)
def _build_tables(bits, values):
    """Canonical code assignment plus the 16-bit prefix decode table."""
    encode = {}
    lut = [None] * (1 << _LUT_BITS)
    code = 0
    idx = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            symbol = values[idx]
            encode[symbol] = (code, length)
            start = code << (_LUT_BITS - length)
            span = 1 << (_LUT_BITS - length)
            lut[start:start + span] = [(symbol, length)] * span
            idx += 1
            code += 1
        code <<= 1
    return encode, lut


def _unstuff(data, base_offset):
    """Remove 0xFF00 stuffing; reject bare markers and trailing 0xFF."""
    out = bytearray()
    stuff_positions = []
    i = 0
    n = len(data)
    while True:
        j = data.find(0xFF, i)
        if j < 0:
            out += data[i:]
            break
        out += data[i:j + 1]
        if j + 1 >= n:
            raise CorruptStreamError(
                "scan data ends mid byte-stuffing", offset=base_offset + j
            )
        follow = data[j + 1]
        if follow != 0x00:
            raise CorruptStreamError(
                f"marker byte 0xFF{follow:02X} inside scan data",
                offset=base_offset + j,
            )
        stuff_positions.append(len(out))
        i = j + 2
    return bytes(out), stuff_positions


def _value_bits(value, size):
    # T.81 coding of the extra bits: negatives use the one's-complement form.
    return value if value >= 0 else value + (1 << size) - 1


def _extend(raw, size):
    if raw < (1 << (size - 1)):
        return raw - (1 << size) + 1
    return raw


class BitWriter:
    """Big-endian bit sink with JPEG 0xFF byte stuffing; pads with 1s."""

    def __init__(self):
        self._buf = bytearray()
        self._acc = 0
        self._n = 0

    def write(self, value, nbits):
        self._acc = (self._acc << nbits) | (value & ((1 << nbits) - 1))
        self._n += nbits
        while self._n >= 8:
            self._n -= 8
            byte = (self._acc >> self._n) & 0xFF
            self._buf.append(byte)
            if byte == 0xFF:
                self._buf.append(0x00)
        self._acc &= (1 << self._n) - 1

    def getvalue(self):
        if self._n:
            pad = 8 - self._n
            self.write((1 << pad) - 1, pad)
        return bytes(self._buf)


class BitReader:
    """Reads an unstuffed scan stream; refuses to consume past its end.

    ``base_offset`` positions error messages within the original file.
    """

    def __init__(self, data, base_offset=0):
        self._buf, self._stuff_positions = _unstuff(data, base_offset)
        self._base = base_offset
        self._total = 8 * len(self._buf)
        self._consumed = 0
        self._pos = 0
        self._acc = 0
        self._n = 0

    def _fill(self, need):
        while self._n < need:
            if self._pos < len(self._buf):
                self._acc = (self._acc << 8) | self._buf[self._pos]
                self._pos += 1
            else:
                self._acc = (self._acc << 8) | 0xFF  # virtual pad, never consumable
            self._n += 8

    def peek(self, nbits):
        self._fill(nbits)
        return (self._acc >> (self._n - nbits)) & ((1 << nbits) - 1)

    def skip(self, nbits):
        self._fill(nbits)
        self._consumed += nbits
        if self._consumed > self._total:
            raise CorruptStreamError("truncated scan data", offset=self.offset())
        self._n -= nbits
        self._acc &= (1 << self._n) - 1

    def read(self, nbits):
        value = self.peek(nbits)
        self.skip(nbits)
        return value

    def offset(self):
        """Original-file byte offset of the next unconsumed bit."""
        unstuffed = min(self._consumed // 8, len(self._buf))
        return self._base + unstuffed + bisect_right(self._stuff_positions, unstuffed)

    def remaining_bits(self):
        return self._total - self._consumed


def _read_symbol(reader, lut):
    entry = lut[reader.peek(_LUT_BITS)]
    if entry is None:
        raise CorruptStreamError("invalid Huffman prefix", offset=reader.offset())
    symbol, length = entry
    reader.skip(length)
    return symbol


def _encode_block(writer, zz, pred, dc_map, ac_map):
    dc = int(zz[0])
    diff = dc - pred
    if abs(diff) > MAX_DC_DIFF:
        raise EncodingRangeError(
            f"DC difference {diff} exceeds category 11 (8-bit baseline)"
        )
    size = abs(diff).bit_length()
    code, length = dc_map[size]
    if size:
        writer.write((code << size) | _value_bits(diff, size), length + size)
    else:
        writer.write(code, length)

    nonzero = np.nonzero(zz[1:])[0]
    prev = 0
    for pos in nonzero:
        run = int(pos) - prev
        while run > 15:
            zcode, zlen = ac_map[0xF0]
            writer.write(zcode, zlen)
            run -= 16
        value = int(zz[1 + pos])
        size = abs(value).bit_length()
        code, length = ac_map[(run << 4) | size]
        writer.write((code << size) | _value_bits(value, size), length + size)
        prev = int(pos) + 1
    if prev != 63:
        code, length = ac_map[0x00]  # EOB
        writer.write(code, length)
    return dc


def _decode_block(reader, out, pred, dc_lut, ac_lut):
    size = _read_symbol(reader, dc_lut)
    if size > 11:
        raise CorruptStreamError(
            f"invalid DC magnitude category {size}", offset=reader.offset()
        )
    diff = _extend(reader.read(size), size) if size else 0
    dc = pred + diff
    if not _INT16.min <= dc <= _INT16.max:
        raise CorruptStreamError(
            f"DC value {dc} outside the int16 range", offset=reader.offset()
        )
    out[0] = dc
    k = 1
    while k < 64:
        rs = _read_symbol(reader, ac_lut)
        run, size = rs >> 4, rs & 0x0F
        if size == 0:
            if rs == 0x00:  # EOB
                return dc
            if rs == 0xF0:  # ZRL
                k += 16
                if k > 64:
                    raise CorruptStreamError(
                        "zero run past end of block", offset=reader.offset()
                    )
                continue
            raise CorruptStreamError(
                f"invalid AC symbol 0x{rs:02X}", offset=reader.offset()
            )
        k += run
        if k > 63:
            raise CorruptStreamError(
                "coefficient run past end of block", offset=reader.offset()
            )
        out[k] = _extend(reader.read(size), size)
        k += 1
    return dc


def entropy_encode(component_blocks, dc_tables, ac_tables):
    """Encode per-component zig-zag block arrays into one scan bitstream.

    ``component_blocks`` holds one (n_mcus, 64) integer array per component;
    blocks are interleaved one per component per MCU (4:4:4 layout).
    """
    if not component_blocks:
        raise InvalidInputError("no components to encode")
    n_comp = len(component_blocks)
    if not (len(dc_tables) == len(ac_tables) == n_comp):
        raise InvalidInputError("need one DC and one AC table per component")
    arrays = []
    n_mcus = None
    for blocks in component_blocks:
        arr = np.asarray(blocks, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 64:
            raise InvalidInputError(f"expected (n, 64) block array, got {arr.shape}")
        if n_mcus is None:
            n_mcus = arr.shape[0]
        elif arr.shape[0] != n_mcus:
            raise InvalidInputError("components disagree on MCU count")
        if arr.size:
            if np.abs(arr[:, 1:]).max() > MAX_AC:
                raise EncodingRangeError(
                    f"AC coefficient magnitude exceeds {MAX_AC} "
                    "(category 10, 8-bit baseline)"
                )
            if np.abs(arr[:, 0]).max() > MAX_DC:
                raise EncodingRangeError(
                    f"DC coefficient magnitude exceeds {MAX_DC} (8-bit DCT range)"
                )
        arrays.append(arr)

    writer = BitWriter()
    preds = [0] * n_comp
    dc_maps = [_build_tables(t.bits, t.values)[0] for t in dc_tables]
    ac_maps = [_build_tables(t.bits, t.values)[0] for t in ac_tables]
    for mcu in range(n_mcus):
        for c in range(n_comp):
            preds[c] = _encode_block(
                writer, arrays[c][mcu], preds[c], dc_maps[c], ac_maps[c]
            )
    return writer.getvalue()


def entropy_decode(data, n_mcus, dc_tables, ac_tables, base_offset=0):
    """Exact inverse of :func:`entropy_encode`.

    Returns one (n_mcus, 64) int16 zig-zag array per component.  Raises
    :class:`CorruptStreamError` (with a byte offset) for invalid prefixes,
    a DC value outside int16, truncation, or bare markers inside the scan.
    """
    n_comp = len(dc_tables)
    if len(ac_tables) != n_comp:
        raise InvalidInputError("need one DC and one AC table per component")
    reader = BitReader(data, base_offset)
    out = [np.zeros((n_mcus, 64), dtype=np.int16) for _ in range(n_comp)]
    preds = [0] * n_comp
    dc_luts = [_build_tables(t.bits, t.values)[1] for t in dc_tables]
    ac_luts = [_build_tables(t.bits, t.values)[1] for t in ac_tables]
    for mcu in range(n_mcus):
        for c in range(n_comp):
            preds[c] = _decode_block(
                reader, out[c][mcu], preds[c], dc_luts[c], ac_luts[c]
            )
    if reader.remaining_bits() >= 8:
        raise CorruptStreamError(
            "trailing data after final block", offset=reader.offset()
        )
    return out
