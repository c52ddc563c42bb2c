"""Baseline JPEG entropy coding: DPCM-coded DC, run-length coded AC, Huffman.

The default code tables are the ITU T.81 Annex K set.  The encoder's code
arrays (per set of scan tables) and each table's decode lookup table are
built on first use and cached by (BITS, HUFFVAL), so importing the module
builds none of them.

Encoding is vectorized over chunks of MCUs, each bounded both in MCUs and
in the code words it holds, so its temporaries stay small for dense and
sparse scans alike.  Each block becomes code words in stream order: one
for the DC difference and one for each nonzero AC coefficient, with the
block's EOB appended to its last word and the ZRLs before a coefficient in
a word of their own.  The words are ORed into big-endian 64-bit output
words at their cumulative bit positions, and 0xFF stuffing is one
``bytes.replace`` over the finished scan.

Decoding reads the scan through a window: ``win[p]`` holds the 13 scan
bits that start at bit ``p``, built with numpy for a bounded span of scan
bytes at a time.  A symbol is then one table lookup, ``lut[win[p]]``, and
one ``p += consume``, with no bit accumulator to refill.  The entry is that
of a 16-bit table: when a code and its magnitude bits fit in 16 bits
together, it holds the bits to consume, the step to the coefficient's
index and the sign-extended value; otherwise it holds the code length and
the symbol, and the magnitude bits are read from the window next.  The
table's first level holds the entry itself wherever the next 13 bits
settle it.  The few prefixes that need more (a code and magnitude of 14 to
16 bits together) point to 8 entries indexed by the top 3 bits of
``win[p + 13]``, so the four Annex K tables take about a quarter of the
memory of flat 65,536-entry ones.  A code-alone entry is turned into the
same ``(consume, advance, value)`` triple once its magnitude is read, so
every entry, from either level, ends in one run check, one ``p += consume``
and one store.
"""

import functools
import itertools
import re

import numpy as np

from .errors import CorruptStreamError, EncodingRangeError, InvalidInputError
from .quant import integers, real_array

# 8-bit baseline: AC coefficients are coded by magnitude category <= 10.
# DC is DPCM-coded, so its own bound is the 8-bit DCT range (|dc| <= 1024)
# plus the requirement that every difference fits category <= 11.
MAX_AC = 1023
MAX_DC = 1024
MAX_DC_DIFF = 2047

# Annex K default Huffman table specifications (BITS, HUFFVAL).
DC_LUMA_BITS = (0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0)
DC_LUMA_VALUES = tuple(range(12))

DC_CHROMA_BITS = (0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0)
DC_CHROMA_VALUES = tuple(range(12))

AC_LUMA_BITS = (0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 125)
AC_LUMA_VALUES = (
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
    0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
    0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
    0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0,
    0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16,
    0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
    0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
    0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
    0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
    0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
    0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
    0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
    0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
    0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5,
    0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4,
    0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
    0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA,
    0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
    0xF9, 0xFA,
)

AC_CHROMA_BITS = (0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 119)
AC_CHROMA_VALUES = (
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21,
    0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
    0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
    0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0,
    0x15, 0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34,
    0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
    0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38,
    0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
    0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
    0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
    0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
    0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
    0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96,
    0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
    0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
    0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3,
    0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2,
    0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9,
    0xEA, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
    0xF9, 0xFA,
)

# The decode table's layout is fixed at 13 + 3 bits: its first level is
# indexed by the next 13 bits and its second level by the 3 after them (see
# _decode_lut).  _window builds 13-bit values, and entropy_decode's symbol
# loop reads ``win[p]`` for the first level, ``win[p + 13] >> 10`` for the
# second and ``(win[p] << 13 | win[p + 13])`` for magnitude bits, so the
# three must change together.

# The encoder codes a chunk of MCUs per vectorized pass: at most _CHUNK_MCUS
# MCUs whose blocks code at most _CHUNK_WORDS words, or one MCU.  Its
# temporaries scale with these bounds instead of with the image, so its
# working memory is bounded for any image size and any coefficient density.
_CHUNK_MCUS = 1024
_CHUNK_WORDS = 1 << 14

# Scan bytes the decoder builds its window for at a time.  The window
# takes 16 bytes per scan byte, so this bounds it at about 256 KiB for any
# scan.
_WINDOW_BYTES = 1 << 14

# Bits one block can read, for any byte string: a DC code and its magnitude
# (16 + 11 bits), then at most 63 AC reads of a code and its magnitude
# (16 + 15 bits each).  That is 1,980 bits.  Every read (a first-level
# lookup, a second-level lookup or a magnitude read) peeks at most 26 bits
# from the bit where it starts, ``win[p]`` and ``win[p + 13]``, so one more
# lookup after the block reaches 2,006 bits at most.
_BLOCK_BITS = 2048

_INVALID = (0, 0, 0)  # decode-table entry for a prefix no code starts with

# T.81 F.1.2.3: inside a scan every 0xFF data byte is followed by a stuffed
# 0x00, so the first 0xFF that is not (or that ends the bytes) is a marker.
SCAN_END = re.compile(rb"\xff(?!\x00)")


def _canonical_codes(bits, values):
    """Yield (symbol, code, length) in the T.81 Annex C assignment order."""
    code = 0
    idx = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            yield values[idx], code, length
            idx += 1
            code += 1
        code <<= 1


@functools.lru_cache(maxsize=32)
def _scan_code_arrays(specs):
    """Encoder tables for a scan whose components use ``specs``.

    ``specs`` holds (DC BITS, DC HUFFVAL, AC BITS, AC HUFFVAL) per
    component.  Component ``c`` owns entries ``512 c`` to ``512 c + 511`` of
    the code and length arrays: its AC symbols, then its DC symbols at
    256 + symbol.  A length of 0 means the table has no code for that
    symbol.  Entry ``4 c + z`` of the ZRL arrays is ``z`` of component
    ``c``'s ZRL codes in a row (z = 0..3).  ``block_base`` is the first
    entry of each block's component, for the blocks of a full chunk.
    """
    n_comp = len(specs)
    codes = np.zeros(512 * n_comp, dtype=np.uint64)
    lengths = np.zeros(512 * n_comp, dtype=np.uint64)
    zrl_words = np.zeros(4 * n_comp, dtype=np.uint64)
    zrl_lengths = np.zeros(4 * n_comp, dtype=np.uint64)
    for c, (dc_bits, dc_values, ac_bits, ac_values) in enumerate(specs):
        ac_base, dc_base = 512 * c, 512 * c + 256
        for base, bits, values in ((ac_base, ac_bits, ac_values), (dc_base, dc_bits, dc_values)):
            for symbol, code, length in _canonical_codes(bits, values):
                codes[base + symbol] = code
                lengths[base + symbol] = length
        zrl_code, zrl_len = int(codes[ac_base + 0xF0]), int(lengths[ac_base + 0xF0])
        word = 0
        for z in range(4):
            zrl_words[4 * c + z] = word
            zrl_lengths[4 * c + z] = z * zrl_len
            word = (word << zrl_len) | zrl_code
    block_base = np.tile(np.arange(0, 512 * n_comp, 512), _CHUNK_MCUS)
    arrays = codes, lengths, zrl_words, zrl_lengths, block_base
    for array in arrays:  # shared by every call through the cache
        array.flags.writeable = False
    return arrays


def _extend(raw, size):
    # T.81 F.2.2.1 EXTEND: the magnitude bits of a negative value are its
    # one's complement.
    if raw < (1 << (size - 1)):
        return raw - (1 << size) + 1
    return raw


@functools.lru_cache(maxsize=32)
def _decode_lut(bits, values, dc):
    """Two-level prefix lookup table of ``(consume, advance, value)`` entries.

    Each value of the next 16 scan bits has an entry.  ``consume > 0``: the
    next ``consume`` bits are a code and its magnitude bits, and the
    coefficient (for DC, the difference) is ``value``.  An AC coefficient
    sits ``advance`` (its zero run + 1) places after the one before it; for
    DC, ``advance`` is 0.  ZRL is read as the coefficient 0 after 15 zeros,
    so its entry is ``(length, 16, 0)``, the only AC entry with value 0.
    ``consume < 0``: the code is ``-consume`` bits long and ``advance``
    holds its symbol; magnitude bits, if any, follow.  ``consume == 0``: no
    code has this prefix.

    The table is indexed by the next 13 bits.  Entry ``i`` is the 16-bit
    entry of every 16 bits that start with ``i`` when those eight entries
    are equal, and otherwise ``(0, 1, sub)``: ``sub[j]`` is the 16-bit entry
    of ``i`` followed by the 3 bits ``j``.  Equal entries share one tuple.
    """
    lut, short = [], []  # short: the entries of runs of fewer than 8
    for entry, count in _lut_runs(bits, values, dc):
        if count < 8:
            short += [entry] * count
        else:
            # Runs of 8 or more start on a multiple of 8, but for the last one.
            fill = -len(short) % 8
            short += [entry] * fill
            lut += _first_level(short)
            short = []
            lut += itertools.repeat(entry, (count - fill) >> 3)
    lut += _first_level(short)
    # a tuple, as it is shared by every call through the cache
    return tuple(lut)


def _first_level(entries):
    """The first-level entries for 16-bit ``entries``, eight to each."""
    return [g[0] if g.count(g[0]) == 8 else (0, 1, g) for g in zip(*[iter(entries)] * 8)]


def _lut_runs(bits, values, dc):
    """The 16-bit decode entries as ``(entry, count)`` runs, in prefix order.

    Canonical codes are consecutive (T.81 Annex C), so the prefixes of the
    codes tile the 16-bit values from 0 up, and only the values after the
    last one start no code.  Each run but the last is ``count``, a power of
    two, entries from a multiple of ``count``.
    """
    end = 0
    for symbol, code, length in _canonical_codes(bits, values):
        if dc:
            advance, size = 0, symbol
            fast = symbol <= 11
        else:
            advance, size = (symbol >> 4) + 1, symbol & 0x0F
            fast = size > 0 or symbol == 0xF0  # ZRL: 16 zeros, value 0
        spare = 16 - length - size
        if fast and spare >= 0:
            for raw in range(1 << size):
                value = _extend(raw, size) if size else 0
                yield (length + size, advance, value), 1 << spare
        else:
            yield (-length, symbol, 0), 1 << (16 - length)
        end = (code + 1) << (16 - length)
    yield _INVALID, (1 << 16) - end


class HuffmanTable:
    """One DHT-style Huffman table (16 length counts + symbol values).

    The table must be a prefix code that leaves the all-ones code unused
    (T.81 Annex C): BITS whose Kraft sum reaches 1 are rejected.
    """

    def __init__(self, bits, values):
        bits = integers(bits, "Huffman BITS")
        values = integers(values, "Huffman symbol values")
        if len(bits) != 16:
            raise InvalidInputError("Huffman BITS must have 16 entries")
        if sum(bits) != len(values):
            raise InvalidInputError(
                f"Huffman table declares {sum(bits)} codes but lists {len(values)} values"
            )
        if values and not 0 <= min(values) <= max(values) <= 255:
            raise InvalidInputError("Huffman symbol values must be bytes (0..255)")
        kraft = sum(count << (16 - length) for length, count in enumerate(bits, 1))
        if kraft > 1 << 16:
            raise InvalidInputError(
                "Huffman BITS over-subscribe the code space (Kraft sum above 1)"
            )
        if kraft == 1 << 16:
            raise InvalidInputError(
                "Huffman table assigns the all-ones code (T.81 Annex C)"
            )
        self.bits = bits
        self.values = values


DC_LUMA = HuffmanTable(DC_LUMA_BITS, DC_LUMA_VALUES)
DC_CHROMA = HuffmanTable(DC_CHROMA_BITS, DC_CHROMA_VALUES)
AC_LUMA = HuffmanTable(AC_LUMA_BITS, AC_LUMA_VALUES)
AC_CHROMA = HuffmanTable(AC_CHROMA_BITS, AC_CHROMA_VALUES)


def _unstuff(data, base_offset):
    """Remove 0xFF00 stuffing; reject bare markers and trailing 0xFF."""
    marker = SCAN_END.search(data)
    if marker is None:
        return data.replace(b"\xff\x00", b"\xff")
    j = marker.start()
    if marker.end() == len(data):
        raise CorruptStreamError(
            "scan data ends mid byte-stuffing", offset=base_offset + j
        )
    raise CorruptStreamError(
        f"marker byte 0xFF{data[j + 1]:02X} inside scan data", offset=base_offset + j
    )


def _pack(out, words, ends, nbits):
    """OR right-aligned ``words`` into the big-endian 64-bit words ``out``.

    Word ``i`` fills stream bits ``ends[i] - nbits[i]`` up to ``ends[i]``;
    one that crosses a 64-bit boundary spills into the next output word.
    Words never overlap, so ORing them equals placing them.  They come in
    stream order, so the heads that share an output word are adjacent and
    are ORed together first.
    """
    idx = (ends - nbits) >> np.uint64(6)
    stop = ends - (idx << np.uint64(6))  # 1..127 bits into out[idx]
    head = (words << (np.uint64(64) - np.minimum(stop, np.uint64(64)))) >> (
        np.maximum(stop, np.uint64(64)) - np.uint64(64)
    )
    starts = np.empty(idx.size, dtype=bool)  # the first head in each output word
    starts[0] = True
    np.not_equal(idx[1:], idx[:-1], out=starts[1:])
    starts = np.flatnonzero(starts)
    out[idx[starts]] |= np.bitwise_or.reduceat(head, starts)
    spill = np.flatnonzero(stop > 64)
    out[idx[spill] + 1] |= words[spill] << (np.uint64(128) - stop[spill])


def _code_words(blocks, present, tables):
    """Code words for the coefficients of ``blocks`` marked in ``present``.

    ``blocks`` (n, 64) is in zig-zag order with DC differences.

    Returns ``(words, nbits, zrl)`` in stream order, one word per DC
    difference and per nonzero AC coefficient: ``words[i]`` holds
    ``nbits[i]`` right-aligned bits, with its block's EOB appended to the
    block's last word.  ``zrl`` is None, or ``(at, words, nbits)`` for the
    ZRL codes that go right before the words at positions ``at``.

    Every per-coefficient temporary lives in this function, so none of
    them is still held while the words are packed.
    """
    codes, lengths, zrl_words, zrl_lengths, block_base = tables
    flat = np.flatnonzero(present)
    values = blocks.ravel()[flat].astype(np.int64, copy=False)
    zigzag = flat & 63
    is_ac = zigzag != 0
    size = np.frexp(values)[1].astype(np.int64)  # category: bit length of |value|
    if size.max() > 10 and (size[is_ac] > 10).any():
        raise EncodingRangeError(
            f"AC coefficient magnitude exceeds {MAX_AC} (category 10, 8-bit baseline)"
        )
    run = np.diff(zigzag, prepend=0) - 1  # negative at DC events
    table = block_base[:len(blocks)]
    index = table[flat >> 6] + np.where(is_ac, ((run & 15) << 4) | size, 256 | size)
    nbits = lengths[index]
    if not nbits.all():
        missing = int(index[np.argmin(nbits)]) & 0xFF
        raise InvalidInputError(f"Huffman table has no code for symbol 0x{missing:02X}")
    # Magnitude bits: a negative value is sent as value - 1 in ``size`` bits.
    values -= values < 0
    values &= (1 << size) - 1
    shift = size.view(np.uint64)
    words = values.view(np.uint64)
    words |= codes[index] << shift
    nbits += shift

    # EOB closes each block whose last coefficient is not at zig-zag 63; its
    # code is appended to that block's last word (at most 27 + 16 bits).
    last = np.append(np.flatnonzero(~is_ac[1:]), flat.size - 1)
    needs_eob = zigzag[last] != 63
    eob, eob_table = last[needs_eob], table[needs_eob]
    eob_bits = lengths[eob_table]
    if not eob_bits.all():
        raise InvalidInputError("Huffman table has no code for symbol 0x00")
    words[eob] = (words[eob] << eob_bits) | codes[eob_table]
    nbits[eob] += eob_bits

    # A run of 16 or more zeros puts up to three ZRL codes before the
    # coefficient's word.  They are packed as a word of their own: with
    # 16-bit ZRL codes, folding them in could exceed 64 bits.
    at = np.flatnonzero(run > 15)
    if not at.size:
        return words, nbits, None
    zrl = 4 * (table[flat[at] >> 6] // 512) + (run[at] >> 4)
    if not zrl_lengths[zrl].all():
        raise InvalidInputError("Huffman table has no code for symbol 0xF0")
    return words, nbits, (at, zrl_words[zrl], zrl_lengths[zrl])


def _encode_chunk(zz, present, preds, tables, carry, carry_bits):
    """Code one chunk of MCUs, ``zz`` (n_mcus, n_comp, 64), into bytes.

    ``present`` marks the coefficients coded as words (see _chunks).  ``zz``
    is overwritten.  ``preds`` holds each component's DC predictor
    and is updated in place.  The chunk's bit stream starts with the
    ``carry_bits`` bits of ``carry``; the fewer than 8 bits left after its
    last whole byte are returned as the next (carry, carry_bits).
    """
    dc = zz[:, :, 0]
    if np.abs(dc, dtype=np.int64).max() > MAX_DC:
        raise EncodingRangeError(
            f"DC coefficient magnitude exceeds {MAX_DC} (8-bit DCT range)"
        )
    diff = np.diff(dc, axis=0, prepend=preds[None, :])
    preds[:] = dc[-1]
    too_far = np.flatnonzero(np.abs(diff) > MAX_DC_DIFF)
    if too_far.size:
        raise EncodingRangeError(
            f"DC difference {int(diff.flat[too_far[0]])} exceeds category 11 "
            "(8-bit baseline)"
        )
    zz[:, :, 0] = diff

    # Blocks interleave one per component per MCU, so the rows of ``zz``
    # flattened are already in stream order.
    words, nbits, zrl = _code_words(zz.reshape(-1, 64), present, tables)
    span = nbits
    if zrl:
        at, zrl_words, zrl_bits = zrl
        span = nbits.copy()
        span[at] += zrl_bits
    ends = np.cumsum(span) + np.uint64(carry_bits)
    total = int(ends[-1])
    out = np.zeros((total + 63) >> 6, dtype=np.uint64)
    out[0] = carry << (64 - carry_bits)
    _pack(out, words, ends, nbits)
    if zrl:
        _pack(out, zrl_words, ends[at] - nbits[at], zrl_bits)

    raw = out.astype(">u8").tobytes()
    whole, left = divmod(total, 8)
    return raw[:whole], (raw[whole] >> (8 - left) if left else 0), left


def _chunks(arrays, n_mcus):
    """Yield ``(zz, present)`` for runs of MCUs that tile ``range(n_mcus)``.

    ``zz`` (n, n_comp, 64) holds the run's blocks in stream order and
    ``present`` marks its coefficients coded as words: every DC and each
    nonzero AC.  A run is first taken at the size the words per MCU of the
    run before it allow (the first at _CHUNK_MCUS), and cut after the last
    MCU that keeps it within _CHUNK_WORDS words.
    """
    n_comp = len(arrays)
    # The codec's int16 scans are copied as int16, any other input as int64:
    # a narrower copy could wrap the out-of-range values the range checks
    # must see.
    dtype = np.int16 if all(arr.dtype == np.int16 for arr in arrays) else np.int64
    first, size = 0, _CHUNK_MCUS
    while first < n_mcus:
        stop = min(n_mcus, first + size)
        zz = np.empty((stop - first, n_comp, 64), dtype=dtype)
        for c, arr in enumerate(arrays):
            zz[:, c] = arr[first:stop]
        present = zz != 0
        present[:, :, 0] = True
        n, words = len(zz), np.count_nonzero(present)
        if words > _CHUNK_WORDS and n > 1:
            ends = np.cumsum(present.reshape(n, -1).sum(axis=1))
            n = max(1, int(np.searchsorted(ends, _CHUNK_WORDS, side="right")))
            zz, present, words = zz[:n], present[:n], int(ends[n - 1])
            if 2 * n < len(ends):  # free most of an oversized run before coding
                zz, present = zz.copy(), present.copy()
        yield zz, present
        size = min(_CHUNK_MCUS, max(1, n * _CHUNK_WORDS // words))
        first += n


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
        arr = real_array(blocks, "coefficient blocks")
        if arr.dtype.kind == "f":  # a fraction would be truncated without a word
            raise InvalidInputError(f"coefficient blocks must be integers, got dtype {arr.dtype}")
        if arr.ndim != 2 or arr.shape[1] != 64:
            raise InvalidInputError(f"expected (n, 64) block array, got {arr.shape}")
        if n_mcus is None:
            n_mcus = arr.shape[0]
        elif arr.shape[0] != n_mcus:
            raise InvalidInputError("components disagree on MCU count")
        arrays.append(arr)

    tables = _scan_code_arrays(tuple(
        (dc.bits, dc.values, ac.bits, ac.values) for dc, ac in zip(dc_tables, ac_tables)
    ))
    preds = np.zeros(n_comp, dtype=np.int64)
    parts = []
    carry = carry_bits = 0
    for zz, present in _chunks(arrays, n_mcus):
        data, carry, carry_bits = _encode_chunk(zz, present, preds, tables, carry, carry_bits)
        parts.append(data)
    if carry_bits:
        pad = 8 - carry_bits
        parts.append(bytes([(carry << pad) | ((1 << pad) - 1)]))
    return b"".join(parts).replace(b"\xff", b"\xff\x00")


def _window(buf, first, stop):
    """``win[i]``: the 13 bits of ``buf`` that start at bit ``8 * first + i``.

    Covers ``i < 8 * (stop - first)``, reading 0xFF past the end of ``buf``.
    One unaligned big-endian 32-bit view at byte stride gives every byte's
    next four bytes, and each of the 8 bit offsets is one shift.
    """
    n = stop - first
    padded = buf[first:stop + 3].ljust(n + 3, b"\xff")
    words = np.ndarray((n,), dtype=">u4", buffer=padded, strides=(1,))
    win = np.empty((n, 8), dtype=np.uint16)
    for bit in range(8):
        np.right_shift(words, 19 - bit, out=win[:, bit], casting="unsafe")
    win &= 0x1FFF
    return memoryview(win.reshape(-1))


def entropy_decode(data, n_mcus, dc_tables, ac_tables, base_offset=0):
    """Exact inverse of :func:`entropy_encode`.

    Returns one (n_mcus, 64) int16 zig-zag array per component.  Raises
    :class:`CorruptStreamError` (with a byte offset) for invalid prefixes,
    out-of-range symbols or runs, a DC value outside int16, truncation,
    trailing data, bare markers inside the scan, and a scan too short for
    the declared block count.
    """
    n_comp = len(dc_tables)
    if len(ac_tables) != n_comp:
        raise InvalidInputError("need one DC and one AC table per component")
    (n_mcus,) = integers([n_mcus], "block count", 0)
    buf = _unstuff(data, base_offset)
    total = 8 * len(buf)
    # Every block takes at least 2 bits (a 1-bit DC code and a 1-bit EOB or
    # AC code), so the declared size can be checked before allocating.
    if 2 * n_mcus * n_comp > total:
        raise CorruptStreamError(
            f"scan of {total} bits cannot hold {n_mcus * n_comp} blocks",
            offset=base_offset,
        )

    def corrupt(message, consumed):
        # Reads are not checked against the scan's end (see below), so any
        # failure after it is reported as the truncation that led to it.
        if consumed > total:
            message = "truncated scan data"
        unstuffed = min(consumed // 8, len(buf))
        # Each 0xFF before ``unstuffed`` lost the 0x00 stuffed after it.
        offset = base_offset + unstuffed + buf.count(b"\xff", 0, unstuffed)
        return CorruptStreamError(message, offset=offset)

    out = [np.zeros(64 * n_mcus, dtype=np.int16) for _ in range(n_comp)]
    comps = [
        (
            c,
            _decode_lut(dc.bits, dc.values, True),
            _decode_lut(ac.bits, ac.values, False),
            memoryview(out[c]),
        )
        for c, (dc, ac) in enumerate(zip(dc_tables, ac_tables))
    ]
    preds = [0] * n_comp
    # Symbols are read from ``win``, the window of the scan from bit
    # ``origin`` on, and reads are not checked against the scan's end.  An
    # MCU that starts at ``p <= limit`` reads at most ``margin`` bits (see
    # _BLOCK_BITS), so the window covers ``limit + margin`` bits and is
    # rebuilt at the first MCU that starts past ``limit``.  Past the scan's
    # end it reads 0xFF padding.  No table assigns the all-ones code, so a
    # lookup that starts past the end finds no code: only one symbol (up to
    # 16 code and 15 magnitude bits) and one 26-bit peek reach past the end,
    # and a window starts at most 4 bytes after it.  A symbol that ends the
    # final block past the end is caught after the loop.
    margin = _BLOCK_BITS * n_comp
    reach = margin // 8 + 2  # window bytes past ``limit``, with the last peek
    origin = p = 0  # bits consumed = origin + p
    limit = -1
    for base in range(0, 64 * n_mcus, 64):
        if p > limit:
            first = (origin >> 3) + (p >> 3)
            origin, p = 8 * first, p & 7
            last = max(first, min(first + _WINDOW_BYTES, len(buf)))
            win = _window(buf, first, last + reach)
            limit = 8 * (last - first)
        for c, dc_lut, ac_lut, coef in comps:
            ln, size, value = dc_lut[win[p]]
            if ln <= 0:
                if not ln:  # no code, or a second level for the next 3 bits
                    if not size:
                        raise corrupt("invalid Huffman prefix", origin + p)
                    ln, size, value = value[win[p + 13] >> 10]
                    if not ln:
                        raise corrupt("invalid Huffman prefix", origin + p)
                if ln < 0:  # the code alone; its magnitude bits follow
                    at = p - ln
                    if size > 11:
                        raise corrupt(f"invalid DC magnitude category {size}", origin + at)
                    value = _extend((win[at] << 13 | win[at + 13]) >> (26 - size), size)
                    ln = size - ln
            p += ln
            value += preds[c]
            preds[c] = value
            try:
                coef[base] = value
            except ValueError:  # the int16 store; differences are unbounded
                raise corrupt(
                    f"DC value {value} outside the int16 range", origin + p
                ) from None

            k = base  # index of the last coefficient stored
            end = base + 63
            while k < end:
                ln, advance, value = ac_lut[win[p]]
                if ln <= 0:
                    if not ln:
                        if not advance:
                            raise corrupt("invalid Huffman prefix", origin + p)
                        ln, advance, value = value[win[p + 13] >> 10]
                        if not ln:
                            raise corrupt("invalid Huffman prefix", origin + p)
                    if ln < 0:  # the code alone; ``advance`` holds its symbol
                        at, size = p - ln, advance & 0x0F
                        if not size:
                            if advance:
                                raise corrupt(f"invalid AC symbol 0x{advance:02X}", origin + at)
                            p = at
                            break  # EOB
                        value = _extend((win[at] << 13 | win[at + 13]) >> (26 - size), size)
                        ln, advance = size - ln, (advance >> 4) + 1
                k += advance
                if k > end:  # reported where the code ends, before its magnitude
                    what = "zero" if value == 0 else "coefficient"  # 0: ZRL
                    code_end = origin + p + ln - abs(value).bit_length()
                    raise corrupt(f"{what} run past end of block", code_end)
                p += ln
                coef[k] = value

    consumed = origin + p
    if consumed > total:
        raise corrupt("truncated scan data", consumed)
    if total - consumed >= 8:
        raise corrupt("trailing data after final block", consumed)
    return [coef.reshape(n_mcus, 64) for coef in out]
