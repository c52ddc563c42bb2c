"""JFIF 1.01 marker segments: writer, parser, and structure validator.

Only the baseline sequential subset is handled: 8-bit precision, SOF0,
1 or 3 components, 1x1 sampling, 8-bit DQT entries, Huffman coding, no
restart intervals.  :func:`parse_jpeg` is the one place that decides it.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptStreamError, InvalidInputError, UnsupportedFeatureError
from .huffman import SCAN_END, HuffmanTable
from .quant import ZIGZAG_INDEX, QuantTable, inverse_zigzag

SOI = 0xD8
EOI = 0xD9
SOS = 0xDA
DQT = 0xDB
DHT = 0xC4
SOF0 = 0xC0
APP0 = 0xE0
COM = 0xFE
DRI = 0xDD
DNL = 0xDC

_SOF_NAMES = {
    0xC0: "SOF0", 0xC1: "SOF1", 0xC2: "SOF2", 0xC3: "SOF3",
    0xC5: "SOF5", 0xC6: "SOF6", 0xC7: "SOF7",
    0xC9: "SOF9", 0xCA: "SOF10", 0xCB: "SOF11",
    0xCD: "SOF13", 0xCE: "SOF14", 0xCF: "SOF15",
}
_MARKER_NAMES = {
    None: "scan", SOI: "SOI", EOI: "EOI", SOS: "SOS", DQT: "DQT", DHT: "DHT",
    COM: "COM", DRI: "DRI", DNL: "DNL", **_SOF_NAMES,
    **{APP0 + n: f"APP{n}" for n in range(16)},
}


def _segment(marker, payload):
    return struct.pack(">BBH", 0xFF, marker, len(payload) + 2) + payload


def app0_segment():
    """JFIF 1.01, no units, 1x1 density, no thumbnail."""
    return _segment(APP0, b"JFIF\x00" + struct.pack(">BBBHHBB", 1, 1, 0, 1, 1, 0, 0))


def dqt_segment(table_id, table):
    """8-bit precision (Pq=0) table, entries stored in zig-zag order."""
    zz = table.values[ZIGZAG_INDEX]  # steps in [1, 255] (QuantTable)
    return _segment(DQT, struct.pack("B", table_id) + zz.astype(np.uint8).tobytes())


def sof0_segment(width, height, components):
    """``components``: sequence of (component_id, quant_table_id), each sampled 1x1."""
    payload = struct.pack(">BHHB", 8, height, width, len(components))
    for ident, tq in components:
        payload += struct.pack("BBB", ident, 0x11, tq)
    return _segment(SOF0, payload)


def dht_segment(table_class, table_id, table):
    payload = struct.pack("B", (table_class << 4) | table_id)
    payload += bytes(table.bits) + bytes(table.values)
    return _segment(DHT, payload)


def sos_segment(components):
    """``components``: sequence of (component_id, dc_table_id, ac_table_id)."""
    payload = struct.pack("B", len(components))
    for ident, dc_id, ac_id in components:
        payload += struct.pack("BB", ident, (dc_id << 4) | ac_id)
    payload += struct.pack("BBB", 0, 63, 0)
    return _segment(SOS, payload)


@dataclass
class FrameComponent:
    ident: int
    tq: int
    dc_id: int = None
    ac_id: int = None


@dataclass
class ParsedJpeg:
    width: int = 0
    height: int = 0
    components: list = field(default_factory=list)
    qtables: dict = field(default_factory=dict)      # id -> QuantTable
    htables: dict = field(default_factory=dict)      # (class, id) -> HuffmanTable
    scan_offset: int = 0
    scan_data: bytes = b""


class _Payload:
    """Reader over one segment's bytes that never reads past its end.

    ``pos`` and every error offset are positions in the whole file.
    """

    def __init__(self, data, pos, end):
        self.data = data
        self.pos = pos
        self.end = end

    def take(self, n, what):
        if self.pos + n > self.end:
            raise CorruptStreamError(f"truncated {what}", offset=self.pos)
        self.pos += n
        return self.data[self.pos - n:self.pos]

    def u8(self, what):
        return self.take(1, what)[0]

    def u16(self, what):
        return int.from_bytes(self.take(2, what), "big")


def _parse_dqt(payload, tables):
    while payload.pos < payload.end:
        pq_tq = payload.u8("DQT header")
        pq, tq = pq_tq >> 4, pq_tq & 0x0F
        if pq != 0:
            raise UnsupportedFeatureError("DQT with 16-bit precision (Pq=1)")
        zz = np.frombuffer(payload.take(64, "DQT entries"), dtype=np.uint8)
        if not zz.all():
            zero = int(np.argmin(zz))
            raise CorruptStreamError(
                f"DQT table {tq} has step 0 at zig-zag position {zero}",
                offset=payload.pos - 64 + zero,
            )
        tables[tq] = QuantTable(inverse_zigzag(zz.astype(np.int64)))


def _parse_dht(payload, tables):
    while payload.pos < payload.end:
        tc_th = payload.u8("DHT header")
        tc, th = tc_th >> 4, tc_th & 0x0F
        bits_offset = payload.pos
        bits = payload.take(16, "DHT code counts")
        values = payload.take(sum(bits), "DHT symbols")
        try:
            tables[(tc, th)] = HuffmanTable(bits, values)
        except InvalidInputError as exc:
            raise CorruptStreamError(str(exc), offset=bits_offset) from exc


def _parse_sof0(payload, parsed):
    precision = payload.u8("SOF0 precision")
    if precision != 8:
        raise UnsupportedFeatureError(f"SOF0 with {precision}-bit precision")
    parsed.height = payload.u16("SOF0 height")
    if parsed.height == 0:
        raise UnsupportedFeatureError("SOF0 with deferred height (DNL)")
    parsed.width = payload.u16("SOF0 width")
    if parsed.width == 0:
        raise CorruptStreamError("SOF0 width is 0", offset=payload.pos - 2)
    n = payload.u8("SOF0 component count")
    if n not in (1, 3):
        raise UnsupportedFeatureError(f"{n}-component frames are not supported")
    for _ in range(n):
        ident = payload.u8("SOF0 component id")
        hv = payload.u8("SOF0 sampling factors")
        tq = payload.u8("SOF0 table id")
        if hv != 0x11:
            raise UnsupportedFeatureError(
                f"SOF0 declares a subsampled component "
                f"(sampling {hv >> 4}x{hv & 0x0F}); only 1x1 is supported"
            )
        parsed.components.append(FrameComponent(ident, tq))


def _parse_sos_header(payload, offset, parsed):
    """Read the scan header and check every table the scan needs is defined."""
    n = payload.u8("SOS component count")
    if n != len(parsed.components):
        raise UnsupportedFeatureError(
            "SOS component count differs from SOF0 (multi-scan file)"
        )
    by_ident = {c.ident: c for c in parsed.components}
    for _ in range(n):
        ident = payload.u8("SOS component id")
        tbl = payload.u8("SOS table ids")
        comp = by_ident.get(ident)
        if comp is None:
            raise CorruptStreamError(
                f"SOS references unknown component {ident}", offset=offset
            )
        if comp.dc_id is not None:
            raise CorruptStreamError(f"SOS lists component {ident} twice", offset=offset)
        comp.dc_id, comp.ac_id = tbl >> 4, tbl & 0x0F
    ss, se, a = (payload.u8("SOS spectral selection") for _ in range(3))
    if (ss, se, a) != (0, 63, 0):
        raise UnsupportedFeatureError(
            f"SOS spectral selection {ss}..{se}/{a} (not baseline)"
        )
    for comp in parsed.components:
        if comp.tq not in parsed.qtables:
            raise UnsupportedFeatureError(f"missing DQT marker for table {comp.tq}")
        for table_class, table_id in ((0, comp.dc_id), (1, comp.ac_id)):
            if (table_class, table_id) not in parsed.htables:
                raise UnsupportedFeatureError(
                    f"missing DHT marker for table class {table_class} id {table_id}"
                )


def _find_scan_end(data, start):
    """Scan bytes end at the first marker that is not byte stuffing."""
    marker = SCAN_END.search(data, start)
    if marker is None or marker.end() == len(data):
        raise CorruptStreamError("scan data ends without EOI", offset=len(data))
    j = marker.start()
    follow = data[j + 1]
    if 0xD0 <= follow <= 0xD7:
        raise UnsupportedFeatureError(f"RST{follow - 0xD0} restart marker in scan")
    return j


def _segments(data):
    """Walk the file's markers in order; the walk ends after EOI.

    Yields (marker, offset, payload): ``offset`` is the file position of the
    marker's 0xFF and ``payload`` a :class:`_Payload` over the segment body,
    or None for the standalone SOI, EOI and RSTn.  Right after SOS it yields
    (None, start, payload) for the entropy-coded scan.  Fill bytes (0xFF)
    before a marker are skipped.
    """
    if len(data) < 2 or data[0] != 0xFF or data[1] != SOI:
        raise CorruptStreamError("missing SOI marker", offset=0)
    pos = 0
    while True:
        if pos + 2 > len(data):
            raise CorruptStreamError("file ends without EOI", offset=pos)
        if data[pos] != 0xFF:
            raise CorruptStreamError(
                f"expected marker, found 0x{data[pos]:02X}", offset=pos
            )
        marker = data[pos + 1]
        if marker == 0xFF:  # fill byte
            pos += 1
            continue
        if marker in (SOI, EOI) or 0xD0 <= marker <= 0xD7:
            yield marker, pos, None
            if marker == EOI:
                return
            pos += 2
            continue
        # a length field cut short reads as < 2 or as running past the end
        length = int.from_bytes(data[pos + 2:pos + 4], "big")
        end = pos + 2 + length
        if length < 2 or end > len(data):
            raise CorruptStreamError(
                f"segment 0xFF{marker:02X} has inconsistent length", offset=pos
            )
        yield marker, pos, _Payload(data, pos + 4, end)
        pos = end
        if marker == SOS:
            end = _find_scan_end(data, pos)
            yield None, pos, _Payload(data, pos, end)
            pos = end


def parse_jpeg(data):
    """Parse a baseline JFIF byte stream into tables, geometry, and scan data.

    Anything outside the baseline subset raises UnsupportedFeatureError;
    malformed structure raises CorruptStreamError with a file offset.
    """
    parsed = ParsedJpeg()
    walk = _segments(data)
    next(walk)  # SOI
    for marker, offset, payload in walk:
        if marker is None:  # the scan; only EOI may follow it
            follow, end, _ = next(walk)
            if follow != EOI:
                raise CorruptStreamError(
                    f"unexpected marker 0xFF{follow:02X} after scan", offset=end
                )
            parsed.scan_offset = offset
            parsed.scan_data = data[offset:payload.end]
            return parsed
        if marker == DQT:
            _parse_dqt(payload, parsed.qtables)
        elif marker == DHT:
            _parse_dht(payload, parsed.htables)
        elif marker == SOF0:
            if parsed.components:
                raise UnsupportedFeatureError("duplicate SOF0 marker")
            _parse_sof0(payload, parsed)
        elif marker == SOS:
            if not parsed.components:
                raise UnsupportedFeatureError("missing SOF0 marker before SOS")
            _parse_sos_header(payload, offset, parsed)
        elif marker == EOI:
            raise CorruptStreamError("EOI before any scan data", offset=offset)
        elif marker == SOI:
            raise UnsupportedFeatureError("duplicate SOI marker")
        elif marker in _SOF_NAMES:
            kind = " (progressive)" if marker == 0xC2 else ""
            raise UnsupportedFeatureError(
                f"{_SOF_NAMES[marker]}{kind} frames are not supported"
            )
        elif marker == DRI:
            raise UnsupportedFeatureError("DRI restart intervals are not supported")
        elif 0xD0 <= marker <= 0xD7:
            raise CorruptStreamError(
                f"RST{marker - 0xD0} marker outside a scan", offset=offset
            )
        # APPn / COM / other tableless segments are skipped.


REQUIRED_ORDER = ("SOI", "APP0", "DQT", "SOF0", "DHT", "SOS", "EOI")


def list_markers(data):
    """Walk all marker segments, checking declared lengths stay in bounds.

    Returns [(name, offset)] including the entropy-coded span as 'scan'.
    """
    return [
        (_MARKER_NAMES.get(marker) or f"0xFF{marker:02X}", offset)
        for marker, offset, _ in _segments(data)
    ]


def validate_structure(data):
    """Check the strict marker layout this encoder promises to emit.

    Returns a list of problems; an empty list means the file conforms:
    SOI, APP0(JFIF 1.01), DQT+, SOF0, DHT+, SOS, scan, EOI, in that order,
    with every declared segment length consistent.
    """
    problems = []
    try:
        markers = list_markers(data)
    except (CorruptStreamError, UnsupportedFeatureError) as exc:
        return [str(exc)]

    sequence = [name for name, _ in markers if name != "scan"]
    collapsed = []
    for name in sequence:
        if not collapsed or collapsed[-1] != name:
            collapsed.append(name)
    if tuple(collapsed) != REQUIRED_ORDER:
        problems.append(
            f"marker order {'>'.join(collapsed)} != {'>'.join(REQUIRED_ORDER)}"
        )
    app0 = [off for name, off in markers if name == "APP0"]
    if app0:
        off = app0[0]
        ident = data[off + 4:off + 9]
        version = data[off + 9:off + 11]
        if ident != b"JFIF\x00":
            problems.append("APP0 identifier is not JFIF")
        elif version != b"\x01\x01":
            problems.append(f"JFIF version {version.hex()} != 0101")
    if not data.endswith(b"\xff\xd9"):
        problems.append("file does not end with EOI")
    return problems
