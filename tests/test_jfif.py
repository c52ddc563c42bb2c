import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statjpeg import jfif
from statjpeg.errors import CorruptStreamError, UnsupportedFeatureError
from statjpeg.image import RasterImage
from statjpeg.jpeg import decode_image, encode_image
from statjpeg.quant import QuantTable


@pytest.fixture
def gray_file(rng):
    img = RasterImage.from_array(rng.integers(0, 256, size=(16, 16)).astype(np.uint8))
    return encode_image(img, QuantTable(np.full(64, 8)))


@pytest.fixture
def color_file(rng):
    img = RasterImage.from_array(
        rng.integers(0, 256, size=(16, 16, 3)).astype(np.uint8)
    )
    return encode_image(img, QuantTable(np.full(64, 8)), QuantTable(np.full(64, 12)))


def segment_span(data, name, occurrence=0):
    """(start, end) byte span of the given marker segment."""
    found = [off for n, off in jfif.list_markers(data) if n == name]
    off = found[occurrence]
    if name in ("SOI", "EOI"):
        return off, off + 2
    length = int.from_bytes(data[off + 2:off + 4], "big")
    return off, off + 2 + length


def test_emitted_structure_is_valid(gray_file, color_file):
    assert jfif.validate_structure(gray_file) == []
    assert jfif.validate_structure(color_file) == []


def test_marker_walk_names(gray_file):
    names = [n for n, _ in jfif.list_markers(gray_file)]
    assert names[0] == "SOI"
    assert names[-1] == "EOI"
    assert "SOF0" in names and "SOS" in names and "scan" in names


def test_dqt_count_reflects_table_modes(gray_file, color_file):
    assert sum(1 for n, _ in jfif.list_markers(gray_file) if n == "DQT") == 1
    assert sum(1 for n, _ in jfif.list_markers(color_file) if n == "DQT") == 2
    parsed = jfif.parse_jpeg(color_file)
    assert set(parsed.qtables) == {0, 1}
    assert parsed.qtables[0].values[0] == 8
    assert parsed.qtables[1].values[0] == 12


def test_progressive_frame_rejected(gray_file):
    start, _ = segment_span(gray_file, "SOF0")
    patched = bytearray(gray_file)
    patched[start + 1] = 0xC2
    with pytest.raises(UnsupportedFeatureError, match="SOF2"):
        jfif.parse_jpeg(bytes(patched))


def test_subsampled_component_rejected(gray_file):
    start, _ = segment_span(gray_file, "SOF0")
    patched = bytearray(gray_file)
    patched[start + 11] = 0x22  # sampling factor byte of component 0
    with pytest.raises(UnsupportedFeatureError, match="subsampled"):
        decode_image(bytes(patched))


def test_restart_interval_rejected(gray_file):
    start, _ = segment_span(gray_file, "SOS")
    dri = bytes([0xFF, 0xDD, 0x00, 0x04, 0x00, 0x08])
    patched = gray_file[:start] + dri + gray_file[start:]
    with pytest.raises(UnsupportedFeatureError, match="DRI"):
        jfif.parse_jpeg(patched)


def test_duplicate_sof0_rejected(gray_file):
    start, end = segment_span(gray_file, "SOF0")
    patched = gray_file[:end] + gray_file[start:end] + gray_file[end:]
    with pytest.raises(UnsupportedFeatureError, match="duplicate SOF0"):
        jfif.parse_jpeg(patched)


def test_missing_sof0_rejected(gray_file):
    start, end = segment_span(gray_file, "SOF0")
    patched = gray_file[:start] + gray_file[end:]
    with pytest.raises(UnsupportedFeatureError, match="missing SOF0"):
        jfif.parse_jpeg(patched)


def test_truncated_file_is_corrupt(gray_file):
    with pytest.raises(CorruptStreamError):
        jfif.parse_jpeg(gray_file[:-2])  # EOI removed
    with pytest.raises(CorruptStreamError):
        jfif.parse_jpeg(gray_file[:20])


def test_sixteen_bit_dqt_rejected(gray_file):
    start, _ = segment_span(gray_file, "DQT")
    patched = bytearray(gray_file)
    patched[start + 4] |= 0x10  # Pq=1
    with pytest.raises(UnsupportedFeatureError, match="16-bit"):
        jfif.parse_jpeg(bytes(patched))


def test_missing_soi_rejected():
    with pytest.raises(CorruptStreamError, match="SOI"):
        jfif.parse_jpeg(b"\x00\x01\x02\x03")


def test_eoi_before_scan_rejected():
    with pytest.raises(CorruptStreamError):
        jfif.parse_jpeg(bytes([0xFF, 0xD8, 0xFF, 0xD9]))


def test_inconsistent_length_detected(gray_file):
    start, _ = segment_span(gray_file, "SOF0")
    patched = bytearray(gray_file)
    patched[start + 2] = 0xFF  # absurd segment length
    problems = jfif.validate_structure(bytes(patched))
    assert problems and "length" in problems[0]


def test_validator_flags_wrong_order(gray_file):
    # move APP0 after DQT: structurally parseable but not our layout
    app0 = segment_span(gray_file, "APP0")
    dqt = segment_span(gray_file, "DQT")
    patched = (
        gray_file[:app0[0]]
        + gray_file[app0[1]:dqt[1]]
        + gray_file[app0[0]:app0[1]]
        + gray_file[dqt[1]:]
    )
    problems = jfif.validate_structure(patched)
    assert problems and "order" in problems[0]


def test_decoder_uses_tables_from_the_file(gray_file):
    # doubling the stored DC step must change decoded pixels: the decoder
    # has no channel back to the encoder's in-memory table
    baseline = decode_image(gray_file)
    start, _ = segment_span(gray_file, "DQT")
    patched = bytearray(gray_file)
    patched[start + 5] = 64  # zig-zag slot 0 (DC step), was 8
    altered = decode_image(bytes(patched))
    assert not np.array_equal(baseline.planes[0], altered.planes[0])


def test_zero_width_rejected_at_width_field(gray_file):
    start, _ = segment_span(gray_file, "SOF0")
    patched = bytearray(gray_file)
    patched[start + 7:start + 9] = b"\x00\x00"
    with pytest.raises(CorruptStreamError, match="width") as exc:
        decode_image(bytes(patched))
    assert exc.value.offset == start + 7


def test_sos_listing_a_component_twice_rejected(color_file):
    start, _ = segment_span(color_file, "SOS")
    patched = bytearray(color_file)
    patched[start + 7] = patched[start + 5]  # second component id := first
    with pytest.raises(CorruptStreamError, match="twice") as exc:
        decode_image(bytes(patched))
    assert exc.value.offset == start


def test_stray_restart_marker_outside_scan_rejected(gray_file):
    start, _ = segment_span(gray_file, "SOF0")
    patched = gray_file[:start] + b"\xff\xd0" + gray_file[start:]
    with pytest.raises(CorruptStreamError, match="RST0") as exc:
        jfif.parse_jpeg(patched)
    assert exc.value.offset == start


def test_fill_bytes_before_a_marker_accepted(gray_file):
    start, _ = segment_span(gray_file, "SOF0")
    patched = gray_file[:start] + b"\xff\xff" + gray_file[start:]
    assert jfif.validate_structure(patched) == []
    assert jfif.parse_jpeg(patched).scan_data == jfif.parse_jpeg(gray_file).scan_data
    assert decode_image(patched) == decode_image(gray_file)


@functools.lru_cache(maxsize=1)
def scan_header():
    """A valid gray file's bytes up to its scan."""
    img = RasterImage.from_array(np.arange(256, dtype=np.uint8).reshape(16, 16))
    data = encode_image(img, QuantTable(np.full(64, 8)))
    return data[:jfif.parse_jpeg(data).scan_offset]


@settings(max_examples=100)
@given(
    raw=st.binary(max_size=64)
    | st.lists(st.sampled_from([0x00, 0xFF, 0xD0, 0xD9]), max_size=64).map(bytes),
    fill=st.integers(0, 2),
)
def test_scan_ends_at_first_ff_that_is_not_stuffing(raw, fill):
    stuffed = raw.replace(b"\xff", b"\xff\x00")
    parsed = jfif.parse_jpeg(scan_header() + stuffed + b"\xff" * fill + b"\xff\xd9")
    assert parsed.scan_data == stuffed


@pytest.mark.parametrize("n", range(8))
def test_restart_marker_inside_scan_unsupported(n):
    body = b"\x12\xff\x00\x34"
    data = scan_header() + body + bytes([0xFF, 0xD0 + n]) + body + b"\xff\xd9"
    with pytest.raises(UnsupportedFeatureError, match=f"RST{n} restart marker in scan"):
        jfif.parse_jpeg(data)


@pytest.mark.parametrize("tail", [b"\xff", b"\xff\x00\xff", b""])
def test_scan_without_eoi_is_corrupt(tail):
    # A lone 0xFF as the last byte starts no marker.
    data = scan_header() + b"\x12\xff\x00\x34" + tail
    with pytest.raises(CorruptStreamError, match="scan data ends without EOI") as exc:
        jfif.parse_jpeg(data)
    assert exc.value.offset == len(data)


def field_mutants(data):
    """Yield copies of ``data`` with one header field changed.

    Every byte of every segment before the scan, DHT symbols included, is
    set to a few values, and each declared length to every value from 0 to
    length + 2.
    """
    markers = jfif.list_markers(data)
    scan = dict(markers)["scan"]
    for name, start in markers:
        if name == "SOI" or start >= scan:
            continue
        length = int.from_bytes(data[start + 2:start + 4], "big")
        end = start + 2 + length
        for i in range(start, end):
            for value in (0x00, 0x01, 0x11, 0x80, 0xFF):
                if data[i] != value:
                    yield data[:i] + bytes([value]) + data[i + 1:]
        for n in range(length + 3):
            if n != length:
                yield data[:start + 2] + n.to_bytes(2, "big") + data[start + 4:]


@pytest.mark.parametrize("file_fixture", ["gray_file", "color_file"])
def test_field_mutations_raise_only_toolkit_errors(request, file_fixture):
    data = request.getfixturevalue(file_fixture)
    for mutant in field_mutants(data):
        assert isinstance(jfif.validate_structure(mutant), list)
        try:
            decode_image(mutant)
        except CorruptStreamError as exc:
            assert 0 <= exc.offset <= len(mutant), exc
        except UnsupportedFeatureError:
            pass


def test_dqt_step_zero_reported_at_the_entry(gray_file):
    start, _ = segment_span(gray_file, "DQT")
    entries = start + 5  # marker, length, Pq/Tq
    for position in (0, 1, 63):
        patched = bytearray(gray_file)
        patched[entries + position] = 0
        with pytest.raises(CorruptStreamError, match="step 0") as exc:
            decode_image(bytes(patched))
        assert exc.value.offset == entries + position


def test_oversubscribed_dht_reported_at_its_code_counts(gray_file):
    # the gray file has one DHT segment for its DC table, one for its AC table
    for occurrence in (0, 1):
        start, _ = segment_span(gray_file, "DHT", occurrence)
        bits_at = start + 5  # marker, length, Tc/Th
        # move three codes to length 1, keeping the symbol count: Kraft sum > 1
        patched = bytearray(gray_file)
        longest = max(i for i in range(16) if patched[bits_at + i] >= 3)
        patched[bits_at + longest] -= 3
        patched[bits_at] += 3
        with pytest.raises(CorruptStreamError, match="over-subscribe") as exc:
            decode_image(bytes(patched))
        assert exc.value.offset == bits_at


@pytest.mark.parametrize("name", ["APP0", "DQT", "SOF0", "DHT", "SOS"])
def test_short_segment_length_reported_inside_the_segment(gray_file, color_file, name):
    for data in (gray_file, color_file):
        start, end = segment_span(data, name)
        for n in range(end - start - 2):
            patched = data[:start + 2] + n.to_bytes(2, "big") + data[start + 4:]
            with pytest.raises(CorruptStreamError) as exc:
                jfif.parse_jpeg(patched)
            assert start <= exc.value.offset <= start + 2 + n, (n, exc.value)
