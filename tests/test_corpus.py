import struct
import zlib

import numpy as np
import pytest

from conftest import corrupt_png, png_bytes
from statjpeg.corpus import scan_corpus
from statjpeg.errors import InvalidInputError, StatJpegError, UnsupportedFormatError
from statjpeg.image import RasterImage
from statjpeg.imgfile import load_image, save_ppm
from statjpeg.jpeg import encode_image
from statjpeg.quant import QuantTable


# the six bytes that separate PNM header fields
PNM_WHITESPACE = [bytes([b]) for b in b" \t\n\v\f\r"]


def make_tree(root, spec):
    for class_name, files in spec.items():
        d = root / class_name
        d.mkdir(parents=True)
        for name in files:
            (d / name).write_bytes(b"P5\n1 1\n255\n\x00")


class TestScan:
    def test_two_classes_three_files(self, tmp_path):
        make_tree(tmp_path, {"cats": ["b.ppm", "a.ppm", "c.ppm"],
                             "dogs": ["x.ppm", "y.ppm", "z.ppm"]})
        manifest = scan_corpus(tmp_path)
        assert [name for name, _ in manifest.classes] == ["cats", "dogs"]
        assert [p.name for p in manifest.classes[0][1]] == ["a.ppm", "b.ppm", "c.ppm"]
        assert manifest.image_count == 6

    def test_missing_root(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            scan_corpus(tmp_path / "absent")

    def test_zero_classes(self, tmp_path):
        with pytest.raises(InvalidInputError):
            scan_corpus(tmp_path)

    def test_digest_stable_across_rescans(self, tmp_path):
        make_tree(tmp_path, {"a": ["1.ppm", "2.ppm"]})
        first = scan_corpus(tmp_path)
        second = scan_corpus(tmp_path)
        assert first.digest == second.digest
        assert first.classes == second.classes

    def test_digest_changes_with_content(self, tmp_path):
        make_tree(tmp_path, {"a": ["1.ppm"]})
        before = scan_corpus(tmp_path).digest
        (tmp_path / "a" / "2.ppm").write_bytes(b"P5\n1 1\n255\n\x00")
        assert scan_corpus(tmp_path).digest != before

    def test_unrecognized_extensions_skipped(self, tmp_path):
        make_tree(tmp_path, {"a": ["1.ppm"]})
        (tmp_path / "a" / "notes.txt").write_text("not an image")
        assert scan_corpus(tmp_path).image_count == 1


class TestPnm:
    def test_hand_written_p6_fixture(self, tmp_path):
        # 2x2 RGB with distinct corner colors
        raster = bytes([255, 0, 0, 0, 255, 0, 0, 0, 255, 9, 8, 7])
        path = tmp_path / "tiny.ppm"
        path.write_bytes(b"P6\n# comment\n2 2\n255\n" + raster)
        img = load_image(path)
        assert (img.width, img.height, img.channels) == (2, 2, 3)
        assert tuple(img.to_array()[0, 0]) == (255, 0, 0)
        assert tuple(img.to_array()[1, 1]) == (9, 8, 7)

    def test_p5_round_trip(self, tmp_path, rng):
        img = RasterImage.from_array(rng.integers(0, 256, size=(11, 7)).astype(np.uint8))
        path = tmp_path / "g.pgm"
        save_ppm(img, path)
        assert load_image(path) == img

    def test_p6_round_trip(self, tmp_path, rng):
        img = RasterImage.from_array(
            rng.integers(0, 256, size=(5, 9, 3)).astype(np.uint8)
        )
        path = tmp_path / "c.ppm"
        save_ppm(img, path)
        assert load_image(path) == img

    def test_wide_maxval_rejected(self, tmp_path):
        path = tmp_path / "deep.ppm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(UnsupportedFormatError, match="PNM"):
            load_image(path)

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n4 4\n255\n\x00\x01")
        with pytest.raises(UnsupportedFormatError):
            load_image(path)

    @pytest.mark.parametrize(
        "header",
        [b"P5\nab 1\n255\n", b"P5\n-1 -1\n255\n", b"P5\n1 1\n2x5\n",
         b"P5\n1 " + b"9" * 5000 + b"\n255\n"],
        ids=["letters", "negative", "maxval", "past-int-digit-limit"],
    )
    def test_non_numeric_header_field_rejected(self, tmp_path, header):
        path = tmp_path / "bad.pgm"
        path.write_bytes(header + b"\x00")
        with pytest.raises(UnsupportedFormatError, match="PNM header field"):
            load_image(path)

    @pytest.mark.parametrize(
        "data",
        [b"P5", b"P5\n2 2\n", b"P5 2 2 #255", b"P5 2 2 # 255\r", b"P5\nab 1"],
        ids=["magic-only", "no-maxval", "maxval-in-comment", "comment-without-newline",
             "bad-field-then-end"],
    )
    def test_header_that_ends_early_is_truncated(self, tmp_path, data):
        # the whole header is matched before any field is read, so a cut
        # reports the cut even when an earlier field is bad
        path = tmp_path / "short.pgm"
        path.write_bytes(data)
        with pytest.raises(UnsupportedFormatError, match="^truncated PNM header$"):
            load_image(path)

    @pytest.mark.parametrize(
        "data",
        [b"P6x\n2 1\n255\n" + bytes(6), b"P5x\n2 1\n255\n" + bytes(2),
         b"P56\n1 1\n255\n\x00"],
        ids=["p6-prefix", "p5-prefix", "p5-digit"],
    )
    def test_magic_token_other_than_p5_or_p6_rejected(self, tmp_path, data):
        # "P6x" used to load as RGB, and "P5x" was read as P6 too
        path = tmp_path / "odd.pnm"
        path.write_bytes(data)
        with pytest.raises(UnsupportedFormatError, match=f"PNM magic b'{data[:3].decode()}'"):
            load_image(path)

    @pytest.mark.parametrize(
        "data",
        [b"P5" + b"x" * 10**6 + b" 1 1 255 \x00", b"P5 " + b"x" * 10**6 + b" 1 255 \x00"],
        ids=["magic", "field"],
    )
    def test_error_quotes_at_most_20_bytes_of_a_token(self, tmp_path, data):
        path = tmp_path / "long.pgm"
        path.write_bytes(data)
        with pytest.raises(UnsupportedFormatError, match="PNM") as err:
            load_image(path)
        assert len(str(err.value)) < 100

    # a raster whose first bytes are whitespace and '#' values, so a reader that
    # skips more than the one whitespace byte after maxval shifts the pixels
    @pytest.mark.parametrize(
        "header",
        [b"P5\n2 2\n255\n", b"P5 # after the magic\n2 2 255\n",
         b"P5\n#a\n2\n#b\n2\n# c #\n255\n", b"P5 #x#y\n#\n\n 2\t2\r\n255\r",
         *(ws.join([b"P5", b"2", b"2", b"255", b""]) for ws in PNM_WHITESPACE)],
        ids=["plain", "comment-after-magic", "comment-between-fields", "comment-runs",
             *(f"separator-{ws.hex()}" for ws in PNM_WHITESPACE)],
    )
    def test_well_formed_header_loads(self, tmp_path, header):
        path = tmp_path / "g.pgm"
        path.write_bytes(header + bytes([32, 10, 35, 9]))
        assert load_image(path).to_array().tolist() == [[32, 10], [35, 9]]

    @pytest.mark.parametrize(
        "header, raster",
        [(b"P5 #c\n2 1\n255\n", bytes([10, 32])), (b"P6\n1 1 255\t", bytes([9, 35, 0]))],
        ids=["gray", "rgb"],
    )
    def test_header_cuts_and_byte_swaps_raise_only_toolkit_errors(self, tmp_path, header, raster):
        data = header + raster
        mutants = [data[:n] for n in range(len(data))]
        mutants += [data[:i] + bytes([value]) + data[i + 1:]
                    for i in range(len(header)) for value in b" \n#x9-\v\f"]
        path = tmp_path / "mutant.pnm"
        for mutant in mutants:
            path.write_bytes(mutant)
            try:
                load_image(path)
            except StatJpegError:
                pass


def write_png(path, array, bit_depth=8):
    """Minimal PNG writer (filter 0 rows) used as a loader fixture."""
    array = np.asarray(array)
    h, w = array.shape[:2]
    color_type = 0 if array.ndim == 2 else 2
    ihdr = struct.pack(">IIBBBBB", w, h, bit_depth, color_type, 0, 0, 0)
    if bit_depth == 8:
        body = b"".join(b"\x00" + array[row].tobytes() for row in range(h))
    else:
        wide = (array.astype(np.uint16) * 257).byteswap()
        body = b"".join(b"\x00" + wide[row].tobytes() for row in range(h))
    path.write_bytes(
        png_bytes([(b"IHDR", ihdr), (b"IDAT", zlib.compress(body)), (b"IEND", b"")])
    )


class TestPng:
    def test_grayscale_png(self, tmp_path, rng):
        arr = rng.integers(0, 256, size=(6, 5)).astype(np.uint8)
        path = tmp_path / "g.png"
        write_png(path, arr)
        assert np.array_equal(load_image(path).planes[0], arr)

    def test_rgb_png(self, tmp_path, rng):
        arr = rng.integers(0, 256, size=(4, 7, 3)).astype(np.uint8)
        path = tmp_path / "c.png"
        write_png(path, arr)
        assert np.array_equal(load_image(path).to_array(), arr)

    def test_sixteen_bit_png_rejected(self, tmp_path):
        path = tmp_path / "deep.png"
        write_png(path, np.zeros((2, 2), dtype=np.uint8), bit_depth=16)
        with pytest.raises(UnsupportedFormatError, match="PNG"):
            load_image(path)

    def test_short_ihdr_rejected(self, tmp_path):
        path = tmp_path / "short.png"
        ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 0, 0, 0, 0)[:12]
        path.write_bytes(png_bytes(
            [(b"IHDR", ihdr), (b"IDAT", zlib.compress(b"\x00\x00")), (b"IEND", b"")]
        ))
        with pytest.raises(UnsupportedFormatError, match="IHDR"):
            load_image(path)

    def test_corrupt_image_data_rejected(self, tmp_path):
        path = tmp_path / "corrupt.png"
        path.write_bytes(corrupt_png())
        with pytest.raises(UnsupportedFormatError, match="corrupt PNG"):
            load_image(path)

    def test_pillow_png_with_filters(self, tmp_path, rng):
        PIL = pytest.importorskip("PIL.Image")
        arr = rng.integers(0, 256, size=(32, 32, 3)).astype(np.uint8)
        # smooth gradient content pushes the encoder toward Sub/Up/Paeth rows
        grad = np.clip(arr // 4 + np.arange(32, dtype=np.uint8)[None, :, None] * 4, 0, 255)
        path = tmp_path / "pil.png"
        PIL.fromarray(grad).save(path, format="PNG")
        assert np.array_equal(load_image(path).to_array(), grad)


class TestDispatch:
    def test_jpeg_files_decode_via_codec(self, tmp_path, rng):
        img = RasterImage.from_array(rng.integers(0, 256, size=(16, 16)).astype(np.uint8))
        path = tmp_path / "x.jpg"
        path.write_bytes(encode_image(img, QuantTable(np.ones(64))))
        out = load_image(path)
        assert (out.width, out.height) == (16, 16)

    def test_unknown_magic_rejected(self, tmp_path):
        path = tmp_path / "blob.ppm"
        path.write_bytes(b"GIF89a....")
        with pytest.raises(UnsupportedFormatError):
            load_image(path)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_image(tmp_path / "nope.ppm")
