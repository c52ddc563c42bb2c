"""Image file loading (PPM/PGM, 8-bit PNG, baseline JPEG) and PPM saving."""

import re
import zlib
from pathlib import Path

import numpy as np

from .errors import UnsupportedFormatError
from .image import RasterImage

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def load_image(path):
    """Decode a PPM/PGM, 8-bit gray/RGB PNG, or baseline JPEG file."""
    data = Path(path).read_bytes()
    if data[:2] in (b"P5", b"P6"):
        return _load_pnm(data)
    if data[:8] == PNG_SIGNATURE:
        return _load_png(data)
    if data[:2] == b"\xff\xd8":
        from .jpeg import decode_image

        return decode_image(data)
    raise UnsupportedFormatError(
        f"unrecognized image format in {path} (magic {data[:2].hex()})"
    )


def save_ppm(img, path):
    """Write P5 (grayscale) or P6 (RGB) with maxval 255."""
    header = f"P{'5' if img.channels == 1 else '6'}\n{img.width} {img.height}\n255\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(img.to_array().tobytes())


# the magic, width, height and maxval, each after whitespace or '#' comments (to the
# end of the line, so no field starts with '#'), then at most one whitespace byte
_PNM_HEADER = re.compile(rb"(\S+)" + 3 * rb"\s(?:\s|#[^\n]*\n)*([^\s#]\S*)" + rb"\s?")


def _load_pnm(data):
    header = _PNM_HEADER.match(data)
    if header is None:
        raise UnsupportedFormatError("truncated PNM header")
    magic, *fields = header.groups()
    if magic not in (b"P5", b"P6"):
        raise UnsupportedFormatError(f"PNM magic {magic[:20]!r} (only P5 and P6 supported)")
    for field in fields:
        if not field.isdigit():
            raise UnsupportedFormatError(
                f"PNM header field {field[:20]!r} is not a decimal number"
            )
        if len(field.lstrip(b"0")) > 18:  # no file holds 10**18 bytes; int() stops at 4,300 digits
            raise UnsupportedFormatError(f"PNM header field of {len(field)} digits is too large")
    width, height, maxval = map(int, fields)
    if maxval != 255:
        raise UnsupportedFormatError(f"PNM maxval {maxval} (only 8-bit supported)")
    channels = 1 if magic == b"P5" else 3
    expected = width * height * channels
    raster = data[header.end():header.end() + expected]
    if len(raster) != expected:
        raise UnsupportedFormatError(
            f"PNM raster has {len(raster)} bytes, expected {expected}"
        )
    samples = np.frombuffer(raster, dtype=np.uint8).reshape(height, width * channels)
    return RasterImage(width, height, tuple(samples[:, c::channels] for c in range(channels)))


def _unfilter(rows, bpp):
    """Undo the PNG filters (W3C PNG, clause 9) of uint8 ``(height, 1 + stride)``
    rows, filter type byte first, in place; return the ``(height, stride)`` samples."""
    samples = rows[:, 1:]
    prev = np.zeros(samples.shape[1], dtype=np.uint8)
    for ftype, cur in zip(rows[:, 0].tolist(), samples):
        if ftype == 1:  # Sub: a running sum of each channel along the row
            pixels = cur.reshape(-1, bpp)
            np.cumsum(pixels, axis=0, dtype=np.uint8, out=pixels)
        elif ftype == 2:  # Up
            cur += prev
        elif ftype in (3, 4):  # Average, Paeth: each byte needs the one just decoded
            line, up = [0] * bpp + cur.tolist(), [0] * bpp + prev.tolist()
            if ftype == 3:
                for i in range(bpp, len(line)):
                    line[i] = (line[i] + (line[i - bpp] + up[i]) // 2) & 0xFF
            else:
                for i in range(bpp, len(line)):
                    a, b, c = line[i - bpp], up[i], up[i - bpp]
                    pa, pb, pc = abs(b - c), abs(a - c), abs(a + b - 2 * c)
                    pred = a if pa <= pb and pa <= pc else b if pb <= pc else c
                    line[i] = (line[i] + pred) & 0xFF
            cur[:] = line[bpp:]
        elif ftype:
            raise UnsupportedFormatError(f"PNG filter type {ftype}")
        prev = cur
    return samples


def _load_png(data):
    view = memoryview(data)
    pos = 8
    ihdr = None
    idat = []
    while pos + 8 <= len(data):
        length = int.from_bytes(data[pos:pos + 4], "big")
        ctype = data[pos + 4:pos + 8]
        name = ctype.decode("ascii", "backslashreplace")
        end = pos + 8 + length
        if end + 4 > len(data):
            raise UnsupportedFormatError(f"PNG {name} chunk runs past the end of the file")
        chunk = view[pos + 8:end]
        # the critical chunks this loader reads must be intact; others are skipped
        if ctype in (b"IHDR", b"IDAT", b"IEND") and (
            zlib.crc32(view[pos + 4:end]) != int.from_bytes(data[end:end + 4], "big")
        ):
            raise UnsupportedFormatError(f"PNG {name} chunk fails its CRC check")
        pos = end + 4
        if ctype == b"IHDR":
            ihdr = chunk
        elif ctype == b"IDAT":
            idat.append(chunk)
        elif ctype == b"IEND":
            break
    if ihdr is None or not idat:
        raise UnsupportedFormatError("PNG missing IHDR or IDAT chunks")
    if len(ihdr) < 13:
        raise UnsupportedFormatError(f"PNG IHDR has {len(ihdr)} bytes, expected 13")
    width = int.from_bytes(ihdr[0:4], "big")
    height = int.from_bytes(ihdr[4:8], "big")
    bit_depth, color_type, _, _, interlace = ihdr[8:13]
    if bit_depth != 8:
        raise UnsupportedFormatError(f"PNG bit depth {bit_depth} (only 8 supported)")
    if color_type not in (0, 2):
        raise UnsupportedFormatError(
            f"PNG color type {color_type} (only grayscale/RGB supported)"
        )
    if interlace != 0:
        raise UnsupportedFormatError("interlaced PNG is not supported")
    channels = 1 if color_type == 0 else 3
    stride = width * channels
    expected = height * (stride + 1)
    # Inflate the IDAT slices 64 KiB in, at most 1 MiB out, at a time straight
    # into one raster buffer, and never past one byte beyond the declared
    # raster.  Deflate codes at most 258 bytes in two bits (RFC 1951), so no
    # stream inflates past 1032 times its size: a larger declared raster is
    # never filled, and is not allocated.
    raster = np.empty(min(expected, 1032 * sum(map(len, idat))), dtype=np.uint8)
    out = memoryview(raster)
    inflate = zlib.decompressobj()
    filled, step = 0, 1 << 16
    try:
        for feed in (chunk[at:at + step] for chunk in idat for at in range(0, len(chunk), step)):
            while True:
                piece = inflate.decompress(feed, min(expected + 1 - filled, 1 << 20))
                if filled + len(piece) > expected:
                    raise UnsupportedFormatError(f"PNG raster has more than {expected} bytes")
                out[filled:filled + len(piece)] = piece
                filled += len(piece)
                feed = inflate.unconsumed_tail
                if not (feed or piece):  # input used up and nothing held back
                    break
    except zlib.error as exc:
        raise UnsupportedFormatError(f"corrupt PNG image data: {exc}") from exc
    if not inflate.eof:
        raise UnsupportedFormatError("corrupt PNG image data: truncated zlib stream")
    if filled != expected:
        raise UnsupportedFormatError(f"PNG raster has {filled} bytes, expected {expected}")
    samples = _unfilter(raster.reshape(height, stride + 1), channels)
    return RasterImage(width, height, tuple(samples[:, c::channels] for c in range(channels)))
