"""Image file loading (PPM/PGM, 8-bit PNG, baseline JPEG) and PPM saving."""

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


def _pnm_tokens(data):
    """Yield whitespace-separated header tokens, skipping # comments."""
    pos = 0
    while True:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            end = data.find(b"\n", pos)
            pos = len(data) if end < 0 else end + 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise UnsupportedFormatError("truncated PNM header")
        yield data[start:pos], pos


def _pnm_number(token):
    if not token.isdigit():
        raise UnsupportedFormatError(f"PNM header field {token!r} is not a decimal number")
    return int(token)


def _load_pnm(data):
    tokens = _pnm_tokens(data)
    magic, _ = next(tokens)
    width = _pnm_number(next(tokens)[0])
    height = _pnm_number(next(tokens)[0])
    maxval_token, end = next(tokens)
    maxval = _pnm_number(maxval_token)
    if maxval != 255:
        raise UnsupportedFormatError(f"PNM maxval {maxval} (only 8-bit supported)")
    channels = 1 if magic == b"P5" else 3
    expected = width * height * channels
    raster = data[end + 1:end + 1 + expected]
    if len(raster) != expected:
        raise UnsupportedFormatError(
            f"PNM raster has {len(raster)} bytes, expected {expected}"
        )
    arr = np.frombuffer(raster, dtype=np.uint8)
    if channels == 1:
        return RasterImage.from_array(arr.reshape(height, width))
    return RasterImage.from_array(arr.reshape(height, width, 3))


def _paeth(a, b, c):
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    return b if pb <= pc else c


def _unfilter(raw, height, stride, bpp):
    out = np.zeros((height, stride), dtype=np.int64)
    pos = 0
    for row in range(height):
        ftype = raw[pos]
        line = np.frombuffer(raw, dtype=np.uint8, count=stride, offset=pos + 1).astype(
            np.int64
        )
        pos += 1 + stride
        prev = out[row - 1] if row else np.zeros(stride, dtype=np.int64)
        if ftype == 0:
            out[row] = line
        elif ftype == 2:  # Up
            out[row] = (line + prev) & 0xFF
        elif ftype in (1, 3, 4):  # Sub / Average / Paeth need a left scan
            cur = out[row]
            for i in range(stride):
                left = cur[i - bpp] if i >= bpp else 0
                up = prev[i]
                up_left = prev[i - bpp] if i >= bpp else 0
                if ftype == 1:
                    pred = left
                elif ftype == 3:
                    pred = (left + up) // 2
                else:
                    pred = _paeth(left, up, up_left)
                cur[i] = (line[i] + pred) & 0xFF
        else:
            raise UnsupportedFormatError(f"PNG filter type {ftype}")
    return out.astype(np.uint8)


def _load_png(data):
    pos = 8
    ihdr = None
    idat = []
    while pos + 8 <= len(data):
        length = int.from_bytes(data[pos:pos + 4], "big")
        ctype = data[pos + 4:pos + 8]
        chunk = data[pos + 8:pos + 8 + length]
        pos += 12 + length
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
    try:
        raw = zlib.decompress(b"".join(idat))
    except zlib.error as exc:
        raise UnsupportedFormatError(f"corrupt PNG image data: {exc}") from exc
    stride = width * channels
    if len(raw) != height * (stride + 1):
        raise UnsupportedFormatError(
            f"PNG raster has {len(raw)} bytes, expected {height * (stride + 1)}"
        )
    plane = _unfilter(raw, height, stride, channels)
    if channels == 1:
        return RasterImage.from_array(plane)
    return RasterImage.from_array(plane.reshape(height, width, 3))
