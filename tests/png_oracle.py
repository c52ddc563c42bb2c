"""Reference PNG row filters: one scalar loop over an int64 buffer.

``_paeth`` and ``_unfilter`` are the straightforward unfiltering that
``statjpeg.imgfile._unfilter`` replaced with an in-place uint8 one.  They
are kept here, for tests only, as the oracle that code is compared against:
equal samples for every filter type, or the same error.  :func:`filter_rows`
is their inverse, the encoder side, used to build PNG fixtures whose rows use
every filter type.
"""

import numpy as np

from statjpeg.errors import UnsupportedFormatError


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


def filter_rows(samples, ftypes, bpp):
    """The PNG data stream of ``(height, stride)`` uint8 ``samples``: each row
    filtered with its type from ``ftypes`` and prefixed with that type byte."""
    samples = np.asarray(samples, dtype=np.int64)
    out = bytearray()
    for row, ftype in enumerate(ftypes):
        cur = samples[row]
        prev = samples[row - 1] if row else np.zeros_like(cur)
        out.append(ftype)
        for i in range(len(cur)):
            left = int(cur[i - bpp]) if i >= bpp else 0
            up = int(prev[i])
            up_left = int(prev[i - bpp]) if i >= bpp else 0
            pred = (0, left, up, (left + up) // 2, _paeth(left, up, up_left))[ftype]
            out.append((int(cur[i]) - pred) & 0xFF)
    return bytes(out)
