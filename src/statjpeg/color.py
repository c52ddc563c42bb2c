"""RGB <-> YCbCr conversion, BT.601 full range, on uint8 samples.

The forward kernels take uint8 R, G, B planes and the inverse kernel the
integer-valued Y and level-shifted Cb, Cr of a decoder.  Each sample is
rounded once, half away from zero, and clamped only where its value can
leave [0, 255].
"""

import numpy as np

from .errors import InvalidInputError
from .image import RasterImage


def luma_samples(r, g, b):
    """Rounded Y of uint8 R, G, B planes as float64: ``ycbcr_samples``' Y."""
    # ycbcr_samples' Y products and sums, in its order
    y = np.multiply(0.299, r, dtype=np.float64)
    term = np.multiply(0.587, g, dtype=np.float64)
    y += term
    np.multiply(0.114, b, out=term, dtype=np.float64)
    y += term
    # Y lies in [0, 255] for every input, so it needs no clamp
    y += 0.5
    return np.floor(y, out=y)


def ycbcr_samples(r, g, b):
    """Rounded, clamped Y, Cb, Cr of uint8 R, G, B planes as float64."""
    # y  = 0.299 * r + 0.587 * g + 0.114 * b
    # cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
    # cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
    # Each input is converted to float64 once and folded into all three
    # sums, which keeps every sum's left-to-right order.
    x = r.astype(np.float64)
    y = np.multiply(0.299, x)
    cb = np.multiply(0.168736, x)
    np.subtract(128.0, cb, out=cb)
    cr = np.multiply(0.5, x)
    cr += 128.0
    term = np.empty_like(x)
    np.copyto(x, g)
    y += np.multiply(0.587, x, out=term)
    cb -= np.multiply(0.331264, x, out=term)
    cr -= np.multiply(0.418688, x, out=term)
    np.copyto(x, b)
    y += np.multiply(0.114, x, out=term)
    cb += np.multiply(0.5, x, out=term)
    cr -= np.multiply(0.081312, x, out=term)
    # over every input Y lies in [0, 255] and Cb and Cr in [0.5, 255.5], so
    # only a rounded Cb or Cr can leave [0, 255], as 256
    for plane in (y, cb, cr):
        plane += 0.5
        np.floor(plane, out=plane)
    np.minimum(cb, 255.0, out=cb)
    np.minimum(cr, 255.0, out=cr)
    return [y, cb, cr]


def rgb_samples(y, cb, cr):
    """R, G, B + 0.5 clipped to [0, 255], as float64.

    ``y`` holds Y, and the float64 ``cb`` and ``cr`` hold Cb and Cr less
    128; all three have integer values and one shape.  Storing a result in
    a uint8 array truncates it, which rounds R, G or B half away from zero
    and clamps it.  B is written over ``cb`` and ``cr`` is used as scratch,
    so with R and G the conversion holds five planes at its peak.
    """
    # r = y + 1.402 * cr
    r = np.multiply(1.402, cr)
    r += y
    # g = y - 0.344136 * cb - 0.714136 * cr
    g = np.multiply(0.344136, cb)
    np.subtract(y, g, out=g)
    g -= np.multiply(0.714136, cr, out=cr)
    # b = y + 1.772 * cb
    b = np.multiply(1.772, cb, out=cb)
    b += y
    for plane in (r, g, b):
        plane += 0.5
        np.clip(plane, 0.0, 255.0, out=plane)
    return [r, g, b]


def color_convert_forward(img):
    """Split an RGB image into rounded, clamped Y, Cb, Cr uint8 planes."""
    if img.channels != 3:
        raise InvalidInputError(f"expected a 3-channel image, got {img.channels}")
    return tuple(plane.astype(np.uint8) for plane in ycbcr_samples(*img.planes))


def color_convert_inverse(y, cb, cr):
    """Rebuild an RGB :class:`RasterImage` from uint8 Y, Cb, Cr planes."""
    cb, cr = (np.subtract(plane, 128.0, dtype=np.float64) for plane in (cb, cr))
    planes = tuple(plane.astype(np.uint8) for plane in rgb_samples(y, cb, cr))
    h, w = planes[0].shape
    return RasterImage(w, h, planes)
