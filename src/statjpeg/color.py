"""RGB <-> YCbCr conversion, BT.601 full range.

Every arithmetic step is one ufunc pass into float64 buffers allocated once
per call.  Inputs enter as float64 (a copy, or a ufunc's
``dtype=np.float64``), so uint8, integer and float32 planes compute exactly
as after an explicit float64 conversion.
"""

import numpy as np

from .errors import InvalidInputError
from .image import RasterImage


def _round_clamp(plane):
    """Round half away from zero and clamp to [0, 255], in place.

    Returns the float64 ``plane``.  For every input the rounding and the
    clamp together equal clip(floor(x + 0.5), 0, 255): the two roundings
    differ only below zero, where both clamp to 0.
    """
    np.add(plane, 0.5, out=plane)
    np.floor(plane, out=plane)
    return np.clip(plane, 0, 255, out=plane)


def _buffers(n, *arrays):
    """``n`` uninitialized float64 arrays of the inputs' broadcast shape.

    They are views of one allocation: numpy asks the kernel for huge pages
    for blocks of 4 MB and more, so a 512x512 call's first writes fault a
    few times instead of once per 4 KB page.
    """
    block = np.empty((n, *np.broadcast(*arrays).shape))
    return [block[i, ...] for i in range(n)]


def rgb_to_ycbcr(r, g, b):
    """Convert float R, G, B arrays to float Y, Cb, Cr (not yet rounded)."""
    # y  = 0.299 * r + 0.587 * g + 0.114 * b
    # cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
    # cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
    # Each input is converted to float64 once and folded into all three
    # sums, which keeps every sum's left-to-right order.  The scratch is an
    # allocation of its own, so it is freed on return.
    y, cb, cr = _buffers(3, r, g, b)
    x, term = _buffers(2, r, g, b)
    np.copyto(x, r)
    np.multiply(0.299, x, out=y)
    np.multiply(0.168736, x, out=cb)
    np.subtract(128.0, cb, out=cb)
    np.multiply(0.5, x, out=cr)
    np.add(128.0, cr, out=cr)
    np.copyto(x, g)
    np.multiply(0.587, x, out=term)
    np.add(y, term, out=y)
    np.multiply(0.331264, x, out=term)
    np.subtract(cb, term, out=cb)
    np.multiply(0.418688, x, out=term)
    np.subtract(cr, term, out=cr)
    np.copyto(x, b)
    np.multiply(0.114, x, out=term)
    np.add(y, term, out=y)
    np.multiply(0.5, x, out=term)
    np.add(cb, term, out=cb)
    np.multiply(0.081312, x, out=term)
    np.subtract(cr, term, out=cr)
    # [()] gives 0-d inputs scalar results, as plain numpy arithmetic does
    return y[()], cb[()], cr[()]


def luma_samples(r, g, b):
    """Rounded, clamped Y alone as float64: ``ycbcr_samples(r, g, b)[0]``."""
    # rgb_to_ycbcr's Y products and sums, in its order
    y, term = _buffers(2, r, g, b)
    np.multiply(0.299, r, out=y, dtype=np.float64)
    np.multiply(0.587, g, out=term, dtype=np.float64)
    np.add(y, term, out=y)
    np.multiply(0.114, b, out=term, dtype=np.float64)
    np.add(y, term, out=y)
    return _round_clamp(y)


def _ycbcr_to_rgb_in_place(y, cb, cr):
    """R, G, B of float64 Y, Cb, Cr arrays of one shape, partly in place.

    B is written over ``cb`` and ``cr`` is used as scratch, so with R and G
    the conversion holds five planes at its peak.  ``y`` is not changed.
    """
    cb_s = np.subtract(cb, 128.0, out=cb)
    cr_s = np.subtract(cr, 128.0, out=cr)
    r, g = np.empty_like(y), np.empty_like(y)
    # r = y + 1.402 * cr
    np.multiply(1.402, cr_s, out=r)
    np.add(y, r, out=r)
    # g = y - 0.344136 * cb - 0.714136 * cr
    np.multiply(0.344136, cb_s, out=g)
    np.subtract(y, g, out=g)
    np.multiply(0.714136, cr_s, out=cr_s)
    np.subtract(g, cr_s, out=g)
    # b = y + 1.772 * cb
    b = np.multiply(1.772, cb_s, out=cb)
    np.add(y, b, out=b)
    return r, g, b


def _float64_copies(*arrays):
    """Float64 copies of the inputs, broadcast to one shape."""
    copies = _buffers(len(arrays), *arrays)
    for copy, array in zip(copies, arrays):
        np.copyto(copy, array)
    return copies


def ycbcr_to_rgb(y, cb, cr):
    """Convert float Y, Cb, Cr arrays to float R, G, B (not yet rounded)."""
    rgb = _ycbcr_to_rgb_in_place(*_float64_copies(y, cb, cr))
    # [()] gives 0-d inputs scalar results, as plain numpy arithmetic does
    return tuple(plane[()] for plane in rgb)


def ycbcr_samples(r, g, b):
    """Rounded, clamped Y, Cb, Cr as float64: the uint8 samples, exactly."""
    return [_round_clamp(plane) for plane in rgb_to_ycbcr(r, g, b)]


def rgb_samples(y, cb, cr):
    """Rounded, clamped R, G, B as float64: the uint8 samples, exactly.

    ``y``, ``cb`` and ``cr`` are float64 arrays of one shape; ``cb`` and
    ``cr`` are overwritten (see _ycbcr_to_rgb_in_place).
    """
    return [_round_clamp(plane) for plane in _ycbcr_to_rgb_in_place(y, cb, cr)]


def color_convert_forward(img):
    """Split an RGB image into rounded, clamped Y, Cb, Cr uint8 planes."""
    if img.channels != 3:
        raise InvalidInputError(f"expected a 3-channel image, got {img.channels}")
    return tuple(plane.astype(np.uint8) for plane in ycbcr_samples(*img.planes))


def color_convert_inverse(y, cb, cr):
    """Rebuild an RGB :class:`RasterImage` from uint8 Y, Cb, Cr planes."""
    planes = tuple(
        plane.astype(np.uint8) for plane in rgb_samples(*_float64_copies(y, cb, cr))
    )
    h, w = planes[0].shape
    return RasterImage(w, h, planes)
