"""Quantization tables, coefficient quantization, and the zig-zag scan.

The codec's ``*_strip`` functions quantize a strip in zig-zag rows, the
order in which DQT stores the steps; the other functions take
``(..., 8, 8)`` blocks or ``(..., 64)`` vectors.
"""

import functools
import math
import numbers
import operator
from collections.abc import Mapping

import numpy as np

from .errors import InvalidInputError

# Natural (row-major) index stored at each zig-zag position.
ZIGZAG_INDEX = np.array([
    0,  1,  8, 16,  9,  2,  3, 10,
    17, 24, 32, 25, 18, 11,  4,  5,
    12, 19, 26, 33, 40, 48, 41, 34,
    27, 20, 13,  6,  7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36,
    29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46,
    53, 60, 61, 54, 47, 55, 62, 63,
])

# Zig-zag position of each natural index (the inverse permutation).
ZIGZAG_POSITION = np.argsort(ZIGZAG_INDEX)


def _is_integer(value):
    # Integral floats count (np.ones(64) is a table); bools and strings do not.
    return type(value) is int or (  # the common case skips the slower ABC checks
        isinstance(value, numbers.Real) and not isinstance(value, bool)
        and (isinstance(value, numbers.Integral) or float(value).is_integer())
    )


def integers(items, what):
    """Exact-integer rule: a tuple of ints; floats (1.0 too), bools and strings fail."""
    if isinstance(items, (bytes, bytearray)):  # what the JPEG parser passes
        return tuple(items)
    try:
        items = tuple(items)
        if any(isinstance(item, bool) for item in items):
            raise TypeError  # index(True) is 1
        return tuple(map(operator.index, items))
    except TypeError:
        raise InvalidInputError(f"{what} must be integers") from None


def finite_real(value, what):
    """Finite-real rule: ``value`` as a float.  NaN, infinities, ints past
    float64, bools and strings raise InvalidInputError."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int past float64
            pass
    raise InvalidInputError(f"{what} must be finite and real, got {value!r}")


def integer_array(values, low, high, what):
    """Integral-value rule: ``values`` as an int64 array of their shape, each
    in [low, high].  Integral floats pass; fractions, NaN, bools and strings
    raise InvalidInputError.  Integer and float arrays are checked whole."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        arr = values  # NaN fails the trunc comparison
        integral = arr.dtype.kind != "f" or np.array_equal(arr, np.trunc(arr))
    else:
        arr = np.asarray(values, dtype=object)  # keeps bools apart from ints
        integral = all(map(_is_integer, arr.flat))
    if not integral:
        raise InvalidInputError(f"{what} must be integers")
    if arr.size and (arr.min() < low or arr.max() > high):
        raise InvalidInputError(f"{what} must lie in [{low}, {high}]")
    return arr.astype(np.int64)


class QuantTable:
    """64 integer quantization steps in natural order, each in [1, 255].

    ``provenance`` records how the table was produced (free-form dict) so
    persisted tables stay self-describing.  Its ``drop_zigzag`` entry, when
    present, lists the zig-zag positions that :func:`quantize` stores as zero
    (the high-frequency removal baseline).  Tables parsed from a file carry
    no drop set: DQT stores only the steps.
    """

    def __init__(self, values, provenance=None):
        values = integer_array(values, 1, 255, "quantization steps").reshape(-1)
        if values.size != 64:
            raise InvalidInputError(f"quantization table needs 64 entries, got {values.size}")
        values.setflags(write=False)
        self.values = values
        if provenance is not None and not isinstance(provenance, Mapping):
            raise InvalidInputError("table provenance must be a mapping")
        self.provenance = dict(provenance) if provenance else {}
        drop = sorted(set(integers(self.provenance.get("drop_zigzag", ()), "drop_zigzag")))
        if drop and (drop[0] < 0 or drop[-1] > 63):
            raise InvalidInputError("drop positions must be zig-zag indices 0..63")
        # natural-order indices of the dropped bands
        self._drop = ZIGZAG_INDEX[drop]

    def grid(self):
        return self.values.reshape(8, 8)

    def __eq__(self, other):
        if not isinstance(other, QuantTable):
            return NotImplemented
        return np.array_equal(self.values, other.values) and np.array_equal(
            self._drop, other._drop
        )

    def __repr__(self):
        kind = self.provenance.get("kind", "custom")
        return f"QuantTable({kind}, dc={self.values[0]})"


def quantize(coeffs, table):
    """c' = round(c / q), halves away from zero.  Accepts (..., 8, 8) batches."""
    scaled = np.divide(coeffs, table.grid(), dtype=np.float64)
    # round half away from zero is trunc(x + copysign(0.5, x)), and the int32
    # cast is the truncation
    scaled += np.copysign(0.5, scaled)
    quantized = scaled.astype(np.int32)
    quantized.reshape(-1, 64)[:, table._drop] = 0
    return quantized


def dequantize(qblock, table):
    """Approximate coefficients as c' * q."""
    return np.multiply(qblock, table.grid(), dtype=np.float64)


@functools.lru_cache(maxsize=8)
def _strip_gather(block_rows, block_cols):
    """Flat indices between a strip's row layout and its zig-zag rows.

    For an ``(8k, 8m)`` strip of k x m blocks, ``strip.ravel()[scan_index]``
    is the ``(k * m, 64)`` zig-zag scan of its blocks in raster order, and
    ``scan.ravel()[row_index]`` is the strip again.
    """
    u, v = np.divmod(ZIGZAG_INDEX, 8)
    width = 8 * block_cols
    i = np.arange(block_rows)[:, None, None]
    j = np.arange(block_cols)[None, :, None]
    scan_index = ((8 * i + u) * width + 8 * j + v).reshape(-1, 64)
    row_index = np.argsort(scan_index, axis=None).reshape(8 * block_rows, width)
    scan_index.setflags(write=False)
    row_index.setflags(write=False)
    return scan_index, row_index


def quantize_strip(coeffs, table, out):
    """Quantize an ``(8k, 8m)`` strip of coefficients into zig-zag rows.

    Writes the strip's k * m blocks as rows of ``out``'s integer dtype to the
    start of ``out``, equal to ``zigzag(quantize(blocks, table))`` of the
    same blocks.  ``coeffs`` (float64, row layout) is left as it was.
    """
    height, width = coeffs.shape
    scan_index, _ = _strip_gather(height // 8, width // 8)
    scaled = np.take(coeffs, scan_index)  # zig-zag rows, the order DQT stores the steps in
    scaled /= table.values[ZIGZAG_INDEX]
    scaled += np.copysign(0.5, scaled)  # as in quantize
    rows = out[:len(scan_index)]
    rows[...] = scaled  # the cast is the truncation
    if table._drop.size:
        rows[:, ZIGZAG_POSITION[table._drop]] = 0


def dequantize_strip(scan, table, block_rows):
    """Zig-zag rows of a strip ``block_rows`` blocks tall -> dequantized
    float64 coefficients in the strip's row layout."""
    _, row_index = _strip_gather(block_rows, len(scan) // block_rows)
    return np.take(np.multiply(scan, table.values[ZIGZAG_INDEX], dtype=np.float64), row_index)


def zigzag(natural):
    """Reorder (..., 64) natural-order vectors into zig-zag scan order."""
    natural = np.asarray(natural)
    if natural.shape[-1] != 64:
        raise InvalidInputError(f"expected 64 entries, got {natural.shape[-1]}")
    return natural[..., ZIGZAG_INDEX]


def inverse_zigzag(scan):
    """Exact inverse of :func:`zigzag`."""
    scan = np.asarray(scan)
    if scan.shape[-1] != 64:
        raise InvalidInputError(f"expected 64 entries, got {scan.shape[-1]}")
    return scan[..., ZIGZAG_POSITION]
