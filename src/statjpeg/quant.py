"""Quantization tables, coefficient quantization, and the zig-zag scan."""

import operator

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


class QuantTable:
    """64 integer quantization steps in natural order, each in [1, 255].

    ``provenance`` records how the table was produced (free-form dict) so
    persisted tables stay self-describing.  Its ``drop_zigzag`` entry, when
    present, lists the zig-zag positions that :func:`quantize` stores as zero
    (the high-frequency removal baseline).  Tables parsed from a file carry
    no drop set: DQT stores only the steps.
    """

    def __init__(self, values, provenance=None):
        arr = np.asarray(values, dtype=np.int64).reshape(-1)
        if arr.size != 64:
            raise InvalidInputError(f"quantization table needs 64 entries, got {arr.size}")
        if arr.min() < 1 or arr.max() > 255:
            raise InvalidInputError("quantization steps must lie in [1, 255]")
        self.values = arr.copy()
        self.values.setflags(write=False)
        self.provenance = dict(provenance) if provenance else {}
        drop_zigzag = self.provenance.get("drop_zigzag", ())
        try:
            drop = sorted({operator.index(p) for p in drop_zigzag})
        except TypeError:
            raise InvalidInputError("drop_zigzag must list zig-zag positions") from None
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


def round_half_away(x):
    """Round to nearest integer, halves away from zero."""
    x = np.asarray(x)
    # trunc(x + copysign(0.5, x)) adds 0.5 to |x| exactly as
    # sign(x) * floor(|x| + 0.5) does, so the two agree on every input but
    # -0.0, which the sign form maps to +0.0.  Adding 0.0 first does the same
    # and leaves every other value as it is.
    rounded = np.add(x, 0.0, out=np.empty(x.shape), dtype=np.float64)
    rounded += np.copysign(0.5, rounded)
    np.trunc(rounded, out=rounded)
    return rounded[()]


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
