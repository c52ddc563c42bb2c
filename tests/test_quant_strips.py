"""The strip quantizer against the reference block formulas.

``quantize_strip`` and ``dequantize_strip`` work on zig-zag rows gathered
from a strip's row layout; ``pixel_oracle`` quantizes natural-order 8x8
blocks.  The two must agree through ``ZIGZAG_INDEX``, drop set included.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import pixel_oracle as oracle
from test_quant import to_rows
from statjpeg.quant import (
    ZIGZAG_INDEX,
    ZIGZAG_POSITION,
    QuantTable,
    dequantize_strip,
    quantize_strip,
)


def quotients(rng, shape):
    """c / q values: a quarter ties, a quarter signed zeros and halves, a
    quarter just off a tie, the rest uniform, all within the int16 range."""
    values = rng.uniform(-300, 300, shape)
    kind = rng.integers(4, size=shape)
    values[kind == 0] = np.floor(values[kind == 0]) + 0.5
    values[kind == 1] = rng.choice([0.0, -0.0, 0.5, -0.5], size=int((kind == 1).sum()))
    values[kind == 2] = np.nextafter(np.floor(values[kind == 2]) + 0.5, 0.0)
    return values


@given(
    block_rows=st.integers(1, 3),
    block_cols=st.integers(1, 65),
    drop=st.sets(st.integers(0, 63)),
    seed=st.integers(0, 2**32 - 1),
)
def test_strips_match_the_block_oracle_through_the_zigzag_index(
    block_rows, block_cols, drop, seed
):
    rng = np.random.default_rng(seed)
    table = QuantTable(rng.integers(1, 256, size=64), provenance={"drop_zigzag": sorted(drop)})
    # the products are exact for ties, so c / q lands on them again
    blocks = quotients(rng, (block_rows * block_cols, 8, 8)) * table.grid()
    strip = to_rows(blocks, block_rows)
    before = strip.copy()

    scan = np.full((len(blocks) + 1, 64), 7, dtype=np.int16)
    quantize_strip(strip, table, scan)
    want = oracle.quantize(blocks, table).reshape(-1, 64)[:, ZIGZAG_INDEX]
    want[:, sorted(drop)] = 0
    np.testing.assert_array_equal(scan[:-1], want.astype(np.int16), strict=True)
    assert (scan[-1] == 7).all()  # the row past the strip stays as it was
    np.testing.assert_array_equal(strip, before, strict=True)  # the input too

    got = dequantize_strip(scan[:-1], table, block_rows)
    natural = want[:, ZIGZAG_POSITION].reshape(-1, 8, 8)
    expected = to_rows(oracle.dequantize(natural, table), block_rows)
    np.testing.assert_array_equal(got, expected, strict=True)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))
