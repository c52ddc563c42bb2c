import numpy as np
import pytest

from statjpeg.errors import InvalidInputError
from statjpeg.quant import (
    QuantTable,
    ZIGZAG_INDEX,
    dequantize,
    dequantize_strip,
    inverse_zigzag,
    quantize,
    quantize_strip,
    zigzag,
)


def table_of(value):
    return QuantTable(np.full(64, value))


def test_zero_coefficient_stays_zero():
    coeffs = np.zeros((8, 8))
    assert np.all(quantize(coeffs, table_of(16)) == 0)


def test_rounding_half_away_from_zero():
    coeffs = np.zeros((8, 8))
    coeffs[0, 0] = 16.0
    coeffs[0, 1] = -24.0
    out = quantize(coeffs, table_of(16))
    assert out[0, 0] == 1
    assert out[0, 1] == -2  # -1.5 rounds away from zero


def test_unit_table_is_plain_rounding(rng):
    coeffs = rng.uniform(-1000, 1000, size=(8, 8))
    expected = np.sign(coeffs) * np.floor(np.abs(coeffs) + 0.5)
    np.testing.assert_array_equal(quantize(coeffs, table_of(1)), expected)


def test_dequantize_examples():
    q = np.zeros((8, 8), dtype=np.int32)
    assert np.all(dequantize(q, table_of(16)) == 0)
    q[0, 0] = 1
    assert dequantize(q, table_of(16))[0, 0] == 16


def test_quantization_error_bound(rng):
    for q in (1, 3, 16, 255):
        table = table_of(q)
        coeffs = rng.uniform(-1024, 1024, size=(20, 8, 8))
        recon = dequantize(quantize(coeffs, table), table)
        assert np.abs(coeffs - recon).max() <= q / 2 + 1e-9


def test_zigzag_known_positions():
    natural = np.arange(64)
    scanned = zigzag(natural)
    assert scanned[0] == 0      # (0,0)
    assert scanned[1] == 1      # (0,1)
    assert scanned[2] == 8      # (1,0)
    assert sorted(scanned.tolist()) == list(range(64))


def test_zigzag_inverse_identity(rng):
    data = rng.integers(-100, 100, size=(5, 64))
    np.testing.assert_array_equal(inverse_zigzag(zigzag(data)), data)
    np.testing.assert_array_equal(zigzag(inverse_zigzag(data)), data)


def test_zigzag_requires_64_entries():
    with pytest.raises(InvalidInputError):
        zigzag(np.zeros(63))


def test_zigzag_index_table_is_a_permutation():
    assert sorted(ZIGZAG_INDEX.tolist()) == list(range(64))


def test_quant_table_validation():
    with pytest.raises(InvalidInputError):
        QuantTable(np.zeros(64))  # zeros out of range
    with pytest.raises(InvalidInputError):
        QuantTable(np.full(64, 256))
    with pytest.raises(InvalidInputError):
        QuantTable(np.ones(63))
    table = QuantTable(np.ones(64), provenance={"kind": "test"})
    assert table == table_of(1)
    assert table.grid().shape == (8, 8)


@pytest.mark.parametrize(
    "steps",
    [[3.7] * 64, [16] * 63 + [16.5], ["16"] * 64, [True] * 64, [16] * 63 + [True],
     np.full(64, np.nan), np.ones(64, dtype=bool)],
    ids=["fraction", "one-fraction", "string", "bool", "one-bool", "nan", "bool-array"],
)
def test_quant_table_rejects_non_integer_steps(steps):
    with pytest.raises(InvalidInputError, match="steps must be integers"):
        QuantTable(steps)


@pytest.mark.parametrize("huge", [1e300, 10**400])
def test_quant_table_rejects_steps_beyond_int64(huge):
    with pytest.raises(InvalidInputError, match=r"lie in \[1, 255\]"):
        QuantTable([16] * 63 + [huge])


def test_quant_table_accepts_integral_floats():
    assert QuantTable([16.0] * 64) == table_of(16)
    assert QuantTable(np.arange(1.0, 65.0)).values.tolist() == list(range(1, 65))


@pytest.mark.parametrize(
    "drop", [[-1], [64], [3, 64], 5, ["61"], [61.0], [True]],
    ids=["minus-1", "64", "3-and-64", "not-a-list", "string", "float", "bool"],
)
def test_quant_table_rejects_bad_drop_set(drop):
    with pytest.raises(InvalidInputError):
        QuantTable(np.ones(64), provenance={"drop_zigzag": drop})


@pytest.mark.parametrize("provenance", ["x", ["kind"], 5], ids=["string", "list", "int"])
def test_quant_table_rejects_provenance_that_is_not_a_mapping(provenance):
    with pytest.raises(InvalidInputError, match="provenance must be a mapping"):
        QuantTable(np.ones(64), provenance=provenance)


def test_quantize_stores_the_drop_set_as_zero(rng):
    coeffs = rng.uniform(100, 1000, size=(3, 8, 8))
    dropped = QuantTable(np.ones(64), provenance={"drop_zigzag": [0, 5, 63]})
    want = zigzag(quantize(coeffs, table_of(1)).reshape(-1, 64))
    want[:, [0, 5, 63]] = 0
    got = zigzag(quantize(coeffs, dropped).reshape(-1, 64))
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(zigzag(quantize(coeffs[0], dropped).reshape(64)), want[0])


def to_rows(blocks, block_rows):
    """(k * m, 8, 8) raster-order blocks -> the (8k, 8m) strip they tile."""
    m = len(blocks) // block_rows
    return blocks.reshape(block_rows, m, 8, 8).transpose(0, 2, 1, 3).reshape(
        8 * block_rows, 8 * m)


@pytest.mark.parametrize("block_rows, block_cols", [(1, 1), (1, 5), (3, 1), (2, 7)])
def test_strip_quantization_equals_block_quantization(rng, block_rows, block_cols):
    # row layout in, zig-zag rows out, with a drop set and halves to round
    blocks = rng.integers(-600, 600, size=(block_rows * block_cols, 8, 8)) * 0.5
    table = QuantTable(rng.integers(1, 256, size=64), provenance={"drop_zigzag": [3, 62]})
    want = zigzag(quantize(blocks, table).reshape(-1, 64))
    for dtype in (np.int16, np.int32):  # the codec's scans are int16
        out = np.full((len(blocks) + 2, 64), 7, dtype=dtype)
        # quantize_strip overwrites its input, which can be a view of blocks
        quantize_strip(to_rows(blocks.copy(), block_rows), table, out)
        np.testing.assert_array_equal(out[:len(blocks)], want.astype(dtype), strict=True)
        assert (out[len(blocks):] == 7).all()  # rows past the strip stay as they were
    np.testing.assert_array_equal(
        dequantize_strip(want, table, block_rows),
        to_rows(dequantize(inverse_zigzag(want).reshape(-1, 8, 8), table), block_rows),
        strict=True,
    )
