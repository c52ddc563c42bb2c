import numpy as np
import pytest

from statjpeg.errors import InvalidInputError
from statjpeg.quant import (
    QuantTable,
    ZIGZAG_INDEX,
    dequantize,
    inverse_zigzag,
    quantize,
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
    "drop", [[-1], [64], [3, 64], 5, ["61"], [61.0]],
    ids=["minus-1", "64", "3-and-64", "not-a-list", "string", "float"],
)
def test_quant_table_rejects_bad_drop_set(drop):
    with pytest.raises(InvalidInputError):
        QuantTable(np.ones(64), provenance={"drop_zigzag": drop})


def test_quantize_stores_the_drop_set_as_zero(rng):
    coeffs = rng.uniform(100, 1000, size=(3, 8, 8))
    dropped = QuantTable(np.ones(64), provenance={"drop_zigzag": [0, 5, 63]})
    want = zigzag(quantize(coeffs, table_of(1)).reshape(-1, 64))
    want[:, [0, 5, 63]] = 0
    got = zigzag(quantize(coeffs, dropped).reshape(-1, 64))
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(zigzag(quantize(coeffs[0], dropped).reshape(64)), want[0])
