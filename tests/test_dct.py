import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from statjpeg.dct import _BASIS, forward_dct, inverse_dct


def direct_dct_oracle(block):
    """Double-loop evaluation of the textbook definition, kept independent
    of the separable matrix implementation."""
    out = np.zeros((8, 8))
    for u in range(8):
        for v in range(8):
            cu = 1 / np.sqrt(2) if u == 0 else 1.0
            cv = 1 / np.sqrt(2) if v == 0 else 1.0
            acc = 0.0
            for x in range(8):
                for y in range(8):
                    acc += (
                        block[x, y]
                        * np.cos((2 * x + 1) * u * np.pi / 16)
                        * np.cos((2 * y + 1) * v * np.pi / 16)
                    )
            out[u, v] = 0.25 * cu * cv * acc
    return out


def test_zero_block_transforms_to_zero():
    assert np.all(forward_dct(np.zeros((8, 8))) == 0)
    assert np.all(inverse_dct(np.zeros((8, 8))) == 0)


def test_constant_block_dc():
    coeffs = forward_dct(np.full((8, 8), 127.0))
    assert abs(coeffs[0, 0] - 1016.0) < 1e-9
    assert np.abs(coeffs.flatten()[1:]).max() < 1e-9
    # and the oracle agrees
    oracle = direct_dct_oracle(np.full((8, 8), 127.0))
    assert abs(oracle[0, 0] - 1016.0) < 1e-9


def test_matches_direct_definition(rng):
    for _ in range(5):
        block = rng.uniform(-128, 127, size=(8, 8))
        np.testing.assert_allclose(
            forward_dct(block), direct_dct_oracle(block), atol=1e-9
        )


def test_round_trip_orthogonality(rng):
    blocks = rng.uniform(-128, 127, size=(200, 8, 8))
    recon = inverse_dct(forward_dct(blocks))
    assert np.abs(recon - blocks).max() <= 1e-9


def test_parseval_energy_preserved(rng):
    for _ in range(50):
        block = rng.uniform(-128, 127, size=(8, 8))
        spatial = float((block**2).sum())
        spectral = float((forward_dct(block) ** 2).sum())
        assert abs(spatial - spectral) <= 1e-6 * spatial


def test_batched_equals_per_block(rng):
    blocks = rng.uniform(-128, 127, size=(10, 8, 8))
    batched = forward_dct(blocks)
    for i in range(10):
        np.testing.assert_allclose(batched[i], forward_dct(blocks[i]), atol=1e-12)


@settings(max_examples=40)
@given(
    shape=st.sampled_from([(8, 8), (1, 8, 8), (7, 8, 8), (100, 8, 8), (4096, 8, 8),
                           (12288, 8, 8), (3, 5, 8, 8)]),
    seed=st.integers(0, 2**32 - 1),
    pixels=st.booleans(),
)
def test_forward_equals_transposed_view_form(shape, seed, pixels):
    # forward_dct multiplies by a contiguous copy of the transposed basis,
    # which picks a faster matmul kernel.  The coefficients must stay
    # bit-equal to the view form, or quantized bytes could change.
    rng = np.random.default_rng(seed)
    if pixels:  # level-shifted samples, as the encoder passes them
        block = rng.integers(0, 256, size=shape).astype(np.float64) - 128
    else:
        block = rng.uniform(-1e3, 1e3, size=shape)
    expected = _BASIS @ block @ _BASIS.T
    np.testing.assert_array_equal(forward_dct(block), expected, strict=True)
