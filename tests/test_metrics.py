import hashlib

import numpy as np
import pytest

import pixel_oracle as oracle
from statjpeg import blocks
from statjpeg.dct import forward_dct
from statjpeg.errors import InvalidInputError
from statjpeg.image import RasterImage
from statjpeg.jpeg import decode_coefficients, decode_image, encode_image
from statjpeg.metrics import (
    band_coefficients,
    coefficient_sparsity,
    compression_rate,
    histogram,
    psnr,
)
from statjpeg.synth import synth_image
from statjpeg.tables import rm_hf_table, same_q_table, standard_table


def gray(arr):
    return RasterImage.from_array(np.asarray(arr, dtype=np.uint8))


class TestCompressionRate:
    def test_basic_ratios(self):
        assert compression_rate(1000, 250) == 4.0
        assert compression_rate(123, 123) == 1.0

    def test_zero_sizes_rejected(self):
        with pytest.raises(InvalidInputError):
            compression_rate(0, 10)
        with pytest.raises(InvalidInputError):
            compression_rate(10, 0)


class TestPsnr:
    def test_identical_images_are_lossless(self, rng):
        img = gray(rng.integers(0, 256, size=(16, 16)))
        report = psnr(img, img)
        assert report.lossless
        assert report.psnr is None

    def test_unit_offset_closed_form(self):
        a = gray(np.full((32, 32), 100))
        b = gray(np.full((32, 32), 101))
        report = psnr(a, b)
        assert abs(report.mse - 1.0) < 1e-12
        assert abs(report.psnr - 10 * np.log10(255**2)) < 1e-9  # ~48.13 dB

    def test_monotone_in_noise_amplitude(self, rng):
        base = rng.integers(64, 192, size=(32, 32))
        img = gray(base)
        values = []
        for amp in (1, 4, 16):
            noisy = gray(np.clip(base + rng.integers(-amp, amp + 1, base.shape), 0, 255))
            values.append(psnr(img, noisy).psnr)
        assert values[0] > values[1] > values[2]

    def test_symmetry(self, rng):
        a = gray(rng.integers(0, 256, size=(16, 16)))
        b = gray(rng.integers(0, 256, size=(16, 16)))
        assert psnr(a, b).mse == psnr(b, a).mse

    def test_geometry_mismatch_rejected(self, rng):
        a = gray(rng.integers(0, 256, size=(16, 16)))
        b = gray(rng.integers(0, 256, size=(16, 17)))
        with pytest.raises(InvalidInputError):
            psnr(a, b)

    def test_luma_mode_on_rgb(self, rng):
        arr = rng.integers(0, 256, size=(16, 16, 3)).astype(np.uint8)
        img = RasterImage.from_array(arr)
        assert psnr(img, img).lossless


class TestSparsity:
    def test_constant_image_all_ac_zero(self):
        img = gray(np.full((16, 16), 77))
        report = coefficient_sparsity(img, same_q_table(1))
        assert report.zero_fraction == 1.0
        assert all(f == 1.0 for f in report.per_band)

    def test_coarser_uniform_quantizer_never_less_sparse(self, rng):
        img = gray(rng.integers(0, 256, size=(40, 40)))
        fractions = [
            coefficient_sparsity(img, same_q_table(q)).zero_fraction
            for q in (1, 4, 16, 64, 255)
        ]
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))

    def test_sparsity_band_indexing(self, rng):
        img = gray(rng.integers(0, 256, size=(24, 24)))
        report = coefficient_sparsity(img, standard_table(50))
        assert len(report.per_band) == 63
        assert report.zero_fraction == pytest.approx(np.mean(report.per_band), abs=1e-12)

    def test_drop_set_counts_what_the_file_stores(self):
        img = synth_image("blobs", np.random.default_rng(3), 64, 64)
        luma = rm_hf_table(standard_table(100, "luma"), 20)
        chroma = rm_hf_table(standard_table(100, "chroma"), 20)
        data = encode_image(img, luma, chroma)
        stored = decode_coefficients(data)[0][0]
        report = coefficient_sparsity(img, luma)
        assert report.zero_fraction == float((stored[:, 1:] == 0).mean())
        assert report.per_band == tuple((stored[:, 1:] == 0).mean(axis=0).tolist())


class TestHistogram:
    def test_all_zero_collapses_to_single_bin(self):
        rows = histogram(np.zeros(100), bin_width=2.0)
        assert rows == [(0.0, 100)]

    def test_symmetric_data_symmetric_histogram(self):
        values = np.concatenate([np.arange(1, 50), -np.arange(1, 50)])
        rows = dict(histogram(values, bin_width=5.0))
        for center, count in rows.items():
            assert rows[-center] == count

    def test_bin_assignment_boundaries(self):
        # half-away rounding: 2.5 with width 5 lands in bin 1, -2.5 in bin -1
        rows = dict(histogram(np.array([2.5, -2.5, 2.4]), bin_width=5.0))
        assert rows == {5.0: 1, -5.0: 1, 0.0: 1}

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            histogram(np.ones(4), bin_width=0)
        with pytest.raises(InvalidInputError):
            histogram(np.array([]), bin_width=1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e300])
    def test_values_without_an_int64_bin_rejected(self, value):
        # each used to come back as one bin centred at -9.22e18
        with pytest.raises(InvalidInputError):
            histogram(np.array([1.0, value]), bin_width=1.0)

    @pytest.mark.parametrize("width", [np.nan, np.inf])
    def test_non_finite_bin_width_rejected(self, width):
        with pytest.raises(InvalidInputError):
            histogram(np.ones(4), bin_width=width)


def test_band_coefficients_extraction(rng):
    img = gray(rng.integers(0, 256, size=(32, 32)))
    dc = band_coefficients(img, 0)
    assert dc.shape == (16,)
    # DC of a block is 8 * (block mean - 128) under the orthonormal scaling
    plane = img.planes[0].astype(float) - 128
    first_block_mean = plane[:8, :8].mean()
    assert abs(dc[0] - 8 * first_block_mean) < 1e-9
    with pytest.raises(InvalidInputError):
        band_coefficients(img, 64)


@pytest.mark.parametrize("band", [True, 3.0, "3"])
def test_band_coefficients_rejects_non_integer_bands(rng, band):
    # True used to select whole blocks, and 3.0 raised a bare IndexError
    img = gray(rng.integers(0, 256, size=(16, 16)))
    with pytest.raises(InvalidInputError):
        band_coefficients(img, band)


def test_band_coefficients_takes_numpy_integers(rng):
    img = gray(rng.integers(0, 256, size=(16, 16)))
    np.testing.assert_array_equal(band_coefficients(img, np.int64(3)), band_coefficients(img, 3))


# Pinned figures on images that span several strips of the pixel path: an
# RGB image 530 wide (three strips of 56, 56 and 27 rows) and a gray image
# one block wide (one strip, or 125 at one block row per strip).  Each
# figure is checked against the block-form reference below and at three
# strip sizes, so neither the path nor the strip height can change a bit.
PIN_IMAGES = {
    "rgb-530x139": synth_image("stripes", np.random.default_rng(7), 139, 530),
    "gray-7x1000": synth_image("gradients", np.random.default_rng(7), 1000, 7, color=False),
}
PIN_TABLES = {
    "qf-50": standard_table(50),
    "same-q-4": same_q_table(4),
    "rm-hf-10": rm_hf_table(standard_table(90), 10),
}
PIN_BANDS = (0, 1, 9, 63)


def decoded_at_qf(img, qf):
    return decode_image(encode_image(img, standard_table(qf), standard_table(qf, "chroma")))


def digest(values):
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


def pinned_figures(img):
    """(mse, psnr, sparsity digest per table, band digest per band)."""
    quality = psnr(img, decoded_at_qf(img, 75))
    sparsity = {}
    for name, table in PIN_TABLES.items():
        report = coefficient_sparsity(img, table)
        sparsity[name] = digest([report.zero_fraction, *report.per_band])
    bands = {band: digest(band_coefficients(img, band)) for band in PIN_BANDS}
    return quality.mse, quality.psnr, sparsity, bands


def reference_figures(img):
    """:func:`pinned_figures` from the block-form reference path."""

    def luma(image):
        if image.channels == 3:
            return oracle.color_convert_forward(image)[0]
        return image.planes[0]

    d = np.subtract(luma(img), luma(decoded_at_qf(img, 75)), dtype=np.float64)
    mse = float(np.mean(d * d))
    coeffs = forward_dct(oracle.partition_blocks(luma(img)))
    sparsity = {}
    for name, table in PIN_TABLES.items():
        quantized = oracle.quantize(coeffs, table).reshape(-1, 64)
        quantized[:, table._drop] = 0
        zeros = quantized[:, 1:] == 0
        sparsity[name] = digest([zeros.mean(), *zeros.mean(axis=0)])
    flat = coeffs.reshape(-1, 64)
    bands = {band: digest(flat[:, band]) for band in PIN_BANDS}
    return mse, float(10.0 * np.log10(255.0**2 / mse)), sparsity, bands


# name -> (mse, psnr at QF 75, SHA-256 of each table's zero fraction and 63
# per-band fractions, SHA-256 of each band's coefficients)
RECORDED_FIGURES = {
    "gray-7x1000": (
        2.0514285714285716,
        45.010239609758855,
        {
            "qf-50": "cc559e29cccf734f3592124ba7832acb66a47e6b53464652738f12db18bcfe34",
            "rm-hf-10": "9ad776d8ed759271a68c02ee01b2cb821ba052005dbd10885352c82f38f4b669",
            "same-q-4": "0410f8439da0d2fcbd683f34ae68c650f62f9817f2ae4ef593f84247c5bb83c9",
        },
        {
            0: "5a47dcc684317d6ee4718fbf97325b2f72567a569493ba464fd3531858b49863",
            1: "53b267319fe922a38984a86a4a12f990df31c9567a85cbdf20dd11acf3fd8343",
            9: "c66a711156dc09adad212f1db994b4f3dffc446ec001ecd7fb772b1091c6084e",
            63: "0cb27a3801c9a8d6a196691e004f46f456e685228201e4ad2b11f6087ac0a959",
        },
    ),
    "rgb-530x139": (
        16.441292249219494,
        35.97144411736294,
        {
            "qf-50": "cc524c95ff06793dab4c55aad9d5d1332e4ffab96be561b35ea374dd21cdfc43",
            "rm-hf-10": "f8bdd61ba392932b3fcffee1683c0f8d6e177f9a45b77867f303da9651a84933",
            "same-q-4": "1b44f4478cb428b21822d19856ae4ac26ef2b5dcd088f7f5cdb016e9016bddd0",
        },
        {
            0: "1dd31335684bdd87aa8936ec6045bb2643051454e6dc179c99af2a03ab8a2e09",
            1: "b2d22c167d11ab26627251c6bec01dbab0a7f365dfda72a006e54199749b0042",
            9: "6c8958b42764c4888c8a13bc6bebffaf3471c57d51c0a06f6b20291e70b5b404",
            63: "affa6a09895a14f9616c6bc9a9fb0d5edecd0b37f9a14be2fc3d171585127756",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PIN_IMAGES))
def test_pinned_figures_equal_the_block_path_reference(name):
    assert reference_figures(PIN_IMAGES[name]) == RECORDED_FIGURES[name]


@pytest.mark.parametrize(
    "strip_samples", [None, 1, 1 << 40], ids=["default", "8-rows", "one-strip"]
)
@pytest.mark.parametrize("name", sorted(PIN_IMAGES))
def test_pinned_figures_hold_at_any_strip_height(monkeypatch, name, strip_samples):
    if strip_samples is not None:
        monkeypatch.setattr(blocks, "_STRIP_SAMPLES", strip_samples)
    assert pinned_figures(PIN_IMAGES[name]) == RECORDED_FIGURES[name]
